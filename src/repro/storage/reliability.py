"""Retry/backoff on transient storage faults and the degraded-mode latch.

The availability layer of the durability story (``docs/durability.md``
covers *correctness* under crashes; this module covers *service* under
recoverable faults):

* :class:`RetryPolicy` — bounded exponential backoff for the WAL append
  path.  Transient faults (an EIO from fsync, a short write) are retried
  up to ``attempts`` times with multiplicative backoff; every retry is
  metered in ``repro_storage_retries_total{op}``.
* :func:`append_record` — the one append seam both WALs go through.  It
  makes a retried append *exactly-once*: the pre-append file size is
  captured first and any partial bytes a failed attempt left behind are
  truncated away before the next attempt, so a short write can never
  leave half a record in front of a whole one.
* :class:`DegradedLatch` — when the retry budget is exhausted the store
  flips into explicit read-only **degraded mode** instead of corrupting
  or crashing: the ``repro_degraded_mode`` gauge goes to 1, every
  subsequent write is rejected with a typed
  :class:`~repro.core.errors.DegradedModeError` (HTTP 503 / ``/readyz``
  not-ready at the service layer), and reads keep serving the last
  consistent state.  ``repro recover`` (or
  :meth:`repro.concurrent.ConcurrentObjectbase.recover`) heals the log
  and clears the latch.

:class:`~repro.storage.faults.CrashPoint` is deliberately *not* in the
retryable family: a simulated power failure kills the process mid-append
exactly like a real one, and recovery — not retry — is the answer.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, TypeVar

from ..core.errors import CorruptRecordError, DegradedModeError, JournalError
from ..obs.metrics import REGISTRY
from .faults import StorageFS
from .framing import timed_fsync

__all__ = [
    "RetryPolicy",
    "DegradedLatch",
    "with_retries",
    "append_record",
    "RETRYABLE",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: The transient-fault family the retry loop absorbs.  ``OSError`` is the
#: raw kernel-level failure (EIO, ENOSPC blips); ``JournalError`` is what
#: :func:`~repro.storage.framing.timed_fsync` wraps one into.  A
#: :class:`~repro.core.errors.CorruptRecordError` is *structural* damage,
#: never transient, and is excluded below.
RETRYABLE = (JournalError, OSError)

_RETRIES = REGISTRY.counter(
    "repro_storage_retries_total",
    "Transient storage faults absorbed by retry/backoff",
    labelnames=("op",),
)
_RETRY_EXHAUSTED = REGISTRY.counter(
    "repro_storage_retry_exhausted_total",
    "Storage operations that failed every retry attempt",
    labelnames=("op",),
)
_DEGRADED_MODE = REGISTRY.gauge(
    "repro_degraded_mode",
    "1 while the store is latched read-only after unrecoverable "
    "storage failure, else 0",
)
_DEGRADED_TRIPS = REGISTRY.counter(
    "repro_degraded_trips_total",
    "Times the store latched into read-only degraded mode",
)
_DEGRADED_WRITES_REJECTED = REGISTRY.counter(
    "repro_degraded_writes_rejected_total",
    "Writes rejected because the store was in degraded mode",
)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient storage faults.

    ``attempts`` counts total tries (1 = no retries).  Waits grow from
    ``base_delay`` by ``multiplier`` per retry, capped at ``max_delay``.
    ``jitter`` (0..1) randomizes each wait *downward* by up to that
    fraction, de-synchronizing concurrent writers that hit the same
    fault at the same moment (replication reconnect storms, lock-convoy
    retries) — the cap is never exceeded.  ``sleep`` and ``rng`` are
    injectable so tests pay no wall-clock cost and stay deterministic.
    """

    attempts: int = 3
    base_delay: float = 0.005
    max_delay: float = 0.25
    multiplier: float = 4.0
    jitter: float = 0.0
    sleep: Callable[[float], None] = field(
        default=time.sleep, repr=False, compare=False
    )
    rng: Callable[[], float] = field(
        default=random.random, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delays(self):
        """The backoff waits between attempts, in order (jitter applied)."""
        delay = self.base_delay
        for _ in range(self.attempts - 1):
            wait = min(delay, self.max_delay)
            if self.jitter:
                wait *= 1.0 - self.jitter * self.rng()
            yield wait
            delay *= self.multiplier

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A policy that never retries (single attempt)."""
        return cls(attempts=1)


def with_retries(policy: RetryPolicy, op: str, fn: Callable[[], T]) -> T:
    """Run ``fn``, retrying transient faults per ``policy``.

    Retries only the :data:`RETRYABLE` family, never structural
    corruption (:class:`CorruptRecordError`) and never a simulated or
    real crash.  Each absorbed fault increments
    ``repro_storage_retries_total{op}``; exhaustion increments the
    ``..._exhausted_total`` counter and re-raises the final fault.
    """
    waits = list(policy.delays())
    for attempt in range(policy.attempts):
        try:
            return fn()
        except CorruptRecordError:
            raise
        except RETRYABLE as exc:
            if attempt >= len(waits):
                _RETRY_EXHAUSTED.labels(op=op).inc()
                logger.error(
                    "%s: retries exhausted after %d attempt(s): %s",
                    op, policy.attempts, exc,
                )
                raise
            _RETRIES.labels(op=op).inc()
            logger.warning(
                "%s: transient storage fault (attempt %d/%d), retrying "
                "in %.3fs: %s",
                op, attempt + 1, policy.attempts, waits[attempt], exc,
            )
            policy.sleep(waits[attempt])
    raise AssertionError("unreachable")  # pragma: no cover


class DegradedLatch:
    """The read-only latch one store trips on unrecoverable write failure.

    Not thread-synchronized by itself: trips happen on the (single)
    writer path, and readers only ever observe the boolean — a stale read
    at worst delays one rejection by a request.
    """

    def __init__(self, store: str = "") -> None:
        self.store = store
        self._reason: str | None = None

    @property
    def degraded(self) -> bool:
        return self._reason is not None

    @property
    def reason(self) -> str | None:
        return self._reason

    def trip(self, reason: str) -> None:
        if self._reason is None:
            _DEGRADED_TRIPS.inc()
            logger.error(
                "%s: entering read-only degraded mode: %s",
                self.store or "store", reason,
            )
        self._reason = reason
        _DEGRADED_MODE.set(1)

    def clear(self) -> None:
        if self._reason is not None:
            logger.info(
                "%s: leaving degraded mode (was: %s)",
                self.store or "store", self._reason,
            )
        self._reason = None
        _DEGRADED_MODE.set(0)

    def check_writable(self) -> None:
        """Raise :class:`DegradedModeError` when the latch is tripped."""
        if self._reason is not None:
            _DEGRADED_WRITES_REJECTED.inc()
            raise DegradedModeError(self._reason)


def append_record(
    fs: StorageFS,
    path: Path,
    data: bytes,
    *,
    retry: RetryPolicy,
    latch: DegradedLatch,
    op: str = "wal-append",
) -> None:
    """Durably append ``data`` to ``path``: retried, rolled-back, latched.

    The append and its fsync are retried as one unit under ``retry``.
    Before every attempt the file is truncated back to its pre-append
    size, discarding any partial bytes the previous attempt persisted —
    a retried short write therefore lands the record exactly once.
    Exhausted retries trip ``latch`` and raise :class:`DegradedModeError`
    chained to the final storage fault.
    """
    latch.check_writable()
    size_before = fs.size(path) if fs.exists(path) else 0

    def attempt() -> None:
        if fs.exists(path) and fs.size(path) != size_before:
            fs.truncate(path, size_before)
        fs.append_bytes(path, data)
        timed_fsync(fs, path)

    try:
        with_retries(retry, op, attempt)
    except CorruptRecordError:
        raise
    except RETRYABLE as exc:
        # Best effort: leave the log at exactly the acknowledged prefix.
        # If even the truncate fails, the residue is an unterminated tail
        # the framed-log recovery already classifies and heals as torn.
        try:
            if fs.exists(path) and fs.size(path) != size_before:
                fs.truncate(path, size_before)
        except OSError:  # pragma: no cover - depends on fault timing
            logger.warning(
                "%s: could not roll back partial append; recovery will "
                "treat it as a torn tail", path,
            )
        latch.trip(f"{op} failed after {retry.attempts} attempt(s): {exc}")
        raise DegradedModeError(latch.reason or str(exc)) from exc
