"""Retry/backoff and read-only degraded mode, end to end.

Transient storage faults (injected through :class:`FaultyFS`) must be
absorbed by the retry policy and metered; exhausting the budget must
latch the store read-only with the typed ``degraded-mode`` error while
reads keep serving, and :meth:`ConcurrentObjectbase.recover` must
restore service from exactly the acknowledged on-disk prefix.
"""

from __future__ import annotations

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.errors import DegradedModeError
from repro.core.operations import AddType
from repro.obs import REGISTRY
from repro.storage.faults import FaultyFS
from repro.storage.reliability import RetryPolicy, with_retries


#: A fast policy for tests: retries without wall-clock sleeps.
FAST = RetryPolicy(attempts=3, sleep=lambda _: None)


def gauge_value(name: str) -> float:
    for family in REGISTRY:
        if family.name == name:
            for sample in family.samples():
                return sample.value
    raise AssertionError(f"no such gauge: {name}")


class TestRetryPolicy:
    def test_delays_grow_and_cap(self):
        policy = RetryPolicy(
            attempts=5, base_delay=0.01, max_delay=0.05, multiplier=4.0,
            sleep=lambda _: None,
        )
        assert list(policy.delays()) == [0.01, 0.04, 0.05, 0.05]

    def test_none_never_retries(self):
        calls = []

        def fail():
            calls.append(1)
            raise OSError(5, "eio")

        with pytest.raises(OSError):
            with_retries(RetryPolicy.none(), "op", fail)
        assert len(calls) == 1

    def test_retries_then_succeeds(self):
        attempts = []

        def flaky():
            attempts.append(1)
            if len(attempts) < 3:
                raise OSError(5, "eio")
            return "ok"

        assert with_retries(FAST, "op", flaky) == "ok"
        assert len(attempts) == 3

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


class TestJitter:
    """Jitter randomizes waits *downward* only: retries desynchronize
    (no thundering herd against a recovering disk or primary) without
    ever waiting longer than the deterministic schedule promises."""

    BASE = dict(
        attempts=4, base_delay=0.1, max_delay=1.0, multiplier=2.0,
        sleep=lambda _: None,
    )

    def test_full_jitter_halves_every_wait(self):
        policy = RetryPolicy(jitter=0.5, rng=lambda: 1.0, **self.BASE)
        assert list(policy.delays()) == [0.05, 0.1, 0.2]

    def test_zero_rng_is_the_deterministic_schedule(self):
        policy = RetryPolicy(jitter=0.5, rng=lambda: 0.0, **self.BASE)
        assert list(policy.delays()) == [0.1, 0.2, 0.4]

    def test_no_jitter_is_the_default(self):
        policy = RetryPolicy(**self.BASE)
        assert list(policy.delays()) == [0.1, 0.2, 0.4]

    def test_jittered_waits_never_exceed_the_schedule(self):
        import random

        policy = RetryPolicy(
            jitter=1.0, rng=random.Random(7).random, **self.BASE
        )
        ceiling = [0.1, 0.2, 0.4]
        for _ in range(20):
            for wait, cap in zip(policy.delays(), ceiling):
                assert 0.0 <= wait <= cap


class TestTransientFaults:
    def test_transient_short_writes_absorbed_and_metered(self, tmp_path):
        REGISTRY.reset()
        fs = FaultyFS(transient_append_failures=2)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs, retry=FAST,
        )
        store.apply(AddType("T_person"))
        assert not store.degraded
        # Both absorbed faults were metered.
        retries = REGISTRY.counter_samples().get(
            'repro_storage_retries_total{op="wal-append"}', 0
        )
        assert retries == 2
        # The retried record landed exactly once: a clean reopen replays
        # one AT, not a half record in front of a whole one.
        reopened = ConcurrentObjectbase.open(tmp_path / "wal")
        assert "T_person" in reopened.types()

    def test_transient_fsync_failures_absorbed(self, tmp_path):
        fs = FaultyFS(transient_fsync_failures=2)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs, retry=FAST,
        )
        store.apply(AddType("T_person"))
        assert not store.degraded
        assert "T_person" in ConcurrentObjectbase.open(tmp_path / "wal").types()


class TestDegradedMode:
    def test_permanent_fsync_failure_latches(self, tmp_path):
        """An fsync that fails on every attempt exhausts the budget."""
        fs = FaultyFS(fail_fsync=True)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs, retry=FAST,
        )
        with pytest.raises(DegradedModeError):
            store.apply(AddType("T_person"))
        assert store.degraded
        # Rollback: the unacknowledged record must not replay.
        assert "T_person" not in ConcurrentObjectbase.open(
            tmp_path / "wal"
        ).types()

    def test_degraded_lifecycle(self, tmp_path):
        REGISTRY.reset()
        # One transient fault against a single-attempt policy: the very
        # first write exhausts its budget and latches the store.
        fs = FaultyFS(transient_append_failures=1)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy.none(),
        )
        with pytest.raises(DegradedModeError) as excinfo:
            store.apply(AddType("T_person"))
        assert excinfo.value.code == "degraded-mode"
        assert store.degraded
        assert gauge_value("repro_degraded_mode") == 1

        # Reads keep serving the last consistent state.
        assert "T_object" in store.types()

        # Further writes are rejected without touching storage.
        with pytest.raises(DegradedModeError):
            store.apply(AddType("T_student"))
        rejected = REGISTRY.counter_samples().get(
            "repro_degraded_writes_rejected_total", 0
        )
        assert rejected >= 1

        # The rolled-back append left no phantom: the WAL is exactly the
        # acknowledged (empty) prefix.
        assert ConcurrentObjectbase.open(tmp_path / "wal").types() == \
            store.types()

        # recover() reopens from disk and clears the latch.
        store.recover()
        assert not store.degraded
        assert gauge_value("repro_degraded_mode") == 0
        store.apply(AddType("T_person"))  # the fault was transient: healed
        assert "T_person" in store.types()

    def test_exhaustion_metered(self, tmp_path):
        REGISTRY.reset()
        fs = FaultyFS(transient_append_failures=5)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs, retry=FAST,
        )
        with pytest.raises(DegradedModeError):
            store.apply(AddType("T_person"))
        samples = REGISTRY.counter_samples()
        assert samples.get(
            'repro_storage_retry_exhausted_total{op="wal-append"}', 0
        ) == 1
        assert samples.get("repro_degraded_trips_total", 0) == 1

    def test_exhaustion_under_concurrent_writers(self, tmp_path):
        """Jittered retries exhausting under concurrent load latch once.

        Four writers race a permanently failing fsync through the
        single-writer lock: every one must surface the typed
        ``degraded-mode`` error (whichever thread trips the latch, the
        rest are rejected by it), no thread may hang, and the WAL must
        hold no phantom record from any of the rolled-back attempts.
        """
        import random
        import threading

        fs = FaultyFS(fail_fsync=True)
        store = ConcurrentObjectbase.open(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy(
                attempts=2, jitter=0.5, rng=random.Random(11).random,
                sleep=lambda _: None,
            ),
            lock_timeout=30.0,
        )
        outcomes: list[str] = []
        lock = threading.Lock()

        def writer(w: int) -> None:
            try:
                store.apply(AddType(f"T_w{w}"))
                result = "committed"
            except DegradedModeError:
                result = "degraded"
            with lock:
                outcomes.append(result)

        threads = [
            threading.Thread(target=writer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "a writer hung in the retry loop"
        assert outcomes == ["degraded"] * 4
        assert store.degraded
        # Reads still serve, and the on-disk prefix is exactly empty.
        assert "T_object" in store.types()
        reopened = ConcurrentObjectbase.open(tmp_path / "wal")
        assert not any(t.startswith("T_w") for t in reopened.types())
