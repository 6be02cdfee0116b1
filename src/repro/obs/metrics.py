"""Metrics registry: counters, gauges, and histograms for the engine.

Zero-dependency, in-process telemetry.  Every instrumented module holds
metric handles created at import time against the module-global
:data:`REGISTRY`; incrementing a counter is one attribute add, so the
hot paths (the incremental derivation pass, operation apply) stay within
the <5% no-sink overhead budget that ``bench_incremental.py`` enforces.

Model
-----
* A **metric family** has a name, a help string, a kind, and an ordered
  tuple of label names.  :meth:`MetricFamily.labels` returns (and caches)
  the child sample for one label-value combination; a family with no
  label names proxies the sample API directly (``family.inc()``).
* **Counters** only go up (until :meth:`MetricsRegistry.reset`), gauges
  move freely, **histograms** bucket observations into fixed, cumulative
  bucket boundaries (Prometheus semantics: ``le`` upper bounds plus
  ``+Inf``) and track ``sum``/``count``.
* The whole registry exports as a JSON-friendly dict
  (:meth:`MetricsRegistry.collect`), JSON text, or Prometheus text
  exposition format (:meth:`MetricsRegistry.render_prometheus`).
* :meth:`MetricsRegistry.set_enabled` turns every sample into a no-op in
  place — the switch the overhead benchmark uses to price the
  instrumentation, and an escape hatch for embedders that want zero
  telemetry.  Handles bound before the switch keep honoring it.

Naming follows the Prometheus conventions: ``repro_<noun>_total`` for
counters, ``_seconds`` for latency histograms.  The full catalogue lives
in ``docs/observability.md``.

Thread safety
-------------
The registry is safe for concurrent use: sample updates
(``inc``/``dec``/``set``/``observe``) and ``reset`` take a per-sample
lock, child creation and registration are guarded, and every export
walks a point-in-time snapshot of the family/sample maps.  The lock is
acquired only when the sample is enabled, so the disabled path (the
overhead benchmark's baseline) stays a single attribute check.  The
derivation engine's *inlined* sample updates (see
``core/lattice.py``) intentionally bypass the locks — they run on the
single-writer path that :mod:`repro.concurrent` serializes.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "REGISTRY",
    "get_registry",
    "LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "FSYNC_BUCKETS",
    "PROMETHEUS_CONTENT_TYPE",
]

#: The content type a Prometheus scraper expects from a pull endpoint
#: serving :meth:`MetricsRegistry.render_prometheus` output.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Default bucket upper bounds for latency histograms, in seconds
#: (100 µs .. 2.5 s — schema operations and derivation passes).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5,
)

#: Default bucket upper bounds for size histograms (cone sizes, batch
#: lengths): roughly logarithmic up to many-thousand-type schemas.
SIZE_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000,
)

#: Bucket upper bounds for fsync latency, in seconds.  Finer than
#: :data:`LATENCY_BUCKETS` at the low end (a flush to a local SSD is
#: tens of microseconds) and topping out at the quarter second a busy
#: spinning disk can take.  Every acknowledged write pays one, so the
#: histogram must resolve both regimes.
FSYNC_BUCKETS: tuple[float, ...] = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25,
)


def _escape_label_value(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def sample_name(name: str, labels: Mapping[str, str]) -> str:
    """The canonical ``name{k="v",...}`` identifier of one sample.

    Label pairs are sorted by key so the identifier is stable no matter
    how the label mapping was built (declaration order, JSON round-trips
    with sorted keys, ...) — span deltas and export snapshots must key
    identically.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing sample."""

    kind = "counter"
    __slots__ = ("name", "labels", "enabled", "_value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], enabled: bool) -> None:
        self.name = name
        self.labels = labels
        self.enabled = enabled
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int | float = 1) -> None:
        if self.enabled:
            if amount < 0:
                raise ValueError("counters only go up")
            with self._lock:
                self._value += amount

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _export(self) -> dict:
        return {"labels": dict(self.labels), "value": self._value}


class Gauge:
    """A sample that can go up and down (e.g. live schema size)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "enabled", "_value", "_lock")

    def __init__(self, name: str, labels: dict[str, str], enabled: bool) -> None:
        self.name = name
        self.labels = labels
        self.enabled = enabled
        self._value = 0
        self._lock = threading.Lock()

    def set(self, value: int | float) -> None:
        if self.enabled:
            with self._lock:
                self._value = value

    def inc(self, amount: int | float = 1) -> None:
        if self.enabled:
            with self._lock:
                self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        if self.enabled:
            with self._lock:
                self._value -= amount

    @property
    def value(self) -> int | float:
        return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0

    def _export(self) -> dict:
        return {"labels": dict(self.labels), "value": self._value}


class Histogram:
    """Observations bucketed into fixed, cumulative upper bounds."""

    kind = "histogram"
    __slots__ = (
        "name", "labels", "enabled", "bounds", "_counts", "_sum", "_lock",
    )

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        enabled: bool,
        bounds: tuple[float, ...],
    ) -> None:
        self.name = name
        self.labels = labels
        self.enabled = enabled
        self.bounds = bounds
        # one slot per finite bound plus the +Inf overflow slot
        self._counts = [0] * (len(bounds) + 1)
        self._sum = 0.0
        self._lock = threading.Lock()

    def observe(self, value: int | float) -> None:
        if self.enabled:
            with self._lock:
                self._counts[bisect_left(self.bounds, value)] += 1
                self._sum += value

    @property
    def count(self) -> int:
        return sum(self._counts)

    @property
    def sum(self) -> float:
        return self._sum

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``+Inf``."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def _reset(self) -> None:
        with self._lock:
            self._counts = [0] * (len(self.bounds) + 1)
            self._sum = 0.0

    def _export(self) -> dict:
        return {
            "labels": dict(self.labels),
            "buckets": [
                {"le": le if le != float("inf") else "+Inf", "count": n}
                for le, n in self.cumulative_buckets()
            ],
            "sum": self._sum,
            "count": self.count,
        }


class MetricFamily:
    """All samples of one metric name, across label combinations."""

    def __init__(
        self,
        name: str,
        help: str,
        kind: type,
        labelnames: tuple[str, ...],
        enabled: bool,
        **kwargs,
    ) -> None:
        self.name = name
        self.help = help
        self._kind = kind
        self.labelnames = labelnames
        self._enabled = enabled
        self._kwargs = kwargs
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()
        if not labelnames:
            self._default = self._make_child(())
        else:
            self._default = None

    @property
    def kind(self) -> str:
        return self._kind.kind

    def _make_child(self, values: tuple[str, ...]):
        labels = dict(zip(self.labelnames, values))
        child = self._kind(
            self.name, labels, self._enabled, **self._kwargs
        )
        self._children[values] = child
        return child

    def labels(self, **labelvalues: str):
        """The child sample for one label-value combination (cached)."""
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name}: expected labels {self.labelnames}, "
                f"got {tuple(labelvalues)}"
            )
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            # Double-checked under the family lock: two threads racing on
            # a new label combination must share one sample.
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child(key)
        return child

    # -- unlabeled families proxy the sample API ------------------------

    def _require_default(self):
        if self._default is None:
            raise ValueError(
                f"{self.name} is labeled {self.labelnames}; use .labels()"
            )
        return self._default

    def inc(self, amount: int | float = 1) -> None:
        self._require_default().inc(amount)

    def dec(self, amount: int | float = 1) -> None:
        self._require_default().dec(amount)

    def set(self, value: int | float) -> None:
        self._require_default().set(value)

    def observe(self, value: int | float) -> None:
        self._require_default().observe(value)

    @property
    def value(self):
        return self._require_default().value

    @property
    def enabled(self) -> bool:
        return self._enabled

    def samples(self) -> Iterator[Counter | Gauge | Histogram]:
        """Children in insertion order (deterministic export).

        Iterates a point-in-time snapshot, so exports are safe against a
        concurrent thread creating a new label combination.
        """
        return iter(list(self._children.values()))

    def _set_enabled(self, enabled: bool) -> None:
        self._enabled = enabled
        for child in self._children.values():
            child.enabled = enabled

    def _reset(self) -> None:
        for child in self._children.values():
            child._reset()


class MetricsRegistry:
    """A process-wide collection of metric families.

    Registration is idempotent: asking for an existing name with the
    same kind and label names returns the existing family (so module
    reloads and test fixtures compose); a conflicting re-registration
    raises.
    """

    def __init__(self) -> None:
        self._families: dict[str, MetricFamily] = {}
        self._enabled = True
        self._lock = threading.RLock()

    # -- registration ---------------------------------------------------

    def _register(
        self, name: str, help: str, kind: type,
        labelnames: tuple[str, ...], **kwargs,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing._kind is not kind
                    or existing.labelnames != labelnames
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            family = MetricFamily(
                name, help, kind, labelnames, self._enabled, **kwargs
            )
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, help, Counter, tuple(labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, help, Gauge, tuple(labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> MetricFamily:
        return self._register(
            name, help, Histogram, tuple(labelnames),
            bounds=tuple(sorted(buckets)),
        )

    # -- lifecycle ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def set_enabled(self, enabled: bool) -> None:
        """Flip every sample (and future samples) to/from no-op mode."""
        with self._lock:
            self._enabled = enabled
            for family in list(self._families.values()):
                family._set_enabled(enabled)

    def reset(self) -> None:
        """Zero every sample in place; registrations and handles survive."""
        with self._lock:
            for family in list(self._families.values()):
                family._reset()

    # -- introspection and export --------------------------------------

    def __iter__(self) -> Iterator[MetricFamily]:
        with self._lock:
            return iter(list(self._families.values()))

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def get(self, name: str) -> MetricFamily | None:
        return self._families.get(name)

    def counter_samples(self) -> dict[str, int | float]:
        """Flat ``{sample_name: value}`` of every *counter* sample.

        This is the snapshot the tracing layer diffs to attribute metric
        deltas to spans: counters only (deterministic under re-runs),
        cheap to copy, keyed exactly like the Prometheus export.
        """
        out: dict[str, int | float] = {}
        for family in iter(self):
            if family.kind != "counter":
                continue
            for child in family.samples():
                out[sample_name(family.name, child.labels)] = child._value
        return out

    def collect(self) -> dict:
        """JSON-friendly export of the whole registry."""
        return {
            family.name: {
                "type": family.kind,
                "help": family.help,
                "values": [child._export() for child in family.samples()],
            }
            for family in iter(self)
        }

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.collect(), indent=indent, sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4).

        Serve with content type ``text/plain; version=0.0.4`` (the
        server's ``/metrics`` endpoint does).  Label values are escaped
        per the exposition spec (backslash, quote, newline — see
        :func:`sample_name`), and so are HELP strings (backslash,
        newline).
        """
        lines: list[str] = []
        for family in iter(self):
            if family.help:
                help_text = family.help.replace("\\", "\\\\") \
                    .replace("\n", "\\n")
                lines.append(f"# HELP {family.name} {help_text}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for child in family.samples():
                if family.kind == "histogram":
                    for le, n in child.cumulative_buckets():
                        le_str = "+Inf" if le == float("inf") else repr(le)
                        labels = dict(child.labels)
                        labels["le"] = le_str
                        lines.append(
                            f"{sample_name(family.name + '_bucket', labels)}"
                            f" {n}"
                        )
                    lines.append(
                        f"{sample_name(family.name + '_sum', child.labels)}"
                        f" {child.sum}"
                    )
                    lines.append(
                        f"{sample_name(family.name + '_count', child.labels)}"
                        f" {child.count}"
                    )
                else:
                    lines.append(
                        f"{sample_name(family.name, child.labels)}"
                        f" {child.value}"
                    )
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        """Compact human-readable dump (the CLI's default stats format)."""
        lines: list[str] = []
        for family in iter(self):
            for child in family.samples():
                name = sample_name(family.name, child.labels)
                if family.kind == "histogram":
                    lines.append(
                        f"{name}  count={child.count} sum={child.sum:.6f}"
                    )
                else:
                    lines.append(f"{name}  {child.value}")
        return "\n".join(lines)


#: The process-wide default registry every instrumented module binds to.
REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The default registry (one per process)."""
    return REGISTRY
