"""Per-layer timing for the traced benchmark server.

:class:`LayerTracer` wraps public and module-level callables at the
binding their caller uses (``repro.server.analyze``, not
``repro.staticcheck.analyzer.analyze``), so nothing in ``src/`` changes
and the untraced server runs the program exactly as shipped.  Each
handler thread keeps a stack of open spans; a span's *self* time is its
duration minus the spans it encloses, and is added to the record of the
request the thread is serving.  ``server.dispatch`` opens and closes that
record.  Records stay in memory until :meth:`LayerTracer.restore`, which
puts every wrapped attribute back.
"""

from __future__ import annotations

import functools
import importlib
import threading
from time import perf_counter

__all__ = ["TARGETS", "BINDINGS", "LayerTracer", "wrapped_bindings"]

#: (span name, module, class or None, attribute).  A span name may cover
#: several bindings of one function.  ``core.copy`` is counted, not
#: timed: a copy's time stays in the span that made it (validation's
#: cycle probe, the analyzer's symbolic run).
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("server.dispatch", "repro.server", "_Handler", "_dispatch"),
    ("server.encode", "repro.server", "_Handler", "_send_json"),
    ("server.send", "repro.server", "_Handler", "_send"),
    ("concurrent.lock_wait", "repro.concurrent", "FairLock", "acquire"),
    ("concurrent.lock_release", "repro.concurrent", "FairLock", "release"),
    ("concurrent.publish", "repro.concurrent", "SchemaSnapshot", "capture"),
    ("core.validate", "repro.storage.journal", "DurableLattice", "apply"),
    ("core.copy", "repro.core.lattice", "TypeLattice", "copy"),
    ("core.derive", "repro.core.lattice", None, "derive_incremental"),
    ("core.verify", "repro.core.transactions", None, "check_all"),
    ("storage.append", "repro.storage.journal", "JournalFile", "append"),
    ("staticcheck.analyze", "repro.server", None, "analyze"),
    ("staticcheck.analyze", "repro.api", None, "analyze"),
    ("staticcheck.summaries", "repro.server", None, "plan_summaries"),
    ("ddl.print", "repro.ddl.printer", None, "print_schema"),
    ("ddl.parse", "repro.server", None, "parse_schema"),
    ("ddl.diff", "repro.api", None, "diff_schemas"),
)

_COUNTED = frozenset({"core.copy"})

def _name(module: str, cls: str | None, attr: str) -> str:
    return f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"


#: Dotted names of every wrapped binding, sorted.
BINDINGS = sorted(_name(m, c, a) for _, m, c, a in TARGETS)


def _owner(module: str, cls: str | None):
    mod = importlib.import_module(module)
    return getattr(mod, cls) if cls else mod


def wrapped_bindings() -> list[str]:
    """The names in :data:`BINDINGS` that hold a benchmark wrapper now."""
    wrapped = []
    for _, module, cls, attr in TARGETS:
        value = vars(_owner(module, cls))[attr]
        if hasattr(getattr(value, "__func__", value), "__layer_span__"):
            wrapped.append(_name(module, cls, attr))
    return sorted(wrapped)


class LayerTracer:
    """Install span wrappers, collect per-request records, restore."""

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple[object, str, object]] = []

    # -- install / restore ------------------------------------------------

    def install(self) -> None:
        for name, module, cls, attr in TARGETS:
            owner = _owner(module, cls)
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)

    def restore(self) -> list[str]:
        """Put every wrapped attribute back; return any left wrapped."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return wrapped_bindings()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in _COUNTED:
            return self._counter(name, fn)
        if name == "server.dispatch":
            return self._dispatch(fn)
        local = self._local
        is_acquire = name == "concurrent.lock_wait"
        is_release = name == "concurrent.lock_release"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            record = getattr(local, "record", None)
            if record is None:
                return fn(*args, **kwargs)
            stack = local.stack
            if is_release and local.held_since is not None:
                record["hold"] += perf_counter() - local.held_since
                record["holds"] += 1
                local.held_since = None
            frame = [0.0]
            stack.append(frame)
            started = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                stack.pop()
                stack[-1][0] += elapsed
                self_time = record["self"]
                self_time[name] = self_time.get(name, 0.0) + elapsed - frame[0]
                calls = record["calls"]
                calls[name] = calls.get(name, 0) + 1
            if is_acquire:
                local.held_since = perf_counter()
            return result

        span.__layer_span__ = name
        return span

    def _counter(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            record = getattr(local, "record", None)
            if record is not None:
                calls = record["calls"]
                calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__layer_span__ = name
        return counted

    def _dispatch(self, fn):
        local = self._local

        @functools.wraps(fn)
        def dispatch(handler, *args, **kwargs):
            record = {
                "port": handler.client_address[1],
                "path": handler.path,
                "self": {},
                "calls": {},
                "hold": 0.0,
                "holds": 0,
            }
            local.record = record
            local.stack = [[0.0]]
            local.held_since = None
            started = perf_counter()
            try:
                return fn(handler, *args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                record["dispatch"] = elapsed
                record["unattributed"] = elapsed - local.stack[0][0]
                local.record = None
                with self._lock:
                    self.records.append(record)

        dispatch.__layer_span__ = "server.dispatch"
        return dispatch
