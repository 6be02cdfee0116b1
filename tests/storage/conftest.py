"""Backend-parametrized conformance harness for the storage suites.

Every test that takes the ``backend`` fixture runs once per storage
backend (``file``, ``sqlite``) — the crash matrix and the
recovery-mode suites are *conformance suites*: one body, two
substrates.  ``REPRO_BACKENDS=sqlite`` (comma-separated) narrows the
sweep, which is how the CI backend matrix fans the suites out across
jobs without duplicating test code.

The harness models a machine, not a process: :meth:`BackendHarness.fresh`
hands out a **new backend instance over the same substrate**, which is
what surviving a crash means — the process state (connections, caches)
is gone, the durable substrate (directory, sqlite database file) is all
that remains.  Tests therefore run workloads against
``harness.faulty(...)`` and recover with ``harness.fresh()``.
"""

import os

import pytest

from repro.storage import FaultyFS, FileBackend, SqliteBackend

ALL_BACKENDS = ("file", "sqlite")


def _selected() -> list[str]:
    raw = os.environ.get("REPRO_BACKENDS", "")
    names = [n.strip() for n in raw.split(",") if n.strip()]
    if not names:
        return list(ALL_BACKENDS)
    unknown = sorted(set(names) - set(ALL_BACKENDS))
    if unknown:
        raise ValueError(
            f"REPRO_BACKENDS names unknown backend(s) {unknown}; "
            f"expected a subset of {', '.join(ALL_BACKENDS)}"
        )
    return names


class BackendHarness:
    """One durable substrate plus a factory for 'restarted' instances."""

    def __init__(self, name: str, root) -> None:
        self.name = name
        self.root = root
        self._instances: list = []

    def fresh(self):
        """A new backend instance over the same substrate (a restart).

        Recovery code must never reuse the crashed process's instance:
        its in-memory state (the sqlite connection) died with the
        "power failure".
        """
        if self.name == "file":
            backend = FileBackend()
        else:
            # synchronous=NORMAL: simulated crashes never kill the real
            # process, so commit-ordering (which NORMAL preserves) is
            # all the matrix needs — FULL would only slow the sweep.
            backend = SqliteBackend(
                self.root / "store.sqlite", synchronous="NORMAL"
            )
        self._instances.append(backend)
        return backend

    def faulty(self, **kwargs) -> FaultyFS:
        """A fault-injecting view over a fresh instance of the backend."""
        return FaultyFS(base=self.fresh(), **kwargs)

    def close(self) -> None:
        for backend in self._instances:
            backend.close()
        self._instances.clear()


@pytest.fixture(params=_selected())
def backend(request, tmp_path):
    harness = BackendHarness(request.param, tmp_path / "substrate")
    yield harness
    harness.close()
