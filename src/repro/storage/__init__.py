"""Persistence: schema snapshots and the write-ahead operation journal.

Application code opens schemas with :meth:`repro.api.Objectbase.open`,
which wraps the WAL machinery behind the stable facade.  Engine-internal
code imports :class:`~repro.storage.journal.DurableLattice` /
:class:`~repro.storage.journal.JournalFile` from
:mod:`repro.storage.journal` directly (the deprecation shims that used
to re-export them here were removed after one release).
"""

from .faults import CrashPoint, FaultyFS, RealFS, StorageFS
from .framing import DurabilityPolicy, SalvageReport, atomic_write_bytes
from .snapshot import (
    lattice_from_dict,
    lattice_to_dict,
    load_lattice,
    save_lattice,
)

__all__ = [
    "DurabilityPolicy",
    "SalvageReport",
    "CrashPoint",
    "FaultyFS",
    "RealFS",
    "StorageFS",
    "atomic_write_bytes",
    "lattice_to_dict",
    "lattice_from_dict",
    "save_lattice",
    "load_lattice",
]
