"""Schema snapshots: JSON persistence of lattice state.

An OBMS manages schema changes "while the system is in operation"
(Section 1); surviving restarts requires durable schema state.  A
snapshot captures exactly the designer-managed inputs — policy, ``Pe``,
``Ne``, frozen marks, property payloads — because everything else is
derivable through the axioms (persisting derived terms would be redundant
and a consistency hazard).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from ..core.config import EssentialityDefault, LatticePolicy
from ..core.errors import JournalError
from ..core.lattice import TypeLattice
from ..core.properties import Property
from .faults import RealFS, StorageFS
from .framing import atomic_write_bytes

__all__ = [
    "lattice_to_dict",
    "lattice_from_dict",
    "save_lattice",
    "load_lattice",
]

FORMAT_VERSION = 1


def lattice_to_dict(lattice: TypeLattice) -> dict[str, Any]:
    """The designer-managed state of a lattice as plain data."""
    policy = lattice.policy
    return {
        "format": FORMAT_VERSION,
        "policy": {
            "rooted": policy.rooted,
            "pointed": policy.pointed,
            "root_name": policy.root_name,
            "base_name": policy.base_name,
            "essentiality": policy.essentiality.value,
        },
        "types": [
            {
                "name": t,
                "pe": sorted(lattice.pe(t)),
                "ne": [
                    {"semantics": p.semantics, "name": p.name,
                     "domain": p.domain}
                    for p in sorted(lattice.ne(t))
                ],
                "frozen": lattice.is_frozen(t),
            }
            for t in sorted(lattice.types())
        ],
    }


def lattice_from_dict(data: dict[str, Any]) -> TypeLattice:
    """Rebuild a lattice from :func:`lattice_to_dict` output.

    The snapshot's derived terms are re-instantiated through the axioms;
    a snapshot whose ``Pe`` graph is cyclic or whose references dangle is
    rejected with :class:`JournalError`.
    """
    if data.get("format") != FORMAT_VERSION:
        raise JournalError(
            f"unsupported snapshot format: {data.get('format')!r}"
        )
    pdata = data["policy"]
    policy = LatticePolicy(
        rooted=pdata["rooted"],
        pointed=pdata["pointed"],
        root_name=pdata["root_name"],
        base_name=pdata["base_name"],
        essentiality=EssentialityDefault(pdata["essentiality"]),
    )
    lattice = TypeLattice(policy)

    records = {r["name"]: r for r in data["types"]}
    known = set(records)
    for name, record in records.items():
        for s in record["pe"]:
            if s not in known:
                raise JournalError(
                    f"snapshot is corrupt: Pe({name}) references "
                    f"unknown type {s!r}"
                )

    # Install in dependency order (supertypes first).
    installed = set(lattice.types())
    pending = [n for n in sorted(records) if n not in installed]
    while pending:
        progressed = False
        remaining: list[str] = []
        for name in pending:
            record = records[name]
            if all(s in installed for s in record["pe"]):
                lattice.add_type(
                    name,
                    supertypes=[
                        s for s in record["pe"]
                        if s not in (lattice.root, lattice.base)
                    ],
                    properties=[
                        Property(p["semantics"], p["name"], p.get("domain"))
                        for p in record["ne"]
                    ],
                    frozen=record.get("frozen", False),
                )
                installed.add(name)
                progressed = True
            else:
                remaining.append(name)
        if not progressed:
            raise JournalError(
                f"snapshot is corrupt: cyclic Pe among {sorted(remaining)}"
            )
        pending = remaining

    # Restore Ne entries for the policy-created root/base if present.
    for special in (lattice.root, lattice.base):
        if special and special in records:
            rec = records[special]
            for p in rec["ne"]:
                lattice._ne[special].add(
                    lattice.universe.intern(
                        Property(p["semantics"], p["name"], p.get("domain"))
                    )
                )
    lattice.invalidate_cache()
    return lattice


def save_lattice(
    lattice: TypeLattice, path: str | Path, *, fs: StorageFS | None = None
) -> Path:
    """Write a snapshot file atomically; returns the path.

    The snapshot lands via temp-file, fsync and rename (through the
    :class:`StorageFS` primitives) so a crash mid-save leaves the
    previous snapshot intact instead of a torn JSON document.
    """
    path = Path(path)
    atomic_write_bytes(
        fs or RealFS(),
        path,
        json.dumps(
            lattice_to_dict(lattice), indent=2, sort_keys=True
        ).encode("utf-8"),
    )
    return path


def load_lattice(
    path: str | Path, *, fs: StorageFS | None = None
) -> TypeLattice:
    """Load a snapshot file back into a lattice."""
    fs = fs or RealFS()
    return lattice_from_dict(
        json.loads(fs.read_bytes(Path(path)).decode("utf-8"))
    )
