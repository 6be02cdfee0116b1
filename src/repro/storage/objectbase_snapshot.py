"""Whole-objectbase snapshots: schema + behaviors + functions + data.

Extends the schema-only snapshot of :mod:`repro.storage.snapshot` to the
full TIGUKAT store: behavior definitions and signatures, implementation
associations, classes, collections, and application instances with their
stored state — everything needed to reopen an objectbase and keep
answering behavior applications.

Computed functions are code; code does not serialize.  They are captured
by *name* and rebound at restore time from a ``computed_bodies`` registry
the application supplies (the classic externalized-code contract).  A
computed function with no re-registered body restores as a poisoned stub
that raises on first invocation, so the gap is loud, not silent.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable

from ..core.errors import JournalError
from ..core.identity import Oid
from ..tigukat.behaviors import Signature
from ..tigukat.functions import Function, FunctionKind
from ..tigukat.objects import TigukatObject
from ..tigukat.primitive import PRIMITIVE_TYPE_BEHAVIORS
from ..tigukat.store import Objectbase
from .faults import RealFS, StorageFS
from .framing import atomic_write_bytes
from .snapshot import FORMAT_VERSION, lattice_from_dict, lattice_to_dict

__all__ = ["objectbase_to_dict", "objectbase_from_dict",
           "save_objectbase", "load_objectbase"]

_JSON_SCALARS = (str, int, float, bool, type(None))


def _encode_value(value: Any) -> Any:
    if isinstance(value, _JSON_SCALARS):
        return value
    if isinstance(value, TigukatObject):
        return {"$oid": [value.oid.space, value.oid.serial]}
    if isinstance(value, Oid):
        return {"$oid": [value.space, value.serial]}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    raise JournalError(
        f"instance state value of type {type(value).__name__!r} is not "
        f"snapshot-serializable"
    )


def _decode_value(value: Any, store: Objectbase) -> Any:
    if isinstance(value, dict) and "$oid" in value:
        oid = Oid(value["$oid"][0], value["$oid"][1])
        return store.get(oid) if oid in store else oid
    if isinstance(value, list):
        return [_decode_value(v, store) for v in value]
    return value


def objectbase_to_dict(store: Objectbase) -> dict[str, Any]:
    """The full store as plain data (bootstrap content excluded — it is
    reproduced by construction at restore time)."""
    behaviors = []
    for b in sorted(store.behaviors(), key=lambda b: b.semantics):
        if b.semantics in PRIMITIVE_TYPE_BEHAVIORS:
            continue
        behaviors.append(
            {
                "semantics": b.semantics,
                "signature": {
                    "name": b.signature.name,
                    "argument_types": list(b.signature.argument_types),
                    "result_type": b.signature.result_type,
                },
                "implementations": {
                    t: [b.implementation_for(t).space,
                        b.implementation_for(t).serial]
                    for t in sorted(b.implementing_types())
                },
            }
        )

    functions = []
    primitive_function_oids = {
        store.behavior(sem).implementation_for("T_type")
        for sem in PRIMITIVE_TYPE_BEHAVIORS
    }
    for f in sorted(store.functions(), key=lambda f: f.oid):
        if f.oid in primitive_function_oids:
            continue
        functions.append(
            {
                "oid": [f.oid.space, f.oid.serial],
                "name": f.name,
                "kind": f.kind.value,
                "slot": f.slot,
            }
        )

    classes = sorted(c.of_type for c in store.classes())

    from ..tigukat.collections_ import ClassObject

    user_collections = sorted(
        (c for c in store.collections() if not isinstance(c, ClassObject)),
        key=lambda c: c.name,
    )
    collections = [
        {
            "name": c.name,
            "member_type": c.member_type,
            "members": [[o.space, o.serial] for o in sorted(c.members())],
        }
        for c in user_collections
    ]

    instances = []
    for cls in sorted(store.classes(), key=lambda c: c.of_type):
        for oid in sorted(cls.members()):
            obj = store.get(oid)
            instances.append(
                {
                    "oid": [oid.space, oid.serial],
                    "type": obj.type_name,
                    "state": {
                        key: _encode_value(obj._get_slot(key))
                        for key in sorted(obj._slots())
                    },
                }
            )

    return {
        "format": FORMAT_VERSION,
        "lattice": lattice_to_dict(store.lattice),
        "behaviors": behaviors,
        "functions": functions,
        "classes": classes,
        "collections": collections,
        "instances": instances,
    }


def objectbase_from_dict(
    data: dict[str, Any],
    computed_bodies: dict[str, Callable[..., Any]] | None = None,
) -> Objectbase:
    """Rebuild a store from :func:`objectbase_to_dict` output.

    ``computed_bodies`` maps function *names* to callables for computed
    implementations; missing entries restore as poisoned stubs.
    """
    if data.get("format") != FORMAT_VERSION:
        raise JournalError(
            f"unsupported objectbase snapshot format: {data.get('format')!r}"
        )
    bodies = computed_bodies or {}
    store = Objectbase()  # bootstrap recreates the primitive world

    # 1. Schema: install non-primitive types in dependency order.
    target = lattice_from_dict(data["lattice"])
    for t in target.derivation.order:
        if t in store.lattice:
            continue
        base, root = target.base, target.root
        store.lattice.add_type(
            t,
            supertypes=[
                s for s in target.pe(t) if s not in (root, base)
            ],
            properties=sorted(target.ne(t)),
            frozen=target.is_frozen(t),
        )
        store._reify_type(t)
    # Extra essential edges/properties beyond creation defaults are
    # already covered: add_type installed the full Pe/Ne from the target.

    # 2. Behaviors and their signatures.
    for record in data["behaviors"]:
        sig = record["signature"]
        store.define_behavior(
            record["semantics"],
            Signature(
                sig["name"],
                tuple(sig["argument_types"]),
                sig["result_type"],
            ),
        )

    # 3. Functions (stored fully; computed rebound or poisoned).
    max_serial = 0
    for record in data["functions"]:
        oid = Oid(record["oid"][0], record["oid"][1])
        max_serial = max(max_serial, oid.serial)
        kind = FunctionKind(record["kind"])
        if kind is FunctionKind.STORED:
            function = Function(oid, record["name"], kind,
                                slot=record["slot"])
        else:
            body = bodies.get(record["name"])
            if body is None:
                name = record["name"]

                def poisoned(store_, receiver, *args, _name=name):
                    raise JournalError(
                        f"computed function {_name!r} was not "
                        f"re-registered at restore time"
                    )

                body = poisoned
            function = Function(oid, record["name"], kind, body=body)
        store._functions[oid] = function
        store._objects[oid] = function

    # 4. Implementation associations.
    for record in data["behaviors"]:
        behavior = store.behavior(record["semantics"])
        for type_name, (space, serial) in record["implementations"].items():
            behavior.associate(type_name, Oid(space, serial))

    # 5. Classes, instances (identity-preserving), collections.
    for type_name in data["classes"]:
        store.add_class(type_name)
    # Two passes: create every instance first so object-valued slots can
    # decode forward references, then fill the state.
    created: list[tuple[TigukatObject, dict[str, Any]]] = []
    for record in data["instances"]:
        oid = Oid(record["oid"][0], record["oid"][1])
        max_serial = max(max_serial, oid.serial)
        obj = TigukatObject(oid, record["type"])
        store._objects[oid] = obj
        cls = store.class_of(record["type"])
        if cls is None:
            raise JournalError(
                f"instance {oid} of classless type {record['type']!r}"
            )
        cls.insert(oid)
        created.append((obj, record["state"]))
    for obj, state in created:
        for key, value in state.items():
            obj._set_slot(key, _decode_value(value, store))
    for record in data["collections"]:
        collection = store.add_collection(
            record["name"], record["member_type"]
        )
        for space, serial in record["members"]:
            collection.insert(Oid(space, serial))

    # Never re-issue a persisted identity.
    while True:
        probe = store._oids.allocate()
        if probe.serial > max_serial:
            break
    return store


def save_objectbase(
    store: Objectbase, path: str | Path, *, fs: StorageFS | None = None
) -> Path:
    """Write a whole-store snapshot atomically (temp file + rename,
    through the storage backend's primitives)."""
    path = Path(path)
    atomic_write_bytes(
        fs or RealFS(),
        path,
        json.dumps(
            objectbase_to_dict(store), indent=2, sort_keys=True
        ).encode("utf-8"),
        sync=False,
    )
    return path


def load_objectbase(
    path: str | Path,
    computed_bodies: dict[str, Callable[..., Any]] | None = None,
    *,
    fs: StorageFS | None = None,
) -> Objectbase:
    fs = fs or RealFS()
    return objectbase_from_dict(
        json.loads(fs.read_bytes(Path(path)).decode("utf-8")),
        computed_bodies,
    )
