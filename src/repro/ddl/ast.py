"""The declarative schema AST: canonical, order-insensitive, hashable.

A declared schema is a set of type declarations; a type declaration is a
set of essential supertypes (the ``Pe`` block) and a set of native
property declarations (the ``Ne`` block).  Declaration order carries no
meaning in the axiomatic model, so the AST normalizes it away at
construction: supertypes and properties are sorted and de-duplicated,
types are sorted by name.  Two texts that declare the same schema
therefore parse to *equal* ASTs, and the pretty-printer
(:mod:`repro.ddl.printer`) is a fixpoint: ``parse(print(ast)) == ast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..core.errors import DDLValidationError
from ..core.properties import Property

__all__ = ["PropertyDecl", "TypeDecl", "SchemaDecl"]


@dataclass(frozen=True, order=True)
class PropertyDecl:
    """One ``ne`` line: a property identified by its semantics key.

    ``name`` is the display name (empty means "same as the semantics
    key", matching :class:`~repro.core.properties.Property` defaulting);
    ``domain`` is the opaque value-domain annotation.
    """

    semantics: str
    name: str = ""
    domain: str | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.semantics:
            raise DDLValidationError("a property needs a semantics key")
        if self.name == self.semantics:
            # Normalize: an explicit name equal to the key is the default.
            object.__setattr__(self, "name", "")

    def to_property(self) -> Property:
        return Property(self.semantics, self.name, self.domain)

    @classmethod
    def from_property(cls, p: Property) -> "PropertyDecl":
        name = "" if p.name == p.semantics else p.name
        return cls(p.semantics, name, p.domain)

    def to_dict(self) -> dict:
        return {
            "semantics": self.semantics,
            "name": self.name,
            "domain": self.domain,
        }


@dataclass(frozen=True)
class TypeDecl:
    """One ``type`` declaration: name, ``Pe`` block, ``Ne`` block."""

    name: str
    supertypes: tuple[str, ...] = ()
    properties: tuple[PropertyDecl, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise DDLValidationError("a type needs a name")
        supers = tuple(sorted(set(self.supertypes)))
        if self.name in supers:
            raise DDLValidationError(
                f"type {self.name!r} declares itself as a supertype"
            )
        object.__setattr__(self, "supertypes", supers)
        by_key: dict[str, PropertyDecl] = {}
        for p in self.properties:
            prior = by_key.get(p.semantics)
            if prior is not None and prior != p:
                raise DDLValidationError(
                    f"type {self.name!r} declares property "
                    f"{p.semantics!r} twice with different payloads"
                )
            by_key[p.semantics] = p
        object.__setattr__(
            self, "properties", tuple(sorted(by_key.values()))
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "supertypes": list(self.supertypes),
            "properties": [p.to_dict() for p in self.properties],
        }


@dataclass(frozen=True)
class SchemaDecl:
    """A whole declared schema: the target of a migration."""

    types: tuple[TypeDecl, ...] = ()
    name: str = ""
    #: name -> declaration, built once: ``get`` and ``in`` are O(1).
    _by_name: dict[str, TypeDecl] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_name: dict[str, TypeDecl] = {}
        for t in self.types:
            if t.name in by_name:
                raise DDLValidationError(
                    f"type {t.name!r} is declared more than once"
                )
            by_name[t.name] = t
        object.__setattr__(
            self, "types", tuple(sorted(self.types, key=lambda t: t.name))
        )
        object.__setattr__(self, "_by_name", by_name)

    def __iter__(self) -> Iterator[TypeDecl]:
        return iter(self.types)

    def __len__(self) -> int:
        return len(self.types)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> TypeDecl | None:
        return self._by_name.get(name)

    def type_names(self) -> frozenset[str]:
        return frozenset(self._by_name)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "types": [t.to_dict() for t in self.types],
        }

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"SchemaDecl({len(self.types)} types{label})"
