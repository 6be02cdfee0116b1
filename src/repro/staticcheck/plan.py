"""Evolution plans: ordered operation sequences to analyze before running.

A plan is just a sequence of the paper's schema operations, serialized
in the same dictionary form the write-ahead journal already uses
(:meth:`repro.core.operations.SchemaOperation.to_dict`).  Three on-disk
shapes are accepted, auto-detected by :func:`load_plan`:

* a JSON object ``{"name": ..., "operations": [op, ...]}``;
* a bare JSON array ``[op, ...]``;
* JSON lines, one operation per line — compatible with a WAL journal
  file, so an existing journal *is* a valid plan (analyze yesterday's
  migration against today's schema).  WAL files are always framed
  (``#W1 ...``, see :mod:`repro.storage.framing`); plan files may mix
  framed lines with bare JSON lines, so hand-written ``.jsonl`` plans
  keep working.  A torn trailing write (an unterminated final line — a
  live WAL's normal crash residue) is skipped rather than rejected.

:func:`plan_from_journal` loads through
:class:`repro.storage.journal.JournalFile` instead, inheriting its
torn-tail tolerance and reading only the operations since the last
checkpoint.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from ..core.errors import CorruptRecordError, PlanError, PlanFormatError
from ..core.operations import SchemaOperation, operation_from_dict
from ..storage.framing import frame_payload

__all__ = ["EvolutionPlan", "load_plan", "plan_from_journal"]


class EvolutionPlan:
    """An immutable, ordered sequence of schema operations.

    ``lines`` is optional file provenance: the 1-based line number each
    operation starts on in ``source`` (parallel to ``operations``), so
    diagnostics and SARIF results can point at the exact offending step.
    ``fmt`` remembers the on-disk shape (``"object"``, ``"array"`` or
    ``"jsonl"``) so the ``--fix`` applier can rewrite the file in kind.
    """

    def __init__(
        self,
        operations: Iterable[SchemaOperation],
        name: str = "",
        source: str = "",
        lines: Iterable[int] | None = None,
        fmt: str = "",
    ) -> None:
        self.operations: tuple[SchemaOperation, ...] = tuple(operations)
        self.name = name
        self.source = source
        self.lines: tuple[int, ...] | None = (
            tuple(lines) if lines is not None else None
        )
        if self.lines is not None and len(self.lines) != len(self.operations):
            self.lines = None  # misaligned provenance is worse than none
        self.fmt = fmt

    def __len__(self) -> int:
        return len(self.operations)

    def __iter__(self):
        return iter(self.operations)

    def __getitem__(self, index: int) -> SchemaOperation:
        return self.operations[index]

    def line_of(self, index: int) -> int | None:
        """The 1-based source line of step ``index``, if known."""
        if self.lines is None or not 0 <= index < len(self.lines):
            return None
        return self.lines[index]

    def with_operations(
        self, operations: Iterable[SchemaOperation]
    ) -> "EvolutionPlan":
        """A copy with a different operation sequence (line provenance is
        dropped — it no longer describes the new sequence)."""
        return EvolutionPlan(
            operations, name=self.name, source=self.source, fmt=self.fmt
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "operations": [op.to_dict() for op in self.operations],
        }

    def to_jsonl(self) -> str:
        """The WAL-compatible one-operation-per-line serialization."""
        return "\n".join(
            json.dumps(op.to_dict(), sort_keys=True) for op in self.operations
        )

    def dumps(self, fmt: str | None = None) -> str:
        """Serialize in ``fmt`` (defaults to the shape it was loaded in)."""
        fmt = fmt or self.fmt or "object"
        if fmt == "jsonl":
            text = self.to_jsonl()
            return text + "\n" if text else ""
        if fmt == "array":
            body = json.dumps(
                [op.to_dict() for op in self.operations], indent=2
            )
        else:
            body = json.dumps(self.to_dict(), indent=2)
        return body + "\n"

    def save(self, path: str | Path | None = None) -> Path:
        """Write the plan back to ``path`` (default: where it came from)."""
        target = Path(path) if path is not None else Path(self.source)
        if not str(target):
            raise PlanError("plan has no source path to save to")
        target.write_text(self.dumps())
        return target

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"EvolutionPlan({len(self.operations)} ops{label})"


def _format_hint(text: str) -> str:
    """A remediation hint when a non-plan text file was handed to the
    plan loader — most commonly a schema DDL file."""
    head = text.lstrip()
    if head.startswith(("schema", "type")):
        return (
            " (this looks like schema DDL, not an evolution plan; plans "
            "are JSON — produce one with 'repro schema diff FILE "
            "--plan-out plan.json')"
        )
    return ""


def _op_start_lines(text: str) -> list[int] | None:
    """1-based start lines of each element of the operations array in a
    whole-document JSON plan, found by a small syntax walk.  ``None``
    when the document doesn't contain a recognizable operations array.
    Only called on text :func:`json.loads` already accepted, so the walk
    can trust JSON syntax.
    """
    stripped = text.lstrip()
    if not stripped.startswith(("{", "[")):
        return None
    doc_is_array = stripped.startswith("[")
    line = 1
    in_string = escape = False
    depth = 0
    chunk: list[str] = []
    last_string = ""  # the most recently completed string literal
    in_ops = False
    ops_depth = -1
    expecting = False  # the next value starts an array element
    out: list[int] = []

    def element_starts() -> bool:
        return in_ops and depth == ops_depth and expecting

    for ch in text:
        if ch == "\n":
            line += 1
            continue
        if in_string:
            if escape:
                escape = False
            elif ch == "\\":
                escape = True
            elif ch == '"':
                in_string = False
                last_string = "".join(chunk)
            else:
                chunk.append(ch)
        elif ch == '"':
            if element_starts():
                out.append(line)
                expecting = False
            in_string = True
            chunk = []
        elif ch in "[{":
            if element_starts():
                out.append(line)
                expecting = False
            depth += 1
            if ch == "[" and not in_ops and (
                (doc_is_array and depth == 1)
                or (not doc_is_array and depth == 2
                    and last_string == "operations")
            ):
                in_ops = True
                ops_depth = depth
                expecting = True
        elif ch in "]}":
            if in_ops and depth == ops_depth and ch == "]":
                return out
            depth -= 1
        elif ch == ",":
            if in_ops and depth == ops_depth:
                expecting = True
        elif element_starts() and not ch.isspace():
            out.append(line)  # a bare literal element (number/bool/null)
            expecting = False
    return out if in_ops or doc_is_array else None


def _ops_from_dicts(records: Iterable[dict], source: str) -> list[SchemaOperation]:
    ops: list[SchemaOperation] = []
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise PlanFormatError(
                f"{source}: operation {i} is not an object: {record!r}"
            )
        try:
            ops.append(operation_from_dict(record))
        except (ValueError, KeyError, TypeError) as exc:
            raise PlanError(f"{source}: bad operation {i}: {exc}") from exc
    return ops


def load_plan(path: str | Path) -> EvolutionPlan:
    """Load a plan file, auto-detecting its shape (see module docstring)."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise PlanError(f"cannot read plan {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise PlanFormatError(
            f"{path} is not a text plan file: {exc}"
        ) from exc
    stripped = text.strip()
    if not stripped:
        return EvolutionPlan((), name=path.stem, source=str(path))

    # A whole-document JSON object or array?
    if stripped.startswith(("{", "[")):
        try:
            doc = json.loads(stripped)
        except json.JSONDecodeError:
            doc = None  # fall through to JSONL (objects, one per line)
        if isinstance(doc, dict):
            records = doc.get("operations")
            if not isinstance(records, list):
                raise PlanFormatError(
                    f"{path}: plan object must carry an 'operations' array"
                )
            return EvolutionPlan(
                _ops_from_dicts(records, str(path)),
                name=str(doc.get("name") or path.stem),
                source=str(path),
                lines=_op_start_lines(text),
                fmt="object",
            )
        if isinstance(doc, list):
            return EvolutionPlan(
                _ops_from_dicts(doc, str(path)),
                name=path.stem,
                source=str(path),
                lines=_op_start_lines(text),
                fmt="array",
            )

    # JSON lines: framed WAL lines or hand-written bare JSON.
    lines = text.splitlines()
    records = []
    line_numbers: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        torn_candidate = lineno == len(lines) and not text.endswith("\n")
        if line.startswith("#W"):
            try:
                records.append(frame_payload(line))
            except CorruptRecordError as exc:
                if torn_candidate:
                    break  # torn tail of a live WAL: skip, not an error
                raise PlanError(f"{path}:{lineno}: {exc}") from exc
        else:
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                if torn_candidate:
                    break
                raise PlanFormatError(
                    f"{path}:{lineno}: not JSON: {exc}{_format_hint(text)}"
                ) from exc
        line_numbers.append(lineno)
    return EvolutionPlan(
        _ops_from_dicts(records, str(path)),
        name=path.stem,
        source=str(path),
        lines=line_numbers,
        fmt="jsonl",
    )


def plan_from_journal(path: str | Path) -> EvolutionPlan:
    """A plan made of a WAL journal's logged operations (post-checkpoint).

    The journal is opened read-only; analyzing it never mutates the WAL.
    """
    from ..storage.journal import JournalFile

    path = Path(path)
    try:
        operations = JournalFile(path).operations()
    except Exception as exc:  # JournalError and I/O problems alike
        raise PlanError(f"cannot load journal {path}: {exc}") from exc
    return EvolutionPlan(
        operations, name=path.stem, source=str(path), fmt="jsonl"
    )
