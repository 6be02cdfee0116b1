"""The axiomatic model of dynamic schema evolution (paper Section 2).

Public surface:

* :class:`TypeLattice` — the lattice ``T`` driven by ``Pe``/``Ne``;
* :class:`LatticePolicy` — rootedness/pointedness/essentiality policies;
* :class:`Property` — semantics-identified generic properties;
* the nine axioms (:data:`ALL_AXIOMS`, :func:`check_all`, ...);
* the soundness/completeness oracle (:func:`verify`);
* schema-evolution operations and the :class:`EvolutionJournal`;
* the apply-all operator ``α`` and minimality utilities.
"""

from .applyall import apply_all, extended_union, union_apply_all
from .axioms import (
    ALL_AXIOMS,
    AXIOMS_BY_NAME,
    Axiom,
    Violation,
    assert_all,
    check_all,
    check_axiom,
)
from .config import EssentialityDefault, LatticePolicy
from .algebra import (
    comparable,
    join,
    join_unique,
    lower_bounds,
    meet,
    meet_unique,
    upper_bounds,
)
from .derivation import (
    Derivation,
    affected_downset,
    derive,
    derive_incremental,
    local_topological_order,
    topological_order,
)
from .fixpoint import derive_fixpoint
from .transactions import SchemaTransaction, TransactionError
from .errors import (
    ERROR_CODES,
    AxiomViolationError,
    CorruptRecordError,
    CycleError,
    DuplicateTypeError,
    EvolutionError,
    FrozenTypeError,
    JournalError,
    NothingToUndoError,
    OperationRejected,
    PlanError,
    PointednessViolationError,
    RootViolationError,
    SchemaError,
    UnknownPropertyError,
    UnknownTypeError,
    error_code,
    exit_code_for,
)
from .history import EvolutionJournal, JournalEntry
from .impact import ImpactReport, analyze_impact
from .identity import Oid, OidGenerator, ReferenceMap
from .lattice import TypeLattice, build_figure1_lattice
from .normalize import (
    NormalizationReport,
    is_normalized,
    normalize,
    normalized_copy,
)
from .minimality import (
    LatticeDiff,
    diff_lattices,
    essential_edge_count,
    is_reduced,
    minimal_edge_count,
    transitive_closure,
    transitive_reduction,
)
from .operations import (
    OPERATION_CODES,
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropPropertyEverywhere,
    DropType,
    OperationResult,
    SchemaOperation,
    operation_from_dict,
)
from .proofs import Obligation, ProofTrace, prove
from .properties import Property, PropertyUniverse, prop
from .subschema import extract_subschema, upward_closure
from .soundness import (
    Discrepancy,
    Oracle,
    SoundnessReport,
    assert_sound_and_complete,
    verify,
)

__all__ = [
    # lattice
    "TypeLattice",
    "build_figure1_lattice",
    "LatticePolicy",
    "EssentialityDefault",
    "Derivation",
    "derive",
    "derive_incremental",
    "topological_order",
    "local_topological_order",
    "affected_downset",
    # properties & identity
    "Property",
    "PropertyUniverse",
    "prop",
    "Oid",
    "OidGenerator",
    "ReferenceMap",
    # axioms
    "ALL_AXIOMS",
    "AXIOMS_BY_NAME",
    "Axiom",
    "Violation",
    "check_all",
    "check_axiom",
    "assert_all",
    # soundness
    "Oracle",
    "SoundnessReport",
    "Discrepancy",
    "verify",
    "assert_sound_and_complete",
    "prove",
    "ProofTrace",
    "Obligation",
    # operations
    "SchemaOperation",
    "OperationResult",
    "AddType",
    "DropType",
    "AddEssentialSupertype",
    "DropEssentialSupertype",
    "AddEssentialProperty",
    "DropEssentialProperty",
    "DropPropertyEverywhere",
    "OPERATION_CODES",
    "operation_from_dict",
    # history & transactions
    "EvolutionJournal",
    "JournalEntry",
    "SchemaTransaction",
    "TransactionError",
    "ImpactReport",
    "analyze_impact",
    # algebra & engines
    "derive_fixpoint",
    "comparable",
    "upper_bounds",
    "lower_bounds",
    "join",
    "meet",
    "join_unique",
    "meet_unique",
    # apply-all & minimality
    "apply_all",
    "extended_union",
    "union_apply_all",
    "transitive_closure",
    "transitive_reduction",
    "is_reduced",
    "minimal_edge_count",
    "essential_edge_count",
    "LatticeDiff",
    "diff_lattices",
    "normalize",
    "normalized_copy",
    "is_normalized",
    "NormalizationReport",
    "extract_subschema",
    "upward_closure",
    # errors
    "EvolutionError",
    "ERROR_CODES",
    "error_code",
    "exit_code_for",
    "SchemaError",
    "UnknownTypeError",
    "DuplicateTypeError",
    "CycleError",
    "RootViolationError",
    "PointednessViolationError",
    "AxiomViolationError",
    "PlanError",
    "OperationRejected",
    "UnknownPropertyError",
    "FrozenTypeError",
    "JournalError",
    "CorruptRecordError",
    "NothingToUndoError",
]
