"""Distance-based and LP-based tests of selective influence.

Given per-treatment joint distributions of outputs, decide whether they
can be restrictions of a single joint distribution with one variable per
input point (the joint distribution criterion).  Chain inequalities of
pseudo-quasi-metrics, chiefly the order-distance, give fast necessary
conditions; an exact rational LP decides the criterion outright.
"""

from .arith import EPS_LP, EPS_SUM, EPS_TEST, FLOAT, RATIONAL, Num, parse_number
from .binormal import (
    BinormalSystem,
    binormal_order_distance,
    demo_chain_violation,
    rho_grid,
)
from .errors import (
    CapExceeded,
    GroundAxiomViolation,
    HiddenSpaceTooLarge,
    InvalidCorrelation,
    InvalidExponent,
    InvalidP,
    MarginalSelectivityViolated,
    MetricEvaluationError,
    NumericalInstability,
    OrdistError,
    SameInput,
    SystemFormatError,
    UnknownInput,
    UnrankedValue,
    ValueNotInPartition,
)
from .fileio import (
    LoadedSystem,
    dump_system,
    dumps_report,
    load_metric,
    load_system,
)
from .jdc import (
    EquivalenceReport,
    FineReport,
    FineSystem,
    JdcProblem,
    JdcVerdict,
    build_jdc,
    d1_d2_chain_residuals,
    fine_chain_equivalence,
    fine_inequalities,
    is_2x2_binary,
    jdc_feasible,
    witness_reproduces_tables,
)
from .metrics import (
    BoundedOf,
    ClassificationDistance,
    ConditionalEntropy,
    ExpectedGround,
    FrechetDistance,
    MaxOf,
    Metric,
    MixtureOf,
    OrderDistance,
    OrderSpec,
    PDistance,
    PowerOf,
    SeparationDistance,
    SumOf,
    default_order_metric,
    numeric_embedding,
    separation_distance,
    triangle_defect,
)
from .probspace import (
    BivariateMarginal,
    Design,
    InputPoint,
    JointDist,
    TreatmentTable,
    ValidationIssue,
    ValidationReport,
    bivariate,
    diagonal_coupling,
    marginalize,
    point_axes,
    validate_system,
)
from .selectivity import (
    ChainReport,
    MarginalSelectivityReport,
    SequenceWitness,
    SuiteReport,
    chain_test,
    check_marginal_selectivity,
    enumerate_irreducible,
    enumerate_realizable,
    is_irreducible,
    run_suite,
    transform_outputs,
)

__version__ = "0.1.0"

__all__ = [
    # arith
    "EPS_LP", "EPS_SUM", "EPS_TEST", "FLOAT", "RATIONAL", "Num",
    "parse_number",
    # binormal
    "BinormalSystem", "binormal_order_distance", "demo_chain_violation",
    "rho_grid",
    # errors
    "CapExceeded", "GroundAxiomViolation", "HiddenSpaceTooLarge",
    "InvalidCorrelation", "InvalidExponent", "InvalidP",
    "MarginalSelectivityViolated", "MetricEvaluationError",
    "NumericalInstability", "OrdistError", "SameInput",
    "SystemFormatError", "UnknownInput", "UnrankedValue",
    "ValueNotInPartition",
    # fileio
    "LoadedSystem", "dump_system", "dumps_report", "load_metric",
    "load_system",
    # jdc
    "EquivalenceReport", "FineReport", "FineSystem", "JdcProblem",
    "JdcVerdict", "build_jdc", "d1_d2_chain_residuals",
    "fine_chain_equivalence", "fine_inequalities", "is_2x2_binary",
    "jdc_feasible", "witness_reproduces_tables",
    # metrics
    "BoundedOf", "ClassificationDistance", "ConditionalEntropy",
    "ExpectedGround", "FrechetDistance", "MaxOf", "Metric", "MixtureOf",
    "OrderDistance", "OrderSpec", "PDistance", "PowerOf",
    "SeparationDistance", "SumOf", "default_order_metric",
    "numeric_embedding",
    "separation_distance", "triangle_defect",
    # probspace
    "BivariateMarginal", "Design", "InputPoint", "JointDist",
    "TreatmentTable", "ValidationIssue", "ValidationReport", "bivariate",
    "diagonal_coupling", "marginalize", "point_axes", "validate_system",
    # selectivity
    "ChainReport", "MarginalSelectivityReport", "SequenceWitness",
    "SuiteReport", "chain_test", "check_marginal_selectivity",
    "enumerate_irreducible", "enumerate_realizable", "is_irreducible",
    "run_suite", "transform_outputs",
]
