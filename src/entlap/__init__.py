"""Entanglement detection for bipartite density matrices via density-matrix
Laplacians and weighted-graph spectral bounds."""

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    EntlapError,
    NotAnEdge,
    ParameterOutOfDomain,
    StateValidationError,
    UnknownState,
    VertexOutOfRange,
    WrongDimensions,
)
from .exact import Exact
from .matops import BipartiteDims, partial_transpose
from .states import DensityMatrix, linear_entropy, purity, rank, validate
from .laplacian import laplacian_of_density, phi
from .wgraph import (
    WConvention,
    edge_w,
    edges,
    export_dot,
    graph_from_laplacian,
    is_connected,
    max_w,
)
from .criteria import (
    ClassificationReport,
    CriterionId,
    CriterionResult,
    DecisionTolerance,
    Verdict,
    classify,
    cor4a_nptes,
    cor6_ppt,
    ppt_oracle,
    purity_test,
    thm3_separability,
    thm3a_bounds,
    thm3b_check,
    thm4a_check,
    thm5_ppt,
    thm6_ppt,
)
from . import corpus
from .matrixfile import ParseError, emit, parse

__version__ = "0.1.0"

__all__ = [
    "AxiomViolation", "BipartiteDims", "ClassificationReport", "CriterionId", "CriterionResult",
    "DecisionTolerance", "DensityMatrix", "DimensionMismatch", "EntlapError", "Exact", "NotAnEdge",
    "ParameterOutOfDomain", "ParseError", "StateValidationError", "UnknownState", "Verdict",
    "VertexOutOfRange", "WConvention", "WrongDimensions", "classify", "cor4a_nptes", "cor6_ppt",
    "corpus", "edge_w", "edges", "emit", "export_dot", "graph_from_laplacian", "is_connected",
    "laplacian_of_density", "linear_entropy", "max_w", "parse", "partial_transpose", "phi",
    "ppt_oracle", "purity", "purity_test", "rank", "thm3_separability", "thm3a_bounds",
    "thm3b_check", "thm4a_check", "thm5_ppt", "thm6_ppt", "validate",
]
