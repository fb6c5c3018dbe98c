"""Entanglement detection for bipartite density matrices via density-matrix
Laplacians and weighted-graph spectral bounds."""

from .errors import (
    AxiomViolation,
    DimensionMismatch,
    EntlapError,
    NoConvergence,
    NoEdges,
    NotAnEdge,
    NotHermitian,
    ParameterOutOfDomain,
    StateValidationError,
    UnknownState,
    VertexOutOfRange,
    WrongDimensions,
)
from .exact import Exact
from .matops import (
    BipartiteDims,
    SpectralDecomposition,
    eig_sym,
    partial_transpose,
    wolkowicz_bounds,
)
from .states import DensityMatrix, PurityReport, linear_entropy, purity, purity_report, rank, validate
from .laplacian import coherence_l1, kadison_defect, laplacian_of_density, laplacian_of_general, phi
from .wgraph import (
    WConvention,
    WeightedGraph,
    edge_w,
    export_dot,
    graph_from_laplacian,
    is_connected,
    max_w,
    vertex_weight,
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
    "DecisionTolerance", "DensityMatrix", "DimensionMismatch", "EntlapError", "Exact",
    "NoConvergence", "NoEdges", "NotAnEdge", "NotHermitian", "ParameterOutOfDomain",
    "ParseError", "PurityReport", "SpectralDecomposition", "StateValidationError", "UnknownState",
    "Verdict", "VertexOutOfRange", "WConvention", "WeightedGraph", "WrongDimensions",
    "classify", "coherence_l1", "cor4a_nptes", "cor6_ppt", "corpus",
    "edge_w", "eig_sym", "emit", "export_dot", "graph_from_laplacian",
    "is_connected", "kadison_defect", "laplacian_of_density", "laplacian_of_general",
    "linear_entropy", "max_w", "parse", "partial_transpose", "phi", "ppt_oracle", "purity",
    "purity_report", "purity_test", "rank", "thm3_separability", "thm3a_bounds", "thm3b_check",
    "thm4a_check", "thm5_ppt", "thm6_ppt", "validate", "vertex_weight", "wolkowicz_bounds",
]
