"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class EntlapError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(EntlapError):
    """Matrix orders / bipartite dimensions are incompatible."""


class WrongDimensions(EntlapError):
    """Operation restricted to specific bipartite dimensions."""


class VertexOutOfRange(EntlapError):
    """Graph vertex index outside [0, n)."""


class NotAnEdge(EntlapError):
    """Requested vertex pair is not an edge of the graph."""


class UnknownState(EntlapError):
    """No corpus state with the requested name."""


class ParameterOutOfDomain(EntlapError):
    """Corpus state parameter outside its documented domain."""


@dataclass(frozen=True)
class AxiomViolation:
    """One violated density-matrix axiom with its offending magnitude.

    An exact state's entries are checked once, where they enter `validate`: its
    float matrix is read off them, so no axiom compares the two.
    """

    axiom: str  # NotHermitian | TraceNotOne | NotPSD | DimensionMismatch
    magnitude: float

    def __str__(self) -> str:
        return f"{self.axiom} ({self.magnitude:.12g})"


class StateValidationError(EntlapError):
    """Density-matrix validation failed; carries every violated axiom."""

    def __init__(self, violations: list[AxiomViolation]):
        self.violations = violations
        super().__init__("; ".join(str(v) for v in violations))
