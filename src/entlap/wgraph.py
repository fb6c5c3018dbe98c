"""Simple weighted graphs read off Laplacians, and the edge functional W[i,j].

A graph is its dense symmetric weight matrix with a zero diagonal.  Entries are
floats, or Exact scalars (an object array) when the source Laplacian has exact
entries, so DOT labels and W values stay exact for exact inputs.  Edges are
chosen on the float Laplacian for both entry types, and W has one closed form,
evaluated over an edge list for either entry type (see `_w_values`).

Vertices are 0-based everywhere in the API; rendering (DOT, CLI) is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .exact import Exact
from .errors import NoEdges, NotAnEdge, VertexOutOfRange
from .laplacian import Laplacian


class WConvention(str, Enum):
    """Neighbour range in the two cross sums of W[i,j].

    EXCLUDED: k runs over vertices other than i and j themselves.
    INCLUSIVE: k runs over all other vertices, so k=j qualifies for the first
    sum (a simple graph has no self-loops, hence j is not adjacent to j) and
    contributes w_ij, likewise k=i contributes w_ji to the second sum.

    Only the INCLUSIVE reading makes the spectral bound
    lambda_max(L) <= max_{i~j} W[i,j]/2 a theorem: on a single weighted edge
    lambda_max = 2w while the EXCLUDED reading gives W/2 = w.
    """

    EXCLUDED = "excluded"
    INCLUSIVE = "inclusive"


DEFAULT_EDGE_THRESHOLD = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Simple weighted graph: symmetric non-negative weights, zero diagonal.

    `weights` is a float array, or an object array of Exact scalars.
    """

    weights: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.weights.shape[0]

    @property
    def exact_weights(self) -> bool:
        return self.weights.dtype == object

    def _edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoint arrays (i, j), i < j, of every edge in row-major order."""
        return np.nonzero(np.triu(self.weights.astype(bool), 1))

    @property
    def edges(self) -> tuple[tuple[int, int, Exact | float], ...]:
        """(i, j, w) for every edge, i < j, in row-major order."""
        return tuple((int(i), int(j), self.weights[i, j]) for i, j in zip(*self._edge_index()))

    def edge_count(self) -> int:
        return len(self._edge_index()[0])


def graph_from_laplacian(lap: Laplacian, edge_threshold: float = DEFAULT_EDGE_THRESHOLD) -> WeightedGraph:
    """Edge (i,j, -l_ij) for every off-diagonal |l_ij| above the threshold.

    Edges are chosen on the float Laplacian; their weights are exact when the
    Laplacian is, so an exact graph and its float copy have the same edges.
    """
    entries = lap.array if lap.exact is None else lap.exact
    zero = Exact() if entries.dtype == object else 0.0
    w = zero - np.where(np.triu(np.abs(lap.array) > edge_threshold, 1), entries, zero)
    w = w + w.T
    w.flags.writeable = False
    return WeightedGraph(w)


def is_connected(g: WeightedGraph) -> bool:
    """True iff all vertices lie in one component (breadth-first, level by level)."""
    adj = g.weights.astype(bool)
    seen = frontier = np.arange(g.vertex_count) == 0
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def _check_vertex(g: WeightedGraph, v: int) -> None:
    if not 0 <= v < g.vertex_count:
        raise VertexOutOfRange(f"vertex {v} outside [0, {g.vertex_count})")


def vertex_weight(g: WeightedGraph, i: int) -> Exact | float:
    """Sum of incident edge weights (the Laplacian diagonal entry)."""
    _check_vertex(g, i)
    return g.weights[i].sum()


def _w_values(w: np.ndarray, i: np.ndarray, j: np.ndarray, convention: WConvention) -> np.ndarray:
    """W over the edges (i[e], j[e]), by the closed form

        W[i,j] = d_i + d_j + sum_k |w_ik - w_jk| - 2 w_ij   (EXCLUDED)

    with k over all vertices and d the weighted degrees; INCLUSIVE drops the
    -2 w_ij term.  The k = i and k = j terms of the sum are w_ij each, and
    every other k contributes w_ik, w_jk or |w_ik - w_jk| as it neighbours i,
    j or both, which is the neighbour-set definition in `edge_w`.
    Only rows i and j are read, so one edge costs O(n) in either entry type.
    """
    wi, wj = w[i], w[j]
    total = wi.sum(axis=1) + wj.sum(axis=1) + np.abs(wi - wj).sum(axis=1)
    if convention == WConvention.EXCLUDED:
        total = total - 2 * w[i, j]
    return total


def edge_w(g: WeightedGraph, i: int, j: int,
           convention: WConvention = WConvention.EXCLUDED) -> Exact | float:
    """The edge functional

        W[i,j] = w_i + w_j + sum_{k~i, k!~j} w_ik + sum_{k~j, k!~i} w_jk
                 + sum_{k~i, k~j} |w_ik - w_jk|

    over an existing edge (i,j); see WConvention for the k range.  Exact on
    exact graphs, float otherwise.
    """
    for v in (i, j):
        _check_vertex(g, v)
    if i == j or not g.weights[i, j]:
        raise NotAnEdge(f"({i}, {j}) is not an edge")
    value = _w_values(g.weights, np.array([i]), np.array([j]), convention)[0]
    return value if g.exact_weights else float(value)


def max_w(g: WeightedGraph, convention: WConvention = WConvention.EXCLUDED) -> Exact | float:
    """Maximum of edge_w over all edges."""
    i, j = g._edge_index()
    if not len(i):
        raise NoEdges("graph has no edges")
    best = _w_values(g.weights, i, j, convention).max()
    return best if g.exact_weights else float(best)


def export_dot(g: WeightedGraph) -> str:
    """Deterministic DOT text: undirected, vertices labelled 1..n, edge labels
    exact rationals when available else 12-significant-digit decimals."""
    lines = ["graph G {"]
    for i in range(g.vertex_count):
        lines.append(f"  {i + 1};")
    for i, j, w in g.edges:
        label = w.format_literal() if g.exact_weights else None
        if label is None:
            label = f"{float(w):.12g}"
        lines.append(f'  {i + 1} -- {j + 1} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
