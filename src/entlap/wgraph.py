"""Simple weighted graphs read off Laplacians, and the edge functional W[i,j].

A graph is its dense symmetric weight matrix with a zero diagonal, in the entry
type of the Laplacian array it was read off: floats, or Exact scalars (an
object array), so DOT labels and W values stay exact for exact inputs.  Edges
are chosen on float values, once per graph.  W is one closed form, by the max
identity a + b + |a - b| = 2 max(a, b), over heap-sized edge slices (`_w_values`).

A stack of graphs is one WeightedGraph whose weights have a leading axis, read
off a stack of Laplacians.  Its edges are (s, i, j) triples, and
`is_connected` and `max_w` give one value per graph.

Vertices are 0-based everywhere in the API; rendering (DOT, CLI) is 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property

import numpy as np

from .exact import ZERO, Exact
from .errors import NoEdges, NotAnEdge, VertexOutOfRange
from .matops import SLICE_ENTRIES


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


# An off-diagonal Laplacian entry is an edge when its modulus is above this.
EDGE_THRESHOLD = 1e-12


@cache
def _upper(n: int) -> np.ndarray:
    """The read-only mask of the strict upper triangle of an n x n matrix, built once per order."""
    mask = np.triu(np.ones((n, n), dtype=bool), 1)
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Simple weighted graph: symmetric non-negative weights, zero diagonal.

    `weights` is a float array, or an object array of Exact scalars; a (b, n, n)
    array is a stack of b graphs.
    """

    weights: np.ndarray

    @property
    def vertex_count(self) -> int:
        return self.weights.shape[-1]

    @property
    def exact_weights(self) -> bool:
        return self.weights.dtype == object

    @cached_property
    def _edge_index(self) -> tuple[np.ndarray, ...]:
        """Endpoint arrays (i, j), i < j, of every edge in row-major order, found
        once; (s, i, j) for a stack, so the edges of each graph s are contiguous."""
        return np.nonzero(self.weights.astype(bool) & _upper(self.vertex_count))

    @property
    def edges(self) -> tuple[tuple[int, int, Exact | float], ...]:
        """(i, j, w) for every edge, i < j, in row-major order."""
        return tuple((int(i), int(j), self.weights[i, j]) for i, j in zip(*self._edge_index))

    def edge_count(self) -> int:
        """Number of edges, over all graphs of a stack."""
        return len(self._edge_index[0])


def graph_from_laplacian(lap: np.ndarray) -> WeightedGraph:
    """Edge (i,j, -l_ij) for every off-diagonal |l_ij| above EDGE_THRESHOLD;
    the stack of each Laplacian's graph for a stack (..., n, n).

    The weights are in lap's entry type, float or Exact.  Edges are chosen on
    lap's float values.  Off the diagonal, those of a state's exact Laplacian
    equal its float Laplacian bit for bit, so the two graphs have the same edges.
    """
    zero = ZERO if lap.dtype == object else 0.0
    edge = (np.abs(lap.astype(float, copy=False)) > EDGE_THRESHOLD) & _upper(lap.shape[-1])
    w = zero - np.where(edge, lap, zero)
    w = w + w.swapaxes(-1, -2)
    w.flags.writeable = False
    return WeightedGraph(w)


def is_connected(g: WeightedGraph) -> bool | np.ndarray:
    """True iff all vertices lie in one component (breadth-first from vertex 0,
    level by level); one bool per graph of a stack."""
    adj = g.weights.astype(bool)
    seen = frontier = np.arange(g.vertex_count) == 0
    while frontier.any():
        frontier = np.matmul(frontier[..., None, :], adj)[..., 0, :] & ~seen  # boolean: any frontier neighbour
        seen = seen | frontier
    return seen.all(axis=-1)


def _check_vertex(g: WeightedGraph, v: int) -> None:
    if not 0 <= v < g.vertex_count:
        raise VertexOutOfRange(f"vertex {v} outside [0, {g.vertex_count})")


def _w_values(w: np.ndarray, edges: tuple[np.ndarray, ...], convention: WConvention) -> np.ndarray:
    """W over the edges (i[e], j[e]), or (s[e], i[e], j[e]) of a stack w, by the closed form

        W[i,j] = 2 sum_k max(w_ik, w_jk) - 2 w_ij   (EXCLUDED)

    with k over all vertices; INCLUSIVE drops the -2 w_ij term.  It is exactly
    `edge_w`'s d_i + d_j + sum_{k != i, j} |w_ik - w_jk|, d the weighted
    degrees: the k = i, j terms of the max sum are w_ij each, and for every
    other k, 2 max(a, b) = a + b + |a - b|.  One edge reads its two rows of w,
    O(n).  Edges go in slices of SLICE_ENTRIES // n, so no temporary passes 64 KiB;
    when one slice holds them all, its rows are gathered directly.
    """
    row_i, row_j = edges[:-1], edges[:-2] + edges[-1:]  # (s, i) and (s, j) on a stack
    step = max(1, SLICE_ENTRIES // w.shape[-1])
    if len(edges[0]) <= step:
        total = 2 * np.maximum(w[row_i], w[row_j]).sum(axis=-1)
    else:
        total = 2 * np.concatenate([
            np.maximum(w[tuple(a[s:s + step] for a in row_i)], w[tuple(a[s:s + step] for a in row_j)]).sum(axis=-1)
            for s in range(0, len(edges[0]), step)])
    if convention == WConvention.EXCLUDED:
        total = total - 2 * w[edges]
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
    value = _w_values(g.weights, (np.array([i]), np.array([j])), convention)[0]
    return value if g.exact_weights else float(value)


def max_w(g: WeightedGraph, convention: WConvention = WConvention.EXCLUDED) -> Exact | float | np.ndarray:
    """Maximum of edge_w over all edges.  For a stack of float graphs, one
    maximum per graph, NaN for a graph without edges."""
    edges = g._edge_index
    if g.weights.ndim == 3:
        best = np.full(len(g.weights), np.nan)
        if len(edges[0]):
            first = np.flatnonzero(np.diff(edges[0], prepend=-1))  # each graph's first edge
            best[edges[0][first]] = np.maximum.reduceat(_w_values(g.weights, edges, convention), first)
        return best
    if not len(edges[0]):
        raise NoEdges("graph has no edges")
    best = _w_values(g.weights, edges, convention).max()
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
