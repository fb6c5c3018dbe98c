"""Simple weighted graphs read off Laplacians, and the edge functional W[i,j].

A graph is its weight array: the read-only, dense, symmetric (n, n) matrix of
edge weights with a zero diagonal, in the entry type of the Laplacian it was
read off: floats, or Exact scalars (an object array), so W values stay exact
for exact inputs; the paper's exact W values are pinned on such graphs.
Edges are chosen on float values, and `edges(g)` lists them as index arrays,
with one np.nonzero.  That list is the one-graph form every edge reader
takes: `is_connected` and `max_w` accept it as `ends`, a function that
returns it, which they call only on the paths that read it, so a caller
that keeps the list (a state's `edges`) finds it at most once per graph,
and not at all when the edge count answers connectivity and max W takes
its bounded path.  `is_connected` answers one graph from its edge count or
with one depth-first pass over adjacency lists built from the list.
W is one closed form, by the max identity a + b + |a - b| = 2 max(a, b), over
heap-sized edge slices (`_w_values`).  `max_w` and `edge_w` read bool and
integer weights as float64, so no sum or doubled weight wraps around.

With d the weighted degrees, q_i = sum_k w_ik^2 and G = w w^T, that closed form
is W[i,j] = d_i + d_j + sum_{k != i,j} |w_ik - w_jk| (EXCLUDED) for
non-negative weights, so by Cauchy-Schwarz over the n - 2 terms of the sum

    d_i + d_j <= W[i,j] <= U[i,j] = d_i + d_j + sqrt(n-2) sqrt(q_i + q_j - 2 G_ij - 2 w_ij^2),

and INCLUSIVE adds 2 w_ij to all three.  `max_w` of one float graph whose
edges fill more than one slice reads U off one matrix product, weighs the edge
with the largest U, and then only the edges whose U reaches that W: the
others cannot hold the max (see `max_w`).

A stack of graphs is a (b, n, n) weight array, read off a stack of
Laplacians.  Its edges are (s, i, j) triples, and `is_connected` and `max_w`
give one value per graph, `is_connected` by a breadth-first search of all
the graphs at once, one numpy pass per level; `edge_w` and `export_dot`
read one graph and reject a stack.  W is defined on edges only, so the max
W of a graph without edges is NaN, for one graph as for each graph of a
stack; `edge_w` also refuses an edge whose weight is negative, inf or NaN.
A graph's weights are the moduli of its state's off-diagonal entries, so
`export_dot(m, ends)` labels the edges it is handed from a state's own
entries m, with `exact.format_scalar`, as matrix-file entries are written:
an exact m's labels once per distinct entry object.

Vertices are 0-based everywhere in the API; rendering (DOT, CLI) is 1-based.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cache
from typing import Callable

import numpy as np

from .exact import ZERO, Exact, format_scalar, once_per_object
from .errors import DimensionMismatch, NotAnEdge, VertexOutOfRange
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


def edges(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """Endpoint arrays (i, j), i < j, of every edge of g in row-major order;
    (s, i, j) for a stack, so the edges of each graph s are contiguous."""
    return np.nonzero(g.astype(bool) & _upper(g.shape[-1]))


def graph_from_laplacian(lap: np.ndarray) -> np.ndarray:
    """The graph of a Laplacian as `laplacian_of_density` builds it: edge
    (i,j, -l_ij) for every off-diagonal l_ij below -EDGE_THRESHOLD; the stack
    of each Laplacian's graph for a stack (..., n, n).

    The weights are in lap's entry type, float or Exact.  A float graph is
    read off -L with one comparison and one `where`: such an L is symmetric,
    its off-diagonal entries are -|m_ij| <= 0 and its diagonal, a row sum of
    moduli, is >= 0, so the comparison already leaves the diagonal and every
    non-edge out, and the graph is symmetric with +0.0 off the edges.  An
    exact graph chooses its edges on the float values of the strict upper
    triangle, |l_ij| above EDGE_THRESHOLD, and mirrors them.  Off the
    diagonal, a state's exact Laplacian equals its float Laplacian bit for
    bit, so the two graphs have the same edges.
    """
    if lap.dtype != object:
        w = np.where(lap < -EDGE_THRESHOLD, -lap, 0.0)
    else:
        edge = (np.abs(lap.astype(float)) > EDGE_THRESHOLD) & _upper(lap.shape[-1])
        w = ZERO - np.where(edge, lap, ZERO)
        w = w + w.swapaxes(-1, -2)
    w.flags.writeable = False
    return w


def is_connected(g: np.ndarray, ends: Callable[[], tuple[np.ndarray, ...]] | None = None) -> bool | np.ndarray:
    """True iff all vertices lie in one component; one bool per graph of a stack.

    A simple graph on n vertices with more than (n-1)(n-2)/2 edges is
    connected: a disconnected one has at most the edges of a complete graph
    on n - 1 vertices.  So for one graph above that count, the count answers;
    else one depth-first pass over g's edge list does (`_spans`).  `ends`,
    when given, returns that list as `edges(g)` does: a caller that keeps it
    (a state's `edges`) hands it over, and it is read only for the search.
    Graphs on 0 or 1 vertices are connected.  A stack is searched breadth
    first from vertex 0, level by level, one numpy pass per level for all of
    its graphs (`_stack_connected`).
    """
    if g.ndim == 3:
        return _stack_connected(g)
    n = len(g)
    if n < 2 or np.count_nonzero(g) > (n - 1) * (n - 2):  # each edge is two non-zero entries
        return True
    return _spans(n, edges(g) if ends is None else ends())


def _spans(n: int, ends: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether the edges (i[e], j[e]) join all n >= 1 vertices: one depth-first
    pass from vertex 0 over Python adjacency lists built from them."""
    adjacent = [[] for _ in range(n)]
    for i, j in zip(ends[0].tolist(), ends[1].tolist()):
        adjacent[i].append(j)
        adjacent[j].append(i)
    seen = [False] * n
    seen[0] = True
    todo, unseen = [0], n - 1
    while todo:
        for v in adjacent[todo.pop()]:
            if not seen[v]:
                seen[v] = True
                unseen -= 1
                todo.append(v)
    return not unseen


def _stack_connected(g: np.ndarray) -> np.ndarray:
    """`is_connected` of each graph of a stack: breadth first from vertex 0,
    each level one boolean matmul for all the graphs; True for each graph on
    no vertex."""
    adj = g.astype(bool)
    seen = frontier = np.broadcast_to(np.arange(g.shape[-1]) == 0, g.shape[:-1])
    while frontier.any():
        frontier = np.matmul(frontier[..., None, :], adj)[..., 0, :] & ~seen  # boolean: any frontier neighbour
        seen = seen | frontier
    return seen.all(axis=-1)


def _check_one_graph(g: np.ndarray) -> None:
    if g.ndim == 3:
        raise DimensionMismatch(f"expected one graph, got a stack of {len(g)}")


def _weights(g: np.ndarray) -> np.ndarray:
    """g with bool and integer weights read as float64: W doubles weights and
    sums n of them, which wraps a small integer type, and a bool matmul is logical."""
    return g.astype(np.float64) if g.dtype.kind in "biu" else g


def _w_values(w: np.ndarray, ends: tuple[int | np.ndarray, ...], convention: WConvention) -> np.ndarray:
    """W over the edges (i[e], j[e]), or (s[e], i[e], j[e]) of a stack w, by the closed form

        W[i,j] = 2 sum_k max(w_ik, w_jk) - 2 w_ij   (EXCLUDED)

    with k over all vertices; INCLUSIVE drops the -2 w_ij term.  It is exactly
    `edge_w`'s d_i + d_j + sum_{k != i, j} |w_ik - w_jk|, d the weighted
    degrees, for a finite w_ij >= 0: the k = i, j terms of the max sum are
    w_ij each, and for every other k, 2 max(a, b) = a + b + |a - b|.  One edge,
    as two ints (i, j), reads its two rows of w, O(n), and gives a scalar.
    Edges go in slices of SLICE_ENTRIES // n, so no temporary passes 64 KiB;
    when one slice holds them all, its rows are gathered directly.
    """
    row_i, row_j = ends[:-1], ends[:-2] + ends[-1:]  # (s, i) and (s, j) on a stack
    step = max(1, SLICE_ENTRIES // w.shape[-1])
    if np.size(ends[0]) <= step:
        total = 2 * np.maximum(w[row_i], w[row_j]).sum(axis=-1)
    else:
        total = 2 * np.concatenate([
            np.maximum(w[tuple(a[s:s + step] for a in row_i)], w[tuple(a[s:s + step] for a in row_j)]).sum(axis=-1)
            for s in range(0, len(ends[0]), step)])
    if convention == WConvention.EXCLUDED:
        total = total - 2 * w[ends]
    return total


def edge_w(g: np.ndarray, i: int, j: int,
           convention: WConvention = WConvention.EXCLUDED) -> Exact | float:
    """The edge functional

        W[i,j] = w_i + w_j + sum_{k~i, k!~j} w_ik + sum_{k~j, k!~i} w_jk
                 + sum_{k~i, k~j} |w_ik - w_jk|

    over an existing edge (i,j) of one graph; see WConvention for the k range.
    Exact on exact graphs, float otherwise.  W is defined on an edge whose
    weight w_ij is finite and non-negative, as every coherence graph's is: a
    negative, infinite or NaN w_ij raises ValueError.
    """
    _check_one_graph(g)
    g = _weights(g)
    n = g.shape[-1]
    for v in (i, j):
        if not 0 <= v < n:
            raise VertexOutOfRange(f"vertex {v} outside [0, {n})")
    w = g[i, j]
    if i == j or not w:
        raise NotAnEdge(f"({i}, {j}) is not an edge")
    if w < 0 or (g.dtype != object and not np.isfinite(w)):
        raise ValueError(f"W is not defined on the edge ({i}, {j}) of weight {w}")
    value = _w_values(g, (i, j), convention)
    return value if g.dtype == object else float(value)


def _contenders(g: np.ndarray, convention: WConvention) -> tuple[np.ndarray, np.ndarray]:
    """The edges (i, j) of one float graph, in row-major order, whose W can be
    its max: the edge with the largest bound U, and each edge whose U reaches
    that edge's W less the margin tau of `max_w`.  Every edge when a weight is
    negative, inf or NaN."""
    low, top = g.min(), g.max()
    if low < 0 or not np.isfinite(top):
        return edges(g)
    n = len(g)
    exp = math.frexp(top)[1]
    h = np.ldexp(g, -exp, dtype=np.float64)  # 0 <= h < 1; exact unless an entry falls below 2^-1022
    gram = h @ h.T
    q, d = gram.diagonal(), h.sum(axis=1)
    bound = h * h  # in place: q_i + q_j - 2 G_ij - 2 h_ij^2, then U
    bound += gram
    bound *= -2
    bound += q[:, None]
    bound += q
    np.maximum(bound, 0, out=bound)
    bound += 4 * n * n * np.finfo(np.float64).eps  # rho
    np.sqrt(bound, out=bound)
    bound *= math.sqrt(n - 2)
    bound += d[:, None]
    bound += d
    if convention == WConvention.INCLUSIVE:
        bound += 2 * h
    bound = np.where(g.astype(bool) & _upper(n), bound, -np.inf).ravel()  # edges only
    seed = bound.argmax()
    floor = np.ldexp(_w_values(g, divmod(int(seed), n), convention), -exp, dtype=np.float64)
    keep = bound >= floor - 4 * n * n * np.finfo(g.dtype).eps  # tau
    keep[seed] = True  # also when its W overflows to inf
    return np.divmod(np.flatnonzero(keep), n)


def max_w(g: np.ndarray, convention: WConvention = WConvention.EXCLUDED,
          ends: Callable[[], tuple[np.ndarray, ...]] | None = None) -> Exact | float | np.ndarray:
    """Maximum of edge_w over all edges, NaN for a graph without edges; one
    maximum per graph of a stack of float graphs.

    Every path but the bounded one below weighs g's edge list: `ends`, when
    given, returns it as `edges(g)` does (a state's `edges`), and it is read
    only there, so a graph that takes the bounded path builds no edge list.

    One float graph with non-negative, finite weights (a coherence graph's
    are moduli) whose edges fill more than one slice of `_w_values` weighs
    only its contenders (`_contenders`).  Its max is bit for bit the max over
    all edges: it is the same kernel on the same rows, and the edge where the
    kernel's W is largest is a contender.  The bound U of the module
    docstring is read on h = 2^-e g, e the binary exponent of max g.  A power
    of two scales exactly, so h < 1 keeps the matrix product from
    overflowing, and subnormal weights come out normal; only entries of h
    below 2^-1022 round, by under 2^-1074.

    The margins, with u = 2^-53, u_w the unit roundoff of g's dtype (float64
    or float32), n >= 26 (more than 8192 // n edges) and every value in units
    of h.  The computed R = q_i + q_j - 2 G_ij - 2 h_ij^2 errs by under
    4.4 n^2 u, so rho = 8 n^2 u under the root keeps sqrt(max(R, 0) + rho)
    at or above the exact root.  With the rounding of d and of the last sums,
    the exact U exceeds the computed one by under 3 n^2 u.  The kernel sums
    n terms under 1 in g's dtype, so its W is within 2.2 n^2 u_w of the exact
    one.  Let floor be the kernel's W of the edge s with the largest computed
    U, and a an edge where the kernel's W is largest.  In exact arithmetic
    U_a + 3 n^2 u >= W_a >= floor - 2.2 n^2 u_w, so keeping each edge whose
    computed U is at least floor - tau, tau = 8 n^2 u_w, keeps a; the rest
    of tau covers the rounding of the comparison and the underflow above.
    s is kept by name, so a floor that overflows to inf keeps it, and an
    edge whose W overflows has a finite U above every finite floor.  Graphs
    with a negative, inf or NaN weight, stacks, exact graphs and graphs that
    fit one slice weigh every edge.  Unlike `edge_w`, `max_w` does not refuse
    such weights, on which W is not defined: a coherence graph has none, and
    the check would run on every state.  It returns the closed form's max,
    in which a negative w_ij adds 4 |w_ij| and an inf one is NaN (EXCLUDED).
    """
    g = _weights(g)
    # more edges than one slice holds, each edge being two non-zero entries
    if g.ndim == 2 and g.dtype != object and np.count_nonzero(g) > 2 * (SLICE_ENTRIES // len(g)):
        found = _contenders(g, convention)
    else:
        found = edges(g) if ends is None else ends()
    if g.ndim == 3:
        best = np.full(len(g), np.nan)
        if len(found[0]):
            first = np.flatnonzero(np.diff(found[0], prepend=-1))  # each graph's first edge
            best[found[0][first]] = np.maximum.reduceat(_w_values(g, found, convention), first)
        return best
    if not len(found[0]):
        return math.nan
    best = _w_values(g, found, convention).max()
    return best if g.dtype == object else float(best)


def export_dot(m: np.ndarray, ends: tuple[np.ndarray, np.ndarray]) -> str:
    """Deterministic DOT text of one graph: undirected, vertices labelled 1..n,
    each edge (i, j) of `ends` labelled `format_scalar` of |m_ij|.

    `m` is a matrix whose entry moduli are its graph's weights, such as the
    graph itself or a state's `literal` entries, exact when the state has
    them; `ends` are that graph's edges, as `edges` lists them.  The moduli
    of a float or complex m are np.abs's, as `laplacian_of_density` takes
    them: Python's abs of a numpy complex scalar can differ from it in the
    last bit.  An exact m's label is written once per distinct entry object
    (`once_per_object`), as its exact Laplacian takes each modulus once.
    """
    _check_one_graph(m)
    lines = ["graph G {"]
    lines.extend(f"  {v + 1};" for v in range(m.shape[-1]))
    if m.dtype == object:
        labels = map(once_per_object(lambda v: format_scalar(abs(v))), m[ends])
    else:
        labels = map(format_scalar, np.abs(m[ends]))
    lines.extend(f'  {a + 1} -- {b + 1} [label="{label}"];' for a, b, label in zip(*ends, labels))
    lines.append("}")
    return "\n".join(lines) + "\n"
