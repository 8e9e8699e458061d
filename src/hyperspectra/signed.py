"""Signed graphs: signing enumeration, exact characteristic polynomials and
the polynomials of their squared eigenvalues, the table of signed
characteristic polynomials that every average over signings and the
`signed` command read, real spectra, and balance.

Switching representatives and switching classes both read the one BFS
spanning forest, `_bfs_forest`: representatives fix its edges to +1, and
`switching_class` switches a signing by the potentials read down it, which
puts it on its representative; balance is class 0.  The switching-class
table reads the forest too: with the forest at +1, each cycle's sign is a
character of its free edges, so Sachs' coefficient theorem over one
enumeration of the elementary subgraphs and one Walsh-Hadamard transform
give every class's polynomial at once.  `char_poly_exact`
(Faddeev-LeVerrier, polynomial in n) expands single signings.

Real spectra come from the exact integer characteristic polynomial: each
eigenvalue is a root of one factor of its squarefree decomposition, isolated
by `algebra.real_roots` and rounded to the nearest double, so no iterative
solver and no tolerance is involved.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .algebra import (
    mat_mul,
    mat_power_traces,
    mat_trace,
    poly_mul,
    real_roots,
    squarefree_decomposition,
)
from .errors import BudgetError, ConsistencyError
from .graphs import _Value

SIGNING_EDGE_LIMIT = 20
SIGNING_TABLE_LIMIT = 1 << 21  # entries of a switching-class table


class SignedGraph(_Value):
    """A graph together with a +1/-1 sign per edge (aligned with base.edges).
    Immutable; equal to another SignedGraph (and to nothing else) with the
    same base and signs."""

    __slots__ = ("base", "signs")

    def __init__(self, base, signs):
        if len(signs) != base.m:
            raise ValueError("need exactly one sign per edge")
        if any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "signs", tuple(signs))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.base == other.base and self.signs == other.signs

    def __hash__(self):
        return hash((self.base, self.signs))

    def matrix(self):
        a = [[0] * self.base.n for _ in range(self.base.n)]
        for s, (u, v) in zip(self.signs, self.base.edges):
            a[u][v] = s
            a[v][u] = s
        return a

    def negated(self):
        return SignedGraph(self.base, tuple(-s for s in self.signs))

    def switched(self, diagonal):
        """Conjugate by a +-1 diagonal: edge {u,v} picks up d_u * d_v."""
        signs = tuple(
            s * diagonal[u] * diagonal[v]
            for s, (u, v) in zip(self.signs, self.base.edges)
        )
        return SignedGraph(self.base, signs)


def all_positive(g):
    return SignedGraph(g, (1,) * g.m)


def enumerate_signings(g, up_to_switching=False):
    """All 2^|E| signings, or one representative per switching class.

    Representatives fix a spanning forest to +1 and vary the remaining
    (cycle-space) edges, giving 2^(|E|-|V|+c) classes for c components.
    """
    if not up_to_switching:
        check_signing_edges(g)
        return [
            SignedGraph(g, signs)
            for signs in itertools.product((1, -1), repeat=g.m)
        ]
    tree = spanning_forest_edges(g)
    free = [i for i in range(g.m) if i not in tree]
    check_cycle_space(len(free))
    reps = []
    for combo in itertools.product((1, -1), repeat=len(free)):
        signs = [1] * g.m
        for idx, s in zip(free, combo):
            signs[idx] = s
        reps.append(SignedGraph(g, tuple(signs)))
    return reps


def check_signing_edges(g):
    """Refuse a graph with too many edges to list its 2^|E| signings."""
    if g.m > SIGNING_EDGE_LIMIT:
        raise BudgetError(
            f"signing enumeration supports at most {SIGNING_EDGE_LIMIT} edges, "
            f"got {g.m}"
        )


def check_cycle_space(dimension):
    """Refuse a cycle space too large to list its 2^dimension switching
    classes."""
    if dimension > SIGNING_EDGE_LIMIT:
        raise BudgetError(
            f"cycle space dimension {dimension} exceeds {SIGNING_EDGE_LIMIT}"
        )


def check_signing_table(rank, n):
    """Refuse a switching-class table, 2^rank rows of n + 1 coefficients,
    whose cycle space is too large to list (`check_cycle_space`) or whose
    entries exceed SIGNING_TABLE_LIMIT."""
    check_cycle_space(rank)
    entries = (n + 1) << rank
    if entries > SIGNING_TABLE_LIMIT:
        raise BudgetError(
            f"switching-class table needs {entries} entries ({1 << rank} "
            f"classes of {n + 1} coefficients), budget is {SIGNING_TABLE_LIMIT}"
        )


@lru_cache(maxsize=64)
def _bfs_forest(g):
    """Tree arcs (u, w, edge index) of the BFS spanning forest of g, in BFS
    order: roots ascending, each vertex's neighbours ascending; a tuple,
    memoised per graph, since `switching_class` reads it once per signing."""
    index_of = {e: i for i, e in enumerate(g.edges)}
    nbrs = g.neighbors()
    seen = [False] * g.n
    arcs = []
    for root in range(g.n):
        if not seen[root]:
            seen[root] = True
            queue = [root]
            for u in queue:  # read while it grows: breadth first
                for w in nbrs[u]:
                    if not seen[w]:
                        seen[w] = True
                        arcs.append((u, w, index_of[(min(u, w), max(u, w))]))
                        queue.append(w)
    return tuple(arcs)


def spanning_forest_edges(g):
    """Edge indexes of the BFS spanning forest."""
    return {i for _, _, i in _bfs_forest(g)}


def switching_class(sg):
    """The index t of sg's switching class among the representatives of
    `enumerate_signings(sg.base, up_to_switching=True)`, the order of
    `_class_rows`: switched by the potentials read down the BFS forest from
    +1 at each root, sg is +1 on the forest, and free edge j (of r,
    ascending) carries bit r-1-j when its switched sign is -1."""
    g = sg.base
    potential = [1] * g.n
    tree = set()
    for u, w, i in _bfs_forest(g):
        potential[w] = potential[u] * sg.signs[i]
        tree.add(i)
    t = 0
    for i, (s, (u, v)) in enumerate(zip(sg.signs, g.edges)):
        if i not in tree:
            t = 2 * t + (potential[u] * potential[v] != s)
    return t


def is_balanced(sg):
    """True iff every cycle has positive sign product: sg switches to the
    all-positive class 0."""
    return switching_class(sg) == 0


# ---------------------------------------------------------------------------
# exact characteristic polynomial and moments


def char_poly_exact(sg):
    """Integer coefficients of det(lambda I - A), ascending degree.

    Faddeev-LeVerrier with integer matrices; the only divisions are the
    trace-by-step ones, which are exact for integer inputs.
    """
    a = sg.matrix()
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    mat = [row[:] for row in a]
    for j in range(1, n + 1):
        if j > 1:
            shifted = [row[:] for row in prev]
            for i in range(n):
                shifted[i][i] += coeffs[n - j + 1]
            mat = mat_mul(a, shifted)
        tr = mat_trace(mat)
        q, r = divmod(tr, j)
        if r != 0:
            raise ConsistencyError("Faddeev-LeVerrier trace division not exact")
        coeffs[n - j] = -q
        prev = mat
    return coeffs


def poly_of_squares(phi):
    """The polynomial in x whose roots are the squares of the nonzero roots
    of the integer polynomial phi, with multiplicity; ascending degree.

    Writing phi(lambda) = E(lambda^2) + lambda O(lambda^2), the polynomial
    E(x)^2 - x O(x)^2 equals (-1)^n prod (x - lambda_i^2); its factor x^j from
    the j zero roots is stripped.
    """
    even = poly_mul(phi[0::2], phi[0::2])
    odd = [0] + poly_mul(phi[1::2], phi[1::2])
    q = [a - b for a, b in itertools.zip_longest(even, odd, fillvalue=0)]
    zeros = next(i for i, c in enumerate(q) if c)
    return q[zeros:]


@lru_cache(maxsize=64)
def switching_class_polynomials(g):
    """The distinct characteristic polynomials of the switching classes of
    g, each with the number of classes that have it: a tuple of (ascending
    integer coefficients, count) pairs whose counts sum to 2^r, r =
    |E|-|V|+c the cycle rank for c components, in order of first
    appearance among the representatives of `enumerate_signings(g,
    up_to_switching=True)`.

    Read from `_class_rows`, one enumeration of the elementary subgraphs
    and one Walsh-Hadamard transform.  Memoised per graph; refuses a table
    past `check_signing_table`.
    """
    rows, width = _class_rows(g)
    return tuple(
        (_unpack(row, width, g.n + 1), count) for row, count in Counter(rows).items()
    )


def class_polynomials(g):
    """Each switching class's characteristic polynomial as a tuple of
    ascending integer coefficients, in the order of `enumerate_signings(g,
    up_to_switching=True)`, indexed by `switching_class`: the unpacked
    `_class_rows`, not memoised.  Refuses a table past
    `check_signing_table`."""
    rows, width = _class_rows(g)
    return [_unpack(row, width, g.n + 1) for row in rows]


def _class_rows(g):
    """Each switching class's characteristic polynomial, in the order of
    `enumerate_signings(g, up_to_switching=True)`, packed as the integer
    sum_i a_i 2^(width i) of its coefficients a_i; returns (rows, width).

    Sachs' coefficient theorem for signed graphs: the coefficient of
    lambda^(n-i) is the sum, over the elementary subgraphs H on i vertices
    (vertex-disjoint K2s and cycles), of (-1)^p(H) 2^c(H) times the sign
    products of H's c(H) cycles, p(H) its components.  With the BFS forest
    fixed to +1, free edge j (of r, ascending) carries bit r-1-j, and a
    cycle's sign in class t is (-1)^|z & t|, z the bits of its free edges.
    So row F_z sums the terms of the H whose cycles' bits XOR to z, and the
    class rows are the Walsh-Hadamard transform of F.  No coefficient
    exceeds sum_H 2^c(H) in absolute value, the sum of the permanents of
    the principal submatrices of the adjacency matrix, at most (1 + max
    degree)^n, so a width of n bitlength(1 + max degree) + 2 bits holds
    each signed digit, and equal rows are equal polynomials.
    """
    n = g.n
    tree = spanning_forest_edges(g)
    free = [e for i, e in enumerate(g.edges) if i not in tree]
    rank = len(free)
    check_signing_table(rank, n)
    nbrs = g.neighbors()
    width = n * (1 + max(map(len, nbrs), default=0)).bit_length() + 2
    bit = [[0] * n for _ in range(n)]
    for j, (u, v) in enumerate(free):
        bit[u][v] = bit[v][u] = 1 << (rank - 1 - j)
    # pieces[v]: the K2s and cycles whose least vertex is v, as (vertex
    # mask, vertex count, factor -1 or -2, free-edge bits z)
    pieces = [[] for _ in range(n)]
    for u, v in g.edges:
        pieces[u].append((1 << u | 1 << v, 2, -1, 0))
    for v in range(n):
        # simple paths v, a, ..., u through vertices above v; each cycle
        # closes twice, and is kept in the direction with a < u
        stack = [(w, w, 1 << v | 1 << w, 2, bit[v][w]) for w in nbrs[v] if w > v]
        while stack:
            a, u, mask, count, z = stack.pop()
            for w in nbrs[u]:
                if w == v and count > 2 and a < u:
                    pieces[v].append((mask, count, -2, z ^ bit[u][v]))
                elif w > v and not mask >> w & 1:
                    stack.append((a, w, mask | 1 << w, count + 1, z ^ bit[u][w]))
    rows = [0] * (1 << rank)
    # each elementary subgraph once, its pieces by ascending least vertex
    stack = [(0, 0, 0, 1, 0)]
    while stack:
        start, used, count, term, z = stack.pop()
        rows[z] += term << width * (n - count)
        for v in range(start, n):
            if not used >> v & 1:
                for mask, size, factor, cycle in pieces[v]:
                    if not mask & used:
                        stack.append(
                            (v + 1, used | mask, count + size, term * factor, z ^ cycle)
                        )
    _walsh_hadamard(rows)
    return rows, width


def _walsh_hadamard(rows):
    """In place: rows[t] becomes sum_z rows[z] (-1)^|z & t|, for a list of
    length a power of two."""
    half = 1
    while half < len(rows):
        for start in range(0, len(rows), 2 * half):
            for i in range(start, start + half):
                a, b = rows[i], rows[i + half]
                rows[i], rows[i + half] = a + b, a - b
        half *= 2


def _unpack(row, width, length):
    """The length signed width-bit digits of a packed row, lowest first."""
    coeffs = []
    for _ in range(length):
        digit = row & ((1 << width) - 1)
        if digit >> (width - 1):
            digit -= 1 << width
        coeffs.append(digit)
        row = (row - digit) >> width
    return tuple(coeffs)


def signing_polynomials(g):
    """The distinct characteristic polynomials of the 2^|E| signings of g,
    each with the number of signings that have it: a tuple of
    (ascending integer coefficients, count) pairs whose counts sum to 2^|E|.

    A switching class holds 2^|F| signings, F a spanning forest, whose size
    is |V| minus the number of components, so this is
    `switching_class_polynomials` with each count scaled by 2^|F|.  Refuses
    more than SIGNING_EDGE_LIMIT edges, as the enumeration of all signings
    does.
    """
    check_signing_edges(g)
    per_class = 1 << (g.n - len(g.components()))
    return tuple(
        (poly, count * per_class) for poly, count in switching_class_polynomials(g)
    )


def signed_spectral_moment(sg, d):
    """Exact trace of the d-th power of the signed adjacency matrix."""
    if d < 0:
        raise ValueError("moment order must be non-negative")
    return mat_power_traces(sg.matrix(), d)[d]


# ---------------------------------------------------------------------------
# real spectra, from the exact characteristic polynomial


def eigenvalues(sg):
    """Full real spectrum of the signed adjacency matrix, descending, each
    value the double nearest the exact eigenvalue: the roots of
    char_poly_exact, by `_roots`."""
    return _roots(char_poly_exact(sg))


def _roots(poly):
    """The roots of an integer polynomial whose roots are all real,
    descending, each the double nearest the exact root: the roots of each
    factor of its squarefree decomposition, repeated by that factor's
    multiplicity."""
    roots = [
        root
        for multiplicity, factor in enumerate(squarefree_decomposition(poly), start=1)
        for root in real_roots(factor)
        for _ in range(multiplicity)
    ]
    return tuple(sorted(roots, reverse=True))


@lru_cache(maxsize=64)
def spectral_radius(g):
    """Spectral radius of the underlying (all-positive) graph; memoised per
    graph, since each radius check and convergence ratio reads it."""
    return max(map(abs, eigenvalues(all_positive(g))), default=0.0)
