"""Signed graphs: signing enumeration, exact characteristic polynomials and
the polynomials of their squared eigenvalues, the table of distinct signed
characteristic polynomials that every average over signings reads, real
spectra, and balance.

Real spectra come from the exact integer characteristic polynomial: each
eigenvalue is a root of one factor of its squarefree decomposition, isolated
by `algebra.real_roots` and rounded to the nearest double, so no iterative
solver and no tolerance is involved.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
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

SIGNING_EDGE_LIMIT = 20


@dataclass(frozen=True)
class SignedGraph:
    """A graph together with a +1/-1 sign per edge (aligned with base.edges)."""

    base: object
    signs: tuple

    def __post_init__(self):
        if len(self.signs) != self.base.m:
            raise ValueError("need exactly one sign per edge")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", tuple(self.signs))

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


def largest_cycle_rank(g):
    """The largest cycle rank |E(C)| - |V(C)| + 1 over the components C of g
    (0 for a forest), which bounds the cycle rank of every connected
    subgraph of g."""
    return max((h.m - h.n + 1 for h in map(g.induced, g.components())), default=0)


def spanning_forest_edges(g):
    """Edge indexes of a BFS spanning forest."""
    index_of = {e: i for i, e in enumerate(g.edges)}
    nbrs = g.neighbors()
    seen = [False] * g.n
    tree = set()
    for root in range(g.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    tree.add(index_of[(min(u, w), max(u, w))])
                    queue.append(w)
    return tree


def is_balanced(sg):
    """True iff every cycle has positive sign product, via a spanning-tree
    potential assignment."""
    g = sg.base
    sign_of = {}
    for s, (u, v) in zip(sg.signs, g.edges):
        sign_of[(u, v)] = s
    nbrs = g.neighbors()
    potential = [0] * g.n
    for root in range(g.n):
        if potential[root]:
            continue
        potential[root] = 1
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in nbrs[u]:
                s = sign_of[(min(u, w), max(u, w))]
                if potential[w] == 0:
                    potential[w] = potential[u] * s
                    queue.append(w)
    for s, (u, v) in zip(sg.signs, g.edges):
        if potential[u] * potential[v] != s:
            return False
    return True


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


def char_poly_of_squares(sg):
    """Integer polynomial in x whose roots are the squares of the nonzero
    eigenvalues, with multiplicity; ascending degree, leading coefficient +-1.
    """
    return poly_of_squares(char_poly_exact(sg))


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
    integer coefficients, count) pairs whose counts sum to 2^(|E|-|V|+c)
    for c components.

    Switching is a +-1 diagonal similarity, so every signing of a class has
    the class's polynomial, and one representative per class is expanded.
    Memoised per graph; refuses a cycle space of dimension above
    SIGNING_EDGE_LIMIT, as the enumeration of switching classes does.
    """
    table = Counter(
        tuple(char_poly_exact(sg))
        for sg in enumerate_signings(g, up_to_switching=True)
    )
    return tuple(table.items())


def signing_polynomials(g):
    """The distinct characteristic polynomials of the 2^|E| signings of g,
    each with the number of signings that have it: a tuple of
    (ascending integer coefficients, count) pairs whose counts sum to 2^|E|.

    A switching class holds 2^|F| signings (F a spanning forest), so this is
    `switching_class_polynomials` with each count scaled by 2^|F|.  Refuses
    more than SIGNING_EDGE_LIMIT edges, as the enumeration of all signings
    does.
    """
    check_signing_edges(g)
    per_class = 1 << len(spanning_forest_edges(g))
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
    value the double nearest the exact eigenvalue: the roots of each factor
    of the squarefree decomposition of char_poly_exact, repeated by that
    factor's multiplicity."""
    eigs = [
        root
        for multiplicity, factor in enumerate(
            squarefree_decomposition(char_poly_exact(sg)), start=1
        )
        for root in real_roots(factor)
        for _ in range(multiplicity)
    ]
    return tuple(sorted(eigs, reverse=True))


@lru_cache(maxsize=64)
def spectral_radius(g):
    """Spectral radius of the underlying (all-positive) graph; memoised per
    graph, since each radius check and convergence ratio reads it."""
    return max(map(abs, eigenvalues(all_positive(g))), default=0.0)
