"""Multi-digraph machinery: arborescence counts via the matrix-tree theorem,
Eulerian-walk counting (the BEST formula, `eulerian_walk_count`, and its
reference, `eulerian_walks_by_backtracking`), the core-vertex
lift/reduction between a digraph on a motif and the digraph on its k-power,
the spanning-tree reduction identity, the naive tensor trace oracle, and the
closed-form spectral-moment coefficients.

Eulerian walks are closed arc sequences that use every arc exactly its
multiplicity and are distinguished by their starting arc; with that
convention the 2-cycle has exactly 2 Eulerian walks, matching the
|E(D)|/b(D) prefactor of the counting formula.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algebra import det_bareiss
from .errors import BudgetError, ConsistencyError
from .graphs import Graph, _classes, _Value, power_hypergraph
from .spectrum import power_moment_prefactor
from .walks import TRACE_TERM_BUDGET, covering_parity_profile

BRUTE_ARC_LIMIT = 12
STRUCTURE_BUDGET = 200_000


class Multidigraph(_Value):
    """Directed multigraph with no self-arcs, stored as sorted arc items
    ((tail, head), multiplicity).  Immutable; equal to another Multidigraph
    (and to nothing else) with the same n and arcs."""

    __slots__ = ("n", "arcs")

    def __init__(self, n, arcs):
        merged = {}
        for (u, v), mult in arcs:
            if u == v:
                raise ValueError(f"self-arc at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc {(u, v)} out of range")
            if mult <= 0:
                raise ValueError("arc multiplicities must be positive")
            merged[(u, v)] = merged.get((u, v), 0) + mult
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "arcs", tuple(sorted(merged.items())))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self):
        return hash((self.n, self.arcs))

    def multiplicity(self, u, v):
        for (a, b), mult in self.arcs:
            if (a, b) == (u, v):
                return mult
        return 0

    def multiplicity_map(self):
        return dict(self.arcs)

    @property
    def arc_count(self):
        return sum(m for _, m in self.arcs)

    def out_degree(self, v):
        return sum(m for (a, _), m in self.arcs if a == v)

    def in_degree(self, v):
        return sum(m for (_, b), m in self.arcs if b == v)

    def support_vertices(self):
        touched = set()
        for (u, v), _ in self.arcs:
            touched.add(u)
            touched.add(v)
        return sorted(touched)

    def support_edges(self):
        """Unordered pairs {u,v} carrying at least one arc."""
        pairs = set()
        for (u, v), _ in self.arcs:
            pairs.add((min(u, v), max(u, v)))
        return sorted(pairs)

    def is_balanced(self):
        return all(self.out_degree(v) == self.in_degree(v) for v in range(self.n))

    def is_connected_on_support(self):
        """Exactly one class of the vertices joined by the arcs has two or
        more vertices: every support vertex has an arc, so none is alone."""
        classes = _classes(self.n, (arc for arc, _ in self.arcs))
        return sum(len(c) > 1 for c in classes) == 1

    def is_eulerian(self):
        return bool(self.arcs) and self.is_balanced() and self.is_connected_on_support()

    def b_value(self):
        """Product of the factorials of the arc multiplicities."""
        out = 1
        for _, m in self.arcs:
            out *= math.factorial(m)
        return out

    def restricted_to_support(self):
        """Copy with isolated vertices dropped and the rest relabeled 0..s-1."""
        support = self.support_vertices()
        pos = {v: i for i, v in enumerate(support)}
        arcs = tuple(((pos[u], pos[v]), m) for (u, v), m in self.arcs)
        return Multidigraph(len(support), arcs)

    def to_json_obj(self):
        """Arc-multiplicity map keyed "u->v", plus the vertex count."""
        return {
            "n": self.n,
            "arcs": {f"{u}->{v}": m for (u, v), m in self.arcs},
        }

    @classmethod
    def from_json_obj(cls, payload):
        arcs = []
        for key, m in payload["arcs"].items():
            u, _, v = key.partition("->")
            arcs.append(((int(u), int(v)), int(m)))
        return cls(payload["n"], tuple(arcs))


def arborescence_count(d, root):
    """Spanning in-trees oriented toward root: the root minor of the
    out-degree Laplacian, evaluated exactly."""
    if not (0 <= root < d.n):
        raise ValueError("root out of range")
    n = d.n
    lap = [[0] * n for _ in range(n)]
    for (u, v), m in d.arcs:
        lap[u][u] += m
        lap[u][v] -= m
    minor = [
        [lap[i][j] for j in range(n) if j != root]
        for i in range(n)
        if i != root
    ]
    return det_bareiss(minor)


def eulerian_walk_count(d):
    """Number of Eulerian walks (starting-arc convention), by the BEST
    formula |E(D)|/b(D) * t(D) * prod (deg+(v) - 1)!, with t(D) checked to
    be root-independent."""
    if not d.is_eulerian():
        raise ValueError("Eulerian walk counting needs an Eulerian multi-digraph")
    # spanning trees live on the support; ambient isolated vertices
    # (e.g. untouched hypergraph vertices) must not zero the minor
    core = d.restricted_to_support()
    trees = [arborescence_count(core, r) for r in range(core.n)]
    if len(set(trees)) != 1:
        raise ConsistencyError("arborescence count is root-dependent")
    prod = 1
    for v in range(core.n):
        prod *= math.factorial(core.out_degree(v) - 1)
    numerator = core.arc_count * trees[0] * prod
    q, r = divmod(numerator, core.b_value())
    if r != 0:
        raise ConsistencyError("Eulerian walk formula did not divide evenly")
    return q


def eulerian_walks_by_backtracking(d):
    """The Eulerian walks of `eulerian_walk_count`, counted by backtracking
    over arc sequences; bounded by BRUTE_ARC_LIMIT arcs."""
    if not d.is_eulerian():
        raise ValueError("Eulerian walk counting needs an Eulerian multi-digraph")
    if d.arc_count > BRUTE_ARC_LIMIT:
        raise BudgetError(
            f"brute Eulerian enumeration capped at {BRUTE_ARC_LIMIT} arcs"
        )
    remaining = d.multiplicity_map()
    out_arcs = {}
    for (u, v), _ in d.arcs:
        out_arcs.setdefault(u, []).append(v)
    total_arcs = d.arc_count

    def walks_from(v, used):
        if used == total_arcs:
            return 1 if v == start else 0
        count = 0
        for w in out_arcs.get(v, ()):  # arc types in sorted order
            if remaining[(v, w)] > 0:
                remaining[(v, w)] -= 1
                count += walks_from(w, used + 1)
                remaining[(v, w)] += 1
        return count

    total = 0
    for start in d.support_vertices():
        total += walks_from(start, 0)
    return total


# ---------------------------------------------------------------------------
# core-vertex lift and reduction


def lift_core_map(dstar, k):
    """Deterministic core layout for the lift: the core map of the k-power
    of the support graph, whose cores follow the base vertices in
    support-edge order."""
    return power_hypergraph(Graph(dstar.n, dstar.support_edges()), k).core_map


def lift_from_core(dstar, k):
    """Rebuild the digraph on the k-power of the support motif from its
    core-free reduction.

    For every support edge {i,j} with half = (m(i,j)+m(j,i))/2, each core v
    sends half arcs to every other vertex of the hyperedge, while i and j
    send m(i,j) resp. m(j,i) arcs to every core.  The edge totals must be
    even (and positive on the support) for the reconstruction to exist.
    """
    if k < 3:
        raise ValueError("lift needs k >= 3")
    mult = dstar.multiplicity_map()
    layout = lift_core_map(dstar, k)
    arcs = dict(mult)
    total_n = dstar.n
    for i, j, cores in layout:
        total = mult.get((i, j), 0) + mult.get((j, i), 0)
        if total % 2 != 0:
            raise ValueError(f"edge {{{i},{j}}} has odd arc total {total}")
        half = total // 2
        hyperedge = (i, j) + cores
        for v in cores:
            for u in hyperedge:
                if u != v:
                    arcs[(v, u)] = half
        for v in cores:
            if mult.get((i, j), 0):
                arcs[(i, v)] = mult[(i, j)]
            if mult.get((j, i), 0):
                arcs[(j, v)] = mult[(j, i)]
        total_n = max(total_n, max(cores) + 1 if cores else total_n)
    arcs = {arc: m for arc, m in arcs.items() if m > 0}
    return Multidigraph(total_n, tuple(arcs.items()))


def reduce_to_core(d, core_map):
    """Inverse of lift_from_core: validate the multiplicity relations of a
    digraph on a power hypergraph and strip its core vertices."""
    mult = d.multiplicity_map()
    core_vertices = set()
    for _, _, cores in core_map:
        core_vertices.update(cores)
    base_vertices = [v for v in range(d.n) if v not in core_vertices]

    hyperedge_of = {}
    for i, j, cores in core_map:
        hyperedge = set((i, j) + tuple(cores))
        for v in cores:
            hyperedge_of[v] = hyperedge
        # uniform out-multiplicity within the hyperedge, for every member
        for v in sorted(hyperedge):
            outs = {mult.get((v, u), 0) for u in hyperedge if u != v}
            if len(outs) != 1:
                raise ValueError(
                    f"vertex {v} has non-uniform arcs inside hyperedge {{{i},{j}}}"
                )
        total = mult.get((i, j), 0) + mult.get((j, i), 0)
        for v in cores:
            if 2 * mult.get((v, i), 0) != total:
                raise ValueError(
                    f"core {v} multiplicity does not match half the edge total"
                )
    base_pairs = {(min(i, j), max(i, j)) for i, j, _ in core_map}
    for (u, v), _ in d.arcs:
        u_core, v_core = u in core_vertices, v in core_vertices
        if u_core and v not in hyperedge_of[u]:
            raise ValueError(f"core {u} has an arc leaving its hyperedge")
        if v_core and u not in hyperedge_of[v]:
            raise ValueError(f"core {v} has an arc entering from outside")
        if not u_core and not v_core:
            if (min(u, v), max(u, v)) not in base_pairs:
                raise ValueError(f"base arc {(u, v)} is not covered by the core map")
    if base_vertices != list(range(len(base_vertices))):
        raise ValueError("base vertices must be the initial contiguous block")
    arcs = {
        (u, v): m
        for (u, v), m in d.arcs
        if u not in core_vertices and v not in core_vertices
    }
    return Multidigraph(len(base_vertices), tuple(arcs.items()))


class TreeReductionReport(NamedTuple):
    t_direct: int
    t_formula: int
    t_dstar: int
    root: int

    @property
    def ok(self):
        return self.t_direct == self.t_formula


def spanning_tree_reduction_check(dstar, k):
    """Compare t(lift(D*)) computed by determinant against the closed-form
    reduction t(D*) * k^(E(k-3)+V-1) * 2^(E-V+1) * prod(half)^(k-2), where
    V, E refer to the support motif of D*.  Both sides share the same root.
    """
    lifted = lift_from_core(dstar, k)
    support = dstar.support_vertices()
    if not support:
        raise ValueError("empty digraph")
    root = support[0]
    v_count = len(support)
    edges = dstar.support_edges()
    e_count = len(edges)
    mult = dstar.multiplicity_map()
    t_direct = arborescence_count(lifted, root)
    t_dstar = arborescence_count(dstar, root)
    halves = 1
    for i, j in edges:
        halves *= (mult.get((i, j), 0) + mult.get((j, i), 0)) // 2
    t_formula = (
        t_dstar
        * k ** (e_count * (k - 3) + v_count - 1)
        * 2 ** (e_count - v_count + 1)
        * halves ** (k - 2)
    )
    return TreeReductionReport(t_direct, t_formula, t_dstar, root)


# ---------------------------------------------------------------------------
# the naive tensor-trace oracle


class TraceTerm(NamedTuple):
    """One term of the trace formula: a sequence of rooted hyperedges with
    non-decreasing roots, each carrying an ordering of its non-root
    vertices, together with its weight b/c * entry-product * walk-count."""

    rooted_hyperedges: tuple  # ((root, ordered remainder), ...)
    weight: Fraction


def trace_terms(h, d, term_budget=200_000):
    """Yield every nonzero term of the trace formula literally.

    This is the unoptimized reading: all orderings of the non-root vertices
    are enumerated even though they share one arc multiset, so it only
    scales to tiny inputs; naive_tensor_trace collapses the orderings and is
    the one to use beyond toy sizes.  Both agree term-sum for term-sum.
    """
    if d <= 0:
        return
    k = h.k
    fact = math.factorial(k - 1)
    items_by_root = {}
    for edge in h.hyperedges:
        for root in edge:
            rest = tuple(v for v in edge if v != root)
            for perm in itertools.permutations(rest):
                items_by_root.setdefault(root, []).append(perm)
    roots = sorted(items_by_root)
    # count sequences with non-decreasing roots before enumerating them
    counts = [1] + [0] * d
    for r in roots:
        m_r = len(items_by_root[r])
        for j in range(1, d + 1):
            counts[j] += counts[j - 1] * m_r
    if counts[d] > term_budget:
        raise BudgetError(
            f"trace-term enumeration needs {counts[d]} terms, budget is "
            f"{term_budget}"
        )

    def blocks(root_idx, remaining):
        if root_idx == len(roots):
            if remaining == 0:
                yield ()
            return
        r = roots[root_idx]
        for take in range(remaining + 1):
            for tail in blocks(root_idx + 1, remaining - take):
                for chosen in itertools.product(items_by_root[r], repeat=take):
                    yield tuple((r, perm) for perm in chosen) + tail

    entry_product = Fraction(1, fact**d)
    for rooted in blocks(0, d):
        arcs = {}
        for root, perm in rooted:
            for v in perm:
                arcs[(root, v)] = arcs.get((root, v), 0) + 1
        digraph = Multidigraph(h.n, tuple(arcs.items()))
        if not digraph.is_eulerian():
            continue
        walks = eulerian_walk_count(digraph)
        if walks == 0:
            continue
        c_val = 1
        for v in digraph.support_vertices():
            c_val *= math.factorial(digraph.out_degree(v))
        weight = Fraction(digraph.b_value(), c_val) * entry_product * walks
        yield TraceTerm(rooted_hyperedges=rooted, weight=weight)


def naive_tensor_trace(h, d, term_budget=TRACE_TERM_BUDGET):
    """Spectral moment of order d of a k-uniform hypergraph, straight from
    the trace formula: enumerate multisets of rooted hyperedges, build the
    associated arc multiset, and count its Eulerian walks.

    All (k-1)! orderings of a rooted hyperedge share one arc set, and the
    ordering factor cancels against the 1/(k-1)! adjacency entries, so the
    enumeration runs over (root, hyperedge) count vectors only.
    """
    if d < 0:
        raise ValueError("trace order must be non-negative")
    if d == 0:
        # sum of 0th powers = eigenvalue count = char-poly degree
        return Fraction(h.n * (h.k - 1) ** (h.n - 1)) if h.n else Fraction(0)
    k = h.k
    pairs = [(r, idx) for idx, edge in enumerate(h.hyperedges) for r in edge]
    if not pairs:
        return Fraction(0)
    n_terms = math.comb(d + len(pairs) - 1, d)
    if n_terms > term_budget:
        raise BudgetError(
            f"trace enumeration needs {n_terms} terms, budget is {term_budget}"
        )
    # a pair's net flow, out minus in, as one signed digit per vertex in a
    # base past twice any vertex's net over d pairs: a multiset is balanced
    # exactly when its flows sum to 0, and only then is a digraph built
    base = 2 * d * (k - 1) + 1
    flow = [
        (k - 1) * base**r - sum(base**u for u in h.hyperedges[idx] if u != r)
        for r, idx in pairs
    ]
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(len(pairs)), d):
        if sum(map(flow.__getitem__, combo)):
            continue
        arcs = {}
        root_counts = {}
        for idx, c in Counter(combo).items():
            r, edge_idx = pairs[idx]
            root_counts.setdefault(r, []).append(c)
            for u in h.hyperedges[edge_idx]:
                if u != r:
                    arcs[(r, u)] = arcs.get((r, u), 0) + c
        digraph = Multidigraph(h.n, tuple(arcs.items()))
        if not digraph.is_eulerian():
            continue
        walks = eulerian_walk_count(digraph)
        multinom = 1
        for r, cs in root_counts.items():
            multinom *= math.factorial(sum(cs))
            for c in cs:
                multinom //= math.factorial(c)
        c_val = 1
        for v in digraph.support_vertices():
            c_val *= math.factorial(digraph.out_degree(v))
        total += Fraction(multinom * digraph.b_value() * walks, c_val)
    return (k - 1) ** (h.n - 1) * total


# ---------------------------------------------------------------------------
# covering parity-closed walks through the counting formula


def eulerian_structures_on(motif, ell):
    """All Eulerian multi-digraph structures on the motif whose unordered
    edge totals are positive, even, and sum to 2*ell."""
    m = motif.m
    if m == 0 or ell < m:
        return []
    out = []
    # f of edge (u, v)'s t arcs forward add 2f - t to u's out minus in degree
    # and take it from v's; as one signed digit per vertex, base past twice
    # any net (2 ell), balanced exactly when sum 2f w = sum t w, w = base^u - base^v
    base = 4 * ell + 1
    weights = [base**u - base**v for u, v in motif.edges]
    # positive even totals per edge summing to 2*ell
    for split in itertools.combinations(range(ell - 1), m - 1):
        bounds = (-1,) + split + (ell - 1,)
        totals = [2 * (bounds[i + 1] - bounds[i]) for i in range(m)]
        half = sum(map(operator.mul, totals, weights)) // 2
        for orientation in itertools.product(*(range(t + 1) for t in totals)):
            if sum(map(operator.mul, orientation, weights)) != half:
                continue
            arcs = {}
            for (u, v), total, fwd in zip(motif.edges, totals, orientation):
                if fwd:
                    arcs[(u, v)] = fwd
                if total - fwd:
                    arcs[(v, u)] = total - fwd
            digraph = Multidigraph(motif.n, tuple(arcs.items()))
            if digraph.is_eulerian():
                out.append(digraph)
    return out


def covering_parity_via_best(motif, ell):
    """p_{2 ell}(motif) summed over Eulerian digraph structures with the
    Eulerian-walk counting formula; cross-checked elsewhere against the
    covering walk dynamic program.  Refused when the bound
    C(ell-1, m-1) (2 ell // m + 1)^m on the structures to list exceeds
    STRUCTURE_BUDGET."""
    if not motif.is_connected():
        raise ValueError("motif must be connected")
    m = motif.m
    if m == 0:
        return 0
    n_structures = math.comb(ell - 1, m - 1) * (2 * ell // m + 1) ** m if ell >= m else 0
    if n_structures > STRUCTURE_BUDGET:
        raise BudgetError(
            f"digraph structure enumeration needs up to {n_structures} "
            f"structures, budget is {STRUCTURE_BUDGET}"
        )
    total = 0
    for digraph in eulerian_structures_on(motif, ell):
        total += eulerian_walk_count(digraph)
    return total


def moment_coefficient(motif, ell, k):
    """Spectral-moment coefficient of the motif's k-power at order ell*k."""
    if k < 3:
        raise ValueError("moment coefficients are defined for k >= 3")
    p = covering_parity_profile(motif, 2 * ell)[2 * ell]
    return power_moment_prefactor(motif.n, motif.m, k) * p
