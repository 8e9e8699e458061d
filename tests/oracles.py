"""Independent oracles that only the tests use.

Each is a slow or rational-arithmetic twin of a production routine: Euclid
over `Fraction` polynomials for the integer gcd-free basis of
`hyperspectra.algebra`, the inverse Newton recurrence, Gauss-Jordan
elimination in `Fraction`s for the rank mod p, a brute-force isomorphism
test, subset enumeration and one canonical search per subset for the motif
census, vertex subset enumeration for the induced census, every permutation
for the automorphism orbits, breadth- and depth-first search for the
components of a graph and the connectivity of a digraph's support, every
orientation built as a digraph for the Eulerian structures, every switching
for balance, Faddeev-LeVerrier on every switching representative
for the switching-class table, the parity DP from every start vertex, subset
inclusion-exclusion over it for the covering walk counts, Fraction
Horner evaluations for the signed values and |f(x)|^n, the deletion sum
over all vertex and edge sets for the moments and its sum grouped by
component over every length at once, both census weights of a class in
Fractions, and cyclic Jacobi rotations in floats for the real spectra read
off exact polynomials.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

from hyperspectra.algebra import poly_derivative, poly_eval, poly_trim
from hyperspectra.digraphs import Multidigraph
from hyperspectra.graphs import Graph, canonical_certificate, canonical_form
from hyperspectra.signed import char_poly_exact, enumerate_signings, signing_polynomials
from hyperspectra.spectrum import power_moment_prefactor


# ---------------------------------------------------------------------------
# polynomials over the rationals


def poly_divmod(a, b):
    """Division with remainder over the rationals."""
    a = [Fraction(c) for c in poly_trim(a)]
    b = [Fraction(c) for c in poly_trim(b)]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = a[:]
    inv_lead = 1 / b[-1]
    while len(r) >= len(b) and any(r):
        shift = len(r) - len(b)
        factor = r[-1] * inv_lead
        q[shift] = factor
        for i, cb in enumerate(b):
            r[shift + i] -= factor * cb
        r = poly_trim(r)
        if not r:
            break
    return poly_trim(q), poly_trim(r)


def poly_gcd(a, b):
    """Monic gcd over the rationals."""
    a = poly_trim(a)
    b = poly_trim(b)
    while b:
        _, rem = poly_divmod(a, b)
        a, b = b, rem
    if not a:
        return []
    lead = Fraction(a[-1])
    return [Fraction(c) / lead for c in a]


def _primitive(p):
    """A nonzero rational polynomial scaled to a primitive integer polynomial
    with positive leading coefficient."""
    denom = 1
    for c in p:
        denom = lcm(denom, Fraction(c).denominator)
    ints = [int(c * denom) for c in p]
    content = 0
    for c in ints:
        content = gcd(content, c)
    if ints[-1] < 0:
        content = -content
    return [c // content for c in ints]


def squarefree_part(p):
    """Squarefree part of an integer polynomial, as a primitive integer
    polynomial with positive leading coefficient."""
    p = poly_trim(p)
    if len(p) <= 1:
        return list(p)
    g = poly_gcd(p, poly_derivative(p))
    q, rem = poly_divmod(p, g)
    if poly_trim(rem):
        raise ArithmeticError("gcd does not divide its polynomial")
    return _primitive(q)


def squarefree_factors(p):
    """[f1, f2, ...] with f_i the primitive product of the roots of
    multiplicity exactly i, from the repeated gcds p_i = gcd(p_{i-1},
    p_{i-1}') rather than Yun's recurrence."""
    parts = []
    q = poly_trim(p)
    while len(q) > 1:
        g = poly_gcd(q, poly_derivative(q))
        parts.append(poly_divmod(q, g)[0])
        q = g
    return [
        _primitive(poly_divmod(a, b)[0]) for a, b in zip(parts, parts[1:] + [[1]])
    ]


def coprime_basis(polys):
    """Gcd-free basis by Euclid over the rationals: each squarefree factor of
    each input is split against the basis built so far, a shared gcd g
    replacing b by g and b/g while the factor continues as f/g."""
    basis = []
    for p in polys:
        for f in squarefree_factors(p):
            refined = []
            for b in basis:
                g = poly_gcd(b, f)
                if len(g) <= 1:
                    refined.append(b)
                    continue
                refined.append(_primitive(g))
                rest = poly_divmod(b, g)[0]
                if len(rest) > 1:
                    refined.append(_primitive(rest))
                f = _primitive(poly_divmod(f, g)[0])
            if len(f) > 1:
                refined.append(f)
            basis = refined
    return basis


def basis_exponents(p, basis):
    """Exponents e_i with p = c * prod basis[i]^e_i, by rational division."""
    exponents = []
    for b in basis:
        e = 0
        while len(p) >= len(b):
            quotient, rem = poly_divmod(p, b)
            if rem:
                break
            p, e = quotient, e + 1
        exponents.append(e)
    if len(poly_trim(p)) != 1:
        raise ArithmeticError("polynomial does not factor over the basis")
    return exponents


def charpoly_from_power_sums(sums, n):
    """Monic polynomial of degree n whose roots have the given power sums
    s_1..s_n (inverse of the Girard-Newton recurrence); exact rationals."""
    if len(sums) < n + 1:
        raise ValueError("need power sums up to order n")
    e = [Fraction(1)] + [Fraction(0)] * n
    for j in range(1, n + 1):
        acc = Fraction(0)
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * sums[i]
        e[j] = acc / j
    return [(-1) ** (n - i) * e[n - i] for i in range(n + 1)]


def rank_over_q(mat):
    """Rank of an integer matrix by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# graphs and walks


def are_isomorphic(a, b):
    """Brute-force isomorphism test (independent of certificates)."""
    if a.n != b.n or a.m != b.m:
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    a_edges = set(a.edges)
    b_edges = set(b.edges)
    deg_a, deg_b = a.degrees(), b.degrees()
    verts_b_by_degree = {}
    for v in range(b.n):
        verts_b_by_degree.setdefault(deg_b[v], []).append(v)
    order = sorted(range(a.n), key=lambda v: (deg_a[v], v))

    def extend(i, mapping, used):
        if i == a.n:
            return True
        v = order[i]
        for w in verts_b_by_degree[deg_a[v]]:
            if w in used:
                continue
            ok = True
            for u in order[:i]:
                has = (min(u, v), max(u, v)) in a_edges
                has_b = (min(mapping[u], w), max(mapping[u], w)) in b_edges
                if has != has_b:
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used.add(w)
                if extend(i + 1, mapping, used):
                    return True
                mapping[v] = None
                used.remove(w)
        return False

    return extend(0, [None] * a.n, set())


def automorphism_orbits(g):
    """Vertex orbits of Aut(g), as sorted tuples by least vertex, by trying
    every permutation of the vertices."""
    edges = set(g.edges)
    orbit_of = {v: {v} for v in range(g.n)}
    for perm in itertools.permutations(range(g.n)):
        if all(tuple(sorted((perm[u], perm[v]))) in edges for u, v in edges):
            for v in range(g.n):
                orbit_of[v].add(perm[v])
    return tuple(sorted({tuple(sorted(orbit)) for orbit in orbit_of.values()}))


def components_bfs(g):
    """Sorted vertex lists of the connected components, by least vertex,
    by breadth-first search."""
    nbrs = g.neighbors()
    seen = set()
    out = []
    for root in range(g.n):
        if root not in seen:
            seen.add(root)
            component = [root]
            for u in component:  # read while it grows: breadth first
                fresh = [w for w in nbrs[u] if w not in seen]
                seen.update(fresh)
                component.extend(fresh)
            out.append(sorted(component))
    return out


def is_connected_on_support_dfs(d):
    """Whether the vertices of a Multidigraph that carry an arc are
    nonempty and connected, arcs read both ways, by depth-first search."""
    support = d.support_vertices()
    if not support:
        return False
    nbrs = {v: set() for v in support}
    for (u, v), _ in d.arcs:
        nbrs[u].add(v)
        nbrs[v].add(u)
    seen = {support[0]}
    stack = [support[0]]
    while stack:
        x = stack.pop()
        for w in nbrs[x]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(support)


def eulerian_structures_unfiltered(motif, ell):
    """`digraphs.eulerian_structures_on` without its balance filter: a
    Multidigraph is built for every orientation and kept when it is
    Eulerian."""
    m = motif.m
    if m == 0 or ell < m:
        return []
    out = []
    # positive even totals per edge summing to 2*ell
    for split in itertools.combinations(range(ell - 1), m - 1):
        bounds = (-1,) + split + (ell - 1,)
        totals = [2 * (bounds[i + 1] - bounds[i]) for i in range(m)]
        for orientation in itertools.product(
            *(range(t + 1) for t in totals)
        ):
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


def is_balanced_by_switching(sg):
    """Whether one of the 2^n switchings by a +-1 diagonal makes every
    edge sign +1."""
    edges = sg.base.edges
    return any(
        all(s * diag[u] * diag[v] == 1 for s, (u, v) in zip(sg.signs, edges))
        for diag in itertools.product((1, -1), repeat=sg.base.n)
    )


def switching_class_polynomials_by_faddeev_leverrier(g):
    """Independent oracle for `signed.switching_class_polynomials`: the
    characteristic polynomial of each switching representative by
    Faddeev-LeVerrier, counted in the representatives' order."""
    table = Counter(
        tuple(char_poly_exact(sg)) for sg in enumerate_signings(g, up_to_switching=True)
    )
    return tuple(table.items())


def signed_char_poly_values(g, lambda0):
    """The pairs (phi(lambda0), count) over the distinct signed
    characteristic polynomials phi of g, each value by Horner's rule in
    Fractions at the exact value of lambda0."""
    x = Fraction(lambda0)
    return tuple((poly_eval(phi, x), count) for phi, count in signing_polynomials(g))


def abs_power(fsf, x, n):
    """`FactoredSpectralFunction.abs_power` in Fractions: |f(x)|^n =
    |x|^(n mu0) prod_b |b(x^k)|^(n mu_b) at the exact binary value of x.
    Raises ValueError when some n mu is not an integer."""
    x = Fraction(x)
    exponents = {f.b: f.mu for f in fsf.factors}
    terms = [(poly_eval(b, x**fsf.k), mu) for b, mu in exponents.items()]
    terms.append((x, fsf.mu0))
    value = Fraction(1)
    for base, mu in terms:
        power = n * Fraction(mu)
        if power.denominator != 1:
            raise ValueError(f"{n} * {mu} is not an integer")
        value *= abs(base) ** int(power)
    return value


def parity_profile_all_starts(g, max_d):
    """Parity-closed walk counts for every length 0..max_d, by the bitmask
    DP run from every start vertex: a walk's state is its end and the mask
    of edges it used an odd number of times, and a parity-closed walk of
    length 2t is two walks of length t from the start with equal states."""
    moves = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edges):
        moves[u].append((v, 1 << i))
        moves[v].append((u, 1 << i))
    profile = [0] * (max_d + 1)
    profile[0] = g.n
    for start in range(g.n):
        states = {(start, 0): 1}
        for t in range(1, max_d // 2 + 1):
            nxt = {}
            for (v, mask), cnt in states.items():
                for w, bit in moves[v]:
                    key = (w, mask ^ bit)
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
            profile[2 * t] += sum(cnt * cnt for cnt in states.values())
    return profile


def connected_edge_subsets_brute(g, max_edges):
    """Independent oracle: plain subset enumeration plus a connectivity check."""
    out = []
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations(range(g.m), size):
            sub = g.subgraph_of_edges(combo)
            if len(components_bfs(sub)) == 1:
                out.append(frozenset(combo))
    return out


def grouped_by_class_per_subset(g, subsets):
    """The census grouping with one canonical search per subset: ((form,
    (subset, ...)), ...), each subset bucketed by the canonical form of the
    subgraph it spans, in the given order, classes by (|E|, |V|,
    certificate)."""
    buckets = {}
    for subset in subsets:
        form = canonical_form(g.subgraph_of_edges(subset))
        buckets.setdefault(form, []).append(subset)
    return tuple(
        (form, tuple(buckets[form]))
        for form in sorted(buckets, key=lambda h: (h.m, h.n, canonical_certificate(h)))
    )


def connected_vertex_sets_brute(g):
    """Independent oracle: bitmasks of the vertex sets of at least 2
    vertices whose induced subgraph is connected, by a scan of all 2^n."""
    return [
        sum(1 << v for v in vs)
        for size in range(2, g.n + 1)
        for vs in itertools.combinations(range(g.n), size)
        if len(components_bfs(g.induced(vs))) == 1
    ]


def deletion_moments(g, k, top):
    """[S_k, S_2k, ..., S_{top k}] of the k-power of g by the brute-force
    deletion sum over every vertex set X and every edge set Y:
    S_{k ell} = (k-1)^(n+(k-2)m) sum_{X, Y} (1-r)^|X| r^(n-|X|) (1-s)^|Y|
    s^(m-|Y|) P_{G-X-Y}(2 ell), with r = k / (2 (k-1)) and
    s = 2 k^(k-3) / (k-1)^(k-2).  Sets of weight 0 are skipped: every
    nonempty Y when s = 1 (k = 2, 3), every nonempty X when r = 1 (k = 2)."""
    r = Fraction(k, 2 * (k - 1))
    s = Fraction(2) * Fraction(k) ** (k - 3) / Fraction(k - 1) ** (k - 2)

    def subsets(items, full):
        sizes = range(len(items) + 1) if full else (0,)
        return [c for size in sizes for c in itertools.combinations(items, size)]

    weights = {}
    for xs in subsets(range(g.n), r != 1):
        for ys in subsets(range(g.m), s != 1):
            kept = tuple(
                e for i, e in enumerate(g.edges) if i not in ys and not set(e) & set(xs)
            )
            weight = (1 - r) ** len(xs) * r ** (g.n - len(xs))
            weight *= (1 - s) ** len(ys) * s ** (g.m - len(ys))
            weights[kept] = weights.get(kept, 0) + weight
    totals = [Fraction(0)] * top
    for kept, weight in weights.items():
        profile = parity_profile_all_starts(Graph(g.n, kept), 2 * top)[2::2]
        totals = [t + weight * p for t, p in zip(totals, profile)]
    return [(k - 1) ** (g.n + (k - 2) * g.m) * t for t in totals]


def covering_weight(h, x, ts, k):
    """w(C) = sum over S of (-1)^|S| D_k(C + S) in Fractions, for a
    connected edge subset C of class h and boundary shape (x, ts)
    (`spectrum._shapes`), where S ranges over the sets of edges of g outside
    C that touch V(C).

    The prefactor D_k(v, e) is c * r^v * s^e, so the sum factors into
    (1 - s) for each of the x further edges inside V(C) and 1 - r + r (1 -
    s)^t for each t in ts.  At k = 3, s = 1: any further edge inside V(C)
    makes w(C) = 0, and each outside vertex gives 1 - r = 1/4.  At k = 2,
    r = s = 1 and c = 1: w(C) = 1 when C is a whole component and 0
    otherwise."""
    base = power_moment_prefactor(1, 1, k)
    r = power_moment_prefactor(2, 1, k) / base
    s = power_moment_prefactor(1, 2, k) / base
    boundary = (1 - s) ** x * math.prod(1 - r + r * (1 - s) ** t for t in ts)
    return power_moment_prefactor(h.n, h.m, k) * boundary


def deletion_weight(h, shapes, k):
    """W_C = r^|V(C)| s^|E(C)| sum over the shapes ((x, ts), c) of C of
    c (1-s)^x prod_t (1 - r + r (1-s)^t) in Fractions, with r = k / (2 (k-1))
    and s = 2 k^(k-3) / (k-1)^(k-2): the weight of a component C of G - X - Y
    in the deletion sum, x the further edges inside V(C) and t the edges
    joining an outside vertex to V(C)."""
    r = Fraction(k, 2 * (k - 1))
    s = 2 * Fraction(k) ** (k - 3) / Fraction(k - 1) ** (k - 2)
    return r**h.n * s**h.m * sum(
        c * (1 - s) ** x * math.prod(1 - r + r * (1 - s) ** t for t in ts)
        for (x, ts), c in shapes
    )


def grouped_deletion_moments(g, k, top, groups):
    """[S_k, S_2k, ..., S_{top k}] of the k-power of g (k >= 2) by the
    deletion sum grouped by component: the groups (graph, `_shapes`) of
    `spectrum._spectra(g, min(k, 4))` and one parity profile each, all
    lengths summed at once.  The vertex sets X and edge sets Y that a walk
    avoids leave it in a component C of G - X - Y, which gives
    S_{k ell} = (k-1)^(n+(k-2)m) sum_C W_C P_C(2 ell) (`deletion_weight`)."""
    totals = [Fraction(0)] * top
    for h, shapes in groups:
        weight = deletion_weight(h, shapes, k)
        profile = parity_profile_all_starts(h, 2 * top)[2::2]
        totals = [t + weight * p for t, p in zip(totals, profile)]
    return [(k - 1) ** (g.n + (k - 2) * g.m) * t for t in totals]


def covering_parity_profile_by_subsets(motif, max_d):
    """Inclusion-exclusion oracle over edge subsets, for every length
    0..max_d: sum over F of (-1)^(|E|-|F|) times the parity-closed walks
    restricted to F."""
    if not motif.is_connected():
        raise ValueError("covering counts are defined for connected motifs")
    totals = [0] * (max_d + 1)
    for size in range(motif.m + 1):
        sign = (-1) ** (motif.m - size)
        for combo in itertools.combinations(range(motif.m), size):
            restricted = Graph(motif.n, tuple(motif.edges[i] for i in combo))
            profile = parity_profile_all_starts(restricted, max_d)
            totals = [t + sign * p for t, p in zip(totals, profile)]
    return totals


# ---------------------------------------------------------------------------
# real spectra


def jacobi_eigenvalues(a):
    """Eigenvalues of a real symmetric matrix, descending, by cyclic Jacobi
    rotations in floats: each rotation zeroes one off-diagonal pair."""
    n = len(a)
    mat = [[float(x) for x in row] for row in a]
    for _ in range(60):  # sweeps; each takes the off-diagonal norm down quadratically
        off = math.sqrt(sum(mat[i][j] ** 2 for i in range(n) for j in range(n) if i != j))
        if off < 1e-15 * max(1.0, n):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(mat[p][q]) < 1e-18:
                    continue
                theta = (mat[q][q] - mat[p][p]) / (2.0 * mat[p][q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in mat:
                    row[p], row[q] = c * row[p] - s * row[q], s * row[p] + c * row[q]
                mat[p], mat[q] = (
                    [c * x - s * y for x, y in zip(mat[p], mat[q])],
                    [s * x + c * y for x, y in zip(mat[p], mat[q])],
                )
    return tuple(sorted((mat[i][i] for i in range(n)), reverse=True))
