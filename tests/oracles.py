"""Independent oracles that only the tests use.

Each is a slow or rational-arithmetic twin of a production routine: Euclid
over `Fraction` polynomials for the integer gcd-free basis of
`hyperspectra.algebra`, the inverse Newton recurrence, a brute-force
isomorphism test and subset enumeration for the motif census, subset
inclusion-exclusion for the covering walk counts, and cyclic Jacobi
rotations in floats for the real spectra read off exact polynomials.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm

from hyperspectra.algebra import poly_derivative, poly_trim
from hyperspectra.walks import WalkCount, parity_closed_profile


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


def connected_edge_subsets_brute(g, max_edges):
    """Independent oracle: plain subset enumeration plus a connectivity check."""
    out = []
    for size in range(1, max_edges + 1):
        for combo in itertools.combinations(range(g.m), size):
            sub = g.subgraph_of_edges(combo)
            if sub.is_connected():
                out.append(frozenset(combo))
    return out


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
            restricted = replace(motif, edges=tuple(motif.edges[i] for i in combo))
            profile = parity_closed_profile(restricted, max_d, method="dp")
            totals = [t + sign * p for t, p in zip(totals, profile)]
    return totals


def covering_parity_closed_by_subsets(motif, d):
    """The inclusion-exclusion oracle at one length d."""
    return WalkCount(d, covering_parity_profile_by_subsets(motif, d)[d])


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
