"""The main pipeline: exact spectral moments of k-power hypergraphs, exact
eigenvalue multiplicities, the factored characteristic polynomial, the
spectral-radius multiplicity, and the k=2 extrapolation beta.

For k >= 3 the trace formula k * sum_x mu(x) x^ell = S_{ell k} holds for
every ell >= 1, and S_{ell k} is an exact finite sum of x^ell terms over the
squared eigenvalues x of signed subgraphs: covering walk counts are an
inclusion-exclusion over parity-closed counts, which are signed-trace
averages.  Each multiplicity mu(x) is therefore read off as a coefficient,
with no linear system.  Squared eigenvalues are keyed exactly by the elements
b of a gcd-free basis of the polynomials `poly_of_squares` of the
connected signed subgraphs read, built in integer arithmetic; every root of
one b carries the same multiplicity mu_b.  beta is the k = 2 case of the
same pipeline: one memoised census `_spectra(g, min(k, 4))` lists the
subgraphs whose weight can be nonzero as the `graphs` census classes
(every connected edge subset at k >= 4, the connected induced subgraphs at
k = 3, the components of g, with no canonical form, at k = 2), each with
its subsets counted once by boundary shape (`_shapes`), `_exponents` sums
their switching classes, and `_factored` builds and checks the result.
Both weights, the exponents' and the check's, read those counts by
separate formulas, each one integer per class.  The only
floats are the convergence ratio, an exact rational rounded once, and the
roots sigma^2 of each b, each the double nearest to the exact root: an
integer Sturm sequence isolates it and bisection at dyadic points narrows it
until its interval rounds to one double.  `abs_power` evaluates |f(x)|^n
exactly at x = p/q as an integer N over q^e, by integer Horner, and verify
checks beta's identities by comparing such integers.  Each result is
checked against walk counts, not signed spectra, by one route for every k:
each class's table against its parity profile, to a length read from the
class's own basis elements, then the exponents recombined from the tables
by vertex and edge deletion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import NamedTuple

from .algebra import (
    coprime_basis,
    mat_rank_mod_p,
    poly_eval_scaled,
    power_sums_from_charpoly,
    real_roots,
)
from .errors import ConsistencyError
from .graphs import connected_induced_subgraph_classes, connected_subgraph_classes
from .signed import (
    check_signing_table,
    poly_of_squares,
    spectral_radius,
    switching_class_polynomials,
)
from .walks import parity_closed_profile


class SpectralFactor(NamedTuple):
    """One root sigma^2 of the exact basis polynomial b (ascending integer
    coefficients, monic), with the exponent mu shared by all roots of b."""

    sigma_sq: float
    mu: object  # int for k >= 3, int or Fraction for k = 2
    b: tuple


class FactoredSpectralFunction(NamedTuple):
    """lambda^mu0 * prod (lambda^k - sigma_i^2)^mu_i."""

    k: int
    mu0: object
    factors: tuple

    def total_degree(self):
        return self.mu0 + self.k * sum(f.mu for f in self.factors)

    def exponent_near(self, sigma_sq, rel_tol=1e-6):
        for f in self.factors:
            if abs(f.sigma_sq - sigma_sq) <= rel_tol * max(1.0, abs(sigma_sq)):
                return f.mu
        raise KeyError(f"no factor near sigma^2 = {sigma_sq}")

    def abs_power(self, x, n):
        """|f(x)|^n = |x|^(n mu0) prod_b |b(x^k)|^(n mu_b), a Fraction at the
        exact binary value of x; b is monic, so b(x^k) = prod (x^k - sigma^2)
        over its roots.  Raises ValueError when some n mu is not an integer."""
        p, q = Fraction(x).as_integer_ratio()
        value, e = self._scaled_abs_power(p, q, n)
        return Fraction(value) / Fraction(q) ** e

    def _scaled_abs_power(self, p, q, n):
        """(N, e) with |f(p / q)|^n = N / q^e for q > 0, N an integer unless
        some n mu is negative: each b(x^k) is B / q^(k deg b) with the
        integer B = `poly_eval_scaled`(b, p^k, q^k), and x is p / q."""
        pk, qk = p**self.k, q**self.k
        exponents = {f.b: f.mu for f in self.factors}
        terms = [
            (poly_eval_scaled(b, pk, qk), self.k * (len(b) - 1), mu)
            for b, mu in exponents.items()
        ]
        value, e = 1, 0
        for base, degree, mu in terms + [(p, 1, self.mu0)]:
            power = n * Fraction(mu)
            if power.denominator != 1:
                raise ValueError(f"{n} * {mu} is not an integer")
            m = power.numerator
            if m < 0:
                value = Fraction(value, abs(base) ** -m)
            else:
                value *= abs(base) ** m
            e += degree * m
        return value, e

    def to_text(self):
        parts = []
        if self.mu0:
            parts.append(f"λ^{self.mu0}" if self.mu0 != 1 else "λ")
        for f in self.factors:
            sigma = _format_number(f.sigma_sq)
            mu = str(f.mu)
            factor = f"(λ^{self.k} - {sigma})"
            parts.append(factor if mu == "1" else f"{factor}^{mu}")
        return " ".join(parts) if parts else "1"


def _format_number(x):
    if x == int(x):
        return str(int(x))
    return repr(x)


# ---------------------------------------------------------------------------
# the motif census and the spectral moments


def power_moment_prefactor(v_count, e_count, k):
    """The exact scale factor turning covering parity-closed walk counts of
    a motif into spectral-moment coefficients of its k-power:
    2^(E-V) * k^(E(k-3)+V) / (k-1)^(V+E(k-2)-1)."""
    num = Fraction(2) ** (e_count - v_count) * Fraction(k) ** (
        e_count * (k - 3) + v_count
    )
    den = Fraction(k - 1) ** (v_count + e_count * (k - 2) - 1)
    return num / den


def _signing_spectra(graphs):
    """The gcd-free basis Sigma of the `poly_of_squares` of every
    switching class of the given graphs, and per graph the number of its
    switching classes, the sum of their exponent vectors over Sigma and
    the sum of their degrees.  Each graph's classes come from its memoised
    `switching_class_polynomials`, which `signing_polynomials` also reads;
    their exponent vectors come out of the basis refinement."""
    tables = [
        [(tuple(poly_of_squares(phi)), c) for phi, c in switching_class_polynomials(h)]
        for h in graphs
    ]
    basis, over_basis = coprime_basis(q for table in tables for q, _ in table)
    exponents = []
    for table in tables:
        sums = [0] * len(basis)
        for q, c in table:
            for i, e in enumerate(over_basis[q]):
                if e:
                    sums[i] += c * e
        degree = sum(c * (len(q) - 1) for q, c in table)
        exponents.append((sum(c for _, c in table), tuple(sums), degree))
    return tuple(exponents), tuple(map(tuple, basis))


def _shapes(g, subsets):
    """One class's connected edge subsets C of g counted by boundary shape:
    ((x, ts), count), with x the further edges inside V(C) and ts the sorted
    edge counts t_u of the outside vertices u joined to V(C).  Both weight
    routes, `_exponents` and `check_moment_identity`, read C through
    these."""
    shapes = Counter()
    for subset in subsets:
        inside = {x for i in subset for x in g.edges[i]}
        further, joins = 0, Counter()
        for i, (a, b) in enumerate(g.edges):
            if i in subset:
                continue
            if a in inside and b in inside:
                further += 1
            elif a in inside or b in inside:
                joins[b if a in inside else a] += 1
        shapes[further, tuple(sorted(joins.values()))] += 1
    return tuple(shapes.items())


@lru_cache(maxsize=192)
def _spectra(g, regime):
    """The subgraphs of g whose weight w_k can be nonzero at k = regime (4
    for every k >= 4), as ((graph, `_shapes`), ...), and their
    `_signing_spectra`; memoised per graph and regime.  At k = 2 each
    component with an edge is its own group, of one shape ((0, ()), 1) and
    no canonical form, so no vertex limit; at k = 3 the connected induced
    subgraphs, at k >= 4 every connected edge subset, one group per
    `graphs` census class.  A component whose switching-class table is too
    large is refused first: no connected subgraph has a larger one."""
    for h in map(g.induced, g.components()):
        check_signing_table(h.m - h.n + 1, h.n)
    if regime == 2:
        groups = tuple(
            (g.induced(c), (((0, ()), 1),)) for c in g.components() if len(c) > 1
        )
    else:
        if regime == 3:
            classes = connected_induced_subgraph_classes(g)
        else:
            classes = connected_subgraph_classes(g, g.m)
        groups = tuple((h, _shapes(g, subsets)) for h, subsets in classes)
    exponents, basis = _signing_spectra(h for h, _ in groups)
    return groups, exponents, basis


def _degree(g, k):
    """The degree size (k-1)^(size-1) of the characteristic polynomial of the
    k-power of g, whose vertex count is size = |V| + (k-2) |E|."""
    size = g.n + (k - 2) * g.m
    return size * (k - 1) ** (size - 1) if size else 0


# ---------------------------------------------------------------------------
# exact multiplicities


def _exponents(g, k):
    """The gcd-free basis of the regime of k and the exact exponent mu_b of
    each element in the factored result of the k-power (k >= 2).

    mu(x) = scale * sum over connected edge subsets H of D_k(H) times
    sum over F in H of (-1)^(|H|-|F|) abar_F(x), where abar_F(x) is the
    number of eigenvalues with square x, averaged over the signings of F and
    summed over its components.  A connected C is a component of F exactly
    when no other edge of F touches V(C), so the inner sum keeps only those
    C whose vertices touch every edge of H, with sign (-1)^(|H|-|C|).
    Exchanging the sums gives mu(x) = scale * sum_C w(C) abar_C(x), where
    w(C) = 0 unless `_spectra` lists C for the regime.  D_k(v, e) is
    c * r^v * s^e (`power_moment_prefactor`), so w(C) is D_k(C) times
    (1 - s) per further edge inside V(C) and 1 - r + r (1 - s)^t per outside
    vertex joined by t edges, read from the `_shapes`.  At k = 3, s = 1: a
    further edge makes w(C) = 0, so the k = 3 census lists only induced C.
    At k = 2, r = s = 1 and c = 1: w(C) = 1 on each component of g, and
    scale = 1/2.  With r = rn/rd and s = sn/sd, w(C) / D_k(C) is one
    integer over rd^n sd^m, since C joins at most n outside vertices by at
    most m further and joining edges.
    """
    groups, exponents, basis = _spectra(g, min(k, 4))
    base = power_moment_prefactor(1, 1, k)
    r, s = (power_moment_prefactor(v, e, k) / base for v, e in ((2, 1), (1, 2)))
    (rn, rd), (sn, sd) = r.as_integer_ratio(), s.as_integer_ratio()
    weighted = []
    for (h, shapes), (signings, sums, _) in zip(groups, exponents):
        boundary = sum(
            c * (sd - sn) ** x * rd ** (g.n - len(ts)) * sd ** (g.m - x - sum(ts))
            * prod((rd - rn) * sd**t + rn * (sd - sn) ** t for t in ts)
            for (x, ts), c in shapes
        )
        if boundary:
            w = power_moment_prefactor(h.n, h.m, k)
            weighted.append((w.numerator * boundary, w.denominator * signings, sums))
    # integer sums over one common denominator, of the nonzero entries only
    den = lcm(*(d for _, d, _ in weighted))
    totals = [0] * len(basis)
    for num, d, sums in weighted:
        num *= den // d
        for i, e in enumerate(sums):
            if e:
                totals[i] += num * e
    den *= k * rd**g.n * sd**g.m
    prefactor = Fraction(k - 1) ** (g.n + (k - 2) * g.m - 1) / den
    return basis, [prefactor * t for t in totals]


def _factors(pairs):
    """One SpectralFactor per root of each (b, mu) pair, by ascending root;
    each root is the double nearest to the exact sigma^2."""
    factors = [
        SpectralFactor(root, mu, tuple(b)) for b, mu in pairs for root in real_roots(b)
    ]
    return tuple(sorted(factors, key=lambda f: f.sigma_sq))


def check_moment_identity(g, fsf):
    """Check a factored result in Fractions against walk counts, one class
    C of `_spectra` at a time.  Every b of the result must be in the
    regime's basis Sigma, and mu0 + k sum_b mu_b deg(b) must be the degree
    of the characteristic polynomial (ell = 0).

    Grouping each parity-closed walk by the component C of G - X - Y that
    holds it, over the vertex sets X and edge sets Y it avoids, gives
    S_{k ell} = (k-1)^(n+(k-2)m) sum_C W_C P_C(2 ell), P_C the parity-closed
    walk count, with W_C = r^|V(C)| s^|E(C)| (1-s)^x prod_u (1 - r + r
    (1-s)^t_u) from the `_shapes` of C, r = k / (2 (k-1)) and
    s = 2 k^(k-3) / (k-1)^(k-2): from k, never `power_moment_prefactor`,
    so an error in the exponents' weight cannot cancel.  With r = rn/rd and
    s = sn/sd, W_C rd^n sd^m is an integer: C and its joins span at most n
    vertices and m edges.

    Each C with W_C != 0 has signings_C switching classes, whose exponent
    vectors over Sigma sum to sums_C and whose degrees sum to deg_C.
    Averaging their traces gives signings_C P_C(2 ell) =
    sum_b sums_C(b) p_ell(b), p_ell(b) the power sums of the roots of b,
    and p_0(b) = deg(b) against deg_C.  The rows run to L_C = |support| of
    sums_C when the support's integer matrix [p_ell(b)], ell = 1..|support|,
    is nonsingular mod 2^61 - 1, hence over Q, else to the support's total
    degree D, whose D distinct nonzero roots make the Vandermonde rows
    [x^ell] (ell <= D) nonsingular: either way they pin sums_C on its
    support.  Last, every b of Sigma must recombine: k mu_b =
    (k-1)^(n+(k-2)m) sum_C W_C sums_C(b) / signings_C, so the result gives
    every S_{k ell}, or P_{2 ell} for beta, by linearity.  Raises
    ConsistencyError on a mismatch."""
    k = fsf.k
    groups, spectra, basis = _spectra(g, min(k, 4))
    mu_of = {f.b: Fraction(f.mu) for f in fsf.factors}
    members = set(basis)
    for b in mu_of:
        if b not in members:
            raise ConsistencyError(f"factor {b} is not in the basis of g at k={k}")
    degree = fsf.mu0 + k * sum(mu * (len(b) - 1) for b, mu in mu_of.items())
    if degree != _degree(g, k):
        raise ConsistencyError(
            f"moment identity fails at ell=0: degree {degree} != {_degree(g, k)}"
        )
    r = Fraction(k, 2 * (k - 1))
    s = 2 * Fraction(k) ** (k - 3) / Fraction(k - 1) ** (k - 2)
    (rn, rd), (sn, sd) = r.as_integer_ratio(), s.as_integer_ratio()
    classes, tops = [], [0] * len(basis)
    for (h, shapes), (signings, sums, deg) in zip(groups, spectra):
        weight = rn**h.n * sn**h.m * sum(
            c * (sd - sn) ** x * rd ** (g.n - h.n - len(ts))
            * sd ** (g.m - h.m - x - sum(ts))
            * prod((rd - rn) * sd**t + rn * (sd - sn) ** t for t in ts)
            for (x, ts), c in shapes
        )
        if weight:
            support = [i for i, e in enumerate(sums) if e]
            classes.append((h, signings, sums, deg, support, weight))
            for i in support:
                tops[i] = max(tops[i], len(support))
    # each element's power sums once, to the largest support that holds it
    power = [power_sums_from_charpoly(b, top) for b, top in zip(basis, tops)]
    # integer sums over one common denominator
    den = lcm(*(signings for _, signings, *_ in classes))
    totals = [0] * len(basis)
    for h, signings, sums, deg, support, weight in classes:
        top = len(support)
        rows = [[power[i][ell] for i in support] for ell in range(1, top + 1)]
        if mat_rank_mod_p(rows) < top:
            top = sum(len(basis[i]) - 1 for i in support)
            for i in support:
                if len(power[i]) <= top:
                    power[i] = power_sums_from_charpoly(basis[i], top)
        walks = parity_closed_profile(h, 2 * top)[2::2]
        for ell, rhs in enumerate([deg] + [signings * p for p in walks]):
            lhs = sum(sums[i] * power[i][ell] for i in support)
            if lhs != rhs:
                raise ConsistencyError(
                    f"moment identity of the class with edges {h.edges} fails "
                    f"at ell={ell}: {lhs} != {rhs}"
                )
        for i in support:
            totals[i] += weight * (den // signings) * sums[i]
    prefactor = (k - 1) ** (g.n + (k - 2) * g.m)
    den *= rd**g.n * sd**g.m
    for b, total in zip(basis, totals):
        lhs, rhs = k * mu_of.get(b, 0), Fraction(prefactor * total, den)
        if lhs != rhs:
            raise ConsistencyError(
                f"exponent of {b} fails the recombination: k mu = {lhs} != {rhs}"
            )


def _factored(g, k):
    """The factored result of the k-power of g for k >= 2 (beta at k = 2),
    zero exponents dropped, checked before it is returned: for a connected
    g with an edge the exponent of the largest root rho(G)^2 exactly against
    k^(|E|(k-3)+|V|-1), then the moment identity."""
    basis, mu = _exponents(g, k)
    for b, m in zip(basis, mu):
        if m < 0 or (k > 2 and m.denominator != 1):
            raise ConsistencyError(
                f"exponent {m} of the roots of {b} is negative or, at k={k}, "
                "not an integer"
            )
    factors = _factors((b, _exact(m)) for b, m in zip(basis, mu) if m)
    mu0 = _exact(_degree(g, k) - k * sum(f.mu for f in factors))
    if mu0 < 0:
        raise ConsistencyError(f"negative zero-eigenvalue exponent {mu0}")
    if g.m and g.is_connected():
        expected = Fraction(k) ** (g.m * (k - 3) + g.n - 1)
        if not factors or factors[-1].mu != expected:
            raise ConsistencyError(
                f"spectral-radius exponent is not k^(|E|(k-3)+|V|-1) = {expected}"
            )
    result = FactoredSpectralFunction(k=k, mu0=mu0, factors=factors)
    check_moment_identity(g, result)
    return result


def _exact(value):
    return int(value) if value.denominator == 1 else value


def char_poly_power(g, k):
    """Factored characteristic polynomial of the k-power of a graph, which
    may be disconnected or have isolated vertices.

    Every multiplicity is an exact coefficient of the trace formula; the
    exponent of lambda follows from the total-degree identity.  Roots with
    multiplicity zero are dropped from the factor list, as in beta.  For a
    connected g with an edge, the largest root is rho(G)^2 (no signed
    subgraph has an eigenvalue beyond rho(G)), and `_factored` checks its
    multiplicity exactly against k^(|E|(k-3)+|V|-1), the value that
    spectral_radius_multiplicity also returns.
    """
    if k < 3:
        raise ValueError("power hypergraphs need k >= 3; use beta for k = 2")
    return _factored(g, k)


def beta(g):
    """The k=2 extrapolation of the factored characteristic polynomial.

    The exponent of (lambda^2 - x) is half the number of eigenvalues with
    square x, averaged over the 2^|E| signings, so exponents are dyadic;
    zero exponents are dropped from the factor list.  For a connected g with
    an edge, the exponent of the largest root rho(G)^2 is checked exactly
    against 2^-(|E|-|V|+1), the k = 2 value of k^(|E|(k-3)+|V|-1).
    """
    return _factored(g, 2)


# ---------------------------------------------------------------------------
# the spectral radius


def spectral_radius_multiplicity(g, k):
    """Multiplicity of the spectral radius of the k-power of a connected
    graph with an edge: k^(|E|(k-3)+|V|-1).  An edgeless graph has only the
    eigenvalue 0, so it is refused like a disconnected one."""
    if k < 3:
        raise ValueError("defined for k >= 3")
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    if g.m == 0:
        raise ValueError("defined for graphs with an edge")
    return k ** (g.m * (k - 3) + g.n - 1)


def radius_total_multiplicity(g, k):
    """Total multiplicity of eigenvalues on the spectral circle: k times the
    spectral-radius multiplicity."""
    return k * spectral_radius_multiplicity(g, k)


def radius_cluster_exponent(fsf, g):
    """The pipeline multiplicity at the cluster containing rho(G)^2.  An
    edgeless graph has no such cluster, so it is refused."""
    if g.m == 0:
        raise ValueError("defined for graphs with an edge")
    rho_sq = spectral_radius(g) ** 2
    return fsf.exponent_near(rho_sq)


def convergence_ratio(g, k, ell):
    """Finite-ell approximant 2^(|E|-|V|) k^(|E|(k-3)+|V|) P_{2 ell} / rho^(2 ell)
    of the total spectral-circle multiplicity, for a connected graph with
    an edge (an edgeless one has rho = 0)."""
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    if g.m == 0:
        raise ValueError("defined for graphs with an edge")
    counts = parity_closed_profile(g, 2 * ell)
    rho = Fraction(spectral_radius(g))
    return float(
        Fraction(2) ** (g.m - g.n)
        * Fraction(k) ** (g.m * (k - 3) + g.n)
        * counts[2 * ell]
        / rho ** (2 * ell)
    )
