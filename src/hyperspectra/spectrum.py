"""The main pipeline: exact spectral moments of k-power hypergraphs, exact
eigenvalue multiplicities, the factored characteristic polynomial, the
spectral-radius multiplicity, and the k=2 extrapolation beta.

For k >= 3 the trace formula k * sum_x mu(x) x^ell = S_{ell k} holds for
every ell >= 1, and S_{ell k} is an exact finite sum of x^ell terms over the
squared eigenvalues x of signed subgraphs: covering walk counts are an
inclusion-exclusion over parity-closed counts, which are signed-trace
averages.  Each multiplicity mu(x) is therefore read off as a coefficient,
with no linear system.  Squared eigenvalues are keyed exactly by the elements
b of a gcd-free basis of the polynomials `char_poly_of_squares` of all
connected signed subgraphs, built in integer arithmetic; every root of one
b carries the same multiplicity mu_b.  At k = 3 a subgraph that is not
induced has weight zero, so the census there is of the connected induced
subgraphs alone; at k >= 4 it is of all connected edge subsets.  beta reads
no census, only the switching classes of the components of g.  The only
floats are the convergence ratio, an exact rational rounded once, and the
roots sigma^2 of each b, each the double nearest to the exact root: an
integer Sturm sequence isolates it and bisection at dyadic points narrows it
until its interval rounds to one double.  `abs_power` evaluates |f(x)|^n
exactly, so beta's identities are checked in rationals.  Bases and exponents
are memoised per graph; each result is checked against exact moments from
walk counts, not signed spectra.  At k = 3 and for beta the check runs to
the total degree D of the regime's basis, which pins every multiplicity; at
k >= 4 it stops at ell <= min(2 D, 8), which does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import digraphs
from .algebra import (
    basis_exponents,
    coprime_basis,
    poly_eval,
    power_sums_from_charpoly,
    real_roots,
)
from .errors import ConsistencyError
from .graphs import connected_induced_subgraph_classes, connected_subgraph_classes
from .signed import (
    check_cycle_space,
    largest_cycle_rank,
    poly_of_squares,
    spectral_radius,
    switching_class_polynomials,
)
from .walks import covering_parity_profile, parity_closed_profile


@dataclass(frozen=True)
class SpectralFactor:
    """One root sigma^2 of the exact basis polynomial b (ascending integer
    coefficients, monic), with the exponent mu shared by all roots of b."""

    sigma_sq: float
    mu: object  # int for k >= 3, int or Fraction for k = 2
    b: tuple


@dataclass(frozen=True)
class FactoredSpectralFunction:
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
        x = Fraction(x)
        exponents = {f.b: f.mu for f in self.factors}
        terms = [(poly_eval(b, x**self.k), mu) for b, mu in exponents.items()]
        terms.append((x, self.mu0))
        value = Fraction(1)
        for base, mu in terms:
            power = n * Fraction(mu)
            if power.denominator != 1:
                raise ValueError(f"{n} * {mu} is not an integer")
            value *= abs(base) ** int(power)
        return value

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


def _signing_spectra(graphs):
    """The gcd-free basis Sigma of the `char_poly_of_squares` of every
    switching class of the given graphs, and per graph the number of its
    switching classes and the sum of their exponent vectors over Sigma.
    Each graph's classes come from its memoised
    `switching_class_polynomials`, which `signing_polynomials` also reads."""
    tables = [
        [(tuple(poly_of_squares(phi)), c) for phi, c in switching_class_polynomials(h)]
        for h in graphs
    ]
    basis = tuple(map(tuple, coprime_basis(q for table in tables for q, _ in table)))
    over_basis = {q: basis_exponents(q, basis) for table in tables for q, _ in table}
    exponents = tuple(
        (
            sum(c for _, c in table),
            tuple(
                sum(c * over_basis[q][i] for q, c in table) for i in range(len(basis))
            ),
        )
        for table in tables
    )
    return exponents, basis


@lru_cache(maxsize=64)
def _motif_spectra(g):
    """The connected edge subsets of g grouped by motif class, and their
    `_signing_spectra`: the census of k >= 4; memoised per graph.  A
    component whose cycle space is too large to list its switching classes
    is refused before the census."""
    check_cycle_space(largest_cycle_rank(g))
    classes = connected_subgraph_classes(g, g.m) if g.m else ()
    exponents, basis = _signing_spectra(motif.graph for motif, _ in classes)
    return classes, exponents, basis


@lru_cache(maxsize=64)
def _induced_spectra(g):
    """The k = 3 twin of `_motif_spectra`: the connected induced subgraphs
    of g with an edge grouped by motif class, and their `_signing_spectra`;
    memoised per graph, refused as there before the census."""
    check_cycle_space(largest_cycle_rank(g))
    classes = connected_induced_subgraph_classes(g)
    exponents, basis = _signing_spectra(motif.graph for motif, _ in classes)
    return classes, exponents, basis


def _power_moments(g, k, top, classes):
    """[S_k, S_2k, ..., S_{top k}] of the k-power of g from its motif classes
    (all those of at most top edges) and one covering profile per motif."""
    totals = [Fraction(0)] * top
    for motif, subsets in classes:
        if motif.e_count > top:
            break
        weight = digraphs.power_moment_prefactor(motif.v_count, motif.e_count, k)
        profile = covering_parity_profile(motif.graph, 2 * top)[2::2]
        totals = [t + weight * p * len(subsets) for t, p in zip(totals, profile)]
    prefactor = Fraction(k - 1) ** (g.n + g.m * (k - 2) - 1)
    return [prefactor * total for total in totals]


def _induced_moments(g, top, classes):
    """[S_3, S_6, ..., S_{3 top}] of the 3-power of g by vertex deletion, from
    its connected induced classes and one parity profile per class.

    At k = 3 a parity-closed walk w weighs 2 (3/4)^|V(w)|, whatever its
    edges.  Writing (3/4)^|V(w)| as the sum, over the vertex sets X that w
    avoids, of (1/4)^|X| (3/4)^(n-|X|) gives S_{3 ell} =
    2^(n+m) sum_X (1/4)^|X| (3/4)^(n-|X|) P_{G-X}(2 ell).  Grouped by the
    components U of G-X, that is 2^(n+m) sum_U (3/4)^|U| (1/4)^|N(U)-U|
    P_{G[U]}(2 ell) over the connected induced U (a single vertex has no
    walk of positive length).
    """
    nbrs = g.neighbors()
    totals = [Fraction(0)] * top
    for motif, subsets in classes:
        weight = Fraction(0)
        for subset in subsets:
            inside = {x for i in subset for x in g.edges[i]}
            boundary = {w for v in inside for w in nbrs[v]} - inside
            weight += Fraction(1, 4 ** len(boundary))
        weight *= Fraction(3, 4) ** motif.v_count
        profile = parity_closed_profile(motif.graph, 2 * top)[2::2]
        totals = [t + weight * p for t, p in zip(totals, profile)]
    return [2 ** (g.n + g.m) * total for total in totals]


def script_S(g, d, k):
    """Exact spectral moment of order d of the k-power of g, as a sum of
    covering parity-closed walk counts over the motif census.  Zero whenever
    k does not divide d; for k = 2 this reduces to the parity-closed count.
    """
    if k < 2:
        raise ValueError("moments are defined for k >= 2")
    if d < 0:
        raise ValueError("moment order must be non-negative")
    if d == 0:
        size = g.n + (k - 2) * g.m
        return Fraction(size * (k - 1) ** (size - 1)) if size else Fraction(0)
    if d % k != 0:
        return Fraction(0)
    # to d / k edges only, to reach graphs too large for the full census
    classes = connected_subgraph_classes(g, min(d // k, g.m)) if g.m else ()
    return _power_moments(g, k, d // k, classes)[-1]


# ---------------------------------------------------------------------------
# exact multiplicities


@lru_cache(maxsize=256)
def _weight_factor(k, t):
    """The factor of w(C) for one further edge inside V(C) (t = 0) or for
    one outside vertex joined to V(C) by t >= 1 edges."""
    base = digraphs.power_moment_prefactor(1, 1, k)
    per_vertex = digraphs.power_moment_prefactor(2, 1, k) / base
    per_edge = digraphs.power_moment_prefactor(1, 2, k) / base
    if t == 0:
        return 1 - per_edge
    return 1 - per_vertex + per_vertex * (1 - per_edge) ** t


def _covering_weight(g, subset, k):
    """w(C) = sum over S of (-1)^|S| D_k(C + S), where S ranges over the sets
    of edges of g outside the connected edge subset C that touch V(C).

    The prefactor D_k(v, e) is c * r^v * s^e, so the sum factors into
    (1 - s) for each further edge inside V(C) and 1 - r + r (1 - s)^t for
    each outside vertex joined to V(C) by t edges.  At k = 3, s = 1: any
    further edge inside V(C) makes w(C) = 0, so the k = 3 census lists only
    induced C, and each outside vertex gives 1 - r = 1/4.
    """
    verts = {x for i in subset for x in g.edges[i]}
    weight = Fraction(1)
    joins = {}
    for i, (a, b) in enumerate(g.edges):
        if i in subset:
            continue
        if a in verts and b in verts:
            weight *= _weight_factor(k, 0)
        elif a in verts or b in verts:
            outside = b if a in verts else a
            joins[outside] = joins.get(outside, 0) + 1
    for t in joins.values():
        weight *= _weight_factor(k, t)
    return weight * digraphs.power_moment_prefactor(len(verts), len(subset), k)


def _exact_multiplicities(g, k):
    """The gcd-free basis of Sigma and the exact multiplicity mu_b of each
    element, for the k-power (k >= 3).

    mu(x) = scale * sum over connected edge subsets H of D_k(H) times
    sum over F in H of (-1)^(|H|-|F|) abar_F(x), where abar_F(x) is the
    number of eigenvalues with square x, averaged over the signings of F and
    summed over its components.  A connected C is a component of F exactly
    when no other edge of F touches V(C), so the inner sum keeps only those
    C whose vertices touch every edge of H, with sign (-1)^(|H|-|C|).
    Exchanging the sums gives mu(x) = scale * sum_C w(C) abar_C(x).  At
    k = 3, w(C) = 0 unless C is induced, so C ranges over the connected
    induced subgraphs alone.
    """
    classes, exponents, basis = (_induced_spectra if k == 3 else _motif_spectra)(g)
    scale = Fraction(k - 1) ** (g.n + (k - 2) * g.m - 1) / k
    mu = [Fraction(0)] * len(basis)
    for (_, subsets), (signings, sums) in zip(classes, exponents):
        weight = scale * sum(_covering_weight(g, s, k) for s in subsets) / signings
        if weight:
            mu = [m + weight * e for m, e in zip(mu, sums)]
    return basis, mu


@lru_cache(maxsize=64)
def _beta_exponents(g):
    """The gcd-free basis of the switching classes of g's components with
    an edge, and beta's exponent of each element: half the sum over those
    components of its switching-class average, since the signings of g are
    the independent signings of its components.  Memoised per graph."""
    components = [h for h in map(g.induced, g.components()) if h.m]
    exponents, basis = _signing_spectra(components)
    mu = [Fraction(0)] * len(basis)
    for classes, sums in exponents:
        mu = [m + Fraction(e, 2 * classes) for m, e in zip(mu, sums)]
    return basis, tuple(mu)


def _factors(pairs):
    """One SpectralFactor per root of each (b, mu) pair, by ascending root;
    each root is the double nearest to the exact sigma^2."""
    factors = [
        SpectralFactor(root, mu, tuple(b)) for b, mu in pairs for root in real_roots(b)
    ]
    return tuple(sorted(factors, key=lambda f: f.sigma_sq))


def _total_degree(basis):
    return sum(len(b) - 1 for b in basis)


def check_moment_identity(g, fsf):
    """Check a factored result against the exact moments, in Fractions:
    k sum_b mu_b p_ell(b) = S_{ell k}, or 2 sum_b mu_b p_ell(b) = P_{2 ell}
    for beta, where p_ell(b) is the ell-th power sum of the roots of b.

    With D the total degree of the basis of g in the regime (the connected
    induced classes at k = 3, beta's own basis at k = 2), the check runs to
    ell <= D.  The basis roots are D distinct nonzero numbers, so the rows
    [r^ell] (ell <= D) form a nonsingular Vandermonde matrix times diag(r),
    and D moments pin every exponent.  At k = 3 the S_{3 ell} come from
    `_induced_moments` (vertex deletion, one parity profile per class), for
    beta from the parity DP of g.  At k >= 4 the S_{ell k} come from one
    covering profile per motif of the full census, for ell <= min(2 D, 8)
    with D that of the census basis; that cap does not pin every exponent.
    Raises ConsistencyError on a mismatch."""
    k = fsf.k
    if k == 2:
        top = _total_degree(_beta_exponents(g)[0])
        moments = parity_closed_profile(g, 2 * top)[2::2]
    elif k == 3:
        classes, _, basis = _induced_spectra(g)
        top = _total_degree(basis)
        moments = _induced_moments(g, top, classes)
    else:
        classes, _, basis = _motif_spectra(g)
        top = min(2 * _total_degree(basis), 8)
        moments = _power_moments(g, k, top, classes)
    mu_of = {f.b: Fraction(f.mu) for f in fsf.factors}
    sums = {b: power_sums_from_charpoly(b, top) for b in mu_of}
    for ell, rhs in enumerate(moments, start=1):
        lhs = k * sum(mu * sums[b][ell] for b, mu in mu_of.items())
        if lhs != rhs:
            raise ConsistencyError(
                f"moment identity fails at ell={ell}: {lhs} != {rhs}"
            )


def char_poly_power(g, k):
    """Factored characteristic polynomial of the k-power of a graph, which
    may be disconnected or have isolated vertices.

    Every multiplicity is an exact coefficient of the trace formula; the
    exponent of lambda follows from the total-degree identity.  Roots with
    multiplicity zero are dropped from the factor list, as in beta.  For a
    connected g with an edge, the largest root is rho(G)^2 (no signed
    subgraph has an eigenvalue beyond rho(G)), and its multiplicity is
    checked exactly against spectral_radius_multiplicity.
    """
    if k < 3:
        raise ValueError("power hypergraphs need k >= 3; use beta for k = 2")
    basis, mu = _exact_multiplicities(g, k)
    for b, m in zip(basis, mu):
        if m.denominator != 1 or m < 0:
            raise ConsistencyError(
                f"multiplicity {m} of the roots of {b} is not a non-negative integer"
            )
    factors = _factors((b, int(m)) for b, m in zip(basis, mu) if m)
    size = g.n + (k - 2) * g.m
    mu0 = size * (k - 1) ** (size - 1) - k * sum(f.mu for f in factors)
    if mu0 < 0:
        raise ConsistencyError(f"negative zero-eigenvalue exponent {mu0}")
    if g.m and g.is_connected():
        expected = spectral_radius_multiplicity(g, k)
        if not factors or factors[-1].mu != expected:
            raise ConsistencyError(
                "spectral-radius multiplicity is not "
                f"k^(|E|(k-3)+|V|-1) = {expected}"
            )
    result = FactoredSpectralFunction(k=k, mu0=mu0, factors=factors)
    check_moment_identity(g, result)
    return result


def _exact(value):
    return int(value) if value.denominator == 1 else value


def beta(g):
    """The k=2 extrapolation of the factored characteristic polynomial.

    The exponent of (lambda^2 - x) is half the number of eigenvalues with
    square x, averaged over the 2^|E| signings, so exponents are dyadic;
    zero exponents are dropped from the factor list.  For a connected g with
    an edge, the exponent of the largest root rho(G)^2 is checked exactly
    against 2^-(|E|-|V|+1).
    """
    basis, mu = _beta_exponents(g)
    if any(m < 0 for m in mu):
        raise ConsistencyError("negative beta exponent")
    factors = _factors((b, _exact(m)) for b, m in zip(basis, mu) if m)
    mu0 = _exact(g.n - 2 * sum(Fraction(f.mu) for f in factors))
    result = FactoredSpectralFunction(k=2, mu0=mu0, factors=factors)
    check_moment_identity(g, result)
    if g.m and g.is_connected():
        expected = Fraction(1, 2 ** (g.m - g.n + 1))
        if not factors or factors[-1].mu != expected:
            raise ConsistencyError(
                "spectral-radius exponent of beta is not "
                f"2^-(|E|-|V|+1) = {expected}"
            )
    return result


# ---------------------------------------------------------------------------
# the spectral radius


def spectral_radius_multiplicity(g, k):
    """Multiplicity of the spectral radius of the k-power of a connected
    graph: k^(|E|(k-3)+|V|-1)."""
    if k < 3:
        raise ValueError("defined for k >= 3")
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    return k ** (g.m * (k - 3) + g.n - 1)


def radius_total_multiplicity(g, k):
    """Total multiplicity of eigenvalues on the spectral circle: k times the
    spectral-radius multiplicity."""
    return k * spectral_radius_multiplicity(g, k)


def radius_cluster_exponent(fsf, g):
    """The pipeline multiplicity at the cluster containing rho(G)^2."""
    rho_sq = spectral_radius(g) ** 2
    return fsf.exponent_near(rho_sq)


def convergence_ratio(g, k, ell):
    """Finite-ell approximant 2^(|E|-|V|) k^(|E|(k-3)+|V|) P_{2 ell} / rho^(2 ell)
    of the total spectral-circle multiplicity."""
    if not g.is_connected():
        raise ValueError("defined for connected graphs")
    counts = parity_closed_profile(g, 2 * ell)
    rho = Fraction(spectral_radius(g))
    return float(
        Fraction(2) ** (g.m - g.n)
        * Fraction(k) ** (g.m * (k - 3) + g.n)
        * counts[2 * ell]
        / rho ** (2 * ell)
    )
