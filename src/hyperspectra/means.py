"""Matching polynomial, the arithmetic-mean identity relating it to signed
characteristic polynomials, the geometric-mean evaluation of the
pseudo-characteristic function, and the AM-GM comparison between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import ConsistencyError
from .signed import signing_polynomials
from .spectrum import WORKING_PRECISION_BITS

AMGM_TOLERANCE = 1e-9  # beta is a double, so alpha - beta is compared to this


def matchings_by_size(g):
    """m_r = number of r-edge matchings, r = 0..floor(n/2), by recursion
    over the edge list."""
    counts = [0] * (g.n // 2 + 1)
    edges = g.edges

    def extend(start, used, size):
        counts[size] += 1
        for i in range(start, len(edges)):
            u, v = edges[i]
            if u in used or v in used:
                continue
            used.add(u)
            used.add(v)
            extend(i + 1, used, size + 1)
            used.remove(u)
            used.remove(v)

    extend(0, set(), 0)
    return counts


def matching_polynomial(g, method="direct"):
    """sum_r (-1)^r m_r lambda^(n-2r), exact rational coefficients ascending.

    direct counts matchings; signed_mean averages the characteristic
    polynomials of all 2^|E| signings coefficient-wise, as a sum over the
    distinct polynomials (one per switching class or fewer) weighted by how
    many signings share each.  The two agree by the arithmetic-mean identity
    and cross-check each other in the test suite.
    """
    if method == "direct":
        coeffs = [Fraction(0)] * (g.n + 1)
        for r, m_r in enumerate(matchings_by_size(g)):
            coeffs[g.n - 2 * r] += Fraction((-1) ** r * m_r)
        return coeffs
    if method == "signed_mean":
        totals = [0] * (g.n + 1)
        for poly, count in signing_polynomials(g):
            totals = [t + count * c for t, c in zip(totals, poly)]
        scale = Fraction(1, 2**g.m)
        return [scale * c for c in totals]
    raise ValueError(f"unknown method {method!r}")


def _scaled_value(poly, p, q):
    """q^deg(poly) * poly(p / q), by Horner's rule in integers."""
    acc, q_power = poly[-1], 1
    for c in reversed(poly[:-1]):
        q_power *= q
        acc = acc * p + c * q_power
    return acc


def signed_char_poly_values(g, lambda0):
    """(phi(lambda0), count) for each distinct characteristic polynomial phi
    of a signing of g and the number of signings that have it; the values
    are exact rationals, lambda0 being taken at its exact binary value p/q,
    each from one integer Horner pass over q^n phi(p/q)."""
    x = Fraction(lambda0)
    p, q = x.numerator, x.denominator
    scale = q**g.n
    return tuple(
        (Fraction(_scaled_value(poly, p, q), scale), count)
        for poly, count in signing_polynomials(g)
    )


def geometric_mean_evaluate(g, lambda0):
    """(prod_pi phi_pi(lambda0))^(2^-|E|).

    The product is computed exactly, over the distinct signed polynomials,
    each value raised to its number of signings; a negative product
    contradicts the geometric-mean identity and is reported as an
    inconsistency rather than silently truncated.  A zero product (lambda0
    hits a root of some signing) evaluates to exactly 0.
    """
    values = signed_char_poly_values(g, lambda0)
    return _geometric_mean(values, lambda0)


def _geometric_mean(values, lambda0):
    """The 2^|E|-th root of the product of the 2^|E| values phi_pi(lambda0),
    from (value, count) pairs: the exact product of value^count."""
    product = Fraction(1)
    signings = 0
    for v, count in values:
        product *= v**count
        signings += count
    if signings == 1:
        # a single signing: the mean is the polynomial value itself
        return float(product)
    if product < 0:
        # impossible for |E| >= 1: each switching class contributes its
        # value an even number 2^(|V|-c) of times
        raise ConsistencyError(
            f"negative signed product at lambda0={lambda0}; this contradicts "
            "the geometric-mean identity"
        )
    if product == 0:
        return 0.0
    with mp.workprec(WORKING_PRECISION_BITS):
        value = mp.mpf(product.numerator) / mp.mpf(product.denominator)
        return float(mp.root(value, signings))


@dataclass(frozen=True)
class AmgmReport:
    status: str  # "pass", "fail", or "skipped"
    lambda0: float
    alpha_value: Fraction | None
    beta_value: float | None
    equality: bool | None
    detail: str


def amgm_check(g, lambda0):
    """Arithmetic versus geometric mean of the signed characteristic
    polynomials at lambda0: alpha(lambda0) >= beta(lambda0), with equality
    exactly when all signings agree there.  Both means run over the distinct
    polynomials weighted by their numbers of signings.  Skipped (not failed)
    when some phi_pi(lambda0) is negative, since the comparison is
    conditional on non-negative values."""
    values = signed_char_poly_values(g, lambda0)
    if any(v < 0 for v, _ in values):
        return AmgmReport(
            status="skipped",
            lambda0=float(lambda0),
            alpha_value=None,
            beta_value=None,
            equality=None,
            detail="some signed characteristic polynomial is negative here",
        )
    alpha_value = sum((v * count for v, count in values), Fraction(0)) / 2**g.m
    beta_value = _geometric_mean(values, lambda0)
    spread = float(max(v for v, _ in values) - min(v for v, _ in values))
    all_equal = spread <= AMGM_TOLERANCE
    gap = float(alpha_value) - beta_value
    if gap < -AMGM_TOLERANCE:
        status = "fail"
        detail = f"alpha - beta = {gap:.3e} is negative"
    elif all_equal != (abs(gap) <= AMGM_TOLERANCE):
        status = "fail"
        detail = (
            f"equality case mismatch: spread {spread:.3e} but gap {gap:.3e}"
        )
    else:
        status = "pass"
        detail = "equality" if all_equal else f"strict by {gap:.6g}"
    return AmgmReport(
        status=status,
        lambda0=float(lambda0),
        alpha_value=alpha_value,
        beta_value=beta_value,
        equality=all_equal,
        detail=detail,
    )
