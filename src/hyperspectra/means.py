"""The averages over the 2^|E| signings of a graph, one function each: the
arithmetic means of their characteristic polynomials (the matching
polynomial, by Godsil-Gutman) and of their spectral moments (the
parity-closed walk counts), the geometric mean of their polynomials
(beta's pseudo-characteristic function), and the AM-GM comparison.

Every mean reads `signed.signing_polynomials`, each distinct signed
characteristic polynomial with its number of signings; this module is its
one reader.  The two arithmetic means are the independent twins of
`matching_polynomial` and `walks.parity_closed_profile`.

All exact, except the geometric mean: an integer product over signings,
whose 2^|E|-th root is taken by nested integer square roots, to a double.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .algebra import poly_eval_scaled, power_sums_from_charpoly
from .errors import ConsistencyError
from .signed import signing_polynomials

ROOT_BITS = 128  # working width of the integer roots: 53 bits and 75 guard bits


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


def matching_polynomial(g):
    """sum_r (-1)^r m_r lambda^(n-2r), exact rational coefficients
    ascending, by counting matchings."""
    coeffs = [Fraction(0)] * (g.n + 1)
    for r, m_r in enumerate(matchings_by_size(g)):
        coeffs[g.n - 2 * r] += Fraction((-1) ** r * m_r)
    return coeffs


def mean_signed_char_poly(g):
    """The coefficient-wise mean of the characteristic polynomials of all
    2^|E| signings, exact rational coefficients ascending; equal to the
    matching polynomial by the arithmetic-mean identity."""
    totals = [0] * (g.n + 1)
    for poly, count in signing_polynomials(g):
        totals = [t + count * c for t, c in zip(totals, poly)]
    scale = Fraction(1, 2**g.m)
    return [scale * c for c in totals]


def mean_signed_moments(g, max_d):
    """The mean of trace(A_signed^d) over all 2^|E| signings, for every
    length 0..max_d, read from the power sums of each distinct signed
    characteristic polynomial; equal to the parity-closed walk counts."""
    if max_d < 0:
        raise ValueError("walk length must be non-negative")
    totals = [0] * (max_d + 1)
    for poly, count in signing_polynomials(g):
        traces = power_sums_from_charpoly(poly, max_d)
        totals = [t + count * s for t, s in zip(totals, traces)]
    scale = 1 << g.m
    profile = []
    for t, total in enumerate(totals):
        q, r = divmod(total, scale)
        if r != 0:
            raise ConsistencyError(
                f"signed trace average is not an integer at length {t}"
            )
        profile.append(q)
    return profile


def _scaled_values(g, lambda0):
    """q^n and, per distinct signed characteristic polynomial phi of g, the
    pair (q^n phi(p/q), number of signings with phi), where p/q is the exact
    binary value of lambda0; each value is one integer Horner pass."""
    p, q = Fraction(lambda0).as_integer_ratio()
    values = [(poly_eval_scaled(phi, p, q), c) for phi, c in signing_polynomials(g)]
    return q**g.n, values


def geometric_mean_evaluate(g, lambda0):
    """(prod_pi phi_pi(lambda0))^(2^-|E|), as the nearest double.

    The product is computed exactly, over the distinct signed polynomials,
    each value raised to its number of signings; a negative product
    contradicts the geometric-mean identity and is reported as an
    inconsistency rather than silently truncated.  A zero product (lambda0
    hits a root of some signing) evaluates to exactly 0.
    """
    scale, values = _scaled_values(g, lambda0)
    product = math.prod(v**count for v, count in values)
    return _geometric_mean(product, scale, 2**g.m, lambda0)


def _geometric_mean(product, scale, signings, lambda0):
    """The signings-th root of product / scale^signings, as a double."""
    if signings == 1:
        # a single signing: the mean is the polynomial value itself
        return product / scale
    if product < 0:
        # impossible for |E| >= 1: each switching class contributes its
        # value an even number 2^(|V|-c) of times
        raise ConsistencyError(
            f"negative signed product at lambda0={lambda0}; this contradicts "
            "the geometric-mean identity"
        )
    if product == 0:
        return 0.0
    return _root(product, scale**signings, signings)


def _root(num, den, n):
    """The double nearest (num / den)^(1/n), for positive integers num, den
    and n a power of two, unless the root is within a relative 2^-126 of a
    midpoint between doubles: a * 2^e starts as the quotient with 2 ROOT_BITS
    bits in a, and each integer square root, of a shifted left to an even
    exponent, keeps ROOT_BITS bits, so a * 2^e is short by under 2^-127."""
    e = num.bit_length() - den.bit_length() - 2 * ROOT_BITS
    a = (num << -e) // den if e < 0 else num // (den << e)
    for _ in range(n.bit_length() - 1):
        shift = 2 * ROOT_BITS + 2 - a.bit_length()
        shift += (e - shift) % 2
        a, e = math.isqrt(a << shift), (e - shift) // 2
    try:
        return math.ldexp(a, e)
    except OverflowError:  # past the largest double, as float arithmetic gives
        return math.inf


class AmgmReport(NamedTuple):
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
    scale, values = _scaled_values(g, lambda0)
    if any(v < 0 for v, _ in values):
        return AmgmReport(
            status="skipped",
            lambda0=float(lambda0),
            alpha_value=None,
            beta_value=None,
            equality=None,
            detail="some signed characteristic polynomial is negative here",
        )
    signings = 2**g.m
    total = sum(v * count for v, count in values)
    product = math.prod(v**count for v, count in values)
    alpha_value = Fraction(total, scale * signings)
    beta_value = _geometric_mean(product, scale, signings, lambda0)
    # alpha^N >= prod phi^count, both sides times (N scale)^N, N^N = 2^(|E| N)
    lhs, rhs = total**signings, product << (g.m * signings)
    all_equal = len({v for v, _ in values}) == 1
    try:  # the detail alone shows the gap; past the largest double it cannot
        gap = float(alpha_value) - beta_value
    except OverflowError:
        gap = math.nan
    if lhs < rhs:
        status, detail = "fail", f"alpha < beta, alpha - beta = {gap:.3e}"
    elif all_equal != (lhs == rhs):
        status, detail = "fail", "equality does not match equal signed values"
    else:
        shown = f" by {gap:.6g}" if math.isfinite(gap) else ""
        status, detail = "pass", "equality" if all_equal else "strict" + shown
    return AmgmReport(
        status=status,
        lambda0=float(lambda0),
        alpha_value=alpha_value,
        beta_value=beta_value,
        equality=all_equal,
        detail=detail,
    )
