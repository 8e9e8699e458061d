"""Exact polynomial and integer-matrix helpers.

Polynomials are plain lists of coefficients in ascending degree order
([c0, c1, ...] stands for c0 + c1*x + ...).  Everything here is exact:
integers or fractions.Fraction, never floats.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# polynomials


def poly_trim(p):
    """Drop trailing zero coefficients (the zero polynomial becomes [])."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def poly_eval(p, x):
    """Horner evaluation; works for int, Fraction, float and mpf inputs."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_derivative(p):
    return [i * c for i, c in enumerate(p)][1:]


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly_trim(out)


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


def coprime_basis(polys):
    """Gcd-free basis of the squarefree parts of nonzero integer polynomials:
    pairwise coprime, squarefree, primitive integer polynomials such that
    every input is a constant times a product of powers of basis elements.

    Each squarefree part is split against the basis built so far: a shared
    gcd g replaces b by g and b/g, and the part continues as p/g.
    """
    basis = []
    for p in polys:
        p = squarefree_part(p)
        refined = []
        for b in basis:
            g = poly_gcd(b, p)
            if len(g) <= 1:
                refined.append(b)
                continue
            refined.append(_primitive(g))
            rest = poly_divmod(b, g)[0]
            if len(rest) > 1:
                refined.append(_primitive(rest))
            p = _primitive(poly_divmod(p, g)[0])
        if len(p) > 1:
            refined.append(p)
        basis = refined
    return basis


def basis_exponents(p, basis):
    """Exponents e_i with p = c * prod basis[i]^e_i for a constant c; raises
    ArithmeticError when p does not factor over the basis."""
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


def poly_pow(p, exponent):
    out = [1]
    for _ in range(exponent):
        out = poly_mul(out, p)
    return out


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


def power_sums_from_charpoly(coeffs, d_max):
    """Power sums s_0..s_d_max of the roots of a monic integer polynomial,
    via the Girard-Newton recurrences.  All intermediate values stay integral.
    """
    coeffs = list(coeffs)
    if not coeffs or coeffs[-1] != 1:
        raise ValueError("characteristic polynomial must be monic")
    n = len(coeffs) - 1
    # e[i] = i-th elementary symmetric function, e[i] = (-1)^i * coeff of x^(n-i)
    e = [(-1) ** i * coeffs[n - i] for i in range(n + 1)]
    s = [n]
    for d in range(1, d_max + 1):
        acc = 0
        for i in range(1, min(d, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * (s[d - i] if d - i > 0 else 0)
        if d <= n:
            acc += (-1) ** (d - 1) * d * e[d]
        s.append(acc)
    return s


# ---------------------------------------------------------------------------
# integer matrices (lists of lists)


def mat_identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n = len(a)
    m = len(b[0]) if b else 0
    k = len(b)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            x = ai[t]
            if x == 0:
                continue
            bt = b[t]
            for j in range(m):
                oi[j] += x * bt[j]
    return out


def mat_trace(a):
    return sum(a[i][i] for i in range(len(a)))


def mat_power_traces(a, d_max):
    """Traces of a^0 .. a^d_max with exact integer arithmetic."""
    n = len(a)
    traces = [n]
    acc = None
    for _ in range(d_max):
        acc = a if acc is None else mat_mul(acc, a)
        traces.append(mat_trace(acc))
    return traces


def det_bareiss(mat):
    """Exact determinant of an integer matrix (fraction-free Bareiss)."""
    a = [row[:] for row in mat]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]
