"""Exact polynomial and integer-matrix helpers, in integers only.

Polynomials are plain lists of integer coefficients in ascending degree
order ([c0, c1, ...] stands for c0 + c1*x + ...).  Gcds come from the
primitive pseudo-remainder sequence and every division is exact, so no
rational and no float is formed; the one float output is a real root,
isolated by an integer Sturm sequence and bisected at dyadic points until
its interval rounds to a single double.

`coprime_basis` returns each input's exponent vector over the basis from
the refinement itself, so no input is divided by the basis afterwards.
Squarefree decompositions and real roots are memoised process-wide per
coefficient tuple (bounded, with `cache_info` and `cache_clear`), since
every regime and every k of a graph reads the same polynomials.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


# ---------------------------------------------------------------------------
# polynomials


def poly_trim(p):
    """Drop trailing zero coefficients (the zero polynomial becomes [])."""
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return list(p[:n])


def poly_eval(p, x):
    """Horner evaluation; works for int, Fraction and float inputs."""
    acc = 0 * x
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_eval_scaled(p, num, den):
    """den^deg(p) * p(num / den), by Horner's rule in integers (0 for the
    zero polynomial [])."""
    acc, power = 0, 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
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


def poly_pow(p, exponent):
    out = [1]
    for _ in range(exponent):
        out = poly_mul(out, p)
    return out


def _poly_sub(a, b):
    out = list(a) + [0] * (len(b) - len(a))
    for i, c in enumerate(b):
        out[i] -= c
    return poly_trim(out)


def _content_free(p):
    """p divided by its (positive) content; the signs are kept."""
    content = gcd(*p)
    return p if content == 1 else [c // content for c in p]


def _primitive(p):
    """The primitive integer polynomial with positive leading coefficient
    that is a constant multiple of the nonzero p."""
    p = _content_free(p)
    return [-c for c in p] if p[-1] < 0 else p


def _pseudo_remainder(a, b):
    """A positive multiple of the remainder of a by the nonzero b: each
    step scales by |lead(b)|, so every intermediate value is an integer."""
    r = list(a)
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    db = len(b) - 1
    while len(r) > db:
        top = sign * r[-1]
        shift = len(r) - 1 - db
        if scale != 1:
            r = [c * scale for c in r]
        for i, cb in enumerate(b):
            r[shift + i] -= top * cb
        while r and r[-1] == 0:
            r.pop()
    return r


def _quotient(a, b):
    """The quotient a / b for a primitive b that divides a, else None.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so a step whose leading coefficient
    does not divide exactly proves that b does not divide a.
    """
    r = list(a)
    lead = b[-1]
    db = len(b) - 1
    q = [0] * max(0, len(r) - db)
    while len(r) > db:
        c, rem = divmod(r[-1], lead)
        if rem:
            return None
        shift = len(r) - 1 - db
        q[shift] = c
        for i, cb in enumerate(b):
            r[shift + i] -= c * cb
        while r and r[-1] == 0:
            r.pop()
    return None if r else q


def _divide(a, b):
    q = _quotient(a, b)
    if q is None:
        raise ArithmeticError("divisor does not divide its polynomial")
    return q


def poly_gcd(a, b):
    """Primitive gcd with positive leading coefficient ([] when both are
    zero), by the primitive pseudo-remainder sequence."""
    a, b = poly_trim(a), poly_trim(b)
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _primitive(a) if a else []
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = _pseudo_remainder(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


@lru_cache(maxsize=4096)
def _squarefree_factors(p):
    """`squarefree_decomposition` of the coefficient tuple p, as a tuple of
    tuples; memoised, since every census and every k re-reads the same
    switching-class polynomials."""
    p = poly_trim(p)
    if len(p) <= 1:
        return ()
    p = _primitive(p)
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    c = _divide(p, g)
    d = _poly_sub(_divide(dp, g), poly_derivative(c))
    factors = []
    while len(c) > 1:
        a = poly_gcd(c, d)
        c = _divide(c, a)
        d = _poly_sub(_divide(d, a), poly_derivative(c))
        factors.append(tuple(a))
    return tuple(factors)


def squarefree_decomposition(p):
    """Yun's algorithm: [f1, f2, ...] with p = c * f1 * f2^2 * f3^3 ...,
    each f_i primitive, squarefree, with positive leading coefficient, and
    pairwise coprime ([1] for a multiplicity with no roots).  Memoised per
    coefficient tuple; each call returns fresh lists."""
    return [list(f) for f in _squarefree_factors(tuple(p))]


squarefree_decomposition.cache_info = _squarefree_factors.cache_info
squarefree_decomposition.cache_clear = _squarefree_factors.cache_clear


def coprime_basis(polys):
    """Gcd-free basis of nonzero integer polynomials and the exponent vector
    of each input over it: pairwise coprime, squarefree, primitive integer
    polynomials with positive leading coefficient, such that every input p
    is c * prod basis[j]^e[j] for a constant c.  When every input has
    leading coefficient +-1, so does each divisor, so every element is
    monic.  Returns (basis, exponents), exponents mapping each distinct
    input, as a tuple, to its list e.

    Repeated inputs are dropped.  Each factor f of multiplicity i in an
    input's squarefree decomposition is split against the basis built so
    far: a shared gcd g replaces b by g and b/g, and f continues as f/g.
    The exponents are kept through the refinement (Bach, Driscoll &
    Shallit, "Factor refinement", J. Algorithms 15, 1993): both parts keep
    b's exponents, g gains i in the input being split in, and what is left
    of f enters with i.  That input holds no exponent on b before: its
    earlier factors have other multiplicities, so are coprime to f.  The
    result groups the roots of the inputs by their multiplicity in every
    input.
    """
    inputs = list(dict.fromkeys(map(tuple, polys)))
    basis = []  # (element, ((input index, exponent), ...))
    for at, p in enumerate(inputs):
        for i, f in enumerate(_squarefree_factors(p), start=1):
            refined = []
            for b, owners in basis:
                g = poly_gcd(b, f) if len(f) > 1 else [1]
                if len(g) <= 1:
                    refined.append((b, owners))
                    continue
                refined.append((g, owners + ((at, i),)))
                rest = _divide(b, g)
                if len(rest) > 1:
                    refined.append((rest, owners))
                f = _divide(f, g)
            if len(f) > 1:
                refined.append((list(f), ((at, i),)))
            basis = refined
    exponents = [[0] * len(basis) for _ in inputs]
    for j, (_, owners) in enumerate(basis):
        for at, e in owners:
            exponents[at][j] = e
    return [b for b, _ in basis], dict(zip(inputs, exponents))


def _sign_at(p, m, s):
    """Sign of p(m / 2^s), read off the integer 2^(s deg p) p(m / 2^s)."""
    d = len(p) - 1
    acc = p[d]
    for i in range(d - 1, -1, -1):
        acc = acc * m + (p[i] << (s * (d - i)))
    return (acc > 0) - (acc < 0)


def _sturm_sequence(p):
    """p, p' and the negated remainders, each scaled by positive constants
    only, so that sign variations count roots as in Sturm's theorem."""
    seq = [p, poly_derivative(p)]
    while len(seq[-1]) > 1:
        r = _pseudo_remainder(seq[-2], seq[-1])
        if not r:
            raise ArithmeticError("polynomial is not squarefree")
        seq.append([-c for c in _content_free(r)])
    return seq


def _variations(seq, m, s):
    """Sign variations of the Sturm sequence at m / 2^s."""
    count, last = 0, 0
    for q in seq:
        sign = _sign_at(q, m, s)
        if sign:
            if last and sign != last:
                count += 1
            last = sign
    return count


def _round_root(p, lo, hi, s):
    """The double nearest the one root of p in (lo / 2^s, hi / 2^s]: halve
    the interval until both ends round to the same double."""
    top = _sign_at(p, hi, s)
    while top and lo / (1 << s) != hi / (1 << s):
        mid, lo, hi, s = lo + hi, 2 * lo, 2 * hi, s + 1
        sign = _sign_at(p, mid, s)
        if sign == top:
            hi = mid
        elif sign:
            lo = mid
        else:
            hi, top = mid, 0
    return hi / (1 << s)


@lru_cache(maxsize=4096)
def _real_roots(p):
    """`real_roots` of the coefficient tuple p, as a tuple; memoised, since
    each basis element is read again for every k of its census.  A raise
    is not stored, so it recurs on every call."""
    p = poly_trim(p)
    degree = len(p) - 1
    if degree < 1:
        return ()
    seq = _sturm_sequence(p)
    bound = 1 << (2 + max(map(abs, p[:-1])) // abs(p[-1])).bit_length()
    v_lo, v_hi = _variations(seq, -bound, 0), _variations(seq, bound, 0)
    if v_lo - v_hi != degree:
        raise ArithmeticError("polynomial has non-real roots")
    roots = []
    stack = [(-bound, bound, 0, v_lo, v_hi)]
    while stack:
        lo, hi, s, v_lo, v_hi = stack.pop()
        if v_lo - v_hi == 1:
            roots.append(_round_root(p, lo, hi, s))
        elif v_lo - v_hi > 1:
            mid, lo, hi, s = lo + hi, 2 * lo, 2 * hi, s + 1
            v_mid = _variations(seq, mid, s)
            stack.append((mid, hi, s, v_mid, v_hi))
            stack.append((lo, mid, s, v_lo, v_mid))
    return tuple(roots)


def real_roots(p):
    """The roots of a squarefree integer polynomial whose roots are all
    real, ascending, each as the double nearest to it (int / int division
    rounds correctly).  Raises ArithmeticError for any other polynomial.

    A Sturm sequence counts the roots in (lo, hi] for dyadic ends, starting
    from a power of two above the Cauchy bound; intervals holding several
    roots are halved until each holds one, which is then bisected by the
    sign of p alone.  Memoised per coefficient tuple; each call returns a
    fresh list.
    """
    return list(_real_roots(tuple(p)))


real_roots.cache_info = _real_roots.cache_info
real_roots.cache_clear = _real_roots.cache_clear


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


def mat_rank_mod_p(mat):
    """Rank of an integer matrix modulo the prime p = 2^61 - 1, by Gaussian
    elimination over that field.  A nonzero minor mod p is nonzero over the
    integers, so the rank over Q is at least this.

    Each row is packed into one integer, entry j in bits [j w, (j+1) w),
    so a row operation is one big-integer multiply and add.  Entries are
    kept nonnegative and reduced only when read: a row takes at most one
    update per pivot, each adding less than p^2 to an entry, so with
    w = 2 * 61 + bits(rows) + 1 no entry carries into the next.  Each pivot
    row is reduced before use."""
    p = (1 << 61) - 1
    cols = len(mat[0]) if mat else 0
    width = 2 * p.bit_length() + len(mat).bit_length() + 1
    mask = (1 << width) - 1

    def pack(values):
        return sum((v % p) << (width * j) for j, v in enumerate(values))

    def entry(row, j):
        return (row >> (width * j) & mask) % p

    rows = [pack(row) for row in mat]
    rank = 0
    for col in range(cols):
        at = next((i for i in range(rank, len(rows)) if entry(rows[i], col)), None)
        if at is None:
            continue
        rows[rank], rows[at] = rows[at], rows[rank]
        pivot = pack([entry(rows[rank], j) for j in range(cols)])
        inverse = pow(entry(pivot, col), -1, p)
        for i in range(rank + 1, len(rows)):
            factor = entry(rows[i], col) * inverse % p
            if factor:
                rows[i] += (p - factor) * pivot
        rank += 1
    return rank
