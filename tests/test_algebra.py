import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from hyperspectra import spectrum
from hyperspectra.algebra import (
    coprime_basis,
    det_bareiss,
    mat_power_traces,
    mat_rank_mod_p,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow,
    power_sums_from_charpoly,
    real_roots,
    squarefree_decomposition,
)
from hyperspectra.graphs import complete_graph
from hyperspectra.signed import poly_of_squares, switching_class_polynomials
from hyperspectra.spectrum import beta, char_poly_power


class TestPolynomials:
    def test_eval_horner(self):
        # 1 + 2x + 3x^2 at x = 2
        assert poly_eval([1, 2, 3], 2) == 17
        assert poly_eval([1, 2, 3], Fraction(1, 2)) == Fraction(11, 4)

    def test_mul(self):
        assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_divmod(self):
        q, r = oracles.poly_divmod([-1, 0, 1], [1, 1])  # (x^2 - 1) / (x + 1)
        assert q == [-1, 1]
        assert r == []

    def test_gcd(self):
        # gcd(x^2 - 1, x^2 + 2x + 1) = x + 1
        assert poly_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]
        assert oracles.poly_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]
        # primitive, with positive leading coefficient: gcd(2x - 2, 4 - 4x^2)
        assert poly_gcd([-2, 2], [4, 0, -4]) == [-1, 1]
        assert poly_gcd([1, 1], [-1, 1]) == [1]
        assert poly_gcd([], []) == []

    def test_squarefree(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2 -> (x - 1)(x + 2)
        assert oracles.squarefree_part([2, -3, 0, 1]) == [-2, 1, 1]
        assert squarefree_decomposition([2, -3, 0, 1]) == [[2, 1], [-1, 1]]

    def test_squarefree_of_squarefree(self):
        assert oracles.squarefree_part([-2, 0, 1]) == [-2, 0, 1]
        assert squarefree_decomposition([-2, 0, 1]) == [[-2, 0, 1]]

    def test_squarefree_decomposition_skips_absent_multiplicities(self):
        # -2 (x - 1)^3: no simple or double roots
        assert squarefree_decomposition([2, -6, 6, -2]) == [[1], [1], [-1, 1]]

    def test_coprime_basis(self):
        # (x - 1)(x - 2), (x - 2)^2 (x - 3), x^2 - 2: the shared root 2 splits off
        basis, exponents = coprime_basis([[2, -3, 1], [-12, 16, -7, 1], [-2, 0, 1]])
        assert basis == [[-2, 1], [-1, 1], [-3, 1], [-2, 0, 1]]
        assert exponents == {
            (2, -3, 1): [1, 1, 0, 0],
            (-12, 16, -7, 1): [2, 0, 1, 0],
            (-2, 0, 1): [0, 0, 0, 1],
        }

    def test_coprime_basis_refines_repeated_factors(self):
        # -(x - 1)^2 (x - 4): the squarefree part alone would give one element
        # (x - 1)(x - 4), over which the input does not factor
        basis, exponents = coprime_basis([[4, -9, 6, -1]])
        assert basis == [[-4, 1], [-1, 1]]
        assert exponents == {(4, -9, 6, -1): [1, 2]}

    def test_coprime_basis_drops_repeated_inputs(self):
        assert coprime_basis([[-2, 1], [-2, 1], (-2, 1)]) == ([[-2, 1]], {(-2, 1): [1]})

    def test_basis_exponents(self):
        # trial division survives only as the oracle of the refinement's
        # exponents
        basis = [[-1, 1], [-2, 1]]
        # -(x - 1)^2 (x - 2) = -x^3 + 4x^2 - 5x + 2
        assert oracles.basis_exponents([2, -5, 4, -1], basis) == [2, 1]
        with pytest.raises(ArithmeticError):
            oracles.basis_exponents([-3, 1], basis)

    def test_power_sums(self):
        # roots 2 and 3: x^2 - 5x + 6
        sums = power_sums_from_charpoly([6, -5, 1], 4)
        assert sums == [2, 5, 13, 35, 97]

    def test_power_sums_needs_monic(self):
        with pytest.raises(ValueError):
            power_sums_from_charpoly([1, 2], 3)

    def test_newton_round_trip(self):
        # x^4 - 2x^3 - 5x^2 + 6x and friends survive the there-and-back
        for poly in ([0, 6, -5, -2, 1], [-2, -3, 0, 1], [1, 0, -3, 0, 1]):
            n = len(poly) - 1
            sums = power_sums_from_charpoly(poly, n)
            assert oracles.charpoly_from_power_sums(sums, n) == [
                Fraction(c) for c in poly
            ]

    def test_poly_pow(self):
        assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
        assert poly_pow([2], 0) == [1]


class TestRealRoots:
    def test_nearest_doubles(self):
        assert real_roots([-2, 0, 1]) == [-math.sqrt(2), math.sqrt(2)]
        assert real_roots([6, -5, 1]) == [2.0, 3.0]
        # x^2 - 3x + 1: the golden-ratio squares (3 -+ sqrt 5) / 2, where
        # float arithmetic would lose the last bit of the smaller one
        with localcontext(Context(prec=60)):
            root5 = Decimal(5).sqrt()
            expected = [float((3 - root5) / 2), float((3 + root5) / 2)]
        assert real_roots([1, -3, 1]) == expected
        assert expected[0] != (3 - math.sqrt(5)) / 2

    def test_roots_on_dyadic_points(self):
        # 0, 1/2 and -4 are midpoints of the bisection
        assert real_roots([0, -4, 7, 2]) == [-4.0, 0.0, 0.5]

    def test_close_roots(self):
        # (x - 1)(2^40 x - 2^40 - 1): two roots 2^-40 apart
        b = poly_mul([-1, 1], [-(2**40 + 1), 2**40])
        assert real_roots(b) == [1.0, 1.0 + 2.0**-40]

    def test_refuses_non_real_or_repeated_roots(self):
        with pytest.raises(ArithmeticError):
            real_roots([1, 0, 1])
        with pytest.raises(ArithmeticError):
            real_roots([1, -2, 1])

    def test_constant(self):
        assert real_roots([3]) == []


class TestMemos:
    """Squarefree decompositions and real roots are memoised per
    coefficient tuple, process-wide and bounded."""

    def test_a_caller_cannot_change_the_next_result(self):
        factors = squarefree_decomposition([4, -9, 6, -1])
        factors[0].append(7)
        factors.append([9])
        assert squarefree_decomposition([4, -9, 6, -1]) == [[-4, 1], [-1, 1]]
        roots = real_roots([6, -5, 1])
        roots[0] = 0.0
        roots.append(1.0)
        assert real_roots([6, -5, 1]) == [2.0, 3.0]

    def test_non_real_roots_raise_on_every_call(self):
        real_roots.cache_clear()
        for _ in range(3):
            with pytest.raises(ArithmeticError):
                real_roots([1, 0, 1])
        assert real_roots.cache_info().currsize == 0

    def test_bounded(self):
        assert squarefree_decomposition.cache_info().maxsize == 4096
        assert real_roots.cache_info().maxsize == 4096

    def test_one_miss_per_distinct_polynomial(self):
        # K4 at k=3, k=4 and beta read three censuses, whose tables share
        # polynomials, and three results, which share basis elements
        g = complete_graph(4)

        def jobs():
            spectrum._spectra.cache_clear()
            return char_poly_power(g, 3), char_poly_power(g, 4), beta(g)

        def counts():
            infos = squarefree_decomposition.cache_info(), real_roots.cache_info()
            return tuple(i.misses for i in infos), tuple(i.hits for i in infos)

        squarefree_decomposition.cache_clear()
        real_roots.cache_clear()
        results = jobs()
        tables = {
            tuple(poly_of_squares(phi))
            for regime in (2, 3, 4)
            for h, _ in spectrum._spectra(g, regime)[0]
            for phi, _ in switching_class_polynomials(h)
        }
        elements = {f.b for fsf in results for f in fsf.factors}
        misses, hits = counts()
        assert misses == (len(tables), len(elements)) == (12, 9)
        jobs()
        again, more = counts()
        assert again == misses
        assert all(m > h for m, h in zip(more, hits))


def _linear_factors():
    return st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=3
    )


def _product(factors):
    """prod (x - r)^e, times x^2 - 2 when asked: an irreducible quadratic."""
    out = [1]
    for r, e in factors:
        out = poly_mul(out, poly_pow([-r, 1], e))
    return out


@st.composite
def _polynomial_families(draw):
    polys = []
    for _ in range(draw(st.integers(1, 4))):
        p = _product(draw(_linear_factors()))
        if draw(st.booleans()):
            p = poly_mul(p, poly_pow([-2, 0, 1], draw(st.integers(1, 2))))
        polys.append([draw(st.sampled_from([1, -1, 2, -3])) * c for c in p])
    return polys


class TestIntegerBasisAgainstFractionOracle:
    @given(_polynomial_families())
    def test_same_basis_and_exponents(self, polys):
        basis, exponents = coprime_basis(polys)
        assert sorted(basis) == sorted(oracles.coprime_basis(polys))
        # the refinement's own vectors, one per distinct input, against
        # trial division in Fractions
        assert list(exponents) == list(dict.fromkeys(map(tuple, polys)))
        for p in polys:
            assert exponents[tuple(p)] == oracles.basis_exponents(p, basis)

    @given(_polynomial_families())
    def test_every_input_factors_over_the_basis(self, polys):
        basis, exponents = coprime_basis(polys)
        for i, a in enumerate(basis):
            for b in basis[i + 1 :]:
                assert poly_gcd(a, b) == [1]
        for p in polys:
            product = [1]
            for b, e in zip(basis, exponents[tuple(p)]):
                product = poly_mul(product, poly_pow(b, e))
            assert [c * product[-1] for c in p] == [c * p[-1] for c in product]

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_census_tables_as_by_trial_division(self, desk_corpus, k):
        # each class's (signings, sums, degree) and the basis of `_spectra`,
        # rebuilt with the Fraction basis and exponents by trial division;
        # the exponents of k read them through the oracle's weights
        for g in desk_corpus:
            groups, spectra, basis = spectrum._spectra(g, min(k, 4))
            tables = [
                [(poly_of_squares(phi), c) for phi, c in switching_class_polynomials(h)]
                for h, _ in groups
            ]
            expected = oracles.coprime_basis(q for t in tables for q, _ in t)
            assert basis == tuple(map(tuple, expected)), (g, k)
            rebuilt = []
            for table in tables:
                sums = [0] * len(basis)
                for q, c in table:
                    for i, e in enumerate(oracles.basis_exponents(q, expected)):
                        sums[i] += c * e
                degree = sum(c * (len(q) - 1) for q, c in table)
                rebuilt.append((sum(c for _, c in table), tuple(sums), degree))
            assert spectra == tuple(rebuilt), (g, k)
            scale = Fraction((k - 1) ** (g.n + (k - 2) * g.m - 1), k)
            mu = [Fraction(0)] * len(basis)
            for (h, shapes), (signings, sums, _) in zip(groups, rebuilt):
                w = sum(c * oracles.covering_weight(h, *shape, k) for shape, c in shapes)
                mu = [m + scale * w * e / signings for m, e in zip(mu, sums)]
            assert spectrum._exponents(g, k) == (basis, mu), (g, k)


class TestMatrices:
    def test_power_traces(self):
        a = [[0, 1], [1, 0]]
        assert mat_power_traces(a, 4) == [2, 0, 2, 0, 2]

    def test_det_small(self):
        assert det_bareiss([[2, 1], [1, 2]]) == 3
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_det_needs_pivot_swap(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1

    def test_det_4x4(self):
        mat = [
            [2, -1, 0, 0],
            [-1, 2, -1, 0],
            [0, -1, 2, -1],
            [0, 0, -1, 2],
        ]
        assert det_bareiss(mat) == 5  # path Laplacian minor counts 5 trees

    def test_det_empty(self):
        assert det_bareiss([]) == 1

    def test_rank_mod_p(self):
        assert mat_rank_mod_p([]) == 0
        assert mat_rank_mod_p([[0, 1], [1, 0]]) == 2
        assert mat_rank_mod_p([[1, 2, 3], [2, 4, 6], [1, 0, 1]]) == 2
        # 2^61 - 1 itself is 0 in the field
        assert mat_rank_mod_p([[(1 << 61) - 1, 0], [0, 1]]) == 1

    @given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-2, 2), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0],
        )
    ))
    def test_rank_mod_p_is_the_rank_over_q(self, mat):
        # every minor here is far below 2^61 - 1 in absolute value, so no
        # nonzero minor vanishes mod p
        assert mat_rank_mod_p(mat) == oracles.rank_over_q(mat)

    def test_rank_mod_p_of_a_large_matrix(self):
        # a Vandermonde matrix on 2..41, entries past 2^61: its determinant is
        # a product of differences below 40, so it is nonsingular mod p
        mat = [[x**j for j in range(40)] for x in range(2, 42)]
        assert mat_rank_mod_p(mat) == 40
        mat[7] = [a - 2 * b for a, b in zip(mat[3], mat[5])]
        assert mat_rank_mod_p(mat) == oracles.rank_over_q(mat) == 39
