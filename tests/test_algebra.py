from fractions import Fraction

import pytest

from hyperspectra.algebra import (
    basis_exponents,
    charpoly_from_power_sums,
    coprime_basis,
    det_bareiss,
    mat_power_traces,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow,
    power_sums_from_charpoly,
    squarefree_part,
)


class TestPolynomials:
    def test_eval_horner(self):
        # 1 + 2x + 3x^2 at x = 2
        assert poly_eval([1, 2, 3], 2) == 17
        assert poly_eval([1, 2, 3], Fraction(1, 2)) == Fraction(11, 4)

    def test_mul(self):
        assert poly_mul([1, 1], [1, -1]) == [1, 0, -1]

    def test_divmod(self):
        q, r = poly_divmod([-1, 0, 1], [1, 1])  # (x^2 - 1) / (x + 1)
        assert q == [-1, 1]
        assert r == []

    def test_gcd(self):
        # gcd(x^2 - 1, x^2 + 2x + 1) = x + 1
        assert poly_gcd([-1, 0, 1], [1, 2, 1]) == [1, 1]

    def test_squarefree(self):
        # (x - 1)^2 (x + 2) = x^3 - 3x + 2 -> (x - 1)(x + 2)
        assert squarefree_part([2, -3, 0, 1]) == [-2, 1, 1]

    def test_squarefree_of_squarefree(self):
        assert squarefree_part([-2, 0, 1]) == [-2, 0, 1]

    def test_coprime_basis(self):
        # (x - 1)(x - 2), (x - 2)^2 (x - 3), x^2 - 2: the shared root 2 splits off
        basis = coprime_basis([[2, -3, 1], [-12, 16, -7, 1], [-2, 0, 1]])
        assert sorted(basis) == [[-3, 1], [-2, 0, 1], [-2, 1], [-1, 1]]

    def test_basis_exponents(self):
        basis = [[-1, 1], [-2, 1]]
        # -(x - 1)^2 (x - 2) = -x^3 + 4x^2 - 5x + 2
        assert basis_exponents([2, -5, 4, -1], basis) == [2, 1]
        with pytest.raises(ArithmeticError):
            basis_exponents([-3, 1], basis)

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
            assert charpoly_from_power_sums(sums, n) == [Fraction(c) for c in poly]

    def test_poly_pow(self):
        assert poly_pow([1, 1], 3) == [1, 3, 3, 1]
        assert poly_pow([2], 0) == [1]


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
