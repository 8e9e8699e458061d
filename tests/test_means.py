import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra import signed
from hyperspectra.algebra import poly_eval
from hyperspectra.errors import BudgetError
from hyperspectra.graphs import complete_graph, cycle_graph, path_graph
from hyperspectra.means import (
    _root,
    amgm_check,
    geometric_mean_evaluate,
    matching_polynomial,
    matchings_by_size,
    signed_char_poly_values,
)
from hyperspectra.signed import all_positive, char_poly_exact
from hyperspectra.spectrum import beta

K2 = path_graph(2)
P3 = path_graph(3)
C3 = cycle_graph(3)

SAMPLE_POINTS = (3.0, -3.0, 2.5, -2.5, 1.7, -1.7, 0.3)


class TestMatchingPolynomial:
    def test_k2(self):
        assert matching_polynomial(K2) == [Fraction(-1), Fraction(0), Fraction(1)]

    def test_cycle3(self):
        assert matching_polynomial(C3) == [
            Fraction(0),
            Fraction(-3),
            Fraction(0),
            Fraction(1),
        ]

    def test_path3(self):
        assert matching_polynomial(P3) == [
            Fraction(0),
            Fraction(-2),
            Fraction(0),
            Fraction(1),
        ]

    def test_matching_counts(self):
        assert matchings_by_size(C3) == [1, 3]
        assert matchings_by_size(cycle_graph(4)) == [1, 4, 2]

    def test_mean_identity_exact(self, small_corpus):
        for g in small_corpus:
            assert matching_polynomial(g, "direct") == matching_polynomial(
                g, "signed_mean"
            ), g

    def test_forest_matching_equals_char_poly(self, small_corpus):
        for g in small_corpus:
            if not g.is_forest():
                continue
            phi = [Fraction(c) for c in char_poly_exact(all_positive(g))]
            assert matching_polynomial(g) == phi


class TestGeometricMean:
    def test_cycle3_at_3(self):
        assert geometric_mean_evaluate(C3, 3.0) == pytest.approx(
            8 * math.sqrt(5), rel=1e-12
        )

    def test_k2_at_2(self):
        assert geometric_mean_evaluate(K2, 2.0) == pytest.approx(3.0, rel=1e-12)

    def test_path3_at_2(self):
        assert geometric_mean_evaluate(P3, 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_matches_beta_at_sample_points(self, small_corpus):
        # |beta|^(2^|E|) is the product over signings, exactly, roots included
        for g in small_corpus:
            if g.m == 0:
                continue
            fsf = beta(g)
            for x in SAMPLE_POINTS:
                values = signed_char_poly_values(g, x)
                product = math.prod(v**count for v, count in values)
                assert fsf.abs_power(x, 2**g.m) == product, (g, x)

    def test_exact_zero_at_signing_root(self):
        # 3 is the spectral radius of the all-positive K1,3 star: K1,3 has
        # sqrt(3); use C4 whose balanced signing has eigenvalue 2
        assert geometric_mean_evaluate(cycle_graph(4), 2.0) == 0.0

    def test_edgeless_graph_is_plain_char_poly(self):
        # one signing only, so negative values are fine: lambda^3 at -2
        from hyperspectra.graphs import Graph

        assert geometric_mean_evaluate(Graph(3, ()), -2.0) == -8.0


@given(st.integers(1, 10**40), st.integers(1, 10**40), st.integers(0, 12))
def test_root_is_the_nearest_double(num, den, j):
    # p = num/den lies between the 2^j-th powers of the midpoints from y to
    # its neighbouring doubles, so no other double is nearer p^(2^-j)
    y = _root(num, den, 2**j)
    lo, hi = ((Fraction(y) + Fraction(math.nextafter(y, t))) / 2 for t in (0, math.inf))
    assert lo ** 2**j <= Fraction(num, den) <= hi ** 2**j


class TestCycleIdentity:
    def test_beta_squared_equals_shifted_char_poly(self):
        for n in range(3, 7):
            g = cycle_graph(n)
            fsf = beta(g)
            phi = char_poly_exact(all_positive(g))
            for x in SAMPLE_POINTS:
                rhs = abs(poly_eval(phi, Fraction(x) ** 2 - 2))
                assert fsf.abs_power(x, 2) == rhs, (n, x)


class TestAmGm:
    def test_cycle3_strict_at_3(self):
        report = amgm_check(C3, 3.0)
        assert report.status == "pass"
        assert report.alpha_value == 18
        assert report.beta_value == pytest.approx(8 * math.sqrt(5), rel=1e-12)
        assert not report.equality

    def test_forest_equality(self):
        report = amgm_check(P3, 2.0)
        assert report.status == "pass"
        assert report.equality

    def test_precondition_unmet_is_skipped(self):
        report = amgm_check(C3, 1.5)
        assert report.status == "skipped"

    def test_one_polynomial_per_signing(self, monkeypatch):
        # the geometric mean reuses the values the arithmetic mean reads,
        # one polynomial per switching class: 2 on C4 (16 signings)
        calls = []

        def counted(sg):
            calls.append(sg)
            return char_poly_exact(sg)

        monkeypatch.setattr(signed, "char_poly_exact", counted)
        signed.switching_class_polynomials.cache_clear()
        report = amgm_check(cycle_graph(4), 3.0)
        assert len(calls) == 2
        assert report.beta_value == geometric_mean_evaluate(cycle_graph(4), 3.0)

    def test_signing_budget(self):
        # K7 has 21 edges, one more than the signing enumeration allows
        for call in (
            lambda g: amgm_check(g, 3.0),
            lambda g: geometric_mean_evaluate(g, 3.0),
            lambda g: matching_polynomial(g, method="signed_mean"),
        ):
            with pytest.raises(BudgetError, match="supports at most 20 edges"):
                call(complete_graph(7))

    def test_never_fails_on_corpus(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            for x in SAMPLE_POINTS:
                report = amgm_check(g, x)
                assert report.status in ("pass", "skipped"), (g, x, report.detail)
                if report.status == "pass":
                    # alpha^N >= prod phi^count, equal exactly when all agree
                    values = signed_char_poly_values(g, x)
                    product = math.prod(v**count for v, count in values)
                    gap = report.alpha_value ** 2**g.m - product
                    assert gap >= 0, (g, x)
                    assert report.equality == (gap == 0), (g, x)
                    assert report.equality == (len({v for v, _ in values}) == 1), (g, x)
