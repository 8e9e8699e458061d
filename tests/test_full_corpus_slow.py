"""Heavy corpus sweeps: the multiplicity pipeline over every connected graph
on at most 5 vertices.  Marked `slow`: a plain `pytest` run includes them,
`pytest -m "not slow"` leaves them out and `pytest -m slow` runs them alone.
"""

from fractions import Fraction

import pytest

from hyperspectra import spectrum

pytestmark = pytest.mark.slow


def test_multiplicities_integral_on_full_corpus_k3(desk_corpus):
    for g in desk_corpus:
        if g.m == 0:
            continue
        fsf = spectrum.char_poly_power(g, 3)
        for f in fsf.factors:
            assert isinstance(f.mu, int) and f.mu >= 0, g
        spectrum.check_moment_identity(g, fsf)
        size = g.n + g.m
        assert fsf.total_degree() == size * 2 ** (size - 1), g


@pytest.mark.parametrize("k", [4, 5])
def test_multiplicities_integral_on_full_corpus_higher_k(desk_corpus, k):
    for g in desk_corpus:
        if g.m == 0 or g.m > 7:
            continue
        fsf = spectrum.char_poly_power(g, k)
        for f in fsf.factors:
            assert isinstance(f.mu, int) and f.mu >= 0, (g, k)
        size = g.n + (k - 2) * g.m
        assert fsf.total_degree() == size * (k - 1) ** (size - 1), (g, k)


def test_full_scope_verify_suite():
    from hyperspectra.verify import run_verify_suite

    report = run_verify_suite(scope="full")
    assert report.ok, [c for c in report.checks if c.status == "fail"]


def test_beta_laws_on_full_corpus(desk_corpus):
    for g in desk_corpus:
        if g.m == 0:
            continue
        fsf = spectrum.beta(g)
        exponents = [Fraction(f.mu) for f in fsf.factors] + [Fraction(fsf.mu0)]
        assert all(e >= 0 for e in exponents), g
        integral = all(e.denominator == 1 for e in exponents)
        assert integral == g.is_forest(), g
        if g.is_connected():
            assert Fraction(spectrum.radius_cluster_exponent(fsf, g)) == Fraction(
                1, 2 ** (g.m - g.n + 1)
            ), g
