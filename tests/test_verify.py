from dataclasses import replace
from fractions import Fraction

from hyperspectra import signed, spectrum, verify
from hyperspectra.graphs import cycle_graph, path_graph

P3 = path_graph(3)
C4 = cycle_graph(4)


class _FixedBeta:
    """Stands in for the suite's pipeline cache, returning a given beta."""

    def __init__(self, fsf):
        self.fsf = fsf

    def beta(self, g):
        return self.fsf


def test_forest_check_passes_on_true_beta():
    status, _ = verify._check_beta_forest([P3], _FixedBeta(spectrum.beta(P3)))
    assert status == "pass"


def test_forest_check_expands_beta():
    # lambda^3 in place of lambda (lambda^2 - 2): integral, but not the
    # matching polynomial of P3
    wrong = replace(spectrum.beta(P3), mu0=3, factors=())
    status, detail = verify._check_beta_forest([P3], _FixedBeta(wrong))
    assert status == "fail", detail


def test_geometric_mean_check_is_exact():
    # the top exponent of beta(C4) is 1/2.  Lowered by 1/2^|E| the product
    # identity fails; lowered by 1/2^(|E|+1), |beta|^(2^|E|) is no longer a
    # rational function of x, abs_power refuses it, and the check fails
    # naming the graph and the point
    true = spectrum.beta(C4)
    top = true.factors[-1]

    def lowered_by(delta):
        factors = true.factors[:-1] + (replace(top, mu=top.mu - delta),)
        return _FixedBeta(replace(true, factors=factors))

    check = verify._check_beta_geometric_mean
    assert check([C4], _FixedBeta(true))[0] == "pass"
    status, detail = check([C4], lowered_by(Fraction(1, 16)))
    assert status == "fail", detail
    status, detail = check([C4], lowered_by(Fraction(1, 32)))
    assert status == "fail"
    assert f"at {verify.SAMPLE_POINTS[0]} on {C4}" in detail
    assert "not an integer" in detail


def test_cycle_identity_check_names_the_cycle_and_point():
    # a 1/4 exponent on beta(C3): |beta|^2 has an odd root of b(x^2) left
    true = spectrum.beta(cycle_graph(3))
    top = true.factors[-1]
    wrong = replace(true, factors=true.factors[:-1] + (replace(top, mu=Fraction(1, 4)),))
    status, detail = verify._check_beta_cycle_identity([], _FixedBeta(wrong))
    assert status == "fail"
    assert f"C3 at {verify.SAMPLE_POINTS[0]}" in detail
    assert "not an integer" in detail


def test_multiplicity_check_fails_on_corrupted_multiplicities(monkeypatch):
    # one more at the first basis element at k = 3; char_poly_power's own
    # checks raise, and the check reports it
    exact = spectrum._exact_multiplicities

    def corrupted(g, k):
        basis, mu = exact(g, k)
        return basis, [m + (i == 0 and k == 3) for i, m in enumerate(mu)]

    monkeypatch.setattr(spectrum, "_exact_multiplicities", corrupted)
    report = verify.run_verify_suite("quick", seed_graphs=[C4])
    check = next(c for c in report.checks if c.name == "spectrum/multiplicities")
    assert check.status == "fail", check.detail


def test_decomposition_builds_one_census_per_graph(monkeypatch):
    calls = []
    census = verify.connected_subgraph_census

    def counted(g, max_edges):
        calls.append(max_edges)
        return census(g, max_edges)

    monkeypatch.setattr(verify, "connected_subgraph_census", counted)
    ctx = verify._PipelineCache()
    status, detail = verify._check_decomposition([P3, cycle_graph(4)], ctx)
    assert status == "pass", detail
    assert calls == [2, 4]


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_signed_polynomials_computed_once_per_graph(monkeypatch):
    # methods-agree, geometric-mean, godsil-gutman and am-gm read one table
    # of signed polynomials per graph, one polynomial per switching class:
    # the sum of 2^(|E|-|V|+1) over the quick corpus is 21 (166 for one per
    # signing).  A first run fills the motif spectra, which read the same
    # memoised table; clearing it then leaves only the means to refill it.
    assert verify.run_verify_suite("quick").ok
    calls = _count_calls(monkeypatch, signed, "char_poly_exact")
    signed.switching_class_polynomials.cache_clear()
    report = verify.run_verify_suite("quick")
    assert report.ok
    assert len(calls) == 1 + 1 + 1 + 2 + 2 + 2 + 4 + 8


def test_corpus_digraphs_built_once_per_suite(monkeypatch):
    # one census per graph, built for the decomposition check, from which
    # the digraphs both BEST checks share are taken: 8 on the 8 quick graphs
    # (16 with a second census for the digraphs, 24 when each BEST check
    # builds its own)
    calls = _count_calls(monkeypatch, verify, "connected_subgraph_census")
    report = verify.run_verify_suite("quick")
    assert report.ok
    assert len(calls) == 8
