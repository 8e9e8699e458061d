from fractions import Fraction

from hyperspectra import algebra, signed, spectrum, verify
from hyperspectra.errors import ConsistencyError
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
    wrong = spectrum.beta(P3)._replace(mu0=3, factors=())
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
        factors = true.factors[:-1] + (top._replace(mu=top.mu - delta),)
        return _FixedBeta(true._replace(factors=factors))

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
    wrong = true._replace(factors=true.factors[:-1] + (top._replace(mu=Fraction(1, 4)),))
    status, detail = verify._check_beta_cycle_identity([], _FixedBeta(wrong))
    assert status == "fail"
    assert f"C3 at {verify.SAMPLE_POINTS[0]}" in detail
    assert "not an integer" in detail


def test_multiplicity_check_fails_on_corrupted_multiplicities(monkeypatch):
    # one more at the first basis element at k = 3; char_poly_power's own
    # checks raise, and the check reports it
    exact = spectrum._exponents

    def corrupted(g, k):
        basis, mu = exact(g, k)
        return basis, [m + (i == 0 and k == 3) for i, m in enumerate(mu)]

    monkeypatch.setattr(spectrum, "_exponents", corrupted)
    report = verify.run_verify_suite("quick", seed_graphs=[C4])
    check = next(c for c in report.checks if c.name == "spectrum/multiplicities")
    assert check.status == "fail", check.detail


def test_multiplicity_check_names_a_failure_at_k4(monkeypatch):
    # a moment check that fails only at k = 4 is reported by the check
    # that runs it, not as an exception inside the radius check
    honest = spectrum.check_moment_identity

    def fails_at_k4(g, fsf):
        if fsf.k == 4:
            raise ConsistencyError("moment identity fails at ell=1")
        honest(g, fsf)

    monkeypatch.setattr(spectrum, "check_moment_identity", fails_at_k4)
    report = verify.run_verify_suite("quick", seed_graphs=[C4])
    check = next(c for c in report.checks if c.name == "spectrum/multiplicities")
    assert check.status == "fail"
    assert check.detail.endswith("at k=4"), check.detail


def test_decomposition_builds_one_census_per_graph(monkeypatch):
    calls = []
    census = verify.connected_subgraph_classes

    def counted(g, max_edges):
        calls.append(max_edges)
        return census(g, max_edges)

    monkeypatch.setattr(verify, "connected_subgraph_classes", counted)
    ctx = verify._PipelineCache()
    status, detail = verify._check_decomposition([P3, cycle_graph(4)], ctx)
    assert status == "pass", detail
    assert calls == [2, 4]


def test_census_memo_keeps_counts_not_subsets():
    ctx = verify._PipelineCache()
    g = cycle_graph(4)
    classes = verify.connected_subgraph_classes(g, 4)
    assert ctx.census(g) == tuple((h, len(subsets)) for h, subsets in classes)
    assert ctx.census(g) is ctx.census(g)


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
    # of signed polynomials per graph, one switching-class table each: 8
    # tables on the quick corpus, whose 2^(|E|-|V|+1) classes sum to 21.
    # A first run fills the motif spectra, which read the same memoised
    # table; clearing it then leaves only the means to refill it.
    assert verify.run_verify_suite("quick").ok
    transformed = _count_calls(monkeypatch, signed, "_walsh_hadamard")
    signed.switching_class_polynomials.cache_clear()
    algebra.squarefree_decomposition.cache_clear()
    algebra.real_roots.cache_clear()
    report = verify.run_verify_suite("quick")
    assert report.ok
    classes = [len(rows) for rows, in transformed]
    assert (len(classes), sum(classes)) == (8, 21)


def test_corpus_digraphs_built_once_per_suite(monkeypatch):
    # one census per graph, built for the decomposition check, from which
    # the digraphs both BEST checks share are taken: 8 on the 8 quick graphs
    # (16 with a second census for the digraphs, 24 when each BEST check
    # builds its own)
    calls = _count_calls(monkeypatch, verify, "connected_subgraph_classes")
    report = verify.run_verify_suite("quick")
    assert report.ok
    assert len(calls) == 8


def test_pipeline_memo_computes_each_result_once(monkeypatch):
    # one factored spectrum per (quick graph, k in {3, 4}) and one beta per
    # graph a beta check reads: the 8 quick graphs and C6 of the cycle
    # identity
    charpoly = _count_calls(monkeypatch, spectrum, "char_poly_power")
    beta = _count_calls(monkeypatch, spectrum, "beta")
    assert verify.run_verify_suite("quick").ok
    assert len(charpoly) == len(set(charpoly)) == 16
    assert len(beta) == len(set(beta)) == 9


def test_beta_details_count_the_graphs_checked():
    # the full scope's 29 pipeline seeds include K1, which has no edge, so
    # both beta groups check 28; an edgeless seed alone checks none
    seeds = [
        g for g in verify.full_corpus()
        if g.m <= verify.FULL_SCOPE_PIPELINE_EDGE_LIMIT
    ]
    assert len(seeds) == 29
    ctx = verify._PipelineCache()
    for check in (verify._check_beta_forest, verify._check_beta_radius_exponent):
        assert check(seeds, ctx) == ("pass", "28 graphs")
    report = verify.run_verify_suite("quick", seed_graphs=["3 0"])
    details = {c.name: c.detail for c in report.checks}
    assert details["beta/forest-polynomiality"] == "0 graphs"
    assert details["beta/radius-exponent"] == "0 graphs"
