from dataclasses import replace

from hyperspectra import signed, spectrum, verify
from hyperspectra.graphs import cycle_graph, path_graph

P3 = path_graph(3)


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
    # signing).  A first run fills the motif spectra, whose signed
    # polynomials also come from char_poly_exact.
    assert verify.run_verify_suite("quick").ok
    calls = _count_calls(monkeypatch, signed, "char_poly_exact")
    signed.signing_polynomials.cache_clear()
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
