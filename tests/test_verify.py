from dataclasses import replace

from hyperspectra import spectrum, verify
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
    status, detail = verify._check_decomposition([P3, cycle_graph(4)], None)
    assert status == "pass", detail
    assert calls == [2, 4]
