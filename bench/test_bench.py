"""The benchmark's own tests (not part of the package's test suite).

    python3 -m pytest bench/test_bench.py -q      # about two minutes

The counter test runs every workload's traced child twice.
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hyperspectra  # noqa: E402
from gate import check_pipeline, load_expected, total_degree  # noqa: E402
from run import load_spec, start_child  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import DENSE_SMALL, SPARSE_LONG, WORKLOADS, jobs_for  # noqa: E402

DETERMINISTIC = ("calls", "_perms", "_states", "_frac", "sigma_size", "precision_bits_max")


class OffByOne:
    """A result whose exponent at one sigma^2 is one too high."""

    def __init__(self, result, sigma_sq):
        self._result = result
        self._sigma_sq = sigma_sq
        self.mu0 = result.mu0

    def exponent_near(self, sigma_sq, rel_tol=1e-6):
        mu = self._result.exponent_near(sigma_sq, rel_tol)
        return mu + 1 if sigma_sq == self._sigma_sq else mu

    def total_degree(self):
        return self._result.total_degree()


def _graph(n, edges):
    return hyperspectra.Graph(n, tuple(edges))


def test_gate_passes_true_results_and_flags_one_multiplicity_off_by_one():
    expected = load_expected()
    for name in ("K4/k3", "K4/beta"):
        (n, edges), k = next((g, k) for job, g, k in DENSE_SMALL if job == name)
        graph = _graph(n, edges)
        result = hyperspectra.char_poly_power(graph, k) if k > 2 else hyperspectra.beta(graph)
        assert check_pipeline(hyperspectra, graph, k, result, expected[name]) == []
        sigma_sq = expected[name]["factors"][0][0]
        problems = check_pipeline(
            hyperspectra, graph, k, OffByOne(result, sigma_sq), expected[name]
        )
        assert any(f"sigma^2={sigma_sq!r}" in p for p in problems), problems


def test_expected_data_satisfies_the_total_degree_formula():
    expected = load_expected()
    for name, (n, edges), k in DENSE_SMALL + SPARSE_LONG:
        data = expected[name]
        mass = Fraction(data["mu0"]) + k * sum(Fraction(mu) for _, mu in data["factors"])
        assert mass == total_degree(n, len(edges), k), name


def test_seed_relabels_but_keeps_the_job_list():
    a, b = jobs_for("dense-small", 1), jobs_for("dense-small", 2)
    assert [j["name"] for j in a] == [j["name"] for j in b]
    assert [len(j["edges"]) for j in a] == [len(j["edges"]) for j in b]
    assert any(x["edges"] != y["edges"] for x, y in zip(a, b))
    assert jobs_for("verify-corpus", 5) == jobs_for("verify-corpus", 5)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly_for_the_same_seed(workload):
    request = {"jobs": jobs_for(workload, 3), "trace": True, "spans": False}
    first, second = start_child("run", request), start_child("run", request)
    assert first["failed"] == 0 and second["failed"] == 0
    counters = [n for n in first["layers"] if n.endswith(DETERMINISTIC)]
    assert len(counters) == 16
    for name in counters:
        assert first["layers"][name] == second["layers"][name], name


def test_missing_or_uncalled_functions_read_zero(monkeypatch):
    monkeypatch.delattr(hyperspectra.spectrum, "build_system")
    monkeypatch.setitem(LAYERS, "walks", LAYERS["walks"] + ("no_such_function",))
    tracer = Tracer()
    tracer.install()
    try:
        hyperspectra.parity_closed_profile(_graph(3, [(0, 1), (1, 2)]), 4)
    finally:
        tracer.uninstall()
    assert "spectrum.build_system" in tracer.absent
    assert "walks.no_such_function" in tracer.absent
    metrics = tracer.metrics(1.0)
    assert metrics["walks.parity_calls"] == 1
    assert metrics["spectrum.build_system_calls"] == 0
    assert metrics["spectrum.precision_bits_max"] == 0
    assert metrics["means.calls"] == 0


def test_a_job_over_its_budget_fails_and_still_counts():
    jobs = jobs_for("dense-small", 0)
    w4 = dict(next(j for j in jobs if j["name"] == "W4/k3"), budget_s=0.05)
    k4 = next(j for j in jobs if j["name"] == "K4/k3")
    out = start_child("run", {"jobs": [w4, k4], "trace": False, "spans": False})
    assert (out["attempted"], out["failed"]) == (2, 1)
    assert [j["status"] for j in out["jobs"]] == ["timeout", "done"]


def test_benchmark_json_names_match_what_the_run_reports():
    spec = load_spec()
    tracer = Tracer()
    names = set(tracer.metrics(1.0))
    names.update(f"verify.{check.replace('/', '.')}_s" for check in load_expected()["verify"]["checks"])
    names.update(("trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s", "trace.overhead_ratio"))
    assert {m["name"] for m in spec["per_layer"]} == names
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dense-small", "--seed", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
