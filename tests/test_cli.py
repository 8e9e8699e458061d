import contextlib
import io
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hyperspectra
from hyperspectra import cli, digraphs, spectrum, walks
from hyperspectra.graphs import parse_graph, path_graph
from test_signed import small_graphs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCharpolyCommand:
    def test_k2_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "charpoly", "--graph", "2 1\\n0 1", "--k", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mu0"] == "3"
        assert payload["k"] == 3
        assert set(payload) == {"k", "mu0", "factors"}
        assert len(payload["factors"]) == 1
        factor = payload["factors"][0]
        assert factor == {"sigma_sq": 1.0, "mu": "3"}
        # the first moment, exactly: k * mu * sigma^2 = S_k
        moment = 3 * Fraction(factor["mu"]) * Fraction(factor["sigma_sq"])
        assert moment == spectrum.script_S(path_graph(2), 3, 3)

    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "charpoly", "--graph", "path:2", "--k", "3")
        assert code == 0
        assert out.strip() == "λ^3 (λ^3 - 1)^3"

    def test_empty_graph_has_an_integer_mu0(self, capsys):
        code, out, _ = run_cli(
            capsys, "charpoly", "--graph", "0 0", "--k", "3", "--format", "json"
        )
        assert code == 0
        assert out.strip() == '{"factors":[],"k":3,"mu0":"0"}'

    def test_deterministic_output(self, capsys):
        args = ("charpoly", "--graph", "cycle:3", "--k", "3", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_deterministic_across_processes(self):
        # byte-identical output regardless of hash randomization
        import os
        import subprocess
        import sys

        outputs = set()
        for seed in ("1", "2031"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            result = subprocess.run(
                [
                    sys.executable, "-m", "hyperspectra", "charpoly",
                    "--graph", "cycle:4", "--k", "3", "--format", "json",
                ],
                capture_output=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout)
        assert len(outputs) == 1


class TestBetaCommand:
    def test_cycle3_json(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--graph", "cycle:3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        factors = [(f["sigma_sq"], f["mu"]) for f in payload["factors"]]
        assert factors == [[1.0, "1"], [4.0, "1/2"]] or factors == [
            (1.0, "1"),
            (4.0, "1/2"),
        ]
        assert payload["mu0"] == "0"

    def test_cycle3_text(self, capsys):
        code, out, _ = run_cli(capsys, "beta", "--graph", "cycle:3")
        assert code == 0
        assert out.strip() == "(λ^2 - 1) (λ^2 - 4)^1/2"

    def test_cycle12_past_the_canonical_form_limit(self, capsys):
        # beta reads no census, so the 10-vertex canonical form limit does
        # not apply to it
        code, out, _ = run_cli(capsys, "beta", "--graph", "cycle:12")
        assert code == 0
        assert out.strip().endswith("(λ^2 - 4)^1/2")


class TestWalksCommand:
    def test_json_counts_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "walks", "--graph", "cycle:3", "--d", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == "18"

    def test_covering(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "walks", "--graph", "path:3", "--d", "4", "--covering",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["count"] == "4"

    def test_methods_agree(self, capsys):
        _, dp, _ = run_cli(
            capsys, "walks", "--graph", "cycle:4", "--d", "6", "--format", "json"
        )
        _, mean, _ = run_cli(
            capsys,
            "walks", "--graph", "cycle:4", "--d", "6",
            "--method", "signed_mean", "--format", "json",
        )
        assert json.loads(dp)["count"] == json.loads(mean)["count"]


class TestOtherCommands:
    def test_census_schema(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--graph", "cycle:3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [entry["count"] for entry in payload] == [3, 3, 1]

    def test_census_of_an_edgeless_graph(self, capsys):
        for argv in ([], ["--max-edges", "0"], ["--max-edges", "2"]):
            code, out, _ = run_cli(capsys, "census", "--graph", "3 0", *argv)
            assert (code, out) == (0, "no motifs\n"), argv
        _, out, _ = run_cli(capsys, "census", "--graph", "3 0", "--format", "json")
        assert out == "[]\n"

    def test_signed_listing(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "signed", "--graph", "cycle:3", "--up-to-switching", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert {p["balanced"] for p in payload} == {True, False}
        # the doubles nearest the exact eigenvalues, with no float noise
        assert [p["eigenvalues"] for p in payload] == [[2.0, -1.0, -1.0], [1.0, 1.0, -2.0]]

    def test_signed_equal_polynomials_print_equal_eigenvalues(self, capsys):
        code, out, _ = run_cli(capsys, "signed", "--graph", "complete:4", "--format", "json")
        assert code == 0
        printed = {}
        for p in json.loads(out):
            printed.setdefault(tuple(p["char_poly"]), set()).add(
                cli._json_dump(p["eigenvalues"])
            )
        assert len(printed) == 3
        assert all(len(lists) == 1 for lists in printed.values()), printed

    def test_signed_computes_each_polynomial_once(self, capsys, monkeypatch):
        # the eigenvalues are the roots of the printed polynomial: one
        # char_poly_exact per signing, whichever module looks it up
        calls = []
        exact = hyperspectra.signed.char_poly_exact

        def counted(sg):
            calls.append(list(sg.signs))
            return exact(sg)

        monkeypatch.setattr(hyperspectra.signed, "char_poly_exact", counted)
        monkeypatch.setattr(cli, "char_poly_exact", counted)
        code, out, _ = run_cli(capsys, "signed", "--graph", "complete:4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2**6
        assert calls == [p["signs"] for p in payload]

    def test_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--graph", "2 1\\n0 1", "--d", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"] == "9"
        assert payload["agree"] is True

    def test_oracle_best_check(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "oracle", "--graph", "cycle:3", "--d", "6", "--best-check",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["trace"] == "540"
        assert payload["best_checks"]
        assert all(c["agree"] for c in payload["best_checks"])
        assert all("arcs" in c["digraph"] for c in payload["best_checks"])

    def test_oracle_best_check_builds_only_what_it_keeps(self, capsys, monkeypatch):
        # a structure of length ell has 2 ell arcs and the brute-force check
        # takes at most 10, so no length above 5 is built: K5, with 10
        # edges, builds none and prints what it printed when it built and
        # dropped the 10- and 11-edge structures; K2 at d / k = 6 builds
        # lengths 1 to 5, where it built 1 to 6 and dropped the sixth
        lengths = []
        structures = digraphs.eulerian_structures_on

        def recorded(g, ell):
            lengths.append(ell)
            return structures(g, ell)

        monkeypatch.setattr(digraphs, "eulerian_structures_on", recorded)
        code, out, _ = run_cli(
            capsys,
            "oracle", "--graph", "complete:5", "--d", "3", "--k", "3",
            "--best-check", "--format", "json",
        )
        assert code == 0
        assert lengths == []
        assert out == (
            '{"agree":true,"best_checks":[],"closed_form":"368640",'
            '"d":3,"k":3,"trace":"368640"}\n'
        )
        code, out, _ = run_cli(
            capsys,
            "oracle", "--graph", "path:2", "--d", "18", "--k", "3",
            "--best-check", "--format", "json",
        )
        assert code == 0
        assert lengths == [1, 2, 3, 4, 5]
        checks = json.loads(out)["best_checks"]
        assert [c["digraph"]["arcs"]["0->1"] for c in checks] == [1, 2, 3, 4, 5]

    def test_graph_from_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run_cli(
            capsys, "walks", "--graph", str(path), "--d", "4", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["count"] == "8"

    def test_radius_mult(self, capsys):
        code, out, _ = run_cli(
            capsys, "radius-mult", "--graph", "cycle:3", "--k", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["multiplicity"] == "9"

    def test_radius_mult_refuses_an_edgeless_graph(self, capsys):
        code, out, err = run_cli(capsys, "radius-mult", "--graph", "path:1", "--k", "3")
        assert code == 1
        assert out == ""
        assert err == "error: defined for graphs with an edge\n"

    def test_matching(self, capsys):
        code, out, _ = run_cli(capsys, "matching", "--graph", "cycle:3")
        assert code == 0
        assert out.strip() == "λ^3 - 3λ"

    def test_geomean(self, capsys):
        code, out, _ = run_cli(
            capsys, "geomean", "--graph", "path:3", "--at", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(4.0)

    def test_amgm(self, capsys):
        code, out, _ = run_cli(
            capsys, "amgm", "--graph", "cycle:3", "--at", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "pass"
        assert payload["alpha"] == "18"

    def test_amgm_past_the_double_range(self, capsys):
        # the status is decided exactly; a gap no double can hold is left out
        # of the detail rather than raising OverflowError
        cases = (("cycle:4", "1e80", "strict"), ("path:2", "1e160", "equality"))
        for graph, at, detail in cases:
            code, out, _ = run_cli(
                capsys, "amgm", "--graph", graph, "--at", at, "--format", "json"
            )
            assert code == 0, graph
            payload = json.loads(out)
            assert (payload["status"], payload["detail"], payload["beta"]) == (
                "pass",
                detail,
                "inf",
            )
        assert int(payload["alpha"]) == int(1e160) ** 2 - 1


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--scope", "quick", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert len(payload["checks"]) >= 11
        assert all(c["status"] != "fail" for c in payload["checks"])

    def test_corrupted_moment_scale_fails_integrality(self, capsys, monkeypatch):
        honest = spectrum.power_moment_prefactor

        def corrupted(v_count, e_count, k):
            return honest(v_count, e_count, k) * Fraction(3, 2)

        monkeypatch.setattr(spectrum, "power_moment_prefactor", corrupted)
        code, out, _ = run_cli(
            capsys,
            "verify", "--scope", "quick", "--graph", "path:2", "--format", "json",
        )
        assert code != 0
        payload = json.loads(out)
        statuses = {c["name"]: c["status"] for c in payload["checks"]}
        assert statuses["spectrum/multiplicities"] == "fail"

    def test_seed_restriction_still_runs_digraph_groups(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--graph", "path:2", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["digraphs/best-vs-brute"]["status"] == "pass"
        assert by_name["digraphs/tree-reduction"]["status"] == "pass"


class TestBudgetDefaults:
    def test_budgets_default_to_the_library_constants(self):
        parser = cli.build_parser()
        args = parser.parse_args(["walks", "--d", "2"])
        assert args.budget == walks.COVERING_STATE_BUDGET == 40_000_000
        args = parser.parse_args(["oracle", "--d", "3"])
        assert args.budget == digraphs.TRACE_TERM_BUDGET


class TestJsonWriter:
    def test_control_characters_round_trip(self):
        payload = {"detail": "a\tb\x01c", "text": 'λ "q" \\ \n'}
        assert json.loads(cli._json_dump(payload)) == payload


def _edge_list(g):
    return "\n".join([f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges])


class TestRoundTrips:
    """Parsing and JSON output on random graphs with isolated vertices and
    several components."""

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_edge_list_parses_back(self, g, rng):
        # edge lines in any order, each edge either way round
        lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in g.edges]
        rng.shuffle(lines)
        assert parse_graph("\n".join([f"{g.n} {g.m}"] + lines)) == g
        assert parse_graph(_edge_list(g)) == g

    @given(small_graphs())
    def test_factored_json_is_a_fixed_point(self, g):
        for argv in (["charpoly", "--k", "3"], ["beta"]):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv + ["--graph", _edge_list(g), "--format", "json"])
            assert code == 0
            out = out.getvalue()
            assert cli._json_dump(json.loads(out)) + "\n" == out


class TestErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["walks", "--graph", "cycle:3", "--d", "2", "--nope"])
        assert err.value.code == 2

    def test_removed_numeric_flags_exit_2(self, capsys):
        signed = ["signed", "--graph", "cycle:3", "--tol", "1e-8"]
        geomean = ["geomean", "--graph", "cycle:3", "--at", "3", "--precision-bits", "64"]
        for argv in (signed, geomean):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2, argv

    def test_negative_max_edges_exits_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["census", "--graph", "cycle:3", "--max-edges", "-3"])
        assert err.value.code == 2
        # 0 still means every edge
        _, out, _ = run_cli(capsys, "census", "--graph", "cycle:3", "--max-edges", "0")
        assert len(out.splitlines()) == 3

    def test_negative_budgets_exit_2(self, capsys):
        walks = ["walks", "--graph", "path:3", "--d", "4", "--covering"]
        oracle = ["oracle", "--graph", "path:3", "--d", "3"]
        for argv in (walks, oracle):
            with pytest.raises(SystemExit) as err:
                cli.main([*argv, "--budget", "-5"])
            assert err.value.code == 2, argv
        # the defaults still apply
        code, out, _ = run_cli(capsys, *walks)
        assert code == 0 and out.strip().endswith(": 4")

    def test_walks_refuses_flags_it_would_ignore(self, capsys):
        # --method and --covering each pick the count, and only the covering
        # DP reads --budget
        walks = ["walks", "--graph", "path:3", "--d", "4"]
        for extra in (
            ["--method", "closed", "--covering"],
            ["--method", "dp", "--covering"],
            ["--budget", "5"],
            ["--method", "closed", "--budget", "40000000"],
        ):
            with pytest.raises(SystemExit) as err:
                cli.main([*walks, *extra])
            assert err.value.code == 2, extra
        usage = capsys.readouterr().err
        assert "argument --covering: not allowed with argument --method" in usage
        assert "--budget applies only with --covering" in usage
        # with --covering the budget still binds: P3 needs 3 * 3^2 states
        code, _, err = run_cli(capsys, *walks, "--covering", "--budget", "26")
        assert code == 1 and "needs 27 states, budget is 26" in err
        code, out, _ = run_cli(capsys, *walks, "--covering", "--budget", "27")
        assert code == 0 and out.strip().endswith(": 4")

    def test_negative_lengths_exit_2(self, capsys):
        walks = ["walks", "--graph", "path:3", "--d", "-1"]
        oracle = ["oracle", "--graph", "path:3", "--d", "-2"]
        for argv in (walks, oracle):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2, argv
        assert "expected a count" in capsys.readouterr().err

    def test_non_finite_points_exit_2(self, capsys):
        geomean = ["geomean", "--graph", "cycle:3", "--at", "nan"]
        amgm = ["amgm", "--graph", "cycle:3", "--at", "inf"]
        malformed = ["geomean", "--graph", "cycle:3", "--at", "three"]
        for argv in (geomean, amgm, malformed):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2, argv
        assert "expected a finite number" in capsys.readouterr().err

    def test_computation_error_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "walks", "--graph", "3 2\\n0 1\\n1 1", "--d", "2")
        assert code == 1
        assert "loop" in err

    def test_missing_graph_exits_1(self, capsys):
        code, _, err = run_cli(capsys, "walks", "--d", "2")
        assert code == 1
        assert "graph" in err


def test_runs_on_the_standard_library_alone():
    # python -S leaves site-packages off sys.path, so no installed package
    # can be imported: the package and these commands need none
    script = textwrap.dedent(
        """
        import hyperspectra
        from hyperspectra import cli
        for argv in (
            ["geomean", "--graph", "cycle:4", "--at", "2.5"],
            ["amgm", "--graph", "cycle:3", "--at", "3", "--format", "json"],
            ["verify", "--scope", "quick"],
        ):
            assert cli.main(argv) == 0, argv
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(hyperspectra.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    assert "14 passed, 0 failed" in done.stdout
