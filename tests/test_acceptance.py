"""Acceptance gate: every exit criterion, each printing one pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines;
`hyperspectra verify` replays the same identities from the command line.
"""

import contextlib
import itertools
import math
import time
from fractions import Fraction

from hyperspectra import digraphs, means, spectrum, walks
from hyperspectra.graphs import (
    connected_subgraph_classes,
    cycle_graph,
    path_graph,
    power_hypergraph,
)
from hyperspectra.signed import all_positive, char_poly_exact
from oracles import poly_eval, signed_char_poly_values

SAMPLE_POINTS = (3.0, -3.0, 2.5, -2.5, 1.7, -1.7, 0.3)


@contextlib.contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPT-{number:02d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPT-{number:02d} PASS  {description}  ({elapsed:.1f}s)")


def test_01_parity_walk_oracle_equivalence(desk_corpus):
    with criterion(1, "parity-walk DP equals signed-mean on <=5 vertices, d<=10"):
        start = time.perf_counter()
        for g in desk_corpus:
            dp = walks.parity_closed_profile(g, 10)
            mean = means.mean_signed_moments(g, 10)
            assert dp == mean, g
        assert time.perf_counter() - start < 60.0


def test_02_decomposition_identity(desk_corpus):
    with criterion(2, "P_d equals sum of covering counts times motif counts"):
        for g in desk_corpus:
            profile = walks.parity_closed_profile(g, 10)
            for d in range(2, 11, 2):
                total = 0
                if g.m:
                    census = connected_subgraph_classes(g, min(d // 2, g.m))
                    for h, subsets in census:
                        total += walks.covering_parity_profile(h, d)[d] * len(subsets)
                assert total == profile[d], (g, d)


def test_03_godsil_gutman(desk_corpus):
    with criterion(3, "matching polynomial equals the signed mean, coefficient-exact"):
        for g in desk_corpus:
            assert means.matching_polynomial(g) == means.mean_signed_char_poly(g), g
        assert means.matching_polynomial(cycle_graph(3)) == [
            Fraction(0),
            Fraction(-3),
            Fraction(0),
            Fraction(1),
        ]


def _corpus_motifs(corpus, max_vertices=4):
    motifs = []
    seen = set()
    for g in corpus:
        if g.m == 0:
            continue
        for h, _ in connected_subgraph_classes(g, g.m):
            if h.n <= max_vertices and h not in seen:
                seen.add(h)
                motifs.append(h)
    return motifs


def _all_eulerian_digraphs_on(motif, max_arcs=10, max_mult=2):
    """Every Eulerian multi-digraph supported on all edges of the motif with
    per-arc multiplicities up to max_mult (odd edge totals included)."""
    out = []
    options = [
        [
            (a, b)
            for a in range(max_mult + 1)
            for b in range(max_mult + 1)
            if a + b >= 1
        ]
        for _ in range(motif.m)
    ]
    for combo in itertools.product(*options):
        arcs = {}
        for (u, v), (a, b) in zip(motif.edges, combo):
            if a:
                arcs[(u, v)] = a
            if b:
                arcs[(v, u)] = b
        d = digraphs.Multidigraph(motif.n, tuple(arcs.items()))
        if d.arc_count <= max_arcs and d.is_eulerian():
            out.append(d)
    return out


def _corpus_eulerian_digraphs(corpus, max_vertices=4, max_arcs=10):
    digraph_cases = []
    for motif in _corpus_motifs(corpus, max_vertices):
        digraph_cases.extend(_all_eulerian_digraphs_on(motif, max_arcs))
    return digraph_cases


def test_04_best_theorem(desk_corpus):
    with criterion(4, "Eulerian walk formula equals backtracking enumeration"):
        two_cycle = digraphs.Multidigraph(2, (((0, 1), 1), ((1, 0), 1)))
        triangle = digraphs.Multidigraph(3, (((0, 1), 1), ((1, 2), 1), ((2, 0), 1)))
        assert digraphs.eulerian_walk_count(two_cycle) == 2
        assert digraphs.eulerian_walk_count(triangle) == 3
        cases = [two_cycle, triangle] + _corpus_eulerian_digraphs(desk_corpus)
        assert len(cases) > 200
        for d in cases:
            brute = digraphs.eulerian_walks_by_backtracking(d)
            assert digraphs.eulerian_walk_count(d) == brute, d.arcs


def test_05_spanning_tree_reduction(desk_corpus):
    # the lift exists exactly when every edge total is even (these are the
    # digraph structures the moment pipeline actually meets)
    with criterion(5, "t(D) determinant equals the reduction formula, k in 3..5"):
        cases = [
            d
            for d in _corpus_eulerian_digraphs(desk_corpus, max_arcs=8)
            if all(
                (d.multiplicity(i, j) + d.multiplicity(j, i)) % 2 == 0
                for i, j in d.support_edges()
            )
        ]
        assert len(cases) > 20
        for dstar in cases:
            for k in (3, 4, 5):
                report = digraphs.spanning_tree_reduction_check(dstar, k)
                assert report.ok, (dstar.arcs, k)


def test_06_trace_formula_closure():
    with criterion(6, "naive tensor trace equals the closed-form moments"):
        start = time.perf_counter()
        k2 = path_graph(2)
        h2 = power_hypergraph(k2, 3)
        expected = [0, 0, 9, 0, 0, 9]
        for d in range(1, 7):
            value = digraphs.naive_tensor_trace(h2, d)
            assert value == expected[d - 1], d
            assert value == digraphs.script_S(k2, d, 3), d
        p3 = path_graph(3)
        h3 = power_hypergraph(p3, 3)
        for d in (3, 6):
            assert digraphs.naive_tensor_trace(h3, d) == digraphs.script_S(p3, d, 3)
        assert time.perf_counter() - start < 600.0


def test_07_characteristic_polynomial_end_to_end(builtin_corpus):
    with criterion(7, "multiplicity pipeline: K2 powers and built-in corpus at k=3"):
        fsf = spectrum.char_poly_power(path_graph(2), 3)
        assert fsf.mu0 == 3
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 3)]
        for k in (3, 4, 5):
            fk = spectrum.char_poly_power(path_graph(2), k)
            assert fk.factors[0].mu == k ** (k - 2), k
        for g in builtin_corpus:
            f3 = spectrum.char_poly_power(g, 3)
            for factor in f3.factors:
                assert isinstance(factor.mu, int) and factor.mu >= 0
            spectrum.check_moment_identity(g, f3)
            size = g.n + g.m
            assert f3.total_degree() == size * 2 ** (size - 1), g


def test_08_spectral_radius_multiplicity(builtin_corpus):
    with criterion(8, "radius multiplicity formula matches the pipeline, k in {3,4}"):
        assert spectrum.spectral_radius_multiplicity(cycle_graph(3), 3) == 9
        for g in builtin_corpus:
            for k in (3, 4):
                fsf = spectrum.char_poly_power(g, k)
                assert spectrum.radius_cluster_exponent(
                    fsf, g
                ) == spectrum.spectral_radius_multiplicity(g, k), (g, k)


def test_09_beta_identities(builtin_corpus):
    with criterion(9, "beta: C3 exponents, forest law, rho exponent, geometric mean"):
        fsf = spectrum.beta(cycle_graph(3))
        assert fsf.mu0 == 0
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [
            (1.0, 1),
            (4.0, Fraction(1, 2)),
        ]
        for g in builtin_corpus:
            bg = spectrum.beta(g)
            exponents = [Fraction(f.mu) for f in bg.factors] + [Fraction(bg.mu0)]
            assert all(e.denominator == 1 for e in exponents) == g.is_forest(), g
            assert Fraction(spectrum.radius_cluster_exponent(bg, g)) == Fraction(
                1, 2 ** (g.m - g.n + 1)
            ), g
            for x in SAMPLE_POINTS:
                values = signed_char_poly_values(g, x)
                product = math.prod(v**count for v, count in values)
                assert bg.abs_power(x, 2**g.m) == product, (g, x)
        for n in range(3, 7):
            g = cycle_graph(n)
            bn = spectrum.beta(g)
            phi = char_poly_exact(all_positive(g))
            for x in SAMPLE_POINTS:
                rhs = abs(poly_eval(phi, Fraction(x) ** 2 - 2))
                assert bn.abs_power(x, 2) == rhs, (n, x)


def test_10_am_gm_inequality():
    with criterion(10, "AM-GM: alpha(3)=18 > beta(3)=8*sqrt(5) on C3, equality on forests"):
        report = means.amgm_check(cycle_graph(3), 3.0)
        assert report.status == "pass"
        assert report.alpha_value == 18
        assert report.beta_value < 18
        assert abs(report.beta_value - 8 * math.sqrt(5)) < 1e-9
        assert not report.equality
        for forest in (path_graph(2), path_graph(3), path_graph(4)):
            forest_report = means.amgm_check(forest, 3.0)
            assert forest_report.status == "pass" and forest_report.equality


def test_11_convergence_diagnostic():
    with criterion(11, "finite-ell radius ratio within 5% of k * multiplicity at ell=30"):
        for g in (path_graph(2), path_graph(3), cycle_graph(3)):
            ratio = spectrum.convergence_ratio(g, 3, 30)
            target = spectrum.radius_total_multiplicity(g, 3)
            assert abs(ratio - target) <= 0.05 * target, g
