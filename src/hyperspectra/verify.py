"""Orchestrated verification suite replaying every identity the package
implements, on a built-in corpus of desk-scale graphs.

quick scope: K2, P3, P4, C3, C4, C5, K4 minus an edge, K4.
full scope:  every connected graph on at most 5 vertices (the spectrum and
beta checks are limited to graphs with at most 8 edges).
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from fractions import Fraction
from typing import NamedTuple

from . import digraphs, means, spectrum, walks
from .graphs import (
    Graph,
    all_connected_graphs,
    complete_graph,
    connected_subgraph_classes,
    cycle_graph,
    parse_graph,
    path_graph,
    power_hypergraph,
)
from .errors import ConsistencyError
from .signed import all_positive, char_poly_exact
from .algebra import poly_eval_scaled, poly_mul, poly_pow

SAMPLE_POINTS = (3.0, -3.0, 2.5, -2.5, 1.7, -1.7, 0.3)
FULL_SCOPE_PIPELINE_EDGE_LIMIT = 8
DECOMPOSITION_MAX_D = 10
WALK_METHODS_MAX_D = 10
RADIUS_MULTIPLICITY_KS = (3, 4)
RADIUS_CONVERGENCE_K = 3
RADIUS_CONVERGENCE_ELL = 30


class _PipelineCache:
    """Per-suite-run memo for the factored spectra, the motif censuses and
    the corpus digraphs, so the check groups can share results without any
    cross-run state: each attribute is a `functools.cache` of its own, and
    none refers back to the instance, so all four are freed with it."""

    def __init__(self):
        self.charpoly = functools.cache(spectrum.char_poly_power)
        self.beta = functools.cache(spectrum.beta)
        self.census = functools.cache(_census)
        self._digraphs = functools.cache(
            functools.partial(_corpus_digraphs, census=self.census)
        )

    def corpus_digraphs(self, seeds):
        return self._digraphs(tuple(seeds))


def _census(g):
    """((form, count), ...) for the census classes of g to the edge count the
    decomposition check needs, which also hold every motif the corpus
    digraphs come from; the count is the class's number of subsets, the
    subsets themselves are not kept."""
    max_edges = min(DECOMPOSITION_MAX_D // 2, g.m)
    return tuple(
        (h, len(subsets)) for h, subsets in connected_subgraph_classes(g, max_edges)
    )


def quick_corpus():
    k4_minus_e = Graph(4, tuple(e for e in complete_graph(4).edges if e != (2, 3)))
    return [
        path_graph(2),
        path_graph(3),
        path_graph(4),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(5),
        k4_minus_e,
        complete_graph(4),
    ]


def full_corpus():
    graphs = []
    for n in range(1, 6):
        graphs.extend(all_connected_graphs(n))
    return graphs


class CheckResult(NamedTuple):
    name: str
    status: str  # "pass", "fail", "skipped"
    detail: str
    elapsed_ms: float


class VerifyReport(NamedTuple):
    checks: tuple

    @property
    def ok(self):
        return all(c.status != "fail" for c in self.checks)

    def summary(self):
        counts = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            counts[c.status] += 1
        return counts


def _check_walk_methods(seeds, ctx):
    max_d = WALK_METHODS_MAX_D
    for g in seeds:
        dp = walks.parity_closed_profile(g, max_d)
        mean = means.mean_signed_moments(g, max_d)
        if dp != mean:
            return "fail", f"method mismatch on {g}: {dp} vs {mean}"
        for d in range(1, max_d + 1, 2):
            if dp[d] != 0:
                return "fail", f"odd-length count {dp[d]} at d={d} on {g}"
        if g.is_forest():
            closed = walks.closed_walk_profile(g, max_d)
            if dp != closed:
                return "fail", f"tree closed/parity mismatch on {g}"
    return "pass", f"{len(seeds)} graphs, d <= {max_d}"


def _check_decomposition(seeds, ctx):
    max_d = DECOMPOSITION_MAX_D
    for g in seeds:
        profile = walks.parity_closed_profile(g, max_d)
        totals = [0] * (max_d + 1)
        for h, count in ctx.census(g):
            covering = walks.covering_parity_profile(h, max_d)
            totals = [t + c * count for t, c in zip(totals, covering)]
        for d in range(2, max_d + 1, 2):
            if totals[d] != profile[d]:
                return "fail", f"decomposition off at d={d} on {g}"
    return "pass", f"{len(seeds)} graphs, even d <= {max_d}"


def _synthetic_digraphs():
    return [
        digraphs.Multidigraph(2, (((0, 1), 1), ((1, 0), 1))),
        digraphs.Multidigraph(3, (((0, 1), 1), ((1, 2), 1), ((2, 0), 1))),
        digraphs.Multidigraph(2, (((0, 1), 2), ((1, 0), 2))),
    ]


def _corpus_digraphs(seeds, census):
    """Eulerian digraph structures of length |E| and |E| + 1, at most 6 per
    motif, on the seed motifs of at most 3 edges and 4 vertices, read from
    the suite's census of each seed."""
    out = []
    seen = set()
    for g in seeds:
        for h, _ in census(g):
            if h.m > 3:
                break
            if h.n > 4 or h in seen:
                continue
            seen.add(h)
            structures = (
                d
                for ell in (h.m, h.m + 1)
                for d in digraphs.eulerian_structures_on(h, ell)
            )
            out.extend(itertools.islice(structures, 6))
    return out


def _check_best_theorem(seeds, ctx):
    cases = _synthetic_digraphs() + ctx.corpus_digraphs(seeds)
    for d in cases:
        formula = digraphs.eulerian_walk_count(d)
        brute = digraphs.eulerian_walks_by_backtracking(d)
        if formula != brute:
            return "fail", f"BEST {formula} != brute {brute} on {d.arcs}"
    two_cycle, triangle = cases[0], cases[1]
    if digraphs.eulerian_walk_count(two_cycle) != 2:
        return "fail", "2-cycle should have 2 Eulerian walks"
    if digraphs.eulerian_walk_count(triangle) != 3:
        return "fail", "directed triangle should have 3 Eulerian walks"
    return "pass", f"{len(cases)} digraphs"


def _liftable(dstar):
    mult = dstar.multiplicity_map()
    return all(
        (mult.get((i, j), 0) + mult.get((j, i), 0)) % 2 == 0
        for i, j in dstar.support_edges()
    )


def _check_tree_reduction(seeds, ctx):
    doubled_triangle = digraphs.Multidigraph(
        3, (((0, 1), 2), ((1, 2), 2), ((2, 0), 2))
    )
    cases = [d for d in _synthetic_digraphs() if _liftable(d)]
    cases.append(doubled_triangle)
    cases.extend(d for d in ctx.corpus_digraphs(seeds) if _liftable(d))
    count = 0
    for dstar in cases:
        for k in (3, 4, 5):
            report = digraphs.spanning_tree_reduction_check(dstar, k)
            if not report.ok:
                return "fail", (
                    f"t(D) {report.t_direct} != formula {report.t_formula} "
                    f"for k={k} on {dstar.arcs}"
                )
            count += 1
    return "pass", f"{count} lift identities"


def _check_trace_formula(_seeds, _ctx):
    # K2's moments are known: 9 at d = 3 and 6, 0 at the other d <= 6
    k2, p3 = path_graph(2), path_graph(3)
    k2_expected = (0, 0, 9, 0, 0, 9)
    for g, d in [(k2, d) for d in range(1, 7)] + [(p3, 3), (p3, 6)]:
        direct = digraphs.naive_tensor_trace(power_hypergraph(g, 3), d)
        closed = spectrum.script_S(g, d, 3)
        if direct != closed or (g is k2 and direct != k2_expected[d - 1]):
            return "fail", f"trace mismatch at d={d} on {g}: {direct} vs {closed}"
    return "pass", "K2 d=1..6 and P3 d=3,6 at k=3"


def _check_multiplicities(seeds, ctx):
    """Fails when a check that char_poly_power runs on its result raises, at
    each k of the radius check, which then reads the same memoised results."""
    checked = 0
    for g in seeds:
        if not g.is_connected() or g.m == 0:
            continue
        for k in RADIUS_MULTIPLICITY_KS:
            try:
                ctx.charpoly(g, k)
            except ConsistencyError as exc:
                return "fail", f"{exc} on {g} at k={k}"
            checked += 1
    return "pass", f"{checked} (graph, k) systems"


def _check_radius_multiplicity(seeds, ctx):
    checked = 0
    for g in seeds:
        if not g.is_connected() or g.m == 0:
            continue
        for k in RADIUS_MULTIPLICITY_KS:
            fsf = ctx.charpoly(g, k)
            formula = spectrum.spectral_radius_multiplicity(g, k)
            pipeline = spectrum.radius_cluster_exponent(fsf, g)
            if formula != pipeline:
                return "fail", (
                    f"radius multiplicity {pipeline} != formula {formula} "
                    f"on {g} at k={k}"
                )
            checked += 1
    return "pass", f"{checked} (graph, k) cross-checks"


def _equal_over_powers(a, e, b, f, q):
    """a / q^e == b / q^f, for integers e, f and q > 0."""
    return a * q ** max(f - e, 0) == b * q ** max(e - f, 0)


def _check_beta_geometric_mean(seeds, ctx):
    """|beta(x)|^(2^|E|) = prod over the 2^|E| signings of phi(x), exactly:
    with x = p/q, both sides are integers over powers of q."""
    checked = 0
    for g in seeds:
        if g.m == 0:
            continue
        fsf = ctx.beta(g)
        try:
            for x in SAMPLE_POINTS:
                p, q = x.as_integer_ratio()
                _, values = means._scaled_values(g, x)
                product = math.prod(v**c for v, c in values)
                value, e = fsf._scaled_abs_power(p, q, 2**g.m)
                if not _equal_over_powers(product, g.n * 2**g.m, value, e, q):
                    return "fail", f"geometric-mean identity fails at {x} on {g}"
                checked += 1
        except ValueError as exc:
            return "fail", f"geometric-mean identity undefined at {x} on {g}: {exc}"
    return "pass", f"{checked} evaluations"


def _check_beta_cycle_identity(_seeds, ctx):
    # beta is complex inside the spectral disk (fractional exponents on
    # negative bases), so the identity is compared on absolute values;
    # with x = p/q, phi(x^2 - 2) is an integer over q^(2n)
    for n in range(3, 7):
        g = cycle_graph(n)
        fsf = ctx.beta(g)
        phi = char_poly_exact(all_positive(g))
        try:
            for x in SAMPLE_POINTS:
                p, q = x.as_integer_ratio()
                value, e = fsf._scaled_abs_power(p, q, 2)
                rhs = abs(poly_eval_scaled(phi, p * p - 2 * q * q, q * q))
                if not _equal_over_powers(value, e, rhs, 2 * n, q):
                    return "fail", f"cycle identity off for C{n} at {x}"
        except ValueError as exc:
            return "fail", f"cycle identity undefined for C{n} at {x}: {exc}"
    return "pass", "C3..C6 at the sample points, absolute values"


def _expand_beta(fsf):
    """lambda^mu0 prod_b b(lambda^2)^mu_b for integral exponents, as exact
    ascending coefficients."""
    poly = [Fraction(0)] * int(fsf.mu0) + [Fraction(1)]
    for b, mu in {f.b: f.mu for f in fsf.factors}.items():
        in_squares = [0] * (2 * len(b) - 1)
        in_squares[::2] = b
        poly = poly_mul(poly, poly_pow(in_squares, int(mu)))
    return poly


def _check_beta_forest(seeds, ctx):
    checked = 0
    for g in seeds:
        if g.m == 0:
            continue
        checked += 1
        fsf = ctx.beta(g)
        exponents = [fsf.mu0] + [f.mu for f in fsf.factors]
        integral = all(Fraction(mu).denominator == 1 for mu in exponents)
        if integral != g.is_forest():
            return "fail", f"beta polynomiality mismatch on {g}"
        if g.is_forest() and _expand_beta(fsf) != means.matching_polynomial(g):
            return "fail", f"forest beta should equal matching polynomial on {g}"
    return "pass", f"{checked} graphs"


def _check_beta_radius_exponent(seeds, ctx):
    checked = 0
    for g in seeds:
        if not g.is_connected() or g.m == 0:
            continue
        checked += 1
        fsf = ctx.beta(g)
        expected = Fraction(1, 2 ** (g.m - g.n + 1))
        actual = Fraction(spectrum.radius_cluster_exponent(fsf, g))
        if actual != expected:
            return "fail", f"rho exponent {actual} != {expected} on {g}"
    return "pass", f"{checked} graphs"


def _check_godsil_gutman(seeds, ctx):
    for g in seeds:
        direct = means.matching_polynomial(g)
        mean = means.mean_signed_char_poly(g)
        if direct != mean:
            return "fail", f"matching polynomial mismatch on {g}"
    c3 = cycle_graph(3)
    if means.matching_polynomial(c3) != [Fraction(0), Fraction(-3), Fraction(0), Fraction(1)]:
        return "fail", "C3 matching polynomial should be x^3 - 3x"
    return "pass", f"{len(seeds)} graphs, coefficient-exact"


def _check_amgm(seeds, ctx):
    results = {"pass": 0, "skipped": 0}
    for g in seeds:
        if g.m == 0:
            continue
        for x in SAMPLE_POINTS:
            report = means.amgm_check(g, x)
            if report.status == "fail":
                return "fail", f"AM-GM failed at {x} on {g}: {report.detail}"
            results[report.status] += 1
    return "pass", f"{results['pass']} comparisons, {results['skipped']} skipped"


def _check_radius_convergence(_seeds, _ctx):
    k, ell = RADIUS_CONVERGENCE_K, RADIUS_CONVERGENCE_ELL
    for g in (path_graph(2), path_graph(3), cycle_graph(3)):
        ratio = spectrum.convergence_ratio(g, k, ell)
        target = spectrum.radius_total_multiplicity(g, k)
        if abs(ratio - target) > 0.05 * target:
            return "fail", f"ratio {ratio} not within 5% of {target} on {g}"
    return "pass", f"K2, P3, C3 at ell={ell}"


CHECKS = (
    ("walks/methods-agree", _check_walk_methods),
    ("walks/decomposition", _check_decomposition),
    ("digraphs/best-vs-brute", _check_best_theorem),
    ("digraphs/tree-reduction", _check_tree_reduction),
    ("oracle/trace-formula", _check_trace_formula),
    ("spectrum/multiplicities", _check_multiplicities),
    ("spectrum/radius-multiplicity", _check_radius_multiplicity),
    ("beta/geometric-mean", _check_beta_geometric_mean),
    ("beta/cycle-identity", _check_beta_cycle_identity),
    ("beta/forest-polynomiality", _check_beta_forest),
    ("beta/radius-exponent", _check_beta_radius_exponent),
    ("means/godsil-gutman", _check_godsil_gutman),
    ("means/am-gm", _check_amgm),
    ("walks/radius-convergence", _check_radius_convergence),
)


def run_verify_suite(scope="quick", seed_graphs=None):
    """Run every check group and collect a VerifyReport.

    seed_graphs (parsed Graphs or parse_graph strings) replaces the corpus;
    synthetic digraph cases run regardless of the seeds.
    """
    if scope not in ("quick", "full"):
        raise ValueError(f"unknown scope {scope!r}")
    if seed_graphs is not None:
        seeds = [
            parse_graph(s) if isinstance(s, str) else s for s in seed_graphs
        ]
    else:
        seeds = quick_corpus() if scope == "quick" else full_corpus()
    heavy_seeds = [g for g in seeds if g.m <= FULL_SCOPE_PIPELINE_EDGE_LIMIT]

    ctx = _PipelineCache()
    results = []
    for name, fn in CHECKS:
        chosen = seeds
        if scope == "full" and name.startswith(("spectrum/", "beta/")):
            chosen = heavy_seeds
        start = time.perf_counter()
        try:
            status, detail = fn(chosen, ctx)
        except Exception as exc:  # noqa: BLE001 - verification must not abort
            status, detail = "fail", f"{type(exc).__name__}: {exc}"
        elapsed = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(name, status, detail, elapsed))
    return VerifyReport(tuple(results))
