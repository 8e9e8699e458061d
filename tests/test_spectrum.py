import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra import graphs, means, spectrum, verify
from hyperspectra.algebra import poly_eval
from hyperspectra.algebra import (
    basis_exponents,
    coprime_basis,
    power_sums_from_charpoly,
    real_roots,
)
from hyperspectra.digraphs import power_moment_prefactor
from hyperspectra.errors import BudgetError, ConsistencyError
from hyperspectra.graphs import (
    Graph,
    complete_graph,
    connected_edge_subsets,
    connected_induced_subgraph_classes,
    connected_subgraph_census,
    connected_subgraph_classes,
    cycle_graph,
    path_graph,
)
from hyperspectra.signed import (
    all_positive,
    char_poly_exact,
    char_poly_of_squares,
    enumerate_signings,
)
from hyperspectra.spectrum import (
    _covering_weight,
    beta,
    char_poly_power,
    check_moment_identity,
    convergence_ratio,
    radius_cluster_exponent,
    radius_total_multiplicity,
    script_S,
    spectral_radius_multiplicity,
)
from hyperspectra.walks import covering_parity_profile, parity_closed_profile
from oracles import poly_divmod, vertex_deletion_moments
from test_signed import small_graphs

K2 = path_graph(2)
P3 = path_graph(3)
C3 = cycle_graph(3)


def _exponents(fsf, basis):
    """Exponent of each basis polynomial in prod_b b(lambda^k)^mu_b."""
    out = [0] * len(basis)
    for b, mu in {f.b: f.mu for f in fsf.factors}.items():
        for i, e in enumerate(basis_exponents(b, basis)):
            out[i] += mu * e
    return out


def _assert_product_rule(g1, g2, k):
    """Cooper & Dutle: the k-powers H1, H2 of G1, G2 on N1, N2 vertices give
    phi(H1 + H2) = phi(H1)^((k-1)^N2) * phi(H2)^((k-1)^N1)."""
    shifted = tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
    whole = char_poly_power(Graph(g1.n + g2.n, g1.edges + shifted), k)
    f1, f2 = char_poly_power(g1, k), char_poly_power(g2, k)
    p1 = (k - 1) ** (g2.n + (k - 2) * g2.m)
    p2 = (k - 1) ** (g1.n + (k - 2) * g1.m)
    basis = coprime_basis(f.b for fsf in (f1, f2, whole) for f in fsf.factors)
    expected = [
        p1 * a + p2 * b for a, b in zip(_exponents(f1, basis), _exponents(f2, basis))
    ]
    assert _exponents(whole, basis) == expected, (g1, g2, k)
    assert whole.mu0 == p1 * f1.mu0 + p2 * f2.mu0, (g1, g2, k)


class TestScriptS:
    def test_k2_order3(self):
        assert script_S(K2, 3, 3) == 9

    def test_k_symmetry(self):
        assert script_S(K2, 4, 3) == 0

    def test_low_order_past_the_certificate_limit(self):
        # S_3 needs motifs of one edge only, so P12, whose connected
        # subgraphs reach 12 vertices, is in reach (same value as the naive
        # tensor trace of `hyperspectra oracle --graph path:12 --d 3`)
        assert script_S(path_graph(12), 3, 3) == 103809024

    def test_k2_reduces_to_parity_counts(self, small_corpus):
        for g in small_corpus:
            profile = parity_closed_profile(g, 10)
            for d in range(2, 11, 2):
                assert script_S(g, d, 2) == profile[d], (g, d)

    def test_cycle3_at_k2(self):
        assert script_S(C3, 4, 2) == 18

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            script_S(K2, 2, 1)


class TestBuildSystem:
    """The moment data behind S_{ell k}: covering counts P, motif counts N
    and the prefactors D(k)."""

    def test_k2(self):
        census = connected_subgraph_census(K2, 1)
        assert [count for _, count in census.entries] == [1]
        assert covering_parity_profile(K2, 2)[2] == 2
        assert power_moment_prefactor(2, 1, 3) == Fraction(9, 8)

    def test_path3(self):
        assert len(connected_subgraph_census(P3, 2)) == 2  # K2 and P3

    def test_cycle3(self):
        assert len(connected_subgraph_census(C3, 3)) == 3

    def test_p_vanishes_above_edge_count(self):
        # covering walks of length 2 ell need every edge twice
        for motif, _ in connected_subgraph_census(C3, 3).entries:
            for ell in range(1, 4):
                if motif.e_count > ell:
                    assert covering_parity_profile(motif.graph, 2 * ell)[2 * ell] == 0


class TestCharPolyPower:
    def test_k2_cubed(self):
        fsf = char_poly_power(K2, 3)
        assert fsf.mu0 == 3
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 3)]
        assert fsf.to_text() == "λ^3 (λ^3 - 1)^3"

    def test_k2_multiplicity_is_k_to_k_minus_2(self):
        for k in (3, 4, 5):
            fsf = char_poly_power(K2, k)
            assert fsf.factors[0].mu == k ** (k - 2)

    def test_k2_fourth_power(self):
        fsf = char_poly_power(K2, 4)
        assert fsf.factors[0].mu == 16
        assert fsf.mu0 == 4 * 3**3 - 4 * 16

    def test_total_degree_identity(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or not g.is_connected() or g.m > 5:
                continue
            fsf = char_poly_power(g, 3)
            size = g.n + g.m
            assert fsf.total_degree() == size * 2 ** (size - 1)

    def test_multiplicities_integral_nonnegative(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or not g.is_connected() or g.m > 5:
                continue
            for k in (3, 4):
                fsf = char_poly_power(g, k)
                for f in fsf.factors:
                    assert isinstance(f.mu, int) and f.mu >= 0
                check_moment_identity(g, fsf)

    def test_zero_clusters_dropped(self):
        # sigma^2 = 2 comes only from the triangle's non-induced P3: it is in
        # the basis of the full census (k >= 4) but carries no multiplicity
        # at k=3, whose census is induced, and no factor shows it
        fsf = char_poly_power(C3, 3)
        assert (-2, 1) in spectrum._motif_spectra(C3)[2]
        assert all(f.mu > 0 for f in fsf.factors)
        assert all(f.sigma_sq != pytest.approx(2.0, abs=1e-9) for f in fsf.factors)

    def test_positive_k3_clusters_come_from_induced_subgraphs(self, builtin_corpus):
        # at k=3 only squared eigenvalues of induced signed subgraphs can
        # carry multiplicity; basis elements contributed solely by non-induced
        # subgraphs (e.g. P4 inside C4) must end up with exponent zero
        for g in builtin_corpus:
            if not g.is_connected() or g.m == 0:
                continue
            fsf = char_poly_power(g, 3)
            induced = [
                char_poly_of_squares(sg)
                for motif, _ in connected_induced_subgraph_classes(g)
                for sg in enumerate_signings(motif.graph, up_to_switching=True)
            ]
            for f in fsf.factors:
                if f.mu > 0:
                    assert any(not poly_divmod(q, f.b)[1] for q in induced), (g, f.b)

    def test_covering_weight_matches_the_alternating_sum(self):
        # w(C) against its definition: the sum over every set S of edges
        # outside C touching V(C) of (-1)^|S| D_k(C + S)
        g = Graph(5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)))
        for subset in connected_edge_subsets(g, g.m):
            verts = {x for i in subset for x in g.edges[i]}
            touching = [
                i for i, e in enumerate(g.edges)
                if i not in subset and verts & set(e)
            ]
            for k in (2, 3, 4):
                expected = 0
                for size in range(len(touching) + 1):
                    for extra in itertools.combinations(touching, size):
                        h = g.subgraph_of_edges(set(subset) | set(extra))
                        expected += (-1) ** size * power_moment_prefactor(h.n, h.m, k)
                assert _covering_weight(g, subset, k) == expected, (subset, k)

    def test_corrupted_multiplicity_fails_moment_identity(self):
        fsf = char_poly_power(C3, 3)
        factors = tuple(
            replace(f, mu=f.mu + 1) if f.b == (-4, 1) else f for f in fsf.factors
        )
        check_moment_identity(C3, fsf)
        with pytest.raises(ConsistencyError):
            check_moment_identity(C3, replace(fsf, factors=factors))

    def test_cycle4_multiplicities(self):
        # frozen pipeline output: C4 at k=3 has integer clusters 24, 126, 27
        # summing to degree 1024; the golden-ratio squares of its non-induced
        # P4 have multiplicity 0 and are dropped
        fsf = char_poly_power(cycle_graph(4), 3)
        got = [(round(f.sigma_sq, 6), f.mu) for f in fsf.factors]
        assert got == [(1.0, 24), (2.0, 126), (4.0, 27)]
        assert fsf.mu0 == 493

    def test_disconnected_product_rule(self):
        for g1, g2, k in [(K2, K2, 3), (K2, K2, 4), (P3, K2, 3), (K2, Graph(1, ()), 3)]:
            _assert_product_rule(g1, g2, k)
        assert char_poly_power(Graph(4, ((0, 1), (2, 3))), 3).to_text() == (
            "λ^48 (λ^3 - 1)^48"
        )

    def test_one_canonical_search_per_subgraph(self, monkeypatch):
        # k=3 and its moment check share one census of connected induced
        # subgraphs: C8 has 8 * 6 + 1 = 49 connected vertex sets of at least
        # 2 vertices.  k=4 adds the census of its 8 * 7 + 1 = 57 connected
        # edge subsets, beta searches none, and repeats search no more
        calls = []
        form = graphs.canonical_form

        def counted(g, *args):
            calls.append(g)
            return form(g, *args)

        monkeypatch.setattr(graphs, "canonical_form", counted)
        spectrum._induced_spectra.cache_clear()
        spectrum._motif_spectra.cache_clear()
        g = cycle_graph(8)
        char_poly_power(g, 3)
        assert len(calls) == 49
        char_poly_power(g, 4)
        assert len(calls) == 49 + 57
        beta(g)
        char_poly_power(g, 3)
        char_poly_power(g, 4)
        assert len(calls) == 49 + 57

    def test_moment_check_range_comes_from_the_graph(self):
        # a result that lost its factors must not pass with nothing checked
        fsf = char_poly_power(K2, 3)
        with pytest.raises(ConsistencyError):
            check_moment_identity(K2, replace(fsf, factors=(), mu0=12))

    def test_hopeless_cycle_rank_refused_before_the_census(self):
        # K8 has cycle rank 28 - 8 + 1 = 21, past the signing limit of 20;
        # the census of its connected edge subsets never starts
        for call in (lambda g: char_poly_power(g, 3), beta):
            with pytest.raises(BudgetError, match="cycle space dimension 21 exceeds 20"):
                call(complete_graph(8))

    def test_k2_rejected(self):
        with pytest.raises(ValueError):
            char_poly_power(K2, 2)

    def test_single_vertex(self):
        fsf = char_poly_power(Graph(1, ()), 3)
        assert fsf.mu0 == 1
        assert fsf.factors == ()
        assert fsf.to_text() == "λ"


PETERSEN = Graph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


def _assert_correctly_rounded(g):
    """Every root r that _factors returns for the basis of g is the double
    nearest to a root of its b: b changes sign strictly between the exact
    midpoints from r to the neighbouring doubles."""
    basis = spectrum._motif_spectra(g)[2]
    factors = spectrum._factors((b, 1) for b in basis)
    assert len(factors) == sum(len(b) - 1 for b in basis)
    for f in factors:
        r = Fraction(f.sigma_sq)
        below = (r + Fraction(math.nextafter(f.sigma_sq, -math.inf))) / 2
        above = (r + Fraction(math.nextafter(f.sigma_sq, math.inf))) / 2
        assert poly_eval(f.b, below) * poly_eval(f.b, above) < 0, (g, f)


class TestCorrectlyRoundedRoots:
    def test_corpus_and_k5(self, desk_corpus):
        # every connected graph on at most 5 vertices, K5 included
        for g in desk_corpus:
            _assert_correctly_rounded(g)

    @pytest.mark.slow
    def test_petersen(self):
        # 877 roots of 179 basis polynomials
        _assert_correctly_rounded(PETERSEN)


class TestRadiusMultiplicity:
    def test_k2(self):
        assert spectral_radius_multiplicity(K2, 3) == 3

    def test_cycle3(self):
        assert spectral_radius_multiplicity(C3, 3) == 9

    def test_k2_at_k4_matches_pipeline(self):
        assert spectral_radius_multiplicity(K2, 4) == 16
        fsf = char_poly_power(K2, 4)
        assert radius_cluster_exponent(fsf, K2) == 16

    def test_pipeline_cross_check(self, builtin_corpus):
        for g in builtin_corpus[:5]:
            for k in (3, 4):
                fsf = char_poly_power(g, k)
                assert radius_cluster_exponent(fsf, g) == spectral_radius_multiplicity(
                    g, k
                )

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius_multiplicity(Graph(4, ((0, 1), (2, 3))), 3)

    def test_corrupted_radius_multiplicity_fails(self, monkeypatch):
        # one less at the basis element holding rho(G)^2, the largest root
        exact = spectrum._exact_multiplicities

        def corrupted(g, k):
            basis, mu = exact(g, k)
            top = max(range(len(basis)), key=lambda i: max(real_roots(basis[i])))
            return basis, [m - (i == top) for i, m in enumerate(mu)]

        monkeypatch.setattr(spectrum, "_exact_multiplicities", corrupted)
        for g in (K2, C3, cycle_graph(4)):
            with pytest.raises(ConsistencyError, match="spectral-radius multiplicity"):
                char_poly_power(g, 3)


class TestBeta:
    def test_cycle3(self):
        fsf = beta(C3)
        assert fsf.mu0 == 0
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [
            (1.0, 1),
            (4.0, Fraction(1, 2)),
        ]

    def test_k2(self):
        fsf = beta(K2)
        assert fsf.mu0 == 0
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 1)]

    def test_path3(self):
        fsf = beta(P3)
        assert fsf.mu0 == 1
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(2.0, 1)]

    def test_polynomial_iff_forest(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            fsf = beta(g)
            exponents = [Fraction(f.mu) for f in fsf.factors] + [Fraction(fsf.mu0)]
            integral = all(e.denominator == 1 for e in exponents)
            assert integral == g.is_forest(), g

    def test_radius_exponent(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or not g.is_connected():
                continue
            fsf = beta(g)
            assert Fraction(radius_cluster_exponent(fsf, g)) == Fraction(
                1, 2 ** (g.m - g.n + 1)
            )

    def test_corrupted_radius_exponent_fails(self, monkeypatch):
        # half the exponent at the basis element holding rho(G)^2, the
        # largest root; the moment identity, which would fail first, is
        # stubbed so that the exact radius check is reached
        exact = spectrum._beta_exponents

        def corrupted(g):
            basis, mu = exact(g)
            top = max(range(len(basis)), key=lambda i: max(real_roots(basis[i])))
            return basis, [m / (1 + (i == top)) for i, m in enumerate(mu)]

        monkeypatch.setattr(spectrum, "_beta_exponents", corrupted)
        monkeypatch.setattr(spectrum, "check_moment_identity", lambda g, fsf: None)
        for g in (K2, C3, cycle_graph(4)):
            with pytest.raises(ConsistencyError, match="spectral-radius exponent"):
                beta(g)

    def test_exponents_are_dyadic(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            fsf = beta(g)
            for f in fsf.factors:
                denom = Fraction(f.mu).denominator
                assert 2 ** g.m % denom == 0

    def test_disconnected_forest(self):
        # two disjoint edges: beta is the characteristic polynomial (x^2-1)^2
        g = Graph(4, ((0, 1), (2, 3)))
        fsf = beta(g)
        assert fsf.mu0 == 0
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 2)]

    def test_isolated_vertex(self):
        # an edge plus an isolated vertex: beta = lambda (lambda^2 - 1)
        g = Graph(3, ((0, 1),))
        fsf = beta(g)
        assert fsf.mu0 == 1
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 1)]


def _kernel_vector(rows):
    """A nonzero rational vector v with row . v = 0 for every row, for a
    matrix with more columns than rows, by Gauss-Jordan elimination."""
    rows = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for col in range(len(rows[0])):
        at = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if at is None:
            continue
        r = len(pivots)
        rows[r], rows[at] = rows[at], rows[r]
        rows[r] = [x / rows[r][col] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [a - rows[i][col] * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    free = next(c for c in range(len(rows[0])) if c not in pivots)
    v = [Fraction(0)] * len(rows[0])
    v[free] = Fraction(1)
    for r, col in enumerate(pivots):
        v[col] = -rows[r][free]
    return v


class TestBetaMomentCheck:
    @pytest.mark.parametrize(
        "g, size", [(complete_graph(4), 3), (complete_graph(5), 5), (PETERSEN, 6)]
    )
    def test_check_pins_every_exponent(self, g, size):
        # exponents shifted along the kernel of the first |Sigma| - 1 moment
        # rows [p_ell(b)] keep those moments; the check, which runs to the
        # total degree of beta's basis, still refuses them
        fsf = beta(g)
        basis = list(dict.fromkeys(f.b for f in fsf.factors))
        assert len(basis) == size
        sums = {b: power_sums_from_charpoly(b, size) for b in basis}
        shift = dict(zip(basis, _kernel_vector(
            [[sums[b][ell] for b in basis] for ell in range(1, size)]
        )))
        mu = {f.b: Fraction(f.mu) + shift[f.b] for f in fsf.factors}
        moments = parity_closed_profile(g, 2 * (size - 1))
        for ell in range(1, size):
            assert 2 * sum(mu[b] * sums[b][ell] for b in basis) == moments[2 * ell]
        shifted = replace(
            fsf, factors=tuple(replace(f, mu=mu[f.b]) for f in fsf.factors)
        )
        with pytest.raises(ConsistencyError, match=f"ell={size}:"):
            check_moment_identity(g, shifted)


class TestK3MomentCheck:
    """At k=3 the check reads S_{3 ell} by vertex deletion, to the total
    degree D of the basis of g's connected induced classes."""

    def test_vertex_deletion_matches_the_covering_route(self, desk_corpus):
        # the brute-force sum over all 2^n vertex sets, the covering walk
        # moments of the full census and the check's induced-class moments
        for g in desk_corpus:
            brute = vertex_deletion_moments(g, 6)
            classes = connected_subgraph_classes(g, min(6, g.m)) if g.m else ()
            assert brute == spectrum._power_moments(g, 3, 6, classes), g
            induced = spectrum._induced_spectra(g)[0]
            assert brute == spectrum._induced_moments(g, 6, induced), g

    @pytest.mark.parametrize("g", [complete_graph(5), PETERSEN])
    def test_vertex_deletion_matches_the_covering_route_to_8(self, g):
        brute = vertex_deletion_moments(g, 8)
        classes = connected_subgraph_classes(g, 8)
        assert brute == spectrum._power_moments(g, 3, 8, classes)
        induced = spectrum._induced_spectra(g)[0]
        assert brute == spectrum._induced_moments(g, 8, induced)

    def test_check_runs_to_the_total_degree(self, monkeypatch):
        tops = []
        moments = spectrum._induced_moments

        def recorded(g, top, classes):
            tops.append(top)
            return moments(g, top, classes)

        monkeypatch.setattr(spectrum, "_induced_moments", recorded)
        for g in (complete_graph(5), complete_graph(6), PETERSEN):
            char_poly_power(g, 3)
        assert tops == [9, 23, 33]

    def test_check_pins_every_multiplicity(self):
        # multiplicities shifted along an integer kernel vector of the first
        # 8 moment rows [p_ell(b)] keep S_3, ..., S_24, all that a check
        # capped at ell <= 8 reads; the check, which runs to the total degree
        # 33 of the 18-element k=3 basis, still refuses them
        fsf = char_poly_power(PETERSEN, 3)
        basis = list(dict.fromkeys(f.b for f in fsf.factors))
        assert len(basis) == 18
        sums = {b: power_sums_from_charpoly(b, 8) for b in basis}
        kernel = _kernel_vector([[sums[b][ell] for b in basis] for ell in range(1, 9)])
        scale = math.lcm(*(x.denominator for x in kernel))
        shift = dict(zip(basis, (int(x * scale) for x in kernel)))
        mu = {f.b: f.mu + shift[f.b] for f in fsf.factors}
        moments = vertex_deletion_moments(PETERSEN, 8)
        for ell in range(1, 9):
            assert 3 * sum(mu[b] * sums[b][ell] for b in basis) == moments[ell - 1]
        shifted = replace(
            fsf, factors=tuple(replace(f, mu=mu[f.b]) for f in fsf.factors)
        )
        with pytest.raises(ConsistencyError, match="ell=9:"):
            check_moment_identity(PETERSEN, shifted)


@st.composite
def disjoint_pairs(draw):
    """Two graphs whose disjoint union has at most 6 vertices and 8 edges:
    a small graph cut into its first vertices and the rest."""
    g = draw(small_graphs())
    cut = draw(st.integers(0, g.n))
    left = tuple(e for e in g.edges if e[1] < cut)
    right = tuple((u - cut, v - cut) for u, v in g.edges if u >= cut)
    return Graph(cut, left), Graph(g.n - cut, right)


class TestK3Properties:
    """char_poly_power at k=3 on random graphs with isolated vertices and
    several components."""

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_relabelling_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert char_poly_power(g.relabel(perm), 3).to_text() == (
            char_poly_power(g, 3).to_text()
        )

    @given(disjoint_pairs())
    def test_disjoint_unions_obey_the_product_rule(self, pair):
        _assert_product_rule(*pair, 3)


BINARY_TREE_15 = Graph(15, tuple((i, c) for i in range(7) for c in (2 * i + 1, 2 * i + 2)))


class TestBetaReach:
    """beta reads only the switching classes of g's components, so neither
    the census nor the canonical-form vertex limit applies to it."""

    @pytest.mark.parametrize("n", [12, 16])
    def test_long_cycles_obey_the_cycle_identity(self, n):
        g = cycle_graph(n)
        fsf = beta(g)
        phi = char_poly_exact(all_positive(g))
        for x in verify.SAMPLE_POINTS:
            assert fsf.abs_power(x, 2) == abs(poly_eval(phi, Fraction(x) ** 2 - 2))

    @pytest.mark.parametrize("g", [path_graph(14), BINARY_TREE_15])
    def test_large_trees_give_the_matching_polynomial(self, g):
        assert verify._expand_beta(beta(g)) == means.matching_polynomial(g)

    def test_reads_no_census(self, monkeypatch):
        def refused(*args):
            raise AssertionError("beta reached the motif census")

        monkeypatch.setattr(graphs, "canonical_form", refused)
        monkeypatch.setattr(graphs, "connected_edge_subsets", refused)
        monkeypatch.setattr(spectrum, "_covering_weight", refused)
        spectrum._motif_spectra.cache_clear()
        spectrum._beta_exponents.cache_clear()
        beta(cycle_graph(8))

    def test_petersen_unchanged(self):
        assert beta(PETERSEN).to_text() == (
            "λ^17/16 (λ^2 - 0.0836184482550284)^15/64 (λ^2 - 1)^95/64 "
            "(λ^2 - 2.4384471871911697)^15/32 (λ^2 - 4)^49/64 (λ^2 - 5)^9/16 "
            "(λ^2 - 6.196557593744262)^15/64 (λ^2 - 6.56155281280883)^15/32 "
            "(λ^2 - 7.71982395800071)^15/64 (λ^2 - 9)^1/64"
        )

    def test_k6_unchanged(self):
        assert beta(complete_graph(6)).to_text() == (
            "(λ^2 - 0.012081585130131757)^45/256 (λ^2 - 1)^1005/1024 "
            "(λ^2 - 2.5278640450004204)^45/256 (λ^2 - 2.871644455048176)^15/256 "
            "(λ^2 - 3.34314575050762)^45/1024 (λ^2 - 5)^9/16 "
            "(λ^2 - 6.071796769724491)^15/1024 (λ^2 - 6.780167471650516)^45/256 "
            "(λ^2 - 7.610814578664558)^15/256 (λ^2 - 9)^135/512 "
            "(λ^2 - 11.47213595499958)^45/256 (λ^2 - 12.207750943219352)^45/256 "
            "(λ^2 - 13)^5/256 (λ^2 - 14.65685424949238)^45/1024 "
            "(λ^2 - 16.517540966287267)^15/256 (λ^2 - 19.92820323027551)^15/1024 "
            "(λ^2 - 25)^1/1024"
        )


class TestBetaProperties:
    """beta on random graphs with isolated vertices and several components."""

    @given(small_graphs())
    def test_geometric_mean_identity(self, g):
        # the signing table of the whole graph, not its components; at x > 0
        # the product is positive even for an edgeless g of odd order
        fsf = beta(g)
        for x in (Fraction(5, 2), Fraction(3, 4), Fraction(7, 3)):
            expected = math.prod(
                v**c for v, c in means.signed_char_poly_values(g, x)
            )
            assert fsf.abs_power(x, 2**g.m) == expected

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_relabelling_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert beta(g.relabel(perm)).to_text() == beta(g).to_text()


class TestConvergence:
    def test_within_five_percent_at_30(self):
        for g in (K2, P3, C3):
            ratio = convergence_ratio(g, 3, 30)
            target = radius_total_multiplicity(g, 3)
            assert abs(ratio - target) <= 0.05 * target

    def test_k2_is_exact(self):
        assert convergence_ratio(K2, 3, 10) == pytest.approx(9.0, rel=1e-9)

    def test_eventually_nonincreasing(self):
        ratios = [convergence_ratio(C3, 3, ell) for ell in range(3, 20)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))
