import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspectra import algebra, graphs, means, spectrum, verify, walks
from hyperspectra.algebra import poly_eval
from hyperspectra.algebra import (
    coprime_basis,
    power_sums_from_charpoly,
    real_roots,
)
from hyperspectra.digraphs import naive_tensor_trace, power_moment_prefactor
from hyperspectra.errors import BudgetError, ConsistencyError
from hyperspectra.graphs import (
    Graph,
    complete_graph,
    connected_edge_subsets,
    connected_subgraph_classes,
    cycle_graph,
    path_graph,
    power_hypergraph,
)
from hyperspectra.signed import all_positive, char_poly_exact
from hyperspectra.spectrum import (
    FactoredSpectralFunction,
    SpectralFactor,
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
from oracles import (
    abs_power,
    basis_exponents,
    covering_weight,
    deletion_moments,
    deletion_weight,
    grouped_deletion_moments,
    parity_profile_all_starts,
    rank_over_q,
    signed_char_poly_values,
    switching_class_polynomials_by_faddeev_leverrier,
)
from test_graphs import small_graphs as census_graphs
from test_signed import disjoint_union, small_graphs

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
    phi(H1 + H2) = phi(H1)^((k-1)^N2) * phi(H2)^((k-1)^N1); at k = 2, for
    beta, the exponents add."""

    def factored(g):
        return beta(g) if k == 2 else char_poly_power(g, k)

    shifted = tuple((u + g1.n, v + g1.n) for u, v in g2.edges)
    whole = factored(Graph(g1.n + g2.n, g1.edges + shifted))
    f1, f2 = factored(g1), factored(g2)
    p1 = (k - 1) ** (g2.n + (k - 2) * g2.m)
    p2 = (k - 1) ** (g1.n + (k - 2) * g1.m)
    basis = coprime_basis(f.b for fsf in (f1, f2, whole) for f in fsf.factors)[0]
    expected = [
        p1 * a + p2 * b for a, b in zip(_exponents(f1, basis), _exponents(f2, basis))
    ]
    assert _exponents(whole, basis) == expected, (g1, g2, k)
    assert whole.mu0 == p1 * f1.mu0 + p2 * f2.mu0, (g1, g2, k)


def _assert_regime_matches_the_census(g, k):
    """The exponents of the regime of k equal the sum, over every connected
    edge subset C of the full census, of scale * w_k(C) abar_C; the two bases
    differ, so compare over a common refinement of both."""
    basis, mu = spectrum._exponents(g, k)
    groups, exponents, census_basis = spectrum._spectra(g, 4)
    scale = Fraction(k - 1) ** (g.n + (k - 2) * g.m - 1) / k
    census_mu = [Fraction(0)] * len(census_basis)
    for (h, shapes), (signings, sums, _) in zip(groups, exponents):
        weight = scale * sum(c * covering_weight(h, *shape, k) for shape, c in shapes)
        census_mu = [m + weight * e / signings for m, e in zip(census_mu, sums)]
    common = coprime_basis(list(basis) + list(census_basis))[0]

    def refined(basis, mu):
        out = [Fraction(0)] * len(common)
        for b, m in zip(basis, mu):
            out = [o + m * e for o, e in zip(out, basis_exponents(b, common))]
        return out

    assert refined(basis, mu) == refined(census_basis, census_mu), (g, k)


def _alternating_weights(g, subset, ks):
    """w_k(C) of the connected edge subset C by its definition, at each k:
    the sum over every set S of edges outside C touching V(C) of
    (-1)^|S| D_k(C + S)."""
    verts = {x for i in subset for x in g.edges[i]}
    touching = [i for i, e in enumerate(g.edges) if i not in subset and verts & set(e)]
    signs = Counter()
    for size in range(len(touching) + 1):
        for extra in itertools.combinations(touching, size):
            grown = verts.union(*(g.edges[i] for i in extra))
            signs[len(grown), len(subset) + size] += (-1) ** size
    return {
        k: sum(c * power_moment_prefactor(v, e, k) for (v, e), c in signs.items())
        for k in ks
    }


def _weight_of(g, subset, k):
    """`covering_weight` of one connected edge subset, from its shape."""
    ((x, ts), _), = spectrum._shapes(g, [subset])
    return covering_weight(g.subgraph_of_edges(subset), x, ts, k)


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

    @given(small_graphs(max_m=3))
    def test_matches_the_naive_tensor_trace(self, g):
        h = power_hypergraph(g, 3)
        for d in (3, 6):
            assert script_S(g, d, 3) == naive_tensor_trace(h, d), (g, d)

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            script_S(K2, 2, 1)


class TestBuildSystem:
    """The moment data behind S_{ell k}: covering counts P, motif counts N
    and the prefactors D(k)."""

    def test_k2(self):
        classes = connected_subgraph_classes(K2, 1)
        assert [len(subsets) for _, subsets in classes] == [1]
        assert covering_parity_profile(K2, 2)[2] == 2
        assert power_moment_prefactor(2, 1, 3) == Fraction(9, 8)

    def test_path3(self):
        assert len(connected_subgraph_classes(P3, 2)) == 2  # K2 and P3

    def test_cycle3(self):
        assert len(connected_subgraph_classes(C3, 3)) == 3

    def test_p_vanishes_above_edge_count(self):
        # covering walks of length 2 ell need every edge twice
        for h, _ in connected_subgraph_classes(C3, 3):
            for ell in range(1, 4):
                if h.m > ell:
                    assert covering_parity_profile(h, 2 * ell)[2 * ell] == 0


class TestCharPolyPower:
    def test_k2_cubed(self):
        fsf = char_poly_power(K2, 3)
        assert fsf.mu0 == 3
        assert [(f.sigma_sq, f.mu) for f in fsf.factors] == [(1.0, 3)]
        assert fsf.to_text() == "λ^3 (λ^3 - 1)^3"

    def test_empty_graph_has_an_integer_mu0(self):
        for k in (3, 4):
            fsf = char_poly_power(Graph(0, ()), k)
            assert (type(fsf.mu0), fsf.mu0, fsf.factors) == (int, 0, ())

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
        assert (-2, 1) in spectrum._spectra(C3, 4)[2]
        assert all(f.mu > 0 for f in fsf.factors)
        assert all(f.sigma_sq != pytest.approx(2.0, abs=1e-9) for f in fsf.factors)

    def test_k3_multiplicities_match_the_full_edge_census(self, desk_corpus):
        # mu from the connected induced classes equals the sum over every
        # connected edge subset C of w(C) abar_C, where the non-induced C
        # weigh zero
        for g in desk_corpus:
            if g.m:
                _assert_regime_matches_the_census(g, 3)

    def test_beta_exponents_match_the_full_edge_census(self, desk_corpus):
        # the k = 2 twin: beta's exponents from g's components equal the sum
        # over every connected edge subset C of w_2(C) abar_C, where all but
        # the components weigh zero
        disjoint = [
            Graph(4, ((0, 1), (2, 3))),
            Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4))),
        ]
        for g in list(desk_corpus) + disjoint:
            if g.m:
                _assert_regime_matches_the_census(g, 2)

    def test_covering_weight_matches_the_alternating_sum(self):
        # w(C) against its definition: the sum over every set S of edges
        # outside C touching V(C) of (-1)^|S| D_k(C + S)
        g = Graph(5, ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)))
        for subset in connected_edge_subsets(g, g.m):
            for k, expected in _alternating_weights(g, subset, (2, 3, 4)).items():
                assert _weight_of(g, subset, k) == expected, (subset, k)

    def test_corrupted_multiplicity_fails_moment_identity(self):
        fsf = char_poly_power(C3, 3)
        factors = tuple(
            f._replace(mu=f.mu + 1) if f.b == (-4, 1) else f for f in fsf.factors
        )
        check_moment_identity(C3, fsf)
        with pytest.raises(ConsistencyError):
            check_moment_identity(C3, fsf._replace(factors=factors))

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
        # 2 vertices, in 7 orbits under the automorphisms that C8's own
        # search finds (the arcs of each size, and C8), so 7 forms are
        # asked for.  C8's search and those of the 6 arc representatives
        # (the full set is C8 itself) make 7 searches; each stores its
        # form's entry too, so the parity DPs search none of the class
        # forms for their orbits: 7.  k=4 adds the census of its 8 * 7 + 1
        # = 57 connected edge subsets in 8 orbits (the paths of each
        # length, and C8).  The first mask of each length picks the edges
        # (0, 1) and (0, 7): with 1 to 3 edges it spans the forms of K2, P3
        # and P4, stored at k=3, and with 8 edges C8, while the P5 to P8
        # representatives make 4 more searches, whose forms k=3 stored.
        # beta's parity DP finds C8 in the memo, and repeats search no more
        calls = []
        form = graphs.canonical_form

        def counted(g, *args):
            calls.append(g)
            return form(g, *args)

        def searches():
            return graphs._canonical_search.cache_info().misses

        monkeypatch.setattr(graphs, "canonical_form", counted)
        graphs._canonical_search.cache_clear()
        walks._covering_profile_cached.cache_clear()
        spectrum._spectra.cache_clear()
        algebra.squarefree_decomposition.cache_clear()
        algebra.real_roots.cache_clear()
        g = cycle_graph(8)
        char_poly_power(g, 3)
        assert (len(calls), searches()) == (7, 7)
        char_poly_power(g, 4)
        assert (len(calls), searches()) == (7 + 8, 7 + 4)
        beta(g)
        char_poly_power(g, 3)
        char_poly_power(g, 4)
        assert (len(calls), searches()) == (7 + 8, 7 + 4)

    def test_moment_check_range_comes_from_the_graph(self):
        # a result that lost its factors must not pass with nothing checked
        fsf = char_poly_power(K2, 3)
        with pytest.raises(ConsistencyError):
            check_moment_identity(K2, fsf._replace(factors=(), mu0=12))

    def test_moment_check_reads_the_degree(self):
        # ell = 0: mu0 + k sum_b mu_b deg(b) is the degree of the
        # characteristic polynomial, which no other row sees
        fsf = char_poly_power(K2, 3)
        with pytest.raises(ConsistencyError, match="ell=0:"):
            check_moment_identity(K2, fsf._replace(mu0=fsf.mu0 + 1))

    def test_moment_check_refuses_a_factor_outside_the_basis(self):
        # the rank argument covers the basis roots only, so even an exponent
        # of 0 on another root is refused
        fsf = char_poly_power(C3, 3)
        extra = spectrum.SpectralFactor(2.0, 0, (-2, 1))
        with pytest.raises(ConsistencyError, match=r"\(-2, 1\) is not in the basis"):
            check_moment_identity(C3, fsf._replace(factors=fsf.factors + (extra,)))

    def test_hopeless_cycle_rank_refused_before_the_census(self):
        # K8 has cycle rank 28 - 8 + 1 = 21, past the signing limit of 20;
        # the census of its connected edge subsets never starts
        for call in (lambda g: char_poly_power(g, 3), beta):
            with pytest.raises(BudgetError, match="cycle space dimension 21 exceeds 20"):
                call(complete_graph(8))

    def test_table_budget_reads_each_component(self):
        # seven disjoint K4s have cycle rank 7 * 3 = 21 in all, but no
        # connected subgraph has a table larger than one K4's 2^3 rows
        seven_k4 = disjoint_union(*[complete_graph(4)] * 7)
        expected = "(λ^2 - 1)^63/8 (λ^2 - 5)^21/4 (λ^2 - 9)^7/8"
        assert beta(seven_k4).to_text() == expected

    def test_oversized_table_refused_before_the_census(self, monkeypatch):
        # K8 minus an edge has cycle rank 20, inside the cycle space limit,
        # but its switching-class table would hold 2^20 rows of 9
        # coefficients; no subset is listed before the refusal
        listed = []
        monkeypatch.setattr(graphs, "_connected_sets", lambda *a: listed.append(a))
        for call in (lambda g: char_poly_power(g, 3), beta):
            with pytest.raises(BudgetError, match="table needs 9437184 entries"):
                call(Graph(8, complete_graph(8).edges[1:]))
        assert listed == []

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
    basis = spectrum._spectra(g, 4)[2]
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

    def test_edgeless_graphs_are_refused(self):
        # the k-power of a single vertex has the one eigenvalue 0
        # (char_poly_power gives lambda), so there is no spectral circle
        single = Graph(1, ())
        assert char_poly_power(single, 3).to_text() == "λ"
        with pytest.raises(ValueError, match="defined for graphs with an edge"):
            spectral_radius_multiplicity(single, 3)
        with pytest.raises(ValueError, match="defined for graphs with an edge"):
            radius_total_multiplicity(single, 4)
        with pytest.raises(ValueError, match="defined for connected graphs"):
            spectral_radius_multiplicity(Graph(2, ()), 3)

    def test_edgeless_graph_has_no_radius_cluster(self):
        single = Graph(1, ())
        with pytest.raises(ValueError, match="defined for graphs with an edge"):
            radius_cluster_exponent(char_poly_power(single, 3), single)

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
        exact = spectrum._exponents

        def corrupted(g, k):
            basis, mu = exact(g, k)
            top = max(range(len(basis)), key=lambda i: max(real_roots(basis[i])))
            return basis, [m - (i == top) for i, m in enumerate(mu)]

        monkeypatch.setattr(spectrum, "_exponents", corrupted)
        for g in (K2, C3, cycle_graph(4)):
            with pytest.raises(ConsistencyError, match="spectral-radius exponent"):
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
        # largest root; the exact radius check runs before the moment
        # identity, which would also fail
        exact = spectrum._exponents

        def corrupted(g, k):
            basis, mu = exact(g, k)
            top = max(range(len(basis)), key=lambda i: max(real_roots(basis[i])))
            return basis, [m / (1 + (i == top)) for i, m in enumerate(mu)]

        monkeypatch.setattr(spectrum, "_exponents", corrupted)
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

    def test_disjoint_cycles_past_the_parity_dp_limit(self):
        # C13 + C13 has 26 edges, past the parity DP's 24, but its check
        # sums the profiles of its 13-edge components; by the product rule
        # at k = 2 every exponent and mu0 are twice those of C13
        c13 = cycle_graph(13)
        g = Graph(26, c13.edges + tuple((u + 13, v + 13) for u, v in c13.edges))
        one, two = beta(c13), beta(g)
        check_moment_identity(g, two)
        assert two.mu0 == 2 * one.mu0
        assert [(f.b, f.mu) for f in two.factors] == [
            (f.b, 2 * f.mu) for f in one.factors
        ]

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


def _shifted(fsf, shift):
    """fsf with each exponent mu_b moved by shift[b], and mu0 moved so that
    the total degree, the ell = 0 row of the check, stays the same."""
    mu = {f.b: f.mu + shift[f.b] for f in fsf.factors}
    mu0 = fsf.mu0 - fsf.k * sum(shift[b] * (len(b) - 1) for b in mu)
    return mu, fsf._replace(
        mu0=mu0, factors=tuple(f._replace(mu=mu[f.b]) for f in fsf.factors)
    )


class TestBetaMomentCheck:
    @pytest.mark.parametrize(
        "g, size", [(complete_graph(4), 3), (complete_graph(5), 5), (PETERSEN, 6)]
    )
    def test_check_pins_every_exponent(self, g, size):
        # exponents shifted along the kernel of the first |Sigma| - 1 moment
        # rows [p_ell(b)], with mu0 keeping the degree, keep those moments;
        # the check, which recombines every exponent from the class tables
        # its parity rows pinned, still refuses them
        fsf = beta(g)
        basis = list(dict.fromkeys(f.b for f in fsf.factors))
        assert len(basis) == size
        sums = {b: power_sums_from_charpoly(b, size) for b in basis}
        shift = dict(zip(basis, _kernel_vector(
            [[sums[b][ell] for b in basis] for ell in range(1, size)]
        )))
        mu, shifted = _shifted(fsf, shift)
        moments = parity_closed_profile(g, 2 * (size - 1))
        for ell in range(1, size):
            assert 2 * sum(mu[b] * sums[b][ell] for b in basis) == moments[2 * ell]
        with pytest.raises(ConsistencyError, match="fails the recombination"):
            check_moment_identity(g, shifted)


class TestK2MomentCheck:
    """For beta the check reads P_{2 ell} by vertex deletion at k = 2, where
    r = 1 leaves only the components of g."""

    def test_vertex_deletion_is_the_parity_profile(self, desk_corpus):
        unions = [
            Graph(0, ()),
            Graph(3, ()),
            Graph(3, ((0, 1),)),
            Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3))),
            Graph(8, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3))),
        ]
        for g in desk_corpus + unions:
            groups = spectrum._spectra(g, 2)[0]
            expected = parity_closed_profile(g, 16)[2::2]
            assert grouped_deletion_moments(g, 2, 8, groups) == expected, g


def _recorded_lengths(monkeypatch):
    """The length L_C that the check reads for each class, as half the
    length of each `parity_closed_profile` call it makes."""
    lengths = []
    profile = spectrum.parity_closed_profile

    def recorded(h, max_d):
        lengths.append(max_d // 2)
        return profile(h, max_d)

    monkeypatch.setattr(spectrum, "parity_closed_profile", recorded)
    return lengths


def _kernel_shift(g, fsf, basis, rows):
    """fsf with the exponents of basis shifted along an integer kernel
    vector of the moment rows [p_ell(b)], ell = 1..rows, and the degree
    kept; the shifted exponents still give the exact moments S_{k ell} of
    those rows."""
    sums = {b: power_sums_from_charpoly(b, rows) for b in {f.b for f in fsf.factors}}
    kernel = _kernel_vector([[sums[b][ell] for b in basis] for ell in range(1, rows + 1)])
    scale = math.lcm(*(x.denominator for x in kernel))
    ints = [int(x * scale) for x in kernel]
    shift = dict.fromkeys(sums, 0)
    shift.update(zip(basis, (x // math.gcd(*ints) for x in ints)))
    mu, shifted = _shifted(fsf, shift)
    groups = spectrum._spectra(g, min(fsf.k, 4))[0]
    moments = grouped_deletion_moments(g, fsf.k, rows, groups)
    for ell in range(1, rows + 1):
        assert fsf.k * sum(m * sums[b][ell] for b, m in mu.items()) == moments[ell - 1]
    return mu, shifted


class TestShapes:
    """`_shapes` counts each subset's boundary once per class, and both
    weight routes read those counts."""

    @settings(max_examples=25)
    @given(small_graphs())
    def test_shapes_count_every_subset_and_give_its_weight(self, g):
        ks = range(2, 6)
        for h, subsets in connected_subgraph_classes(g, g.m) if g.m else ():
            shapes = spectrum._shapes(g, subsets)
            assert sum(c for _, c in shapes) == len(subsets), (g, h)
            brute = [_alternating_weights(g, s, ks) for s in subsets]
            for k in ks:
                weight = sum(c * covering_weight(h, *shape, k) for shape, c in shapes)
                assert weight == sum(w[k] for w in brute), (g, h, k)


class TestIntegerWeights:
    """Both routes build each class's weight as one integer over a per-call
    denominator; run on a `_spectra` that lists one class alone, each must
    give that class's Fraction weight exactly."""

    def test_each_class_against_the_fraction_weights(self, desk_corpus, monkeypatch):
        # k = 2 and 3 included, where 1 - s = 0
        spectra_of = spectrum._spectra
        for g in desk_corpus:
            for k in range(2, 7):
                groups, spectra, basis = spectra_of(g, min(k, 4))
                scale = Fraction((k - 1) ** (g.n + (k - 2) * g.m), k)
                for (h, shapes), (signings, sums, deg) in zip(groups, spectra):
                    one = (((h, shapes),), ((signings, sums, deg),), basis)
                    monkeypatch.setattr(spectrum, "_spectra", lambda *_, one=one: one)
                    # the exponents: D_k(C) times its boundary factors
                    w = sum(c * covering_weight(h, *shape, k) for shape, c in shapes)
                    mu = [scale / (k - 1) * w * e / signings for e in sums]
                    assert spectrum._exponents(g, k) == (basis, mu), (g, k, h)
                    # the check: W_C from r and s, recombined as k mu_b
                    w = deletion_weight(h, shapes, k)
                    mu = {b: scale * w * e / signings for b, e in zip(basis, sums) if e}
                    factors = [SpectralFactor(0.0, m, b) for b, m in mu.items()]
                    mu0 = spectrum._degree(g, k) - k * sum(
                        m * (len(b) - 1) for b, m in mu.items()
                    )
                    fsf = FactoredSpectralFunction(k, mu0, tuple(factors))
                    check_moment_identity(g, fsf)


class TestDeletionMoments:
    """The deletion sum grouped by component, which the check splits by
    class, against the brute-force sum over every vertex and edge set, and
    against the covering route of `script_S`."""

    def test_matches_the_sum_over_every_vertex_and_edge_set(self, desk_corpus):
        for g in desk_corpus:
            if g.n + g.m > 12:
                continue
            for k in range(2, 7):
                groups = spectrum._spectra(g, min(k, 4))[0]
                brute = deletion_moments(g, k, 5)
                assert grouped_deletion_moments(g, k, 5, groups) == brute, (g, k)

    @settings(max_examples=30)
    @given(small_graphs(), st.sampled_from([4, 5, 6]))
    def test_matches_the_covering_route(self, g, k):
        classes = connected_subgraph_classes(g, g.m) if g.m else ()
        groups = [(h, spectrum._shapes(g, subsets)) for h, subsets in classes]
        covering = [script_S(g, k * ell, k) for ell in range(1, 9)]
        assert grouped_deletion_moments(g, k, 8, groups) == covering


class TestK3MomentCheck:
    """At k=3 the check reads S_{3 ell} by vertex deletion, to the rank of
    the power-sum matrix of the basis of g's connected induced classes."""

    def test_vertex_deletion_matches_the_covering_route(self, desk_corpus):
        # the brute-force sum over all 2^n vertex sets, the covering walk
        # moments of `script_S` and the check's induced-class moments
        for g in desk_corpus:
            brute = deletion_moments(g, 3, 6)
            assert brute == [script_S(g, 3 * ell, 3) for ell in range(1, 7)], g
            induced = spectrum._spectra(g, 3)[0]
            assert brute == grouped_deletion_moments(g, 3, 6, induced), g

    @pytest.mark.parametrize("g", [complete_graph(5), PETERSEN])
    def test_vertex_deletion_matches_the_covering_route_to_8(self, g):
        brute = deletion_moments(g, 3, 8)
        assert brute == [script_S(g, 3 * ell, 3) for ell in range(1, 9)]
        induced = spectrum._spectra(g, 3)[0]
        assert brute == grouped_deletion_moments(g, 3, 8, induced)

    def test_check_runs_to_the_rank(self, monkeypatch):
        # each class runs to the rank of its own support's power-sum matrix:
        # at most 6, 10 and 8, where the joint basis needed 7, 14 and 18
        lengths = _recorded_lengths(monkeypatch)
        largest = []
        for g in (complete_graph(5), complete_graph(6), PETERSEN):
            lengths.clear()
            char_poly_power(g, 3)
            largest.append(max(lengths))
        assert largest == [6, 10, 8]

    def test_a_singular_basis_runs_to_the_total_degree(self, monkeypatch):
        # were each power-sum matrix singular mod p, every class would fall
        # back to its support's total degree D, where the Vandermonde
        # argument holds: at most 8, where the joint basis needed 9
        monkeypatch.setattr(spectrum, "mat_rank_mod_p", lambda mat: 0)
        lengths = _recorded_lengths(monkeypatch)
        char_poly_power(complete_graph(5), 3)
        _, spectra, basis = spectrum._spectra(complete_graph(5), 3)
        degrees = [
            sum(len(b) - 1 for b, e in zip(basis, sums) if e) for _, sums, _ in spectra
        ]
        assert lengths == degrees and max(degrees) == 8

    def test_check_pins_every_multiplicity(self):
        # multiplicities shifted along an integer kernel vector of the first
        # 8 moment rows [p_ell(b)] keep S_3, ..., S_24, all that a check
        # capped at ell <= 8 reads; the check, which pins each class table
        # and recombines the multiplicities from them, still refuses them
        fsf = char_poly_power(PETERSEN, 3)
        basis = list(dict.fromkeys(f.b for f in fsf.factors))
        assert len(basis) == 18
        _, shifted = _kernel_shift(PETERSEN, fsf, basis, 8)
        with pytest.raises(ConsistencyError, match="fails the recombination"):
            check_moment_identity(PETERSEN, shifted)


class TestK4MomentCheck:
    """At k >= 4 the check reads the same deletion moments, over every
    connected edge subset, to the rank of the census basis."""

    def test_check_runs_to_the_rank(self, monkeypatch):
        # at most 3 on K4 and 7 on K5, where the joint basis needed 9 and 35
        lengths = _recorded_lengths(monkeypatch)
        largest = []
        for g in (complete_graph(4), complete_graph(5)):
            lengths.clear()
            char_poly_power(g, 4)
            largest.append(max(lengths))
        assert largest == [3, 7]

    @pytest.mark.slow
    def test_check_runs_to_the_rank_on_petersen(self, monkeypatch):
        # 164 classes, none past 20, where the joint basis needed 179
        lengths = _recorded_lengths(monkeypatch)
        char_poly_power(PETERSEN, 4)
        assert (len(lengths), max(lengths)) == (164, 20)

    def test_check_pins_every_multiplicity(self):
        # 9 exponents of K5 at k=4 shifted along an integer kernel vector of
        # the first 8 moment rows stay nonnegative and keep S_4, ..., S_32,
        # all that a check capped at ell <= 8 reads; the check, which
        # recombines every exponent from the pinned class tables, refuses
        # them
        fsf = char_poly_power(complete_graph(5), 4)
        basis = list(dict.fromkeys(f.b for f in fsf.factors))
        assert len(basis) == 35
        mu, shifted = _kernel_shift(complete_graph(5), fsf, basis[24:33], 8)
        assert min(mu.values()) >= 0 and shifted.mu0 >= 0
        with pytest.raises(ConsistencyError, match="fails the recombination"):
            check_moment_identity(complete_graph(5), shifted)


def _corrupted(monkeypatch, g, regime, index, sums):
    """Patch `spectrum._spectra`, which the exponents and the check both
    read, so that class index of g in the regime has the exponent sums
    sums."""
    groups, spectra, basis = spectrum._spectra(g, regime)
    spectra = list(spectra)
    spectra[index] = (spectra[index][0], tuple(sums), spectra[index][2])
    honest = spectrum._spectra

    def patched(h, r):
        return (groups, tuple(spectra), basis) if (h, r) == (g, regime) else honest(h, r)

    monkeypatch.setattr(spectrum, "_spectra", patched)


class TestPerClassCheck:
    """Each class's table against its own parity profile, to the length L_C
    read from its own support, and the ell = 0 row of each class."""

    @settings(max_examples=40)
    @given(small_graphs(), st.sampled_from([2, 3, 4]))
    def test_every_class_holds_past_its_length(self, g, regime):
        groups, spectra, basis = spectrum._spectra(g, regime)
        for (h, _), (signings, sums, degree) in zip(groups, spectra):
            table = switching_class_polynomials_by_faddeev_leverrier(h)
            assert signings == sum(c for _, c in table), h
            exponent = {b: e for b, e in zip(basis, sums) if e}
            # ell = 0: deg_C counts the nonzero eigenvalues of the table
            zeros = [next(i for i, a in enumerate(phi) if a) for phi, _ in table]
            nonzero = [len(phi) - 1 - z for (phi, _), z in zip(table, zeros)]
            assert degree == sum(c * d for (_, c), d in zip(table, nonzero)), h
            assert sum(e * (len(b) - 1) for b, e in exponent.items()) == degree, h
            size = len(exponent)
            rank = rank_over_q([power_sums_from_charpoly(b, size)[1:] for b in exponent])
            length = size if rank == size else sum(len(b) - 1 for b in exponent)
            top = length + 3
            power = {b: power_sums_from_charpoly(b, top) for b in exponent}
            walks = parity_profile_all_starts(h, 2 * top)
            for ell in range(1, top + 1):
                expected = sum(e * power[b][ell] for b, e in exponent.items())
                assert signings * walks[2 * ell] == expected, (h, ell)

    @pytest.mark.slow
    def test_k6_at_k4_runs_each_class_to_its_own_rank(self, monkeypatch):
        # 142 classes, none past 29, where the joint basis needed 444
        lengths = _recorded_lengths(monkeypatch)
        char_poly_power(complete_graph(6), 4)
        assert (len(lengths), max(lengths)) == (142, 29)

    @pytest.mark.slow
    def test_k6_at_k4_unchanged(self):
        # the 71 730 characters of the joint check's result, by digest
        text = char_poly_power(complete_graph(6), 4).to_text()
        assert (len(text), hashlib.sha256(text.encode()).hexdigest()) == (
            71730,
            "0bad1c1ed72c7f7d00f6a4384d974b8086b66803015e027e950b267dc1ecdb4b",
        )

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("g", [complete_graph(4), complete_graph(5), cycle_graph(6)])
    def test_a_lost_entry_is_refused(self, monkeypatch, g, k):
        # one nonzero entry of one class's sums set to 0: the ell = 0 row of
        # that class sees the lost degree even where its other rows, pinned
        # on the shrunken support, would not
        spectra = spectrum._spectra(g, min(k, 4))[1]
        for index, (_, sums, _) in enumerate(spectra):
            lost = list(sums)
            lost[next(i for i, e in enumerate(sums) if e)] = 0
            with monkeypatch.context() as m:
                _corrupted(m, g, min(k, 4), index, lost)
                with pytest.raises(ConsistencyError):
                    char_poly_power(g, k)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("g", [complete_graph(4), complete_graph(5), cycle_graph(6)])
    def test_an_entry_moved_off_the_support_is_refused(self, monkeypatch, g, k):
        spectra = spectrum._spectra(g, min(k, 4))[1]
        moved = 0
        for index, (_, sums, _) in enumerate(spectra):
            outside = [i for i, e in enumerate(sums) if not e]
            if not outside:
                continue
            shifted = list(sums)
            at = next(i for i, e in enumerate(sums) if e)
            shifted[at], shifted[outside[0]] = 0, sums[at]
            with monkeypatch.context() as m:
                _corrupted(m, g, min(k, 4), index, shifted)
                with pytest.raises(ConsistencyError):
                    char_poly_power(g, k)
            moved += 1
        assert moved

    def test_an_entry_moved_off_the_support_is_refused_at_ell_1(self, monkeypatch):
        # K5's own class at k = 3: the moved entry changes its first
        # parity row
        g = complete_graph(5)
        groups, spectra, _ = spectrum._spectra(g, 3)
        index = next(i for i, (h, _) in enumerate(groups) if h.m == 10)
        sums = list(spectra[index][1])
        at, outside = sums.index(next(filter(None, sums))), sums.index(0)
        sums[at], sums[outside] = 0, sums[at]
        fsf = char_poly_power(g, 3)
        _corrupted(monkeypatch, g, 3, index, sums)
        with pytest.raises(ConsistencyError, match="ell=1:"):
            check_moment_identity(g, fsf)


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


class TestK4Properties:
    """char_poly_power at k=4, which reads the full census of connected edge
    subsets, on random graphs with at most 6 vertices and 8 edges."""

    @settings(max_examples=40)
    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_relabelling_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert char_poly_power(g.relabel(perm), 4).to_text() == (
            char_poly_power(g, 4).to_text()
        )

    @settings(max_examples=40)
    @given(disjoint_pairs())
    def test_disjoint_unions_obey_the_product_rule(self, pair):
        _assert_product_rule(*pair, 4)


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
        monkeypatch.setattr(graphs, "_connected_sets", refused)
        spectrum._spectra.cache_clear()
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
    @given(census_graphs())
    def test_k2_weight_is_one_on_components_only(self, g):
        # w_2(C) is 1 when C is a component's edge set and 0 on every other
        # connected edge subset, which is why the k = 2 regime lists the
        # components alone
        components = {
            frozenset(i for i, (u, _) in enumerate(g.edges) if u in vs)
            for vs in map(set, g.components())
            if len(vs) > 1
        }
        for subset in connected_edge_subsets(g, g.m) if g.m else ():
            expected = 1 if subset in components else 0
            assert _weight_of(g, subset, 2) == expected, subset
        # the k = 2 groups are the induced components, each of the one shape
        # that `_shapes` gives a whole component: no further edge, no join
        whole = (((0, ()), 1),)
        groups = spectrum._spectra(g, 2)[0]
        induced = [g.induced(vs) for vs in g.components() if len(vs) > 1]
        assert [h for h, _ in groups] == induced
        assert all(shapes == whole for _, shapes in groups)
        assert all(spectrum._shapes(g, [s]) == whole for s in components)

    @given(small_graphs())
    def test_geometric_mean_identity(self, g):
        # the signing table of the whole graph, not its components; at x > 0
        # the product is positive even for an edgeless g of odd order
        fsf = beta(g)
        for x in (Fraction(5, 2), Fraction(3, 4), Fraction(7, 3)):
            expected = math.prod(
                v**c for v, c in signed_char_poly_values(g, x)
            )
            assert fsf.abs_power(x, 2**g.m) == expected

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_relabelling_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert beta(g.relabel(perm)).to_text() == beta(g).to_text()

    @settings(max_examples=50)
    @given(disjoint_pairs())
    def test_disjoint_unions_obey_the_product_rule(self, pair):
        _assert_product_rule(*pair, 2)


def _abs_power_or_refusal(evaluate, fsf, x, n):
    try:
        return evaluate(fsf, x, n)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _count_refusals(fsf, g, points):
    """Assert that abs_power, by integer Horner over a power of q, equals
    the Fraction route of `oracles.abs_power` at every point for n = 1, 2
    and 2^|E|, or that both raise the same ValueError; return how many
    raised."""
    refused = 0
    for n in (1, 2, 2**g.m):
        for x in points:
            value = _abs_power_or_refusal(FactoredSpectralFunction.abs_power, fsf, x, n)
            assert value == _abs_power_or_refusal(abs_power, fsf, x, n), (g, fsf.k, x, n)
            refused += isinstance(value, str)
    return refused


class TestAbsPower:
    """The integer route of abs_power against the Fraction one, for beta and
    k = 3, at the sample points, at 0 and at random doubles.  The k = 3
    exponents grow as 2^(|V| + |E|), so k = 3 runs where the 3-power has at
    most 7 vertices."""

    POINTS = verify.SAMPLE_POINTS + (0.0, -1.3078925170793915, 3.6152868811451626)

    def test_beta_on_the_desk_corpus(self, desk_corpus):
        refused = sum(_count_refusals(beta(g), g, self.POINTS) for g in desk_corpus)
        # every cycle has fractional exponents, refused at n = 1
        assert refused > 0

    def test_k3_on_the_desk_corpus(self, desk_corpus):
        for g in desk_corpus:
            if g.n + g.m <= 7:
                assert _count_refusals(char_poly_power(g, 3), g, self.POINTS) == 0

    @settings(max_examples=40)
    @given(small_graphs(max_m=5), st.randoms(use_true_random=False))
    def test_random_graphs_and_points(self, g, rng):
        points = verify.SAMPLE_POINTS + (0.0, rng.uniform(-4, 4))
        _count_refusals(beta(g), g, points)
        if g.n + g.m <= 7:
            _count_refusals(char_poly_power(g, 3), g, points)

    def test_negative_exponents_divide(self):
        # not a pipeline result, but abs_power still evaluates it, and 0 to
        # a negative power still divides by zero
        fsf = FactoredSpectralFunction(2, -1, (SpectralFactor(4.0, Fraction(-1, 2), (-4, 1)),))
        assert _count_refusals(fsf, K2, (3.0, -2.5, 0.3)) == 3
        assert fsf.abs_power(3.0, 2) == Fraction(1, 9 * 5)
        with pytest.raises(ZeroDivisionError):
            fsf.abs_power(0.0, 2)
        with pytest.raises(ZeroDivisionError):
            abs_power(fsf, 0.0, 2)


class TestConvergence:
    def test_within_five_percent_at_30(self):
        for g in (K2, P3, C3):
            ratio = convergence_ratio(g, 3, 30)
            target = radius_total_multiplicity(g, 3)
            assert abs(ratio - target) <= 0.05 * target

    def test_edgeless_graph_is_refused(self):
        # rho = 0, so the ratio would divide by zero
        with pytest.raises(ValueError, match="defined for graphs with an edge"):
            convergence_ratio(Graph(1, ()), 3, 5)

    def test_k2_is_exact(self):
        assert convergence_ratio(K2, 3, 10) == pytest.approx(9.0, rel=1e-9)

    def test_eventually_nonincreasing(self):
        ratios = [convergence_ratio(C3, 3, ell) for ell in range(3, 20)]
        for a, b in zip(ratios, ratios[1:]):
            assert b <= a + 1e-9 * max(1.0, abs(a))
