import itertools
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra import digraphs
from hyperspectra.digraphs import (
    Multidigraph,
    arborescence_count,
    covering_parity_via_best,
    eulerian_structures_on,
    eulerian_walk_count,
    eulerian_walks_by_backtracking,
    lift_core_map,
    lift_from_core,
    moment_coefficient,
    naive_tensor_trace,
    power_moment_prefactor,
    reduce_to_core,
    script_S,
    spanning_tree_reduction_check,
)
from hyperspectra.graphs import (
    Graph,
    all_connected_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    power_hypergraph,
)
from hyperspectra.walks import covering_parity_profile
from oracles import eulerian_structures_unfiltered, is_connected_on_support_dfs
from test_signed import small_graphs

TWO_CYCLE = Multidigraph(2, (((0, 1), 1), ((1, 0), 1)))
TRIANGLE = Multidigraph(3, (((0, 1), 1), ((1, 2), 1), ((2, 0), 1)))
DOUBLED = Multidigraph(2, (((0, 1), 2), ((1, 0), 2)))


@st.composite
def arc_sets(draw):
    """Multidigraphs whose arcs run along the edges of a `small_graphs`
    graph, each edge one way, the other way or both, with multiplicities 1-3:
    empty arc sets and isolated vertices included."""
    g = draw(small_graphs())
    arcs = []
    for u, v in g.edges:
        for arc in draw(st.sampled_from((((u, v),), ((v, u),), ((u, v), (v, u))))):
            arcs.append((arc, draw(st.integers(1, 3))))
    return Multidigraph(g.n, tuple(arcs))


def brute_in_trees(d, root):
    """Count spanning in-trees by enumerating arc choices: every non-root
    vertex picks one of its outgoing arcs (with multiplicity), and the
    choices must flow into the root without cycles."""
    out_options = {v: [] for v in range(d.n)}
    for (u, v), m in d.arcs:
        out_options[u].extend([v] * m)
    non_roots = [v for v in range(d.n) if v != root]
    count = 0
    for choice in itertools.product(*(out_options[v] for v in non_roots)):
        succ = dict(zip(non_roots, choice))
        ok = True
        for v in non_roots:
            seen = set()
            x = v
            while x != root:
                if x in seen:
                    ok = False
                    break
                seen.add(x)
                x = succ[x]
            if not ok:
                break
        count += ok
    return count


class TestArborescences:
    def test_two_cycle(self):
        assert arborescence_count(TWO_CYCLE, 0) == 1

    def test_triangle(self):
        assert arborescence_count(TRIANGLE, 0) == 1

    def test_doubled_two_cycle(self):
        assert arborescence_count(DOUBLED, 0) == 2
        assert brute_in_trees(DOUBLED, 0) == 2

    def test_against_brute_enumeration(self):
        cases = [TWO_CYCLE, TRIANGLE, DOUBLED]
        cases += eulerian_structures_on(cycle_graph(3), 3)[:4]
        cases += eulerian_structures_on(path_graph(3), 3)[:4]
        for d in cases:
            for root in range(d.n):
                assert arborescence_count(d, root) == brute_in_trees(d, root)

    def test_no_in_tree(self):
        sink_only = Multidigraph(3, (((0, 1), 1), ((0, 2), 1)))
        assert arborescence_count(sink_only, 1) == 0


class TestEulerianWalks:
    def test_two_cycle(self):
        assert eulerian_walk_count(TWO_CYCLE) == 2
        assert eulerian_walks_by_backtracking(TWO_CYCLE) == 2

    def test_triangle(self):
        assert eulerian_walk_count(TRIANGLE) == 3
        assert eulerian_walks_by_backtracking(TRIANGLE) == 3

    def test_doubled(self):
        assert eulerian_walk_count(DOUBLED) == 2
        assert eulerian_walks_by_backtracking(DOUBLED) == 2

    def test_formula_matches_brute_on_motif_structures(self):
        for motif in (path_graph(2), path_graph(3), cycle_graph(3), path_graph(4)):
            for ell in range(motif.m, motif.m + 3):
                for d in eulerian_structures_on(motif, ell):
                    if d.arc_count <= 10:
                        brute = eulerian_walks_by_backtracking(d)
                        assert eulerian_walk_count(d) == brute, d.arcs

    def test_non_eulerian_rejected(self):
        lopsided = Multidigraph(2, (((0, 1), 2), ((1, 0), 1)))
        with pytest.raises(ValueError):
            eulerian_walk_count(lopsided)

    def test_brute_arc_budget(self):
        from hyperspectra.errors import BudgetError

        heavy = Multidigraph(2, (((0, 1), 7), ((1, 0), 7)))
        with pytest.raises(BudgetError):
            eulerian_walks_by_backtracking(heavy)

    def test_trace_term_budget(self):
        from hyperspectra.errors import BudgetError

        h = power_hypergraph(complete_graph(4), 3)
        with pytest.raises(BudgetError):
            naive_tensor_trace(h, 9, term_budget=1000)

    def test_root_independence_on_eulerian(self):
        for d in eulerian_structures_on(cycle_graph(3), 3):
            counts = {arborescence_count(d, r) for r in range(d.n)}
            assert len(counts) == 1


class TestLiftReduce:
    def test_core_layout_follows_every_base_vertex(self):
        # vertex 1 carries no arc but still comes before the cores
        dstar = Multidigraph(4, (((3, 2), 1), ((0, 2), 1), ((2, 0), 1)))
        assert lift_core_map(dstar, 3) == ((0, 2, (4,)), (2, 3, (5,)))
        assert lift_core_map(dstar, 4) == ((0, 2, (4, 5)), (2, 3, (6, 7)))

    def test_k2_symmetric_lift(self):
        lifted = lift_from_core(TWO_CYCLE, 3)
        expected = {
            (0, 1): 1,
            (0, 2): 1,
            (1, 0): 1,
            (1, 2): 1,
            (2, 0): 1,
            (2, 1): 1,
        }
        assert lifted.multiplicity_map() == expected
        assert lifted.arc_count == 6  # d(k-1) with d = 3
        assert lifted.is_eulerian()

    def test_skewed_lift_balances_cores(self):
        skew = Multidigraph(2, (((0, 1), 2),))
        lifted = lift_from_core(skew, 3)
        assert lifted.multiplicity_map() == {
            (0, 1): 2,
            (0, 2): 2,
            (2, 0): 1,
            (2, 1): 1,
        }
        assert lifted.out_degree(2) == lifted.in_degree(2)

    def test_odd_total_rejected(self):
        odd = Multidigraph(2, (((0, 1), 1),))
        with pytest.raises(ValueError, match="odd"):
            lift_from_core(odd, 3)

    def test_round_trip(self):
        for k in (3, 4, 5):
            for dstar in [TWO_CYCLE, DOUBLED] + eulerian_structures_on(
                cycle_graph(3), 3
            ):
                lifted = lift_from_core(dstar, k)
                core_map = lift_core_map(dstar, k)
                assert reduce_to_core(lifted, core_map) == dstar

    def test_reduced_size_relation(self):
        # |E(D*)| = 2d/k where d(k-1) = |E(D)|
        for k in (3, 4, 5):
            for dstar in eulerian_structures_on(cycle_graph(3), 3):
                lifted = lift_from_core(dstar, k)
                d = lifted.arc_count // (k - 1)
                assert lifted.arc_count == d * (k - 1)
                assert dstar.arc_count == 2 * d // k

    def test_relation_violation_rejected(self):
        lifted = lift_from_core(TWO_CYCLE, 4)
        core_map = lift_core_map(TWO_CYCLE, 4)
        broken = dict(lifted.multiplicity_map())
        broken[(2, 0)] += 1  # core out-arcs no longer uniform
        with pytest.raises(ValueError):
            reduce_to_core(Multidigraph(lifted.n, tuple(broken.items())), core_map)

    def test_core_arc_escaping_hyperedge_rejected(self):
        two_path = Multidigraph(3, (((0, 1), 1), ((1, 0), 1), ((1, 2), 1), ((2, 1), 1)))
        lifted = lift_from_core(two_path, 3)
        core_map = lift_core_map(two_path, 3)
        leaky = dict(lifted.multiplicity_map())
        cores = [c for _, _, cs in core_map for c in cs]
        leaky[(cores[0], cores[1])] = 1  # arc between cores of different edges
        with pytest.raises(ValueError, match="hyperedge"):
            reduce_to_core(Multidigraph(lifted.n, tuple(leaky.items())), core_map)

    def test_uncovered_base_arc_rejected(self):
        lifted = lift_from_core(TWO_CYCLE, 3)
        core_map = lift_core_map(TWO_CYCLE, 3)
        arcs = dict(lifted.multiplicity_map())
        arcs[(0, 3)] = 1
        arcs[(3, 0)] = 1
        with pytest.raises(ValueError):
            reduce_to_core(Multidigraph(4, tuple(arcs.items())), core_map)

    def test_lifted_eulerian_iff_core_eulerian(self):
        assert lift_from_core(TWO_CYCLE, 3).is_eulerian()
        skew = Multidigraph(2, (((0, 1), 2),))
        assert not lift_from_core(skew, 3).is_eulerian()

    def test_json_round_trip(self):
        for d in (TWO_CYCLE, TRIANGLE, DOUBLED, lift_from_core(TWO_CYCLE, 4)):
            assert Multidigraph.from_json_obj(d.to_json_obj()) == d


class TestMultidigraphValidation:
    def test_self_arc_rejected(self):
        with pytest.raises(ValueError):
            Multidigraph(2, (((0, 0), 1),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Multidigraph(2, (((0, 2), 1),))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            Multidigraph(2, (((0, 1), 0),))

    def test_duplicate_arc_entries_merge(self):
        d = Multidigraph(2, (((0, 1), 1), ((0, 1), 2), ((1, 0), 3)))
        assert d.multiplicity(0, 1) == 3
        assert d.arc_count == 6

    def test_degree_bookkeeping(self):
        d = Multidigraph(3, (((0, 1), 2), ((1, 2), 1), ((2, 0), 1)))
        assert d.out_degree(0) == 2 and d.in_degree(0) == 1
        assert d.support_edges() == [(0, 1), (0, 2), (1, 2)]
        assert not d.is_eulerian()

    @given(arc_sets())
    def test_support_connectivity_matches_depth_first_search(self, d):
        assert d.is_connected_on_support() == is_connected_on_support_dfs(d)

    def test_support_connectivity_ignores_isolated_vertices(self):
        assert not Multidigraph(3, ()).is_connected_on_support()
        assert not Multidigraph(0, ()).is_connected_on_support()
        assert Multidigraph(5, (((3, 1), 1),)).is_connected_on_support()
        apart = Multidigraph(5, (((0, 1), 1), ((3, 4), 1)))
        assert not apart.is_connected_on_support()


class TestTreeReduction:
    def test_k2_k3(self):
        report = spanning_tree_reduction_check(TWO_CYCLE, 3)
        assert report.ok and report.t_direct == 3

    def test_k2_k4(self):
        report = spanning_tree_reduction_check(TWO_CYCLE, 4)
        assert report.ok and report.t_direct == 16

    def test_doubled_k3(self):
        report = spanning_tree_reduction_check(DOUBLED, 3)
        assert report.ok and report.t_direct == 12

    def test_identity_on_generated_lifts(self):
        motifs = [path_graph(2), path_graph(3), cycle_graph(3)]
        for motif in motifs:
            for ell in range(motif.m, motif.m + 2):
                for dstar in eulerian_structures_on(motif, ell):
                    for k in (3, 4, 5):
                        assert spanning_tree_reduction_check(dstar, k).ok


class TestNaiveTrace:
    def test_k2_cubed_series(self):
        h = power_hypergraph(path_graph(2), 3)
        values = [naive_tensor_trace(h, d) for d in range(1, 7)]
        assert values == [0, 0, 9, 0, 0, 9]

    def test_zero_when_k_does_not_divide(self):
        h = power_hypergraph(path_graph(3), 3)
        for d in (1, 2, 4, 5):
            assert naive_tensor_trace(h, d) == 0

    def test_matches_closed_form_on_path3(self):
        h = power_hypergraph(path_graph(3), 3)
        for d in (3, 6):
            assert naive_tensor_trace(h, d) == script_S(path_graph(3), d, 3)

    def test_matches_closed_form_on_cyclic_motifs(self):
        # closure beyond trees: the triangle and the paw
        paw = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
        for g in (cycle_graph(3), paw):
            h = power_hypergraph(g, 3)
            for d in (3, 6):
                assert naive_tensor_trace(h, d) == script_S(g, d, 3), (g, d)

    def test_matches_closed_form_on_disjoint_union(self):
        g = Graph(4, ((0, 1), (2, 3)))
        h = power_hypergraph(g, 3)
        for d in (3, 6):
            assert naive_tensor_trace(h, d) == script_S(g, d, 3), d

    def test_order_zero_is_eigenvalue_count(self):
        # 0th moment = characteristic polynomial degree = n (k-1)^(n-1)
        h = power_hypergraph(path_graph(2), 3)
        assert naive_tensor_trace(h, 0) == 3 * 2**2
        assert naive_tensor_trace(h, 0) == script_S(path_graph(2), 0, 3)


class TestBalanceFilter:
    """Arc sets whose in- and out-degrees differ somewhere are dropped
    before a Multidigraph is built for them."""

    # every graph of at most 3 edges without isolated vertices: the five
    # connected ones, and two disjoint edges, which has no Eulerian structure
    MOTIFS = [g for n in (2, 3, 4) for g in all_connected_graphs(n) if g.m <= 3]
    MOTIFS.append(Graph(4, ((0, 1), (2, 3))))

    def test_structures_as_without_the_filter(self):
        assert len(self.MOTIFS) == 6
        for motif in self.MOTIFS:
            for ell in range(motif.m, motif.m + 3):
                expected = eulerian_structures_unfiltered(motif, ell)
                assert eulerian_structures_on(motif, ell) == expected, (motif, ell)

    def test_trace_builds_one_digraph_per_balanced_multiset(self, monkeypatch):
        # with the walk count stubbed, every Multidigraph built in the call
        # is one the trace built; P3's 3-power has 6 (root, hyperedge) pairs,
        # so 462 multisets of 6 of them, and 3 are balanced
        built = []

        class Counted(Multidigraph):
            def __init__(self, n, arcs):
                super().__init__(n, arcs)
                built.append(self)

        h = power_hypergraph(path_graph(3), 3)
        pairs = [(r, edge) for edge in h.hyperedges for r in edge]
        balanced = 0
        for combo in itertools.combinations_with_replacement(pairs, 6):
            net = [0] * h.n
            for r, edge in combo:
                for u in edge:
                    if u != r:
                        net[r] += 1
                        net[u] -= 1
            balanced += not any(net)
        monkeypatch.setattr(digraphs, "Multidigraph", Counted)
        monkeypatch.setattr(digraphs, "eulerian_walk_count", lambda d: 1)
        naive_tensor_trace(h, 6)
        assert len(built) == balanced == 3
        assert all(d.is_balanced() for d in built)


class TestTraceTerms:
    def test_literal_terms_sum_to_trace(self):
        # the unoptimized per-ordering enumeration agrees with the collapsed
        # count-vector enumeration
        from hyperspectra.digraphs import trace_terms

        for g, dims in ((path_graph(2), (3,)), (path_graph(3), (3,)), (cycle_graph(3), (3,))):
            h = power_hypergraph(g, 3)
            for d in dims:
                total = (3 - 1) ** (h.n - 1) * sum(
                    (t.weight for t in trace_terms(h, d)), Fraction(0)
                )
                assert total == naive_tensor_trace(h, d), (g, d)

    def test_roots_non_decreasing(self):
        from hyperspectra.digraphs import trace_terms

        h = power_hypergraph(path_graph(2), 3)
        terms = list(trace_terms(h, 3))
        assert terms
        for term in terms:
            roots = [root for root, _ in term.rooted_hyperedges]
            assert roots == sorted(roots)

    def test_k2_term_count(self):
        # d=3 on a single hyperedge: roots must be (0,1,2), each with two
        # orderings of the remainder, giving 8 nonzero terms of weight 9/32
        from hyperspectra.digraphs import trace_terms

        h = power_hypergraph(path_graph(2), 3)
        terms = list(trace_terms(h, 3))
        assert len(terms) == 8
        assert all(t.weight == Fraction(9, 32) for t in terms)
        assert 2**2 * sum(t.weight for t in terms) == 9

    def test_budget(self):
        from hyperspectra.errors import BudgetError
        from hyperspectra.digraphs import trace_terms

        h = power_hypergraph(complete_graph(4), 3)
        with pytest.raises(BudgetError):
            list(trace_terms(h, 9, term_budget=100))


class TestFullPolynomialClosure:
    def test_trace_moments_reconstruct_k2_char_poly(self):
        # the first 12 trace moments of the 3-power of a single edge pin its
        # entire degree-12 characteristic polynomial; reconstructing through
        # the inverse Newton recurrence must reproduce the expansion of the
        # factored pipeline output x^3 (x^3 - 1)^3
        from hyperspectra.algebra import poly_mul, poly_pow
        from oracles import charpoly_from_power_sums
        from hyperspectra.spectrum import char_poly_power

        h = power_hypergraph(path_graph(2), 3)
        degree = 3 * 2**2
        sums = [Fraction(degree)] + [
            naive_tensor_trace(h, d) for d in range(1, degree + 1)
        ]
        reconstructed = charpoly_from_power_sums(sums, degree)

        fsf = char_poly_power(path_graph(2), 3)
        expanded = poly_pow([0] * fsf.k + [1], 0)
        expanded = poly_mul(expanded, [0] * fsf.mu0 + [1])
        for factor in fsf.factors:
            base = [-int(round(factor.sigma_sq))] + [0] * (fsf.k - 1) + [1]
            expanded = poly_mul(expanded, poly_pow(base, factor.mu))

        assert reconstructed == [Fraction(c) for c in expanded]
        assert expanded == [0, 0, 0, -1, 0, 0, 3, 0, 0, -3, 0, 0, 1]


class TestCoveringViaBest:
    def test_k2(self):
        assert covering_parity_via_best(path_graph(2), 1) == 2

    def test_path3(self):
        assert covering_parity_via_best(path_graph(3), 2) == 4

    def test_cycle3_too_short(self):
        assert covering_parity_via_best(cycle_graph(3), 2) == 0

    def test_matches_dp(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or g.m > 4 or not g.is_connected():
                continue
            for ell in range(1, 5):
                assert (
                    covering_parity_via_best(g, ell)
                    == covering_parity_profile(g, 2 * ell)[2 * ell]
                ), (g, ell)

    def test_structure_budget_names_the_count(self):
        # C6 at ell = 30: C(29, 5) * 11^6 structures at most
        from hyperspectra.errors import BudgetError

        with pytest.raises(BudgetError) as err:
            covering_parity_via_best(cycle_graph(6), 30)
        assert str(err.value) == (
            "digraph structure enumeration needs up to 210381726555 "
            "structures, budget is 200000"
        )


class TestMomentCoefficient:
    def test_k2(self):
        assert moment_coefficient(path_graph(2), 1, 3) == Fraction(9, 4)

    def test_path3(self):
        assert moment_coefficient(path_graph(3), 2, 3) == Fraction(27, 8)

    def test_k2_at_k4(self):
        assert moment_coefficient(path_graph(2), 1, 4) == Fraction(64, 27)

    def test_tree_form_agrees(self, small_corpus):
        # on trees the coefficient also equals
        # k^(E(k-2)+1) / (2 (k-1)^(V+E(k-2)-1)) * c_{2l} with c = p
        for g in small_corpus:
            if not g.is_tree() or g.m == 0:
                continue
            for k in (3, 4):
                for ell in range(1, 4):
                    p = covering_parity_profile(g, 2 * ell)[2 * ell]
                    tree_form = (
                        Fraction(k ** (g.m * (k - 2) + 1))
                        / (2 * Fraction(k - 1) ** (g.n + g.m * (k - 2) - 1))
                        * p
                    )
                    assert moment_coefficient(g, ell, k) == tree_form

    def test_k_must_be_at_least_three(self):
        with pytest.raises(ValueError):
            moment_coefficient(path_graph(2), 1, 2)

    def test_prefactor_at_k2_is_identity(self, small_corpus):
        for g in small_corpus:
            if g.m:
                assert power_moment_prefactor(g.n, g.m, 2) == 1
