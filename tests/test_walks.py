import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra.errors import BudgetError
from hyperspectra.graphs import (
    Graph,
    complete_graph,
    connected_subgraph_classes,
    cycle_graph,
    parse_graph,
    path_graph,
)
from hyperspectra.means import mean_signed_moments
from hyperspectra.walks import (
    closed_walk_profile,
    covering_parity_profile,
    parity_closed_profile,
)
from oracles import covering_parity_profile_by_subsets, parity_profile_all_starts
from test_signed import small_graphs

K2 = path_graph(2)
P3 = path_graph(3)
C3 = cycle_graph(3)


class TestParityClosed:
    def test_length_two_is_twice_edges(self, small_corpus):
        for g in small_corpus:
            assert parity_closed_profile(g, 2)[2] == 2 * g.m

    def test_cycle3_odd_is_zero(self):
        assert parity_closed_profile(C3, 3)[3] == 0

    def test_cycle3_length4(self):
        assert parity_closed_profile(C3, 4)[4] == 18
        assert mean_signed_moments(C3, 4)[4] == 18

    def test_path3_length4(self):
        assert parity_closed_profile(P3, 4)[4] == 8

    def test_methods_agree(self, small_corpus):
        for g in small_corpus:
            assert parity_closed_profile(g, 8) == mean_signed_moments(g, 8)

    def test_odd_lengths_vanish(self, small_corpus):
        for g in small_corpus:
            profile = parity_closed_profile(g, 9)
            assert all(profile[d] == 0 for d in range(1, 10, 2))

    def test_trees_parity_equals_closed(self, small_corpus):
        for g in small_corpus:
            if not g.is_forest():
                continue
            assert parity_closed_profile(g, 8) == closed_walk_profile(g, 8)

    def test_length_zero(self):
        assert parity_closed_profile(C3, 0)[0] == 3

    def test_dp_budget(self):
        wide = Graph(26, tuple((0, i) for i in range(1, 26)))
        with pytest.raises(BudgetError):
            parity_closed_profile(wide, 2)

    def test_signed_mean_budget(self):
        wide = Graph(22, tuple((0, i) for i in range(1, 22)))
        with pytest.raises(BudgetError, match="supports at most 20 edges, got 21"):
            mean_signed_moments(wide, 2)


def test_negative_length_is_refused_by_every_profile():
    for profile in (closed_walk_profile, parity_closed_profile, covering_parity_profile):
        with pytest.raises(ValueError, match="^walk length must be non-negative$"):
            profile(C3, -1)


class TestClosedWalks:
    def test_k2(self):
        assert closed_walk_profile(K2, 4)[4] == 2

    def test_cycle3(self):
        # eigenvalues 2, -1, -1
        assert closed_walk_profile(C3, 4)[4] == 18

    def test_path3(self):
        # eigenvalues +-sqrt(2), 0
        assert closed_walk_profile(P3, 4)[4] == 8


class TestCovering:
    def test_k2_back_and_forth(self):
        assert covering_parity_profile(K2, 2)[2] == 2

    def test_path3_length4(self):
        assert covering_parity_profile(P3, 4)[4] == 4

    def test_cycle3_too_short(self):
        assert covering_parity_profile(C3, 4)[4] == 0

    def test_zero_below_twice_edges(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or not g.is_connected():
                continue
            for d in range(0, 2 * g.m):
                assert covering_parity_profile(g, d)[d] == 0

    def test_matches_inclusion_exclusion(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or g.m > 4 or not g.is_connected():
                continue
            for d in range(0, 9):
                assert (
                    covering_parity_profile(g, d)[d]
                    == covering_parity_profile_by_subsets(g, d)[d]
                )

    def test_edgeless_motif_at_length_zero(self):
        # the length-0 walk covers the empty edge set of a single vertex
        point = Graph(1, ())
        assert covering_parity_profile(point, 3) == [
            covering_parity_profile_by_subsets(point, d)[d] for d in range(4)
        ] == [1, 0, 0, 0]

    def test_disconnected_rejected(self):
        disconnected = Graph(4, ((0, 1), (2, 3)))
        with pytest.raises(ValueError):
            covering_parity_profile(disconnected, 4)


@st.composite
def connected_graphs(draw, max_n=6, max_m=7):
    """Connected graphs on 1..max_n vertices with at most max_m edges: a
    random spanning tree plus random further edges, randomly labelled."""
    n = draw(st.integers(1, max_n))
    tree = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [e for e in itertools.combinations(range(n), 2) if e not in tree]
    extra = draw(
        st.lists(st.sampled_from(rest), unique=True, max_size=max_m - len(tree))
        if rest
        else st.just([])
    )
    perm = draw(st.permutations(range(n)))
    edges = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in (*tree, *extra)))
    return Graph(n, edges)


@st.composite
def graphs_with_components(draw):
    """Disjoint unions of up to three connected graphs on at most 3 vertices
    and up to two isolated vertices, randomly labelled."""
    n, edges = 0, []
    for piece in draw(st.lists(connected_graphs(max_n=3, max_m=3), max_size=3)):
        edges.extend((u + n, v + n) for u, v in piece.edges)
        n += piece.n
    n += draw(st.integers(0, 2))
    perm = draw(st.permutations(range(n)))
    return Graph(n, tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)))


class TestWalkDPProperties:
    @given(connected_graphs(max_m=8))
    def test_covering_matches_inclusion_exclusion(self, g):
        # the DP runs from one start per orbit, the oracle from every start;
        # the pruning cuts hardest near 2m; the slack max_d - 2m keeps its
        # parity, so 2m + 2 is the first D where a state can have slack 2
        top = 2 * g.m + 3
        expected = covering_parity_profile_by_subsets(g, top)
        for D in (2 * g.m - 1, 2 * g.m, 2 * g.m + 1, 2 * g.m + 2, top):
            if D >= 0:
                assert covering_parity_profile(g, D) == expected[: D + 1], (g, D)

    @given(connected_graphs(), st.integers(0, 3))
    def test_covering_profile_is_a_prefix(self, g, extra):
        D = 2 * g.m - 1 + extra
        if D >= 0:
            longer = covering_parity_profile(g, D + 3)
            assert covering_parity_profile(g, D) == longer[: D + 1]

    @given(small_graphs())
    def test_parity_orbit_starts_match_every_start(self, g):
        D = 2 * g.m + 2
        assert parity_closed_profile(g, D) == parity_profile_all_starts(g, D), g

    @given(graphs_with_components())
    def test_parity_methods_agree(self, g):
        for D in (0, 1, 2 * g.m, 2 * g.m + 1):
            assert parity_closed_profile(g, D) == mean_signed_moments(g, D), (g, D)


class TestDecomposition:
    def test_parity_decomposes_over_motifs(self, small_corpus):
        # parity-closed walks split by covered support: P_d equals the sum of
        # covering counts weighted by motif occurrence numbers
        for g in small_corpus:
            profile = parity_closed_profile(g, 10)
            for d in range(2, 11, 2):
                total = 0
                if g.m:
                    census = connected_subgraph_classes(g, min(d // 2, g.m))
                    for h, subsets in census:
                        total += covering_parity_profile(h, d)[d] * len(subsets)
                assert total == profile[d], (g, d)

    def test_cycle3_length6_value(self):
        # every closed 6-walk in a triangle is parity-closed
        assert parity_closed_profile(C3, 6)[6] == closed_walk_profile(C3, 6)[6] == 66

    def test_profile_matches_per_length_counts(self):
        profile = parity_closed_profile(complete_graph(4), 6)
        for d in (0, 2, 4, 6):
            assert profile[d] == parity_closed_profile(complete_graph(4), d)[d]


def test_inline_parse_roundtrip():
    g = parse_graph("4 2\n0 1\n2 3")
    assert parity_closed_profile(g, 2)[2] == 4
