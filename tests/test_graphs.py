import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspectra import cli, graphs
from hyperspectra.digraphs import script_S
from hyperspectra.errors import BudgetError, GraphParseError
from hyperspectra.graphs import (
    Graph,
    _classes,
    _connected_sets,
    _encode_upper_triangle,
    _neighbour_masks,
    all_connected_graphs,
    canonical_certificate,
    canonical_form,
    complete_graph,
    connected_induced_subgraph_classes,
    connected_subgraph_classes,
    cycle_graph,
    parse_graph,
    path_graph,
    power_hypergraph,
    star_graph,
    vertex_orbits,
)
from oracles import (
    are_isomorphic,
    automorphism_orbits,
    components_bfs,
    connected_edge_subsets,
    connected_edge_subsets_brute,
    connected_vertex_sets_brute,
    grouped_by_class_per_subset,
)


class TestParse:
    def test_builtin_cycle(self):
        g = parse_graph("cycle:3")
        assert g.n == 3
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    def test_single_edge(self):
        g = parse_graph("2 1\n0 1")
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_loop_reports_line(self):
        with pytest.raises(GraphParseError, match="line 3"):
            parse_graph("3 2\n0 1\n1 1")

    def test_duplicate_edge(self):
        with pytest.raises(GraphParseError, match="duplicate"):
            parse_graph("3 2\n0 1\n1 0")

    def test_label_out_of_range(self):
        with pytest.raises(GraphParseError, match="out of range"):
            parse_graph("2 1\n0 2")

    def test_malformed_line(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("2 1\n0")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphParseError):
            parse_graph("3 2\n0 1")

    def test_builtins(self):
        assert parse_graph("path:3").edges == ((0, 1), (1, 2))
        assert parse_graph("complete:4").m == 6
        assert parse_graph("star:3").m == 3
        assert parse_graph("star:3").n == 4

    def test_normalization(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))


class TestCertificate:
    def test_relabeled_paths_agree(self):
        a = Graph(3, ((0, 1), (1, 2)))
        b = Graph(3, ((0, 2), (2, 1)))
        assert canonical_certificate(a) == canonical_certificate(b)

    def test_path_vs_star_distinct(self):
        assert canonical_certificate(parse_graph("path:3")) != canonical_certificate(
            parse_graph("star:3")
        )

    def test_four_vertex_three_edge_classes(self):
        # the 4 connected labeled shapes collapse to exactly {P4, K1,3}
        certs = set()
        for edges in itertools.combinations(itertools.combinations(range(4), 2), 3):
            g = Graph(4, edges)
            if g.is_connected():
                certs.add(canonical_certificate(g))
        assert len(certs) == 2

    def test_size_bound(self):
        with pytest.raises(BudgetError):
            canonical_certificate(complete_graph(11))

    def test_soundness_on_labeled_four_vertex_graphs(self):
        graphs = []
        pairs = list(itertools.combinations(range(4), 2))
        for bits in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
            graphs.append(Graph(4, edges))
        for a, b in itertools.combinations(graphs, 2):
            same_cert = canonical_certificate(a) == canonical_certificate(b)
            assert same_cert == are_isomorphic(a, b)

    def test_soundness_on_connected_classes(self, desk_corpus):
        for a, b in itertools.combinations(desk_corpus, 2):
            same = canonical_certificate(a) == canonical_certificate(b)
            assert same == are_isomorphic(a, b)
            assert not same  # corpus members are pairwise non-isomorphic

    def test_soundness_on_random_six_vertex_pairs(self):
        import random

        rng = random.Random(20240817)
        pairs = list(itertools.combinations(range(6), 2))

        def random_graph():
            edges = tuple(e for e in pairs if rng.random() < 0.45)
            return Graph(6, edges)

        for _ in range(120):
            a, b = random_graph(), random_graph()
            same = canonical_certificate(a) == canonical_certificate(b)
            assert same == are_isomorphic(a, b)
        for _ in range(60):
            a = random_graph()
            perm = list(range(6))
            rng.shuffle(perm)
            b = a.relabel(perm)
            assert canonical_certificate(a) == canonical_certificate(b)

    def test_canonical_form_is_isomorphic(self, small_corpus):
        import random

        rng = random.Random(20240817)
        for g in small_corpus:
            form = canonical_form(g)
            assert are_isomorphic(g, form)
            assert canonical_form(form) == form
            assert canonical_certificate(g) == canonical_certificate(form)
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == form


def _degree_class_permutations(g):
    """Bijections old->new that send vertices into slots grouped by degree
    (degree descending), the family canonical_form minimises over."""
    deg = g.degrees()
    by_degree = {}
    for v in range(g.n):
        by_degree.setdefault(deg[v], []).append(v)
    slot = 0
    groups = []
    for d in sorted(by_degree, reverse=True):
        members = by_degree[d]
        groups.append((members, list(range(slot, slot + len(members)))))
        slot += len(members)
    for assignment in itertools.product(
        *(itertools.permutations(slots) for _, slots in groups)
    ):
        perm = [0] * g.n
        for (members, _), slots in zip(groups, assignment):
            for v, s in zip(members, slots):
                perm[v] = s
        yield perm


def brute_force_form(g):
    """Oracle: try every degree-respecting relabeling."""
    best = min(
        _degree_class_permutations(g),
        key=lambda perm: _encode_upper_triangle(g.relabel(perm)),
    )
    return g.relabel(best)


def _circulant(n, jumps):
    return Graph(
        n, tuple({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})
    )


PETERSEN = Graph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((i, i + 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
)


@st.composite
def relabeled_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    g = Graph(n, tuple(e for e, keep in zip(pairs, chosen) if keep))
    return g, perm


@st.composite
def small_graphs(draw):
    """Graphs on at most 7 vertices with at most 10 edges, disconnected ones
    and isolated vertices included."""
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    edges = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=10)
        if pairs
        else st.just([])
    )
    return Graph(n, tuple(edges))


def _induced_edge_sets(g, masks):
    """The edge-index set of G[U] for each vertex bitmask U."""
    return {
        frozenset(i for i, (u, v) in enumerate(g.edges) if mask >> u & mask >> v & 1)
        for mask in masks
    }


class TestCanonicalSearch:
    def test_matches_brute_force_up_to_five_vertices(self):
        for n in range(6):
            pairs = list(itertools.combinations(range(n), 2))
            for bits in range(1 << len(pairs)):
                edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
                g = Graph(n, edges)
                assert canonical_form(g) == brute_force_form(g), g

    @settings(max_examples=200)
    @given(relabeled_graphs())
    def test_matches_brute_force_and_ignores_labels(self, case):
        g, perm = case
        form = canonical_form(g)
        assert form == brute_force_form(g)
        assert canonical_form(g.relabel(perm)) == form

    def test_ten_vertices(self):
        # past the brute-force form's reach: relabel invariance, and equal
        # forms exactly for the pairs the backtracking isomorphism oracle
        # finds isomorphic (C10(1,3) is K5,5 minus a perfect matching)
        five_k2 = Graph(10, tuple((2 * i, 2 * i + 1) for i in range(5)))
        k55_minus_pm = Graph(
            10, tuple((i, 5 + j) for i in range(5) for j in range(5) if i != j)
        )
        graphs = [PETERSEN, five_k2, k55_minus_pm, _circulant(10, (1, 3))]
        rng = random.Random(20240817)
        forms = []
        for g in graphs:
            form = canonical_form(g)
            assert are_isomorphic(g, form)
            for _ in range(3):
                perm = list(range(10))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == form
            forms.append(form)
        for (a, fa), (b, fb) in itertools.combinations(zip(graphs, forms), 2):
            assert (fa == fb) == are_isomorphic(a, b)
        assert forms[2] == forms[3]


class TestVertexOrbits:
    def test_match_brute_force_under_relabelling(self, desk_corpus):
        rng = random.Random(20261018)
        for g in desk_corpus:
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = g.relabel(perm)
                assert vertex_orbits(h) == automorphism_orbits(h), h

    def test_match_brute_force_with_isolated_vertices_and_components(self):
        for g in (
            Graph(0, ()),
            Graph(3, ()),
            Graph(5, ((0, 3), (1, 4))),
            Graph(6, ((0, 1), (1, 2), (3, 4))),
            Graph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))),
        ):
            assert vertex_orbits(g) == automorphism_orbits(g), g

    def test_vertex_transitive_graphs_have_one_orbit(self):
        rng = random.Random(7)
        five_k2 = Graph(10, tuple((2 * i, 2 * i + 1) for i in range(5)))
        for g in (PETERSEN, five_k2, complete_graph(7), cycle_graph(9)):
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                assert vertex_orbits(g.relabel(perm)) == (tuple(range(g.n)),)

    def test_past_the_vertex_limit_every_vertex_is_its_own_class(self):
        assert vertex_orbits(cycle_graph(12)) == tuple((v,) for v in range(12))


class TestSearchAutomorphisms:
    """The automorphisms `_canonical_search` returns for the census."""

    @staticmethod
    def _check(g, orbits):
        generators = graphs._canonical_search(g)[2]
        assert len(generators) <= max(g.n - 1, 0)
        for p in generators:
            assert sorted(p) == list(range(g.n))
            assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)
        pairs = ((v, p[v]) for p in generators for v in range(g.n))
        assert _classes(g.n, pairs) == vertex_orbits(g) == orbits, g

    def test_relabelled_desk_corpus(self, desk_corpus):
        rng = random.Random(20261020)
        for g in desk_corpus:
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = g.relabel(perm)
            self._check(h, automorphism_orbits(h))

    @given(small_graphs())
    def test_small_graphs(self, g):
        self._check(g, automorphism_orbits(g))

    def test_vertex_transitive_graphs(self):
        for g in (PETERSEN, complete_graph(7), cycle_graph(9)):
            self._check(g, (tuple(range(g.n)),))

    def test_a_host_past_the_vertex_limit_is_not_searched(self, capsys):
        # a host past the vertex limit lends the census no automorphisms:
        # cycle:12 takes one search per subset and raises no BudgetError
        assert cli.main(["census", "--graph", "cycle:12", "--max-edges", "3"]) == 0
        assert capsys.readouterr().out == (
            "2v 1e  count 12  cert 0201\n"
            "3v 2e  count 12  cert 0306\n"
            "4v 3e  count 12  cert 042c\n"
        )
        assert script_S(cycle_graph(12), 6, 3) == 566231040


class TestSeededFormEntries:
    """The entry that `_canonical_search(g)` stores for g's form: the form's
    orbits and automorphisms, read with no search of the form's own."""

    @staticmethod
    def _check(g, orbits=None):
        graphs._canonical_search.cache_clear()
        form = canonical_form(g)
        searches = graphs._canonical_search.cache_info().misses
        assert vertex_orbits(form) == (orbits or automorphism_orbits(form)), g
        TestSearchAutomorphisms._check(form, vertex_orbits(form))
        assert graphs._canonical_search.cache_info().misses == searches, g

    @given(small_graphs())
    def test_small_graphs(self, g):
        self._check(g)

    def test_relabelled_desk_corpus(self, desk_corpus):
        rng = random.Random(20261021)
        for g in desk_corpus:
            perm = list(range(g.n))
            rng.shuffle(perm)
            self._check(g.relabel(perm))

    def test_sparse_hosts_and_the_petersen_graph(self):
        tadpole = Graph(8, cycle_graph(4).edges + ((0, 4), (4, 5), (5, 6), (6, 7)))
        for g in (cycle_graph(8), path_graph(9), star_graph(7), tadpole):
            self._check(g)
        # vertex-transitive: one orbit, without trying 10! permutations
        self._check(PETERSEN, (tuple(range(10)),))


class TestCensus:
    def test_cycle3(self):
        classes = connected_subgraph_classes(cycle_graph(3), 3)
        shape = [(h.n, h.m, len(s)) for h, s in classes]
        assert shape == [(2, 1, 3), (3, 2, 3), (3, 3, 1)]

    def test_path3(self):
        classes = connected_subgraph_classes(path_graph(3), 2)
        shape = [(h.n, h.m, len(s)) for h, s in classes]
        assert shape == [(2, 1, 2), (3, 2, 1)]

    def test_single_edges(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            classes = connected_subgraph_classes(g, 1)
            assert len(classes) == 1
            assert len(classes[0][1]) == g.m

    def test_totality_against_brute_subsets(self, desk_corpus):
        # census counts, summed per edge count, must reproduce the raw
        # number of connected edge subsets found by plain enumeration
        for g in desk_corpus:
            if g.m == 0:
                continue
            for max_edges in sorted({min(4, g.m), g.m}):
                brute = connected_edge_subsets_brute(g, max_edges)
                fast = connected_edge_subsets(g, max_edges)
                assert len(fast) == len(brute) and set(fast) == set(brute), g
                classes = connected_subgraph_classes(g, max_edges)
                for size in range(1, max_edges + 1):
                    raw = sum(1 for s in brute if len(s) == size)
                    counted = sum(len(s) for h, s in classes if h.m == size)
                    assert counted == raw

    def test_no_subset_below_one_edge(self):
        # no subset has between 1 and max_edges edges when max_edges < 1 or
        # the graph has no edge, so the census is empty rather than refused
        assert connected_edge_subsets(cycle_graph(3), 0) == []
        assert connected_edge_subsets(cycle_graph(3), -1) == []
        assert connected_subgraph_classes(cycle_graph(3), 0) == ()
        assert connected_subgraph_classes(Graph(3, ()), 3) == ()

    def test_cap_past_the_largest_subset_returns_at_once(self):
        # the enumeration stops at the first size with no connected subset,
        # however far the cap lies beyond it
        assert connected_edge_subsets(path_graph(3), 10**12) == [
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        ]

    def test_no_isolated_vertices_in_motifs(self, builtin_corpus):
        for g in builtin_corpus:
            for h, _ in connected_subgraph_classes(g, min(3, g.m)):
                assert all(d > 0 for d in h.degrees())

    def test_counts_match_embedding_counts(self, small_corpus):
        # the number of labeled embeddings of a motif equals its subgraph
        # count times its automorphism group order
        def embeddings(motif, host):
            host_edges = set(host.edges)
            total = 0
            for image in itertools.permutations(range(host.n), motif.n):
                if all(
                    (min(image[u], image[v]), max(image[u], image[v])) in host_edges
                    for u, v in motif.edges
                ):
                    total += 1
            return total

        for g in small_corpus:
            if g.m == 0:
                continue
            for h, subsets in connected_subgraph_classes(g, min(3, g.m)):
                aut = embeddings(h, h)
                assert embeddings(h, g) == len(subsets) * aut, h

    def test_induced_classes_on_cycle3(self):
        got = connected_induced_subgraph_classes(cycle_graph(3))
        shape = [(h.n, h.m, len(s)) for h, s in got]
        assert shape == [(2, 1, 3), (3, 3, 1)]  # P3 is not induced in a triangle

    def test_induced_classes_against_brute_vertex_sets(self, desk_corpus):
        # the connected vertex sets grown from single vertices are those a
        # scan of all 2^n vertex subsets finds, and each class holds the
        # edge sets of its induced subgraphs
        for g in desk_corpus + [path_graph(9), cycle_graph(8)]:
            sets = connected_vertex_sets_brute(g)
            grown = _connected_sets(_neighbour_masks(g), g.n)[g.n:]
            assert sorted(grown) == sorted(sets)
            classes = connected_induced_subgraph_classes(g)
            induced = _induced_edge_sets(g, sets)
            listed = [s for _, subsets in classes for s in subsets]
            assert len(listed) == len(induced) and set(listed) == induced
            for h, subsets in classes:
                for s in subsets:
                    assert canonical_form(g.subgraph_of_edges(s)) == h
        assert len(_connected_sets(_neighbour_masks(path_graph(9)), 9)) == 45

    @given(small_graphs(), st.integers(1, 11))
    def test_both_censuses_against_brute_force(self, g, max_edges):
        # disconnected hosts and caps past |E| included: each census lists
        # exactly the sets its brute-force oracle finds, each once
        brute = connected_edge_subsets_brute(g, max_edges)
        classes = connected_subgraph_classes(g, max_edges)
        listed = [s for _, subsets in classes for s in subsets]
        assert len(listed) == len(brute) and set(listed) == set(brute)
        induced = _induced_edge_sets(g, connected_vertex_sets_brute(g))
        classes = connected_induced_subgraph_classes(g)
        listed = [s for _, subsets in classes for s in subsets]
        assert len(listed) == len(induced) and set(listed) == induced

    @given(small_graphs(), st.integers(1, 11))
    def test_both_censuses_against_one_search_per_subset(self, g, max_edges):
        # the same classes in the same order, each listing its subsets in
        # enumeration order, as one canonical search per subset gives; each
        # subset spans a subgraph isomorphic to its class's first, so the
        # subsets of a class are pairwise isomorphic
        induced = [
            frozenset(
                i for i, (u, v) in enumerate(g.edges) if mask >> u & mask >> v & 1
            )
            for mask in _connected_sets(_neighbour_masks(g), g.n)
            if mask & (mask - 1)
        ]
        edge = connected_edge_subsets(g, max_edges)
        for classes, subsets in (
            (connected_subgraph_classes(g, max_edges), edge),
            (connected_induced_subgraph_classes(g), induced),
        ):
            assert classes == grouped_by_class_per_subset(g, subsets)
            for h, members in classes:
                first = g.subgraph_of_edges(members[0])
                assert are_isomorphic(first, h)
                for s in members[1:]:
                    assert are_isomorphic(g.subgraph_of_edges(s), first)

    @staticmethod
    def _census_searches(g):
        graphs._canonical_search.cache_clear()
        classes = connected_subgraph_classes(g, g.m)
        return (
            len(classes),
            sum(len(s) for _, s in classes),
            graphs._canonical_search.cache_info().misses,
        )

    def test_one_search_per_class_on_k5(self):
        # the twin swaps of K5's own search generate S5, under which each
        # class of connected edge subsets is one orbit: 30 searches, K5's
        # own among them, where one per labelled subgraph took 771
        assert self._census_searches(complete_graph(5)) == (30, 968, 30)

    @pytest.mark.slow
    def test_one_search_per_class_on_k6(self):
        # likewise S6 on K6: 142 searches, where one per labelled subgraph
        # took 27 475
        assert self._census_searches(complete_graph(6)) == (142, 31737, 142)

    @settings(max_examples=50)
    @given(small_graphs())
    def test_classes_are_distinct_forms_in_census_order(self, g):
        # every subset spans its group's canonical form, no form heads two
        # groups, and the groups run by (|E|, |V|, certificate)
        for classes in (
            connected_subgraph_classes(g, max(1, g.m)),
            connected_induced_subgraph_classes(g),
        ):
            for h, subsets in classes:
                for s in subsets:
                    assert canonical_form(g.subgraph_of_edges(s)) == h
            forms = [h for h, _ in classes]
            assert len(set(forms)) == len(forms)
            keys = [(h.m, h.n, canonical_certificate(h)) for h in forms]
            assert keys == sorted(keys)

    def test_json_schema(self, capsys):
        argv = ["census", "--graph", "cycle:3", "--max-edges", "2", "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 2 and all(
            set(entry) == {"certificate", "edges", "vertices", "count"}
            for entry in payload
        )


class TestComponents:
    @given(small_graphs())
    def test_union_find_matches_breadth_first_search(self, g):
        components = g.components()
        assert components == components_bfs(g)
        assert g.is_connected() == (len(components) <= 1)
        assert g.is_forest() == (g.m == g.n - len(components))


class TestPowerHypergraph:
    def test_single_edge(self):
        h = power_hypergraph(path_graph(2), 3)
        assert h.n == 3
        assert h.hyperedges == ((0, 1, 2),)
        assert h.core_map == ((0, 1, (2,)),)

    def test_path3(self):
        h = power_hypergraph(path_graph(3), 3)
        assert h.n == 5
        assert h.hyperedges == ((0, 1, 3), (1, 2, 4))

    def test_vertex_count(self):
        h = power_hypergraph(cycle_graph(3), 4)
        assert h.n == 3 + 2 * 3

    def test_vertex_count_property(self, small_corpus):
        for g in small_corpus:
            for k in (3, 4, 5):
                h = power_hypergraph(g, k)
                assert h.n == g.n + (k - 2) * g.m
                assert all(len(e) == k for e in h.hyperedges)

    def test_core_vertices_unique(self):
        h = power_hypergraph(complete_graph(4), 3)
        cores = [c for _, _, cs in h.core_map for c in cs]
        assert len(cores) == len(set(cores))
        assert all(c >= 4 for c in cores)

    def test_k_too_small(self):
        with pytest.raises(ValueError):
            power_hypergraph(path_graph(2), 2)


def test_all_connected_graph_counts():
    assert [len(all_connected_graphs(n)) for n in range(1, 6)] == [1, 1, 2, 6, 21]


def test_star_graph_shape():
    g = star_graph(4)
    assert g.n == 5 and g.m == 4
    assert sorted(g.degrees(), reverse=True) == [4, 1, 1, 1, 1]
