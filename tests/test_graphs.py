import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperspectra.errors import BudgetError, GraphParseError
from hyperspectra.graphs import (
    Graph,
    _connected_vertex_sets,
    _encode_upper_triangle,
    all_connected_graphs,
    canonical_certificate,
    canonical_form,
    complete_graph,
    connected_edge_subsets,
    connected_induced_subgraph_classes,
    connected_subgraph_census,
    cycle_graph,
    parse_graph,
    path_graph,
    power_hypergraph,
    star_graph,
)
from oracles import (
    are_isomorphic,
    connected_edge_subsets_brute,
    connected_vertex_sets_brute,
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


def _to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


@st.composite
def relabeled_graphs(draw):
    n = draw(st.integers(0, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    perm = draw(st.permutations(range(n)))
    g = Graph(n, tuple(e for e, keep in zip(pairs, chosen) if keep))
    return g, perm


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
        # past the oracle's reach: relabel invariance, and equal forms
        # exactly for the pairs networkx finds isomorphic (C10(1,3) is
        # K5,5 minus a perfect matching)
        petersen = Graph(
            10,
            tuple((i, (i + 1) % 5) for i in range(5))
            + tuple((i, i + 5) for i in range(5))
            + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5)),
        )
        five_k2 = Graph(10, tuple((2 * i, 2 * i + 1) for i in range(5)))
        k55_minus_pm = Graph(
            10, tuple((i, 5 + j) for i in range(5) for j in range(5) if i != j)
        )
        graphs = [petersen, five_k2, k55_minus_pm, _circulant(10, (1, 3))]
        rng = random.Random(20240817)
        forms = []
        for g in graphs:
            form = canonical_form(g)
            assert nx.is_isomorphic(_to_nx(g), _to_nx(form))
            for _ in range(3):
                perm = list(range(10))
                rng.shuffle(perm)
                assert canonical_form(g.relabel(perm)) == form
            forms.append(form)
        for (a, fa), (b, fb) in itertools.combinations(zip(graphs, forms), 2):
            assert (fa == fb) == nx.is_isomorphic(_to_nx(a), _to_nx(b))
        assert forms[2] == forms[3]


class TestCensus:
    def test_cycle3(self):
        census = connected_subgraph_census(cycle_graph(3), 3)
        shape = [(m.v_count, m.e_count, c) for m, c in census.entries]
        assert shape == [(2, 1, 3), (3, 2, 3), (3, 3, 1)]

    def test_path3(self):
        census = connected_subgraph_census(path_graph(3), 2)
        shape = [(m.v_count, m.e_count, c) for m, c in census.entries]
        assert shape == [(2, 1, 2), (3, 2, 1)]

    def test_single_edges(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            census = connected_subgraph_census(g, 1)
            assert len(census.entries) == 1
            assert census.entries[0][1] == g.m

    def test_totality_against_brute_subsets(self, desk_corpus):
        # census counts, summed per edge count, must reproduce the raw
        # number of connected edge subsets found by plain enumeration
        for g in desk_corpus:
            if g.m == 0:
                continue
            max_edges = min(4, g.m)
            brute = connected_edge_subsets_brute(g, max_edges)
            fast = connected_edge_subsets(g, max_edges)
            assert sorted(brute) == sorted(fast)
            census = connected_subgraph_census(g, max_edges)
            for size in range(1, max_edges + 1):
                raw = sum(1 for s in brute if len(s) == size)
                counted = sum(c for m, c in census.entries if m.e_count == size)
                assert counted == raw

    def test_no_isolated_vertices_in_motifs(self, builtin_corpus):
        for g in builtin_corpus:
            census = connected_subgraph_census(g, min(3, g.m))
            for motif, _ in census.entries:
                assert all(d > 0 for d in motif.graph.degrees())

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
            census = connected_subgraph_census(g, min(3, g.m))
            for motif, count in census.entries:
                aut = embeddings(motif.graph, motif.graph)
                assert embeddings(motif.graph, g) == count * aut, motif

    def test_induced_classes_on_cycle3(self):
        got = connected_induced_subgraph_classes(cycle_graph(3))
        shape = [(m.v_count, m.e_count, len(s)) for m, s in got]
        assert shape == [(2, 1, 3), (3, 3, 1)]  # P3 is not induced in a triangle

    def test_induced_classes_against_brute_vertex_sets(self, desk_corpus):
        # the connected vertex sets grown from single vertices are those a
        # scan of all 2^n vertex subsets finds, and each class holds the
        # edge sets of its induced subgraphs
        for g in desk_corpus + [path_graph(9), cycle_graph(8)]:
            sets = connected_vertex_sets_brute(g)
            assert sorted(_connected_vertex_sets(g)) == sorted(sets)
            classes = connected_induced_subgraph_classes(g)
            induced = {
                frozenset(
                    i for i, (u, v) in enumerate(g.edges) if mask >> u & mask >> v & 1
                )
                for mask in sets
            }
            listed = [s for _, subsets in classes for s in subsets]
            assert len(listed) == len(induced) and set(listed) == induced
            for motif, subsets in classes:
                for s in subsets:
                    assert canonical_form(g.subgraph_of_edges(s)) == motif.graph
        assert len(_connected_vertex_sets(path_graph(9))) == 36

    def test_json_schema(self):
        census = connected_subgraph_census(cycle_graph(3), 2)
        payload = census.to_json_obj()
        assert all(
            set(entry) == {"certificate", "edges", "vertices", "count"}
            for entry in payload
        )


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
