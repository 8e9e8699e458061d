"""The package's value types: Graph, SignedGraph and Multidigraph are
immutable `__slots__` classes, the result records are NamedTuples."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra import means, spectrum, verify
from hyperspectra.digraphs import (
    Multidigraph,
    spanning_tree_reduction_check,
    trace_terms,
)
from hyperspectra.graphs import Graph, cycle_graph, path_graph, power_hypergraph
from hyperspectra.signed import SignedGraph

P3 = path_graph(3)
DIGON = Multidigraph(2, (((0, 1), 1), ((1, 0), 1)))


def _records():
    return [
        spectrum.char_poly_power(P3, 3),
        spectrum.char_poly_power(P3, 3).factors[0],
        power_hypergraph(P3, 3),
        spanning_tree_reduction_check(DIGON, 3),
        next(trace_terms(power_hypergraph(path_graph(2), 3), 3)),
        means.amgm_check(P3, 3.0),
        verify.run_verify_suite(seed_graphs=[P3]),
        verify.run_verify_suite(seed_graphs=[P3]).checks[0],
    ]


class TestImmutable:
    @pytest.mark.parametrize(
        "value, field",
        [(P3, "n"), (P3, "edges"), (SignedGraph(P3, (1, -1)), "signs"), (DIGON, "arcs")],
    )
    def test_fields_cannot_be_assigned_or_deleted(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, field) == before

    def test_record_fields_cannot_be_assigned(self):
        for record in _records():
            field = record._fields[0]
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_copies_and_pickles_are_equal(self):
        for value in (P3, SignedGraph(P3, (1, -1)), DIGON):
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            assert pickle.loads(pickle.dumps(value)) == value


class TestValidation:
    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (-1, (), "vertex count must be non-negative"),
            (3, ((1, 1),), "loop at vertex 1"),
            (3, ((0, 1), (1, 0)), "duplicate edge (0, 1)"),
            (3, ((3, 0),), "edge (0, 3) out of range for n=3"),
            (3, ((-1, 2),), "edge (-1, 2) out of range for n=3"),
        ],
    )
    def test_graph(self, n, edges, message):
        with pytest.raises(ValueError) as exc:
            Graph(n, edges)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "signs, message",
        [
            ((1,), "need exactly one sign per edge"),
            ((1, 1, 1), "need exactly one sign per edge"),
            ((1, 0), "signs must be +1 or -1"),
            ((1, 2), "signs must be +1 or -1"),
        ],
    )
    def test_signed_graph(self, signs, message):
        with pytest.raises(ValueError) as exc:
            SignedGraph(P3, signs)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "arcs, message",
        [
            ((((1, 1), 1),), "self-arc at vertex 1"),
            ((((0, 2), 1),), "arc (0, 2) out of range"),
            ((((0, 1), 0),), "arc multiplicities must be positive"),
        ],
    )
    def test_multidigraph(self, arcs, message):
        with pytest.raises(ValueError) as exc:
            Multidigraph(2, arcs)
        assert str(exc.value) == message

    def test_fields_are_normalised(self):
        assert Graph(3, [(2, 1), (1, 0)]).edges == ((0, 1), (1, 2))
        assert SignedGraph(P3, [1, -1]).signs == (1, -1)
        merged = Multidigraph(2, (((1, 0), 1), ((0, 1), 2), ((1, 0), 3)))
        assert merged.arcs == (((0, 1), 2), ((1, 0), 4))

    def test_repr_names_the_fields(self):
        # verify's failure details print graphs this way
        assert repr(Graph(3, ((2, 1),))) == "Graph(n=3, edges=((1, 2),))"
        assert repr(SignedGraph(path_graph(2), (-1,))) == (
            "SignedGraph(base=Graph(n=2, edges=((0, 1),)), signs=(-1,))"
        )
        assert repr(DIGON) == "Multidigraph(n=2, arcs=(((0, 1), 1), ((1, 0), 1)))"


class TestEqualityIsStrictAboutTheType:
    def test_graph_is_not_its_fields_or_a_multidigraph(self):
        # Graph(2, ()) and Multidigraph(2, ()) have equal fields
        g, d = Graph(2, ()), Multidigraph(2, ())
        assert g != (2, ()) and (2, ()) != g
        assert g != d and d != g
        assert len({g, d, (2, ())}) == 3
        assert {g: 1}.get((2, ())) is None and {d: 1}.get(g) is None

    def test_signed_graph_is_not_its_fields(self):
        sg = SignedGraph(P3, (1, 1))
        assert sg != (P3, (1, 1))
        assert len({sg, (P3, (1, 1))}) == 2

    def test_equal_values_hash_equal(self):
        for make in (
            lambda: cycle_graph(4),
            lambda: SignedGraph(cycle_graph(4), (1, -1, 1, 1)),
            lambda: Multidigraph(3, (((0, 1), 2), ((2, 0), 1))),
        ):
            a, b = make(), make()
            assert a is not b and a == b and hash(a) == hash(b)
            assert not a != b
        assert SignedGraph(P3, (1, 1)) != SignedGraph(P3, (1, -1))
        assert Graph(3, ()) != Graph(4, ())


@st.composite
def _edge_lists(draw):
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, chosen


@given(_edge_lists(), _edge_lists(), st.randoms(use_true_random=False))
def test_graph_equality_and_hash_follow_n_and_sorted_edges(first, second, rng):
    n, edges = first
    shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(shuffled)
    g, h = Graph(n, tuple(edges)), Graph(n, tuple(shuffled))
    assert g == h and hash(g) == hash(h)
    assert g.edges == tuple(sorted(edges))
    other = Graph(*second)
    key = (n, tuple(sorted(edges)))
    other_key = (second[0], tuple(sorted(second[1])))
    assert (g == other) == (key == other_key)
    if key == other_key:
        assert hash(g) == hash(other)
    assert len({g, h, other}) == (1 if key == other_key else 2)

