import itertools
import math
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperspectra import spectrum
from hyperspectra.algebra import (
    basis_exponents,
    coprime_basis,
    poly_eval,
    power_sums_from_charpoly,
)
from hyperspectra.errors import BudgetError
from hyperspectra.graphs import (
    Graph,
    complete_graph,
    connected_induced_subgraph_classes,
    connected_subgraph_census,
    cycle_graph,
    path_graph,
)
from hyperspectra.signed import (
    SignedGraph,
    all_positive,
    char_poly_exact,
    char_poly_of_squares,
    eigenvalues,
    enumerate_signings,
    is_balanced,
    largest_cycle_rank,
    signed_spectral_moment,
    signing_polynomials,
    spanning_forest_edges,
    spectral_radius,
)
from hyperspectra.spectrum import beta, char_poly_power
from hyperspectra.walks import parity_closed_profile
from oracles import jacobi_eigenvalues

K2 = path_graph(2)
P3 = path_graph(3)
C3 = cycle_graph(3)


class TestSignings:
    def test_single_edge(self):
        assert len(enumerate_signings(K2)) == 2

    def test_cycle3_switching_classes(self):
        reps = enumerate_signings(C3, up_to_switching=True)
        assert len(reps) == 2
        # the two classes are told apart by their spectra, and together they
        # partition all 8 signings
        rep_polys = {tuple(char_poly_exact(sg)) for sg in reps}
        all_polys = [tuple(char_poly_exact(sg)) for sg in enumerate_signings(C3)]
        assert set(all_polys) == rep_polys
        assert len(rep_polys) == 2

    def test_tree_has_one_class(self):
        assert len(enumerate_signings(P3, up_to_switching=True)) == 1

    def test_class_count_formula(self, small_corpus):
        for g in small_corpus:
            if g.m == 0:
                continue
            reps = enumerate_signings(g, up_to_switching=True)
            assert len(reps) == 2 ** (g.m - g.n + 1)  # connected corpus

    def test_representatives_have_distinct_cycle_sign_vectors(self, small_corpus):
        # fundamental cycle sign products, as a vector over the fixed basis
        for g in small_corpus:
            if g.m == 0:
                continue
            tree = spanning_forest_edges(g)
            free = [i for i in range(g.m) if i not in tree]
            vectors = set()
            for rep in enumerate_signings(g, up_to_switching=True):
                vectors.add(tuple(rep.signs[i] for i in free))
            assert len(vectors) == 2 ** len(free)


@st.composite
def small_graphs(draw):
    """Graphs on at most 6 vertices with at most 8 edges, disconnected ones
    and isolated vertices included."""
    n = draw(st.integers(0, 6))
    pairs = list(itertools.combinations(range(n), 2))
    if not pairs:
        return Graph(n, ())
    return Graph(n, tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8))))


class TestSigningTable:
    @given(small_graphs())
    def test_table_counts_every_signing(self, g):
        table = signing_polynomials(g)
        assert dict(table) == Counter(
            tuple(char_poly_exact(sg)) for sg in enumerate_signings(g)
        )
        assert sum(count for _, count in table) == 2**g.m
        assert parity_closed_profile(g, 10, "dp") == parity_closed_profile(
            g, 10, "signed_mean"
        )

    def test_cycle3(self):
        # the balanced class (all signs +1 up to switching) and its negation
        assert signing_polynomials(C3) == (((-2, -3, 0, 1), 4), ((2, -3, 0, 1), 4))

    def test_edge_budget(self):
        with pytest.raises(BudgetError, match="supports at most 20 edges"):
            signing_polynomials(Graph(22, tuple((0, i) for i in range(1, 22))))

    def test_largest_cycle_rank(self):
        assert largest_cycle_rank(Graph(0, ())) == 0
        assert largest_cycle_rank(path_graph(4)) == 0
        # C3 and K4 side by side: the largest component rank, not the sum
        c3_k4 = Graph(7, C3.edges + tuple((u + 3, v + 3) for u, v in complete_graph(4).edges))
        assert largest_cycle_rank(c3_k4) == 3
        assert largest_cycle_rank(complete_graph(8)) == 21


class TestCharPoly:
    def test_k2(self):
        assert char_poly_exact(all_positive(K2)) == [-1, 0, 1]

    def test_cycle3_balanced(self):
        assert char_poly_exact(all_positive(C3)) == [-2, -3, 0, 1]

    def test_cycle3_unbalanced(self):
        sg = SignedGraph(C3, (-1, 1, 1))
        assert char_poly_exact(sg) == [2, -3, 0, 1]

    def test_squares_polynomial(self):
        # eigenvalues 2, -1, -1: -(x - 1)^2 (x - 4)
        assert char_poly_of_squares(all_positive(C3)) == [4, -9, 6, -1]
        # eigenvalues +-sqrt 2 and 0: the zero eigenvalue is stripped
        assert char_poly_of_squares(all_positive(P3)) == [-4, 4, -1]

    def test_monic_and_degree(self, small_corpus):
        for g in small_corpus:
            poly = char_poly_exact(all_positive(g))
            assert len(poly) == g.n + 1
            assert poly[-1] == 1

    def test_newton_identities_reproduce_moments(self, small_corpus):
        for g in small_corpus:
            for sg in enumerate_signings(g, up_to_switching=True):
                poly = char_poly_exact(sg)
                sums = power_sums_from_charpoly(poly, 2 * g.n)
                for d in range(2 * g.n + 1):
                    assert sums[d] == signed_spectral_moment(sg, d)


class TestEigenvalues:
    def test_cycle3_balanced(self):
        assert eigenvalues(all_positive(C3)) == (2.0, -1.0, -1.0)

    def test_cycle3_unbalanced_matches_cosine_form(self):
        # 2 cos((2i-1) pi / 3) for i = 1..3, sorted descending
        eigs = eigenvalues(SignedGraph(C3, (-1, 1, 1)))
        expected = sorted(
            (2 * math.cos((2 * i - 1) * math.pi / 3) for i in (1, 2, 3)),
            reverse=True,
        )
        assert eigs == pytest.approx(tuple(expected), abs=1e-9)

    def test_k2(self):
        assert eigenvalues(all_positive(K2)) == (1.0, -1.0)

    def test_nearest_doubles(self):
        assert eigenvalues(all_positive(cycle_graph(4))) == (2.0, 0.0, 0.0, -2.0)
        assert eigenvalues(all_positive(Graph(0, ()))) == ()
        # two signings of K4 with x^4 - 6x^2 + 5 give the same doubles
        one = SignedGraph(complete_graph(4), (1, 1, 1, 1, 1, -1))
        other = SignedGraph(complete_graph(4), (-1, 1, 1, 1, 1, 1))
        assert char_poly_exact(one) == char_poly_exact(other) == [5, 0, -6, 0, 1]
        assert eigenvalues(one) == eigenvalues(other) == (math.sqrt(5), 1.0, -1.0, -math.sqrt(5))

    def test_agrees_with_jacobi_oracle(self, desk_corpus):
        classes = 0
        for g in desk_corpus:
            for sg in enumerate_signings(g, up_to_switching=True):
                exact = eigenvalues(sg)
                assert exact == pytest.approx(jacobi_eigenvalues(sg.matrix()), abs=1e-12)
                classes += 1
        assert classes == 216

    def test_switching_invariance(self, small_corpus):
        for g in small_corpus:
            if g.m == 0 or g.n > 4:
                continue
            sg = SignedGraph(g, tuple(-1 if i % 2 else 1 for i in range(g.m)))
            for diag_bits in range(1 << g.n):
                diagonal = [1 if diag_bits >> i & 1 else -1 for i in range(g.n)]
                switched = sg.switched(diagonal)
                assert char_poly_exact(switched) == char_poly_exact(sg)


class TestMoments:
    def test_cycle3(self):
        assert signed_spectral_moment(all_positive(C3), 3) == 6
        assert signed_spectral_moment(SignedGraph(C3, (-1, 1, 1)), 3) == -6

    def test_order_zero(self, small_corpus):
        for g in small_corpus:
            assert signed_spectral_moment(all_positive(g), 0) == g.n


class TestBalance:
    def test_all_positive_cycle(self):
        assert is_balanced(all_positive(C3))

    def test_one_negative_edge(self):
        assert not is_balanced(SignedGraph(C3, (-1, 1, 1)))

    def test_trees_always_balanced(self, small_corpus):
        for g in small_corpus:
            if not g.is_forest() or g.m == 0:
                continue
            for sg in enumerate_signings(g):
                assert is_balanced(sg)

    def test_balance_matches_switching_class_of_all_positive(self):
        for sg in enumerate_signings(C3):
            assert is_balanced(sg) == (
                char_poly_exact(sg) == char_poly_exact(all_positive(C3))
            )


class TestRadiusLemma:
    def test_signed_radius_never_exceeds_unsigned(self, small_corpus):
        # and it is attained at +-rho exactly on the balanced / negated-
        # balanced switching classes
        for g in small_corpus:
            if g.m == 0 or not g.is_connected():
                continue
            rho = max(jacobi_eigenvalues(g.adjacency()))
            assert spectral_radius(g) == pytest.approx(rho, abs=1e-12)
            for sg in enumerate_signings(g):
                eigs = jacobi_eigenvalues(sg.matrix())
                assert max(abs(x) for x in eigs) <= rho + 1e-8
                hits_top = abs(max(eigs) - rho) <= 1e-8
                assert hits_top == is_balanced(sg)
                hits_bottom = abs(min(eigs) + rho) <= 1e-8
                assert hits_bottom == is_balanced(sg.negated())


def _basis(graphs):
    """Gcd-free basis of the squared-eigenvalue polynomials of every
    switching class of the given graphs, as a set of coefficient tuples."""
    return {
        tuple(b)
        for b in coprime_basis(
            char_poly_of_squares(sg)
            for h in graphs
            for sg in enumerate_signings(h, up_to_switching=True)
        )
    }


def _connected_subgraphs(g):
    return [m.graph for m, _ in connected_subgraph_census(g, g.m).entries]


class TestSigmaBasis:
    """Sigma, the squared nonzero eigenvalues of all connected signed
    subgraphs, keyed exactly by a gcd-free basis; char_poly_power keeps one
    factor per root of every basis element of nonzero multiplicity."""

    def test_k2(self):
        assert _basis(_connected_subgraphs(K2)) == {(-1, 1)}

    def test_cycle3(self):
        expected = {(-1, 1), (-2, 1), (-4, 1)}
        assert _basis(_connected_subgraphs(C3)) == expected
        assert set(spectrum._motif_spectra(C3)[2]) == expected
        # sigma^2 = 2 comes from P3 alone, which is not induced: mu = 0 at k=3
        assert {f.b for f in char_poly_power(C3, 3).factors} == expected - {(-2, 1)}
        assert {f.b for f in char_poly_power(C3, 4).factors} == expected

    def test_path3(self):
        expected = {(-1, 1), (-2, 1)}
        assert _basis(_connected_subgraphs(P3)) == expected
        assert {f.b for f in char_poly_power(P3, 3).factors} == expected

    def test_cycle3_induced_mode_drops_p3(self):
        classes = connected_induced_subgraph_classes(C3)
        assert _basis(motif.graph for motif, _ in classes) == {(-1, 1), (-4, 1)}
        assert set(spectrum._induced_spectra(C3)[2]) == {(-1, 1), (-4, 1)}

    def test_factor_roots_are_subgraph_eigenvalues_squared(self):
        g = complete_graph(4)
        squares = [
            lam * lam
            for h in _connected_subgraphs(g)
            for sg in enumerate_signings(h, up_to_switching=True)
            for lam in jacobi_eigenvalues(sg.matrix())
        ]
        for f in char_poly_power(g, 3).factors:
            assert min(abs(x - f.sigma_sq) for x in squares) < 1e-9
            assert abs(poly_eval(f.b, f.sigma_sq)) < 1e-9

    def test_every_signed_subgraph_factors_over_the_basis(self):
        g = complete_graph(4)
        basis = spectrum._motif_spectra(g)[2]
        assert {f.b for f in char_poly_power(g, 3).factors} <= set(basis)
        for h in _connected_subgraphs(g):
            for sg in enumerate_signings(h):
                exponents = basis_exponents(char_poly_of_squares(sg), basis)
                nonzero = sum(e * (len(b) - 1) for e, b in zip(exponents, basis))
                zeros = sum(1 for lam in eigenvalues(sg) if lam == 0)
                assert nonzero + zeros == h.n

    def test_empty_graph(self):
        fsf = beta(Graph(3, ()))
        assert fsf.factors == ()
        assert fsf.mu0 == 3
