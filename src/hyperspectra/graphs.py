"""Graphs, isomorphism certificates and automorphism orbits, the
connected-motif census (connected edge subsets, the connected sets of the
line graph, or connected induced subgraphs, the connected vertex sets, both
from one enumerator), and k-power hypergraph construction.

The census lists classes as ((form, (subset, ...)), ...): the canonical
form of each isomorphism class, with the edge-index sets of g that span it,
so its occurrence count is len(subsets).  Classes are ordered by (|E|, |V|,
certificate).  It runs one canonical search per orbit of subsets under the
automorphisms that g's own canonical search finds, and each search also
records its form's orbits, which the walk DPs read.

Connectivity (of graphs and of digraph supports) and the automorphism
orbits share one union-find, `_classes`; `power_hypergraph` is the one core
layout, which the digraph lift reads; `_Value` gives Graph, SignedGraph and
Multidigraph their immutability, repr and pickling.

Conventions used throughout the package:

* vertices are 0-indexed integers below ``n``;
* edges are unordered pairs stored as sorted tuples, the edge list itself
  is kept sorted so that equal graphs compare equal;
* a "subgraph" is an edge subset together with its incident vertices
  (no isolated vertices); a motif is the isomorphism class of a
  connected subgraph with at least one edge.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from functools import _CacheInfo
from typing import NamedTuple

from .errors import BudgetError, GraphParseError

CERTIFICATE_VERTEX_LIMIT = 10


class _Value:
    """Base of the immutable `__slots__` value classes (Graph, SignedGraph,
    Multidigraph): fields are set once through object.__setattr__, and the
    repr and pickle read them in `__slots__` order.  Each class defines its
    own __eq__ and __hash__, which the hot paths call."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({', '.join(fields)})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)


class Graph(_Value):
    """Simple undirected labeled graph.  Immutable; equal to another Graph
    (and to nothing else) with the same n and edges."""

    __slots__ = ("n", "edges")

    def __init__(self, n, edges):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        norm = []
        for e in edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {(u, v)} out of range for n={n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
            norm.append((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    @property
    def m(self):
        return len(self.edges)

    def adjacency(self):
        a = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            a[u][v] = 1
            a[v][u] = 1
        return a

    def neighbors(self):
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return [sorted(x) for x in nbrs]

    def degrees(self):
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def components(self):
        """Sorted vertex lists of the connected components, by least vertex."""
        return [list(c) for c in _classes(self.n, self.edges)]

    def is_connected(self):
        return len(self.components()) <= 1

    def is_tree(self):
        return self.is_connected() and self.m == self.n - 1

    def is_forest(self):
        return self.m == self.n - len(self.components())

    def relabel(self, mapping):
        """New graph with vertex i renamed mapping[i]."""
        return Graph(self.n, tuple((mapping[u], mapping[v]) for u, v in self.edges))

    def induced(self, vertices):
        """Induced subgraph on the given vertex subset, relabeled 0..len-1."""
        vs = sorted(vertices)
        pos = {v: i for i, v in enumerate(vs)}
        edges = [(pos[u], pos[v]) for u, v in self.edges if u in pos and v in pos]
        return Graph(len(vs), tuple(edges))

    def subgraph_of_edges(self, edge_indexes):
        """Subgraph spanned by the given edge indexes: the incident vertices,
        relabeled 0..v-1 in sorted order, plus those edges."""
        chosen = [self.edges[i] for i in sorted(edge_indexes)]
        support = sorted({x for e in chosen for x in e})
        pos = {v: i for i, v in enumerate(support)}
        return Graph(len(support), tuple((pos[u], pos[v]) for u, v in chosen))


def path_graph(n):
    """Path on n vertices (n-1 edges)."""
    return Graph(n, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete_graph(n):
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def star_graph(n_edges):
    """Star with n_edges leaves, i.e. K_{1,n} on n+1 vertices."""
    return Graph(n_edges + 1, tuple((0, i) for i in range(1, n_edges + 1)))


_BUILTINS = {
    "path": (path_graph, 1),
    "cycle": (cycle_graph, 3),
    "complete": (complete_graph, 1),
    "star": (star_graph, 1),
}


def parse_graph(text):
    """Parse a named builtin ("path:n", "cycle:n", "complete:n", "star:n")
    or an edge list: a header line "n m" followed by m lines "u v".
    """
    stripped = text.strip()
    if ":" in stripped and "\n" not in stripped:
        name, _, arg = stripped.partition(":")
        name = name.strip().lower()
        if name in _BUILTINS:
            builder, minimum = _BUILTINS[name]
            try:
                size = int(arg)
            except ValueError:
                raise GraphParseError(f"bad builtin size {arg!r}") from None
            if size < minimum:
                raise GraphParseError(f"{name}:{size} is too small (minimum {minimum})")
            return builder(size)
        raise GraphParseError(f"unknown builtin {name!r}")

    lines = stripped.splitlines()
    if not lines:
        raise GraphParseError("empty input", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise GraphParseError("header must be 'n m'", line=1)
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphParseError("header must be two integers", line=1) from None
    if n < 0 or m < 0:
        raise GraphParseError("header counts must be non-negative", line=1)
    if len(lines) - 1 != m:
        raise GraphParseError(
            f"expected {m} edge lines, found {len(lines) - 1}", line=len(lines)
        )
    edges = []
    seen = set()
    for idx, raw in enumerate(lines[1:], start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise GraphParseError(f"malformed edge line {raw!r}", line=idx)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphParseError(f"malformed edge line {raw!r}", line=idx) from None
        if u == v:
            raise GraphParseError(f"loop at vertex {u}", line=idx)
        if not (0 <= u < n and 0 <= v < n):
            raise GraphParseError(f"vertex label out of range in {raw!r}", line=idx)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key}", line=idx)
        seen.add(key)
        edges.append(key)
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# isomorphism certificates


def _encode_upper_triangle(g):
    bits = 0
    adj = set(g.edges)
    for i in range(g.n):
        for j in range(i + 1, g.n):
            bits = (bits << 1) | ((i, j) in adj)
    return bits


def _neighbour_masks(g):
    """The bitmask of each vertex's neighbours in g."""
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    return nbr


class _Memo(OrderedDict):
    """`_canonical_search`'s memo, like functools.lru_cache(4096), but that
    the search also stores the entry of the form it finds."""

    maxsize, hits, misses = 4096, 0, 0

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self))

    def cache_clear(self):
        self.clear()
        self.hits = self.misses = 0


_SEARCHES = _Memo()


def _canonical_search(g):
    """The slot-by-slot search behind `canonical_form`, memoised per labelled
    graph (at most CERTIFICATE_VERTEX_LIMIT vertices): the canonical form,
    g relabelled by the minimising leaf (slot i -> the vertex placed there),
    the vertex orbits of Aut(g) as sorted tuples, by least vertex, and
    automorphisms that generate a group with those orbits, each as the
    tuple of vertex images, for the census.

    The search fills slots 0..n-1 in turn instead of trying permutations.  A
    state is the vertices placed so far plus an ordered list of cells, masks
    of unplaced vertices that each own the next consecutive block of slots;
    it starts from the degree classes, descending.  Slot i takes a vertex w
    of the first cell, one per twin class (twins u, w have N(u)-{w} =
    N(w)-{u}, so the transposition (u w) is an automorphism fixing the
    state).  Splitting every cell into w's non-neighbours followed by its
    neighbours gives row i of the encoding its unique minimum for that w,
    and only the children whose row i is smallest over all states survive.
    Rows compare in encoding order, so every minimising relabeling survives
    every slot, up to the twin swaps skipped on its way.

    Any two surviving leaves p, q relabel g to the same form, so p[i] ->
    q[i] is an automorphism; every automorphism maps the first leaf to a
    minimising leaf, which is a surviving one after some skipped twin swaps.
    So the swaps and the maps from the first leaf to the others generate
    Aut(g), and the orbits are the classes they join.  Of these maps only
    those that join two classes in the union-find are kept, at most n - 1:
    they may generate less than Aut(g), but with the same orbits.

    The memo is `_SEARCHES`.  The form's entry is stored with g's, unless
    the memo holds it: the form of a form is the form, and the leaf carries
    g's orbits and kept maps onto the form's, so `vertex_orbits` of a
    census class form, which the walk DPs read, costs no second search.
    """
    if g in _SEARCHES:
        _SEARCHES.hits += 1
        _SEARCHES.move_to_end(g)
        return _SEARCHES[g]
    _SEARCHES.misses += 1
    if g.n > CERTIFICATE_VERTEX_LIMIT:
        raise BudgetError(
            f"canonical form supports at most {CERTIFICATE_VERTEX_LIMIT} "
            f"vertices, got {g.n}"
        )
    nbr = _neighbour_masks(g)
    by_degree = {}
    for v in range(g.n):
        d = nbr[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    states = [((), tuple(by_degree[d] for d in sorted(by_degree, reverse=True)))]
    swaps = []
    for _ in range(g.n):
        best_row, children = None, []
        for placed, cells in states:
            first = cells[0]
            tried = []
            for w in (v for v in range(g.n) if first >> v & 1):
                twin = next(
                    (u for u in tried if (nbr[u] ^ nbr[w]) & ~(1 << u | 1 << w) == 0),
                    None,
                )
                if twin is not None:
                    swaps.append((twin, w))
                    continue
                tried.append(w)
                row, split = 0, []
                for cell in (first & ~(1 << w),) + cells[1:]:
                    near = cell & nbr[w]
                    far = cell ^ near
                    row = (row << cell.bit_count()) | ((1 << near.bit_count()) - 1)
                    split.extend(part for part in (far, near) if part)
                if best_row is None or row < best_row:
                    best_row, children = row, []
                if row == best_row:
                    children.append((placed + (w,), tuple(split)))
        states = children
    leaf = states[0][0]
    perm = [0] * g.n
    for slot, v in enumerate(leaf):
        perm[v] = slot
    images = [
        tuple(w if v == u else u if v == w else v for v in range(g.n)) for u, w in swaps
    ] + [tuple(w for _, w in sorted(zip(leaf, placed))) for placed, _ in states[1:]]
    joined = []
    orbits = _classes(g.n, ((v, p[v]) for p in images for v in range(g.n)), joined)
    kept = tuple(images[i] for i in dict.fromkeys(i // g.n for i in joined))
    form = g.relabel(perm)
    entry = _SEARCHES[g] = form, orbits, kept
    if form not in _SEARCHES:
        pairs = ((perm[orbit[0]], perm[v]) for orbit in orbits for v in orbit)
        moved = tuple(tuple(perm[p[v]] for v in leaf) for p in kept)
        _SEARCHES[form] = form, _classes(g.n, pairs), moved
    while len(_SEARCHES) > _SEARCHES.maxsize:
        _SEARCHES.popitem(last=False)
    return entry


_canonical_search.cache_info = _SEARCHES.cache_info
_canonical_search.cache_clear = _SEARCHES.cache_clear


def _classes(n, pairs, joined=None):
    """The classes of range(n) joined by the given pairs, as sorted tuples
    by least vertex (union-find, each class rooted at its least vertex).
    The index of each pair that joins two classes is appended to the list
    `joined`, when one is given."""
    root = list(range(n))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, (u, w) in enumerate(pairs):
        a, b = find(u), find(w)
        if a != b:
            root[max(a, b)] = min(a, b)
            if joined is not None:
                joined.append(i)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(v)
    return tuple(map(tuple, classes.values()))


def canonical_form(g):
    """The relabeled copy of g with the minimum upper-triangular adjacency
    encoding over all degree-respecting relabelings (slots grouped by degree,
    descending; at most CERTIFICATE_VERTEX_LIMIT vertices), found by the
    memoised `_canonical_search`.  Isomorphic graphs get equal forms, and
    the form of a form is the form itself."""
    return _canonical_search(g)[0]


def vertex_orbits(g):
    """The vertex orbits of the automorphism group of g, as sorted tuples by
    least vertex, from the memoised `_canonical_search`, which stored a
    canonical form's entry with the search that found it.  Above
    CERTIFICATE_VERTEX_LIMIT vertices, which the search does not reach,
    every vertex is its own class."""
    if g.n > CERTIFICATE_VERTEX_LIMIT:
        return tuple((v,) for v in range(g.n))
    return _canonical_search(g)[1]


def _form_certificate(form):
    """The vertex count followed by the upper-triangular adjacency encoding
    of a graph already in canonical form."""
    nbytes = (form.n * (form.n - 1) // 2 + 7) // 8
    encoding = _encode_upper_triangle(form)
    return bytes([form.n]) + encoding.to_bytes(nbytes, "big")


def canonical_certificate(g):
    """Byte certificate equal for isomorphic graphs and distinct otherwise:
    the vertex count followed by the upper-triangular adjacency encoding of
    `canonical_form(g)`, i.e. the minimum encoding over degree-respecting
    relabelings that its slot-by-slot search finds.
    """
    return _form_certificate(canonical_form(g))


# ---------------------------------------------------------------------------
# motif census


def _connected_sets(nbr, max_size):
    """Bitmasks of the connected sets of 1..max_size elements of the graph
    in which element i neighbours the other elements of mask nbr[i], by size,
    then by mask.

    Grown breadth-first from single elements, one neighbour at a time, each
    set carrying the mask of its members' neighbours; every connected set is
    reached from one a size smaller, so each appears exactly once and no
    disconnected set is tried (P9 has 45, against 2^9 - 1 nonempty vertex
    sets), and the growth stops at the first size that has none."""
    found, frontier, size = [], {1 << i: reach for i, reach in enumerate(nbr)}, 1
    while frontier:
        found.extend(sorted(frontier))
        if size == max_size:
            break
        grown = {}
        for mask, reach in frontier.items():
            fresh = reach & ~mask
            while fresh:
                low = fresh & -fresh
                grown[mask | low] = reach | nbr[low.bit_length() - 1]
                fresh ^= low
        frontier, size = grown, size + 1
    return found


def _bits(mask):
    """The indexes of the set bits of mask, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _edge_masks(g, max_edges):
    """Bitmasks over g's edge indexes of the connected edge subsets of size
    1..max_edges, by size, then by mask: the `_connected_sets` of the line
    graph, in which two edges neighbour when they share an endpoint (a set
    of edges spans a connected subgraph exactly when it is connected there).
    Empty when max_edges < 1 or g has no edge, since no subset then has
    between 1 and max_edges edges."""
    if max_edges < 1:
        return []
    touching = [0] * g.n
    for i, (u, v) in enumerate(g.edges):
        touching[u] |= 1 << i
        touching[v] |= 1 << i
    line = [touching[u] | touching[v] for u, v in g.edges]
    return _connected_sets(line, max_edges)


def connected_edge_subsets(g, max_edges):
    """All edge-index subsets of size 1..max_edges whose subgraph is
    connected, as frozensets by size, then by bitmask (`_edge_masks`)."""
    return [frozenset(_bits(mask)) for mask in _edge_masks(g, max_edges)]


def _grouped_by_class(g, masks):
    """Bitmasks of edge subsets of g that span connected subgraphs, grouped
    by isomorphism class: ((form, (subset, ...)), ...), the subsets as
    frozensets in the given order, keyed by the canonical form, which is
    equal exactly for isomorphic subgraphs, and ordered by (|E|, |V|,
    certificate), the certificate taken once per class.

    An automorphism of g maps a connected subset onto one spanning an
    isomorphic subgraph, and both census families are closed under Aut(g),
    so each orbit under the automorphisms `_canonical_search(g)` returns
    takes its form from one search.  If they generate less than Aut(g),
    orbits split finer, never classes.  A host above CERTIFICATE_VERTEX_LIMIT
    is not searched: one search per subset."""
    masks = list(masks)
    moves = []
    if masks and g.n <= CERTIFICATE_VERTEX_LIMIT:
        index = {e: i for i, e in enumerate(g.edges)}
        moves = [
            [1 << index[min(p[u], p[v]), max(p[u], p[v])] for u, v in g.edges]
            for p in _canonical_search(g)[2]
        ]
    form_of, buckets = {}, {}
    for mask in masks:
        if mask not in form_of:
            form = form_of[mask] = canonical_form(g.subgraph_of_edges(_bits(mask)))
            orbit = [mask]
            for member in orbit:
                edges = _bits(member)
                for move in moves:
                    image = 0
                    for i in edges:
                        image |= move[i]
                    if image not in form_of:
                        form_of[image] = form
                        orbit.append(image)
        buckets.setdefault(form_of[mask], []).append(frozenset(_bits(mask)))
    return tuple(
        (form, tuple(buckets[form]))
        for form in sorted(buckets, key=lambda h: (h.m, h.n, _form_certificate(h)))
    )


def connected_subgraph_classes(g, max_edges):
    """Connected edge subsets of g with 1..max_edges edges, grouped by
    isomorphism class: ((form, (subset, ...)), ...) by (|E|, |V|,
    certificate), where form is the canonical form of the class and
    len(subsets) its occurrence count in g."""
    return _grouped_by_class(g, _edge_masks(g, max_edges))


def connected_induced_subgraph_classes(g):
    """Connected induced subgraphs G[U] of g with at least one edge, grouped
    by isomorphism class in the shape and order of
    `connected_subgraph_classes`; each subset is the set of edge indexes of
    G[U], one per connected vertex set U."""
    masks = (
        sum(1 << i for i, (u, v) in enumerate(g.edges) if mask >> u & mask >> v & 1)
        for mask in _connected_sets(_neighbour_masks(g), g.n)
        if mask & (mask - 1)
    )
    return _grouped_by_class(g, masks)


def all_connected_graphs(n):
    """All connected graphs on exactly n labeled-irrelevant vertices, up to
    isomorphism, each in canonical form."""
    if n == 1:
        return [Graph(1, ())]
    pairs = list(itertools.combinations(range(n), 2))
    seen = {}
    for bits in range(1 << len(pairs)):
        edges = tuple(pairs[i] for i in range(len(pairs)) if bits >> i & 1)
        if len(edges) < n - 1:
            continue
        g = Graph(n, edges)
        if not g.is_connected():
            continue
        form = canonical_form(g)
        seen.setdefault(_form_certificate(form), form)
    return [seen[c] for c in sorted(seen)]


# ---------------------------------------------------------------------------
# power hypergraphs


class Hypergraph(NamedTuple):
    """k-uniform hypergraph produced by power_hypergraph.

    core_map has one entry per hyperedge: (u, v, cores) where {u, v} is the
    base edge and cores are the k-2 added vertices.
    """

    k: int
    n: int
    hyperedges: tuple
    core_map: tuple

    @property
    def m(self):
        return len(self.hyperedges)


def power_hypergraph(g, k):
    """Blow each edge of g up to a k-vertex hyperedge by appending k-2 fresh
    core vertices; cores are numbered after the base vertices in edge order.
    """
    if k < 3:
        raise ValueError("power hypergraphs need k >= 3")
    hyperedges = []
    core_map = []
    nxt = g.n
    for u, v in g.edges:
        cores = tuple(range(nxt, nxt + k - 2))
        nxt += k - 2
        hyperedges.append((u, v) + cores)
        core_map.append((u, v, cores))
    return Hypergraph(k=k, n=nxt, hyperedges=tuple(hyperedges), core_map=tuple(core_map))
