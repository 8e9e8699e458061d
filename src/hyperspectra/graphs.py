"""Graphs, isomorphism certificates, the connected-motif census, and
k-power hypergraph construction.

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
from dataclasses import dataclass

from .errors import BudgetError, GraphParseError

CERTIFICATE_VERTEX_LIMIT = 10


@dataclass(frozen=True)
class Graph:
    """Simple undirected labeled graph."""

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        seen = set()
        norm = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {(u, v)} out of range for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {(u, v)}")
            seen.add((u, v))
            norm.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

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
        nbrs = self.neighbors()
        seen = set()
        out = []
        for root in range(self.n):
            if root not in seen:
                seen.add(root)
                component = [root]
                for u in component:  # read while it grows: breadth first
                    fresh = [w for w in nbrs[u] if w not in seen]
                    seen.update(fresh)
                    component.extend(fresh)
                out.append(sorted(component))
        return out

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


def canonical_form(g):
    """The relabeled copy of g with the minimum upper-triangular adjacency
    encoding over all degree-respecting relabelings (slots grouped by degree,
    descending; at most CERTIFICATE_VERTEX_LIMIT vertices).  Isomorphic
    graphs get equal forms, and the form of a form is the form itself.

    The search fills slots 0..n-1 in turn instead of trying permutations.  A
    state is the vertices placed so far plus an ordered list of cells, masks
    of unplaced vertices that each own the next consecutive block of slots;
    it starts from the degree classes.  Slot i takes a vertex w of the first
    cell, one per twin class (twins u, w have N(u)-{w} = N(w)-{u}, so the
    transposition (u w) is an automorphism fixing the state).  Splitting
    every cell into w's non-neighbours followed by its neighbours gives row i
    of the encoding its unique minimum for that w, and only the children
    whose row i is smallest over all states survive.  Rows compare in
    encoding order, so every minimising relabeling survives every slot.
    """
    if g.n > CERTIFICATE_VERTEX_LIMIT:
        raise BudgetError(
            f"canonical form supports at most {CERTIFICATE_VERTEX_LIMIT} "
            f"vertices, got {g.n}"
        )
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    by_degree = {}
    for v in range(g.n):
        d = nbr[v].bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    states = [((), tuple(by_degree[d] for d in sorted(by_degree, reverse=True)))]
    for _ in range(g.n):
        best_row, children = None, []
        for placed, cells in states:
            first = cells[0]
            tried = []
            for w in (v for v in range(g.n) if first >> v & 1):
                if any((nbr[u] ^ nbr[w]) & ~(1 << u | 1 << w) == 0 for u in tried):
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
    perm = [0] * g.n
    for slot, v in enumerate(states[0][0]):
        perm[v] = slot
    return g.relabel(perm)


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


@dataclass(frozen=True)
class Motif:
    """Isomorphism class of a connected subgraph: canonical graph + certificate."""

    graph: Graph
    certificate: bytes

    @property
    def v_count(self):
        return self.graph.n

    @property
    def e_count(self):
        return self.graph.m


@dataclass(frozen=True)
class MotifCensus:
    """Motifs of a host graph with exact occurrence counts N(motif)."""

    entries: tuple  # ((Motif, count), ...) sorted by (edges, vertices, certificate)
    max_edges: int

    def __len__(self):
        return len(self.entries)

    def to_json_obj(self):
        return [
            {
                "certificate": motif.certificate.hex(),
                "edges": motif.e_count,
                "vertices": motif.v_count,
                "count": count,
            }
            for motif, count in self.entries
        ]


def connected_edge_subsets(g, max_edges):
    """All edge-index subsets of size 1..max_edges whose subgraph is connected.

    Grown breadth-first from each seed edge with de-duplication, so every
    subset appears exactly once.
    """
    if max_edges < 1:
        raise ValueError("max_edges must be at least 1")
    nbr_edges = [set() for _ in range(g.m)]
    incidence = {}
    for i, (u, v) in enumerate(g.edges):
        incidence.setdefault(u, []).append(i)
        incidence.setdefault(v, []).append(i)
    for verts in incidence.values():
        for i in verts:
            nbr_edges[i].update(j for j in verts if j != i)

    found = set()
    frontier = [frozenset([i]) for i in range(g.m)]
    found.update(frontier)
    for _ in range(max_edges - 1):
        nxt = []
        for subset in frontier:
            candidates = set()
            for i in subset:
                candidates.update(nbr_edges[i])
            candidates -= subset
            for j in candidates:
                grown = subset | {j}
                if grown not in found:
                    found.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def _grouped_by_class(g, subsets):
    """Edge subsets of g that span connected subgraphs, grouped by
    isomorphism class: ((Motif, (subset, ...)), ...) in census order."""
    buckets = {}
    for subset in subsets:
        form = canonical_form(g.subgraph_of_edges(subset))
        cert = _form_certificate(form)
        if cert in buckets:
            buckets[cert][1].append(subset)
        else:
            buckets[cert] = (Motif(form, cert), [subset])
    return tuple(
        (motif, tuple(subsets))
        for motif, subsets in sorted(
            buckets.values(),
            key=lambda ms: (ms[0].e_count, ms[0].v_count, ms[0].certificate),
        )
    )


def connected_subgraph_classes(g, max_edges):
    """Connected edge subsets of g with 1..max_edges edges, grouped by
    isomorphism class: ((Motif, (subset, ...)), ...) in census order."""
    return _grouped_by_class(g, connected_edge_subsets(g, max_edges))


def connected_subgraph_census(g, max_edges):
    """Count connected subgraphs of g with 1..max_edges edges, grouped by
    isomorphism class."""
    entries = tuple(
        (motif, len(subsets))
        for motif, subsets in connected_subgraph_classes(g, max_edges)
    )
    return MotifCensus(entries=entries, max_edges=max_edges)


def _connected_vertex_sets(g):
    """Bitmasks of the connected vertex sets of g with at least 2 vertices,
    by size, then by mask.

    Grown breadth-first from single vertices, one neighbouring vertex at a
    time; every set of one size is reached from a set one smaller, so each
    appears exactly once and no disconnected set is ever tried (P9 has 36,
    against 2^9 - 1 nonempty vertex subsets)."""
    nbr = [0] * g.n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    found, frontier = [], [1 << v for v in range(g.n)]
    while frontier:
        grown = set()
        for mask in frontier:
            reach = 0
            for v in range(g.n):
                if mask >> v & 1:
                    reach |= nbr[v]
            reach &= ~mask
            while reach:
                low = reach & -reach
                grown.add(mask | low)
                reach ^= low
        frontier = sorted(grown)
        found.extend(frontier)
    return found


def connected_induced_subgraph_classes(g):
    """Connected induced subgraphs G[U] of g with at least one edge, grouped
    by isomorphism class: ((Motif, (subset, ...)), ...) in census order, in
    the shape of `connected_subgraph_classes`; each subset is the set of
    edge indexes of G[U], one per connected vertex set U."""
    subsets = (
        frozenset(
            i for i, (u, v) in enumerate(g.edges) if mask >> u & 1 and mask >> v & 1
        )
        for mask in _connected_vertex_sets(g)
    )
    return _grouped_by_class(g, subsets)


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


@dataclass(frozen=True)
class Hypergraph:
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
