"""Exact counting of closed, parity-closed, and covering parity-closed walks.

Walks are rooted and directed: a walk carries its start vertex and traversal
order, matching trace(A^d) semantics.  A parity-closed walk uses every edge
of the host graph an even number of times; a covering one additionally uses
every edge at least once (hence at least twice).

Both dynamic programs keep one dict per vertex, from an integer state key
to the number of walks from the start that end there with that key.

The parity DP keys a walk by the mask of edges it used an odd number of
times.  A parity-closed walk of length 2L from s splits at step L into two
walks of length L from s (the second one reversed) that end at the same
vertex with the same mask, so P_s(2L) = sum over (v, mask) of
N_L(s; v, mask)^2: the DP runs to max_d // 2 only.  Odd lengths are 0.

The covering DP keys a walk by used | odd << m over the m edge bits; a
step along edge bit b gives (key | b) ^ (b << m), and the walk is accepted
back at its start with every edge used and none odd.  A state can still be
accepted by length max_d only if 2 |unused| + |odd| <= max_d - t: every
unused edge takes two more steps and every odd one at least one.  Each step
lowers that need by one, except a step along a used, even edge, which
raises it by one; so a state takes that step only while its slack, the
steps left minus the need, is at least 2.  The states this skips could not
be accepted at any length <= max_d, so every count is exact.  The state
budget still bounds n * 3^m, every state the DP could hold.

An automorphism of the host maps walks from s onto walks from its image,
edge masks and all, so every count from s is the same from each vertex of
s's automorphism orbit.  Both DPs therefore run from the least vertex of
each orbit and weight its counts by the orbit's size.  The orbits come from
the memoised canonical search (`graphs.vertex_orbits`); a host above the
canonical form's vertex limit gets one orbit per vertex.

The parity DP is checked against its twin in `means`, the mean over all
2^|E| signings of trace(A_signed^d); the covering DP is checked in the
tests against subset inclusion-exclusion.  All arithmetic is
arbitrary-precision integer; no floats appear anywhere.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import mat_power_traces
from .errors import BudgetError
from .graphs import vertex_orbits

PARITY_DP_EDGE_LIMIT = 24
COVERING_STATE_BUDGET = 40_000_000
# terms `digraphs.naive_tensor_trace` may list by default (each term is a
# closed walk of rooted hyperedges); kept beside the covering budget so the
# CLI shows both defaults without loading the oracle
TRACE_TERM_BUDGET = 5_000_000


def closed_walk_profile(g, max_d):
    """trace(A^d), the number of closed walks of length d, for every length
    0..max_d at once."""
    if max_d < 0:
        raise ValueError("walk length must be non-negative")
    return mat_power_traces(g.adjacency(), max_d)


def parity_closed_profile(g, max_d):
    """Parity-closed walk counts, the closed walks using each edge an even
    number of times, for every length 0..max_d at once."""
    if max_d < 0:
        raise ValueError("walk length must be non-negative")
    if g.m > PARITY_DP_EDGE_LIMIT:
        raise BudgetError(
            f"parity bitmask DP supports at most {PARITY_DP_EDGE_LIMIT} edges, got {g.m}"
        )
    moves = [[] for _ in range(g.n)]  # vertex -> [(neighbor, edge bit), ...]
    for i, (u, v) in enumerate(g.edges):
        moves[u].append((v, 1 << i))
        moves[v].append((u, 1 << i))
    profile = [0] * (max_d + 1)
    profile[0] = g.n
    for orbit in vertex_orbits(g):
        start = orbit[0]
        # states[v]: parity mask -> walks of length t from start ending at v;
        # a parity-closed walk of length 2t is two of them with equal ends
        states = [{} for _ in range(g.n)]
        states[start][0] = 1
        for t in range(1, max_d // 2 + 1):
            nxt = [{} for _ in range(g.n)]
            for v, row in enumerate(states):
                for mask, cnt in row.items():
                    for w, bit in moves[v]:
                        target = nxt[w]
                        key = mask ^ bit
                        target[key] = target.get(key, 0) + cnt
            states = nxt
            closed = sum(cnt * cnt for row in states for cnt in row.values())
            profile[2 * t] += len(orbit) * closed
    return profile


# ---------------------------------------------------------------------------
# covering parity-closed walks


def covering_parity_profile(motif, max_d, state_budget=COVERING_STATE_BUDGET):
    """Covering parity-closed counts, the closed walks in the motif using
    every edge a positive even number of times, for all lengths 0..max_d in
    one sweep.

    Results are cached per motif as given; census motifs are in canonical
    form, so hosts that share a motif class share its cache entry.
    """
    if not motif.is_connected():
        raise ValueError("covering counts are defined for connected motifs")
    if max_d < 0:
        raise ValueError("walk length must be non-negative")
    if max_d < 2 * motif.m:
        # covering needs every edge at least twice
        return [0] * (max_d + 1)
    return list(_covering_profile_cached(motif, max_d, state_budget))


@lru_cache(maxsize=4096)
def _covering_profile_cached(motif, max_d, state_budget):
    n, m = motif.n, motif.m
    if n * 3**m > state_budget:
        raise BudgetError(
            f"covering DP needs {n * 3 ** m} states, budget is {state_budget}"
        )
    # key = used | odd << m over edge bits; accept when all used, none odd
    full = (1 << m) - 1
    moves = [[] for _ in range(n)]  # vertex -> [(neighbor, edge bit, odd bit)]
    for i, (u, v) in enumerate(motif.edges):
        moves[u].append((v, 1 << i, 1 << (i + m)))
        moves[v].append((u, 1 << i, 1 << (i + m)))
    profile = [0] * (max_d + 1)
    if m == 0:
        profile[0] = n  # the length-0 walk covers the empty edge set
    for orbit in vertex_orbits(motif):
        start = orbit[0]
        states = [{} for _ in range(n)]
        states[start][0] = 1
        for t in range(1, max_d + 1):
            nxt = [{} for _ in range(n)]
            for v, row in enumerate(states):
                for key, cnt in row.items():
                    # slack: the steps left minus 2 |unused| + |odd|; a
                    # step along a used, even edge costs two, others none
                    used, odd_bits = key & full, key >> m
                    slack = max_d - t + 1 - 2 * (m - used.bit_count())
                    slack -= odd_bits.bit_count()
                    blocked = used & ~odd_bits if slack < 2 else 0
                    for w, bit, odd in moves[v]:
                        if bit & blocked:
                            continue
                        target = nxt[w]
                        new = (key | bit) ^ odd
                        target[new] = target.get(new, 0) + cnt
            states = nxt
            profile[t] += len(orbit) * states[start].get(full, 0)
    return tuple(profile)
