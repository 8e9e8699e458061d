"""Exact counting of closed, parity-closed, and covering parity-closed walks.

Walks are rooted and directed: a walk carries its start vertex and traversal
order, matching trace(A^d) semantics.  A parity-closed walk uses every edge
of the host graph an even number of times; a covering one additionally uses
every edge at least once (hence at least twice).

The bitmask dynamic program has an independent twin, the signed-trace
average: the mean over all 2^|E| signings of trace(A_signed^d), read from
the power sums of each distinct signed characteristic polynomial, weighted
by the number of signings (a whole switching class, or several) that share
it.  The two cross-check each other; the three-state covering dynamic
program is checked in the tests against subset inclusion-exclusion.  All
arithmetic is arbitrary-precision integer; no floats appear anywhere.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .algebra import mat_power_traces, power_sums_from_charpoly
from .errors import BudgetError, ConsistencyError
from .signed import SIGNING_EDGE_LIMIT, signing_polynomials

PARITY_DP_EDGE_LIMIT = 24
COVERING_STATE_BUDGET = 40_000_000


class WalkCount(NamedTuple):
    d: int
    value: int


def closed_walk_count(g, d):
    """trace(A^d): the number of closed walks of length d."""
    if d < 0:
        raise ValueError("walk length must be non-negative")
    return WalkCount(d, mat_power_traces(g.adjacency(), d)[d])


def closed_walk_profile(g, max_d):
    return mat_power_traces(g.adjacency(), max_d)


def parity_closed_count(g, d, method="dp"):
    """Closed walks of length d using each edge an even number of times."""
    return WalkCount(d, parity_closed_profile(g, d, method=method)[d])


def parity_closed_profile(g, max_d, method="dp"):
    """Parity-closed walk counts for every length 0..max_d at once."""
    if max_d < 0:
        raise ValueError("walk length must be non-negative")
    if method == "dp":
        return _parity_profile_dp(g, max_d)
    if method == "signed_mean":
        return _parity_profile_signed_mean(g, max_d)
    raise ValueError(f"unknown method {method!r}")


def _parity_profile_dp(g, max_d):
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
    for start in range(g.n):
        states = {(start, 0): 1}
        for t in range(1, max_d + 1):
            nxt = {}
            for (v, mask), cnt in states.items():
                for w, bit in moves[v]:
                    key = (w, mask ^ bit)
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
            profile[t] += states.get((start, 0), 0)
    return profile


def _parity_profile_signed_mean(g, max_d):
    if g.m > SIGNING_EDGE_LIMIT:
        raise BudgetError(
            f"signed-mean enumeration supports at most {SIGNING_EDGE_LIMIT} "
            f"edges, got {g.m}"
        )
    totals = [0] * (max_d + 1)
    for poly, count in signing_polynomials(g):
        traces = power_sums_from_charpoly(poly, max_d)
        totals = [t + count * s for t, s in zip(totals, traces)]
    scale = 1 << g.m
    profile = []
    for t, total in enumerate(totals):
        q, r = divmod(total, scale)
        if r != 0:
            raise ConsistencyError(
                f"signed trace average is not an integer at length {t}"
            )
        profile.append(q)
    return profile


# ---------------------------------------------------------------------------
# covering parity-closed walks


def covering_parity_closed_count(motif, d, state_budget=COVERING_STATE_BUDGET):
    """Closed walks of length d in the motif using every edge a positive even
    number of times."""
    profile = covering_parity_profile(motif, d, state_budget=state_budget)
    return WalkCount(d, profile[d])


def covering_parity_profile(motif, max_d, state_budget=COVERING_STATE_BUDGET):
    """Covering parity-closed counts for all lengths 0..max_d in one sweep.

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
    # per-edge state digit: 0 unused, 1 odd, 2 even; accept when all digits == 2
    pow3 = [3**i for i in range(m)]
    moves = [[] for _ in range(n)]
    for i, (u, v) in enumerate(motif.edges):
        moves[u].append((v, i))
        moves[v].append((u, i))
    accept = 3**m - 1  # all digits equal to 2
    profile = [0] * (max_d + 1)
    for start in range(n):
        states = {(start, 0): 1}
        for t in range(1, max_d + 1):
            nxt = {}
            for (v, code), cnt in states.items():
                for w, e in moves[v]:
                    digit = code // pow3[e] % 3
                    step = pow3[e] if digit < 2 else -pow3[e]
                    key = (w, code + step)
                    nxt[key] = nxt.get(key, 0) + cnt
            states = nxt
            profile[t] += states.get((start, accept), 0)
    return tuple(profile)
