"""Seeded job lists for the three benchmark workloads.

A job is plain data (a JSON-ready dict), so the parent process builds job
lists without importing the package and the child receives only the
generated inputs:

    {"name": "K4/k3", "kind": "charpoly", "k": 3, "n": 4, "edges": [...],
     "budget_s": 30}
    {"name": "verify", "kind": "verify", "graphs": [[n, edges], ...],
     "budget_s": 90}

The seed relabels every vertex of every graph (outputs are invariant under
relabelling, so the expected data does not depend on it).  On verify-corpus
the seed also picks the graphs.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

# Per-job time budgets.  The slowest job of the seed code takes about 7 s on
# a 2-core host; a job past its budget counts as failed.
JOB_BUDGET_S = 30
VERIFY_BUDGET_S = 90


def cycle(n):
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n):
    return n, [(i, i + 1) for i in range(n - 1)]


def complete(n):
    return n, list(itertools.combinations(range(n), 2))


def star(leaves):
    return leaves + 1, [(0, i) for i in range(1, leaves + 1)]


def wheel(rim):
    return rim + 1, [(i, (i + 1) % rim) for i in range(rim)] + [
        (i, rim) for i in range(rim)
    ]


def complete_bipartite(a, b):
    return a + b, [(i, a + j) for i in range(a) for j in range(b)]


def tadpole(cycle_len, tail_len):
    n, edges = cycle(cycle_len)
    prev = 0
    for j in range(tail_len):
        edges.append((prev, n + j))
        prev = n + j
    return n + tail_len, edges


# (job name, graph, k): k = 2 means beta
DENSE_SMALL = (
    ("K4/k3", complete(4), 3),
    ("K4/k4", complete(4), 4),
    ("K4/beta", complete(4), 2),
    ("W4/k3", wheel(4), 3),
    ("K33/k3", complete_bipartite(3, 3), 3),
    ("K33/beta", complete_bipartite(3, 3), 2),
)

SPARSE_LONG = (
    ("C8/k3", cycle(8), 3),
    ("P9/k3", path(9), 3),
    ("K17/k3", star(7), 3),
    ("T44/k3", tadpole(4, 4), 3),
    ("C7/beta", cycle(7), 2),
)

# verify-corpus draws this many graphs from each stratum of the frozen
# <=5-vertex corpus in data/corpus.json.  Strata group graphs by edge count,
# split where the cost of verifying one graph alone differs by more than
# about 20%, so the draw's total work barely depends on the seed.
VERIFY_PICKS = {
    "tiny": 3,  # 0-3 edges
    "m4": 2,
    "m5-light": 1,
    "m5": 2,
    "m6-light": 1,
    "m6": 1,
    "over8": 2,  # 9 and 10 edges: past the heavy-check edge limit
}

WORKLOADS = ("dense-small", "sparse-long", "verify-corpus")


def relabel(rng, n, edges):
    perm = list(range(n))
    rng.shuffle(perm)
    return n, sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)


def load_corpus():
    with open(DATA / "corpus.json") as fh:
        return json.load(fh)["graphs"]


def _pipeline_jobs(rng, table):
    jobs = []
    for name, (n, edges), k in table:
        n, edges = relabel(rng, n, edges)
        jobs.append(
            {
                "name": name,
                "kind": "beta" if k == 2 else "charpoly",
                "k": k,
                "n": n,
                "edges": edges,
                "budget_s": JOB_BUDGET_S,
            }
        )
    return jobs


def verify_draw(rng, corpus):
    """Corpus indexes drawn stratum by stratum, in corpus order."""
    chosen = []
    for stratum, picks in VERIFY_PICKS.items():
        members = [i for i, g in enumerate(corpus) if g["stratum"] == stratum]
        chosen.extend(rng.sample(members, picks))
    return sorted(chosen)


def jobs_for(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "dense-small":
        return _pipeline_jobs(rng, DENSE_SMALL)
    if workload == "sparse-long":
        return _pipeline_jobs(rng, SPARSE_LONG)
    if workload == "verify-corpus":
        corpus = load_corpus()
        graphs = [
            relabel(rng, corpus[i]["n"], corpus[i]["edges"])
            for i in verify_draw(rng, corpus)
        ]
        return [
            {
                "name": "verify",
                "kind": "verify",
                "graphs": graphs,
                "budget_s": VERIFY_BUDGET_S,
            }
        ]
    raise ValueError(f"unknown workload {workload!r}")
