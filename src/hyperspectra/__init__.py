"""Spectra of k-power hypergraphs via parity-closed walk counts.

The package computes the factored characteristic polynomial (all eigenvalue
multiplicities) of the k-uniform power of a graph from exact combinatorial
data: covering parity-closed walk counts of its motifs, occurrence counts of
those motifs, and the squared eigenvalues of its signed subgraphs.  Exact
brute-force oracles for every identity involved ship alongside the closed
forms, each a function of its own: the averages over signings in `means`,
the backtracking Eulerian count in `digraphs`; `hyperspectra verify`
replays all of them.

`import hyperspectra` loads only the exact pipeline: `graphs`, `algebra`,
`signed`, `walks` and `spectrum`.  The oracle names from `digraphs`, `means`
and `verify` load their module on first use, and are looked up in it on every
access, so a wrapper installed on the defining module is what the package
name returns.
"""

import importlib

from .graphs import (
    Graph,
    Hypergraph,
    canonical_certificate,
    complete_graph,
    connected_subgraph_classes,
    cycle_graph,
    parse_graph,
    path_graph,
    power_hypergraph,
    star_graph,
)
from .walks import closed_walk_profile, covering_parity_profile, parity_closed_profile
from .signed import (
    SignedGraph,
    char_poly_exact,
    eigenvalues,
    enumerate_signings,
    is_balanced,
    signed_spectral_moment,
)
from .spectrum import (
    FactoredSpectralFunction,
    beta,
    char_poly_power,
    script_S,
    spectral_radius_multiplicity,
)

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Hypergraph",
    "Multidigraph",
    "SignedGraph",
    "TraceTerm",
    "FactoredSpectralFunction",
    "VerifyReport",
    "amgm_check",
    "arborescence_count",
    "beta",
    "canonical_certificate",
    "char_poly_exact",
    "char_poly_power",
    "closed_walk_profile",
    "complete_graph",
    "connected_subgraph_classes",
    "covering_parity_profile",
    "covering_parity_via_best",
    "cycle_graph",
    "eigenvalues",
    "enumerate_signings",
    "eulerian_walk_count",
    "eulerian_walks_by_backtracking",
    "geometric_mean_evaluate",
    "is_balanced",
    "lift_from_core",
    "matching_polynomial",
    "mean_signed_char_poly",
    "mean_signed_moments",
    "moment_coefficient",
    "naive_tensor_trace",
    "parity_closed_profile",
    "parse_graph",
    "path_graph",
    "power_hypergraph",
    "reduce_to_core",
    "run_verify_suite",
    "script_S",
    "signed_spectral_moment",
    "spanning_tree_reduction_check",
    "spectral_radius_multiplicity",
    "star_graph",
    "trace_terms",
]

# the oracle names, by the module that defines them
_ORACLES = {
    "digraphs": (
        "Multidigraph",
        "TraceTerm",
        "arborescence_count",
        "covering_parity_via_best",
        "eulerian_walk_count",
        "eulerian_walks_by_backtracking",
        "lift_from_core",
        "moment_coefficient",
        "naive_tensor_trace",
        "reduce_to_core",
        "spanning_tree_reduction_check",
        "trace_terms",
    ),
    "means": (
        "amgm_check", "geometric_mean_evaluate", "matching_polynomial",
        "mean_signed_char_poly", "mean_signed_moments",
    ),
    "verify": ("VerifyReport", "run_verify_suite"),
}
_ORACLE_MODULE = {name: module for module, names in _ORACLES.items() for name in names}


def __getattr__(name):
    module = _ORACLE_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_ORACLE_MODULE))
