"""Outside-in tracing of the package's layers.

`Tracer.install()` wraps each public function listed in LAYERS wherever the
package binds it (``graphs.canonical_form`` and the ``canonical_form`` that
``walks`` imported are the same object, so both names get the wrapper).
Each call records a span: function, start, end and parent span.  Spans stay
in memory; `Tracer.metrics()` reduces them to per-layer counts and self
times after the timed region, and `Tracer.spans()` hands them out whole.

A self time is a span's duration minus its wrapped children's durations,
so the self times of all spans plus the job roots add up to the traced
wall time.  A listed function that the package no longer has is reported
in `absent` and its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter

PACKAGE = "hyperspectra"

# layer (= module) -> public functions wrapped in it.  Generators are left
# out: their span would close before the consumer iterates them.
LAYERS = {
    "graphs": ("connected_subgraph_census", "canonical_certificate", "canonical_form"),
    "walks": ("covering_parity_profile", "parity_closed_profile"),
    "signed": ("sigma_set", "eigenvalues", "char_poly_exact"),
    "spectrum": ("char_poly_power", "beta", "build_system", "script_S"),
    "means": ("matching_polynomial", "geometric_mean_evaluate", "amgm_check"),
    "digraphs": (
        "arborescence_count",
        "covering_parity_via_best",
        "eulerian_walk_count",
        "lift_from_core",
        "moment_coefficient",
        "naive_tensor_trace",
        "reduce_to_core",
        "spanning_tree_reduction_check",
        "trace_terms",
    ),
    "verify": ("run_verify_suite",),
}

ROOT = "job"


def _keep_graph_and_result(args, kwargs, result):
    return args[0], result


def _keep_covering(args, kwargs, result):
    max_d = args[1] if len(args) > 1 else kwargs["max_d"]
    return args[0], max_d


def _keep_len(args, kwargs, result):
    try:
        return len(result)
    except TypeError:
        return 0


# what a span keeps of its call, for counters derived after the timed region
KEEP = {
    "graphs.canonical_certificate": _keep_graph_and_result,
    "graphs.canonical_form": _keep_graph_and_result,
    "walks.covering_parity_profile": _keep_covering,
    "signed.sigma_set": _keep_len,
}


class Tracer:
    def __init__(self):
        self._originals = {}  # qualified name -> function
        self._patched = []  # (module, attribute, original)
        self.absent = []
        self._names = [ROOT]
        self._spans = []  # [name index, start, end, parent]
        self._stack = []
        self._kept = {}  # qualified name -> [kept data per call]
        self._bound = []  # build_system precision_bits per call

    # -- installation -------------------------------------------------

    def install(self):
        wrappers = {}
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{layer}")
            except ImportError:
                self.absent.extend(f"{layer}.{name}" for name in names)
                continue
            for name in names:
                qualified = f"{layer}.{name}"
                fn = getattr(module, name, None)
                if not callable(fn):
                    self.absent.append(qualified)
                    continue
                self._originals[qualified] = fn
                wrappers[id(fn)] = (fn, self._wrap(qualified, fn))
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def original(self, qualified):
        return self._originals.get(qualified)

    def _wrap(self, qualified, fn):
        name_index = len(self._names)
        self._names.append(qualified)
        spans, stack = self._spans, self._stack
        keep = KEEP.get(qualified)
        kept = self._kept.setdefault(qualified, [])
        signature = None
        if qualified == "spectrum.build_system":
            signature = inspect.signature(fn)
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf()
                stack.pop()
                if keep is not None:
                    kept.append(keep(args, kwargs, result))
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self._bound.append(bound.arguments.get("precision_bits", 0))

        return wrapper

    # -- job roots ------------------------------------------------------

    def begin_job(self):
        index = len(self._spans)
        span = [0, time.perf_counter(), 0.0, -1]
        self._spans.append(span)
        self._stack.append(index)
        return span

    def end_job(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    # -- reduction ------------------------------------------------------

    def spans(self):
        return [
            {"name": self._names[i], "start": s, "end": e, "parent": p}
            for i, s, e, p in self._spans
        ]

    def self_times(self):
        """qualified name -> (calls, self seconds)"""
        child_time = [0.0] * len(self._spans)
        for _, start, end, parent in self._spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls = Counter()
        self_s = Counter()
        for (i, start, end, _), inner in zip(self._spans, child_time):
            calls[self._names[i]] += 1
            self_s[self._names[i]] += (end - start) - inner
        return calls, self_s

    def metrics(self, wall_s):
        """Per-layer metrics; call after uninstall()."""
        calls, self_s = self.self_times()

        def layer_sum(layer, counter):
            return sum(counter[f"{layer}.{name}"] for name in LAYERS[layer])

        out = {
            "graphs.census_calls": calls["graphs.connected_subgraph_census"],
            "graphs.census_s": self_s["graphs.connected_subgraph_census"],
            "graphs.certificate_calls": calls["graphs.canonical_certificate"]
            + calls["graphs.canonical_form"],
            "graphs.certificate_s": self_s["graphs.canonical_certificate"]
            + self_s["graphs.canonical_form"],
            "walks.covering_calls": calls["walks.covering_parity_profile"],
            "walks.covering_s": self_s["walks.covering_parity_profile"],
            "walks.parity_calls": calls["walks.parity_closed_profile"],
            "walks.parity_s": self_s["walks.parity_closed_profile"],
            "spectrum.build_system_calls": calls["spectrum.build_system"],
            "spectrum.build_system_self_s": self_s["spectrum.build_system"],
            "spectrum.self_s": self_s["spectrum.char_poly_power"]
            + self_s["spectrum.beta"],
            "spectrum.script_S_calls": calls["spectrum.script_S"],
            "spectrum.script_S_s": self_s["spectrum.script_S"],
            "spectrum.sigma_size": sum(self._kept.get("signed.sigma_set", ())),
            "spectrum.precision_bits_max": max(self._bound, default=0),
            "signed.sigma_set_s": self_s["signed.sigma_set"],
            "signed.eigenvalues_calls": calls["signed.eigenvalues"],
            "signed.eigenvalues_s": self_s["signed.eigenvalues"],
            "signed.char_poly_exact_calls": calls["signed.char_poly_exact"],
            "signed.char_poly_exact_s": self_s["signed.char_poly_exact"],
            "means.calls": layer_sum("means", calls),
            "means.s": layer_sum("means", self_s),
            "digraphs.calls": layer_sum("digraphs", calls),
            "digraphs.s": layer_sum("digraphs", self_s),
        }
        out.update(self._certificate_counters())
        out.update(self._covering_counters())
        for layer in LAYERS:
            out[f"share.{layer}"] = layer_sum(layer, self_s) / wall_s
        out["share.unwrapped"] = self_s[ROOT] / wall_s
        return out

    def _certificate_counters(self):
        perms = 0
        keys = set()
        calls = 0
        for qualified in ("graphs.canonical_certificate", "graphs.canonical_form"):
            for graph, result in self._kept.get(qualified, ()):
                calls += 1
                perms += degree_class_permutations(graph)
                keys.add((qualified, _graph_key(result)))
        return {
            "graphs.certificate_perms": perms,
            "graphs.certificate_unique_frac": len(keys) / calls if calls else 0.0,
        }

    def _covering_counters(self):
        certify = self.original("graphs.canonical_certificate") or _graph_key
        classes = {}
        states = 0
        kept = self._kept.get("walks.covering_parity_profile", ())
        for motif, max_d in kept:
            if motif not in classes:
                classes[motif] = certify(motif)
            if max_d >= 2 * motif.m:
                states += motif.n * 3**motif.m * max_d
        distinct = len(set(classes.values()))
        return {
            "walks.covering_states": states,
            "walks.covering_unique_motif_frac": distinct / len(kept) if kept else 0.0,
        }


def _graph_key(value):
    if isinstance(value, (bytes, str, int)):
        return value
    return (value.n, tuple(value.edges))


def degree_class_permutations(graph):
    """Product over degree classes of (class size)!: the relabellings a
    degree-respecting brute-force certificate search tries."""
    degree = [0] * graph.n
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    total = 1
    for size in Counter(degree).values():
        total *= math.factorial(size)
    return total
