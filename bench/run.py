"""Cold-process benchmark of hyperspectra's exact k-power spectra.

    python3 bench/run.py --workload dense-small --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload in turn

Every sample is a fresh interpreter (bench/child.py), because the package's
caches are process-wide and a user starts every graph cold.  A run first
starts one unmeasured child (it writes the bytecode cache), then rounds
of SETUP_PER_ROUND import-only children and one job-list child, one
process at a time, for at most about --seconds: another round starts only
while the slowest round so far still fits.  Each job-list child runs the
workload's whole job list under per-job budgets and checks every result
(gate.py).

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s (median
over every child), wall_s (median over job-list children), peak_rss_mb.
The two times are scaled to a reference host speed by a yardstick timed
before and after every job-list child (see YARDSTICK_REF_S).
--trace 1 alternates untraced and traced children and reports the
per-layer metrics (medians over traced children) with the tracing
overhead.  The last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; the lines before it give
each metric with its unit and sample count, failed_frac, and the
environment.  The exit code is 1 when any output failed its check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, jobs_for  # noqa: E402

SETUP_PER_ROUND = 4  # import-only children before each job-list child
# Seconds the yardstick takes on the reference host (2-core x86 VM, Python
# 3.11).  Reported times are scaled by YARDSTICK_REF_S / (the run's median
# yardstick time): this shared host's speed drifts by 20-40% over minutes,
# which is more than any bound could absorb.
YARDSTICK_REF_S = 0.5
RUN_LIMIT_S = 170  # a run, with its slowest child, must end before this
CHILD = str(HERE / "child.py")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def start_child(mode, request=None, timeout=None):
    """Run one child to completion; returns its parsed output, or None when it
    crashed or was killed at its timeout."""
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, repr(spawn), mode],
            input=json.dumps(request) if request is not None else "",
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def yardstick_s():
    """Seconds for fixed pure-Python work like the package's hot loops: a
    covering-walk DP over dict states (a frozen copy of the package's
    three-state DP, on the wheel W4), Fraction sums, and an mpmath solve
    at 256 bits.  It calls nothing in the package, so no change there can
    move it."""
    start = time.perf_counter()
    n, edges, max_d = 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)], 24
    pow3 = [3**i for i in range(len(edges))]
    moves = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        moves[u].append((v, i))
        moves[v].append((u, i))
    closed = 0
    for first in range(n):
        states = {(first, 0): 1}
        for _ in range(max_d):
            nxt = {}
            for (v, code), count in states.items():
                for w, e in moves[v]:
                    step = pow3[e] if code // pow3[e] % 3 < 2 else -pow3[e]
                    nxt[(w, code + step)] = nxt.get((w, code + step), 0) + count
            states = nxt
        closed += states.get((first, 3 ** len(edges) - 1), 0)
    acc = Fraction(0)
    for i in range(1, 6000):
        acc += Fraction(closed % 97 + 1, i * i + 1)
    with mpmath.mp.workprec(256):
        size = 24
        a = mpmath.matrix(size)
        for r in range(size):
            for c in range(size):
                a[r, c] = mpmath.mpf(c + 2) ** (r + 1) / (r + c + 1)
        mpmath.lu_solve(a, mpmath.matrix([1] * size))
    return time.perf_counter() - start


def measure(workload, seed, seconds, trace, keep_spans=False):
    """One run of one workload; returns a record with every sample."""
    jobs = jobs_for(workload, seed)
    t0 = time.monotonic()
    budget = sum(job["budget_s"] for job in jobs) + 10
    if start_child("setup") is None:
        raise SystemExit("the package does not import")

    setup_s, untraced, traced, broken, rounds = [], [], [], 0, []
    yardstick = []
    while True:
        elapsed = time.monotonic() - t0
        enough = untraced and (traced or not trace)
        if enough and elapsed + max(rounds) > seconds:
            break
        started = time.monotonic()
        yardstick.append(yardstick_s())
        for _ in range(SETUP_PER_ROUND):
            out = start_child("setup")
            if out is None:
                raise SystemExit("an import-only child failed")
            setup_s.append(out["setup_s"])
        want_trace = trace and len(traced) < len(untraced)
        out = start_child(
            "run",
            {"jobs": jobs, "trace": want_trace, "spans": keep_spans},
            timeout=min(budget, RUN_LIMIT_S - elapsed),
        )
        yardstick.append(yardstick_s())
        rounds.append(time.monotonic() - started)
        if out is None:
            broken += 1
            break
        (traced if want_trace else untraced).append(out)
        setup_s.append(out["setup_s"])
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": jobs,
        "setup_s": setup_s,
        "yardstick_s": yardstick,
        "untraced": untraced,
        "traced": traced,
        "broken_children": broken,
        "run_s": time.monotonic() - t0,
    }


def end_to_end(record):
    """metric -> (value, sample count, raw value before the speed scaling)"""
    walls = [c["wall_s"] for c in record["untraced"]]
    scale = YARDSTICK_REF_S / statistics.median(record["yardstick_s"])
    setup = statistics.median(record["setup_s"])
    wall = statistics.median(walls)
    rss = statistics.median(c["peak_rss_mb"] for c in record["untraced"])
    return {
        "setup_s": (setup * scale, len(record["setup_s"]), setup),
        "wall_s": (wall * scale, len(walls), wall),
        "peak_rss_mb": (rss, len(walls), rss),
    }


def per_layer(record):
    traced = record["traced"]
    samples = {}
    for child in traced:
        values = dict(child["layers"])
        for check, ms in child["verify_check_ms"].items():
            values[f"verify.{check.replace('/', '.')}_s"] = ms / 1000
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    values = {name: statistics.median(v) for name, v in samples.items()}
    traced_wall = statistics.median(c["wall_s"] for c in traced)
    untraced_wall = statistics.median(c["wall_s"] for c in record["untraced"])
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
    return values


def outcome(record):
    children = record["untraced"] + record["traced"]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    if record["broken_children"]:
        # a crashed or killed child fails every job it had
        attempted += len(record["jobs"]) * record["broken_children"]
        failed += len(record["jobs"]) * record["broken_children"]
    return attempted, failed


def report(record, spec):
    """Human-readable lines, then the result object for this record."""
    workload, trace = record["workload"], record["trace"]
    attempted, failed = outcome(record)
    correct = failed == 0 and not record["broken_children"]
    lines = []
    metrics = {}
    if record["untraced"] and (record["traced"] or not trace):
        if trace:
            values = per_layer(record)
            chosen = spec["per_layer"]
            count = len(record["traced"])
            for m in chosen:
                metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        else:
            values = end_to_end(record)
            for m in spec["end_to_end"]:
                value, count, raw = values[m["name"]]
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                lines.append(
                    f"{workload}: {m['name']} = {value:.6g} {m['unit']} "
                    f"(median of {count}; as measured {raw:.6g})"
                )
            yardstick = statistics.median(record["yardstick_s"])
            lines.append(
                f"{workload}: yardstick {yardstick:.4f} s (median of "
                f"{len(record['yardstick_s'])}), reference {YARDSTICK_REF_S} s"
            )
    frac = failed / attempted if attempted else 1.0
    lines.append(
        f"{workload}: failed_frac = {frac:.6g} frac ({failed} of {attempted} "
        f"jobs or verify checks failed)"
    )
    children = record["untraced"] + record["traced"]
    for child in children:
        for job in child["jobs"]:
            if job["status"] != "done":
                lines.append(f"{workload}: {job['name']} {job['status']}: {job['detail']}")
    if trace and record["traced"]:
        lines.append(
            f"{workload}: traced wall_s {metrics['trace.wall_s']['value']:.4f} s, "
            f"untraced {metrics['trace.untraced_wall_s']['value']:.4f} s, "
            f"overhead {metrics['trace.overhead_s']['value']:+.4f} s "
            f"(median of {count} traced, {len(record['untraced'])} untraced)"
        )
        shares = sorted(
            ((v["value"], k) for k, v in metrics.items() if k.startswith("share.")),
            reverse=True,
        )
        lines.append(
            f"{workload}: self-time shares "
            + ", ".join(f"{k[6:]} {v:.1%}" for v, k in shares)
        )
        absent = record["traced"][0]["absent"]
        if absent:
            lines.append(f"{workload}: not in the package, reported as 0: {', '.join(absent)}")
    env = dict(children[0]["env"]) if children else {}
    env.update(seed=record["seed"], workload=workload, trace=trace)
    lines.append(f"{workload}: environment {json.dumps(env, sort_keys=True)}")
    return lines, {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write every sample (and spans, if traced) here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hyperspectra" / "__init__.py").is_file():
        sys.exit(f"no package source at {ROOT / 'src' / 'hyperspectra'}")
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    records, results = [], []
    for workload in names:
        record = measure(workload, args.seed, seconds, bool(args.trace), bool(args.out))
        lines, result = report(record, spec)
        print("\n".join(lines), flush=True)
        records.append(record)
        results.append((workload, result))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh)

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{w}.{name}": value
                for w, r in results
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
