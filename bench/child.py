"""One cold benchmark process: import the package, run one job list, check it.

    python3 bench/child.py SPAWN_TIME setup     # import only
    python3 bench/child.py SPAWN_TIME run < request.json

SPAWN_TIME is the parent's time.monotonic() just before it started this
interpreter; CLOCK_MONOTONIC is shared by all processes, so setup_s is the
time from interpreter start until `import hyperspectra` returned.  The
request is {"jobs": [...], "trace": bool, "spans": bool} with jobs from
workloads.py.  Jobs run one after another under a per-job time budget
(SIGALRM); the result is one JSON object on stdout.
"""

import os
import sys
import time

SPAWN = float(sys.argv[1])
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hyperspectra  # noqa: E402

SETUP_S = time.monotonic() - SPAWN

import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402

import mpmath  # noqa: E402
import mpmath.libmp  # noqa: E402

from gate import check_pipeline, load_expected, verify_outcome  # noqa: E402
from tracer import Tracer  # noqa: E402


class JobTimeout(BaseException):
    """Raised by SIGALRM.  A BaseException, so that the package's
    `except Exception` boundaries (verify turns exceptions into failed
    checks) cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def environment():
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def prepare(job):
    """The job's inputs as package objects, built before the timed region."""
    if job["kind"] == "verify":
        return [hyperspectra.Graph(n, tuple(map(tuple, e))) for n, e in job["graphs"]]
    return hyperspectra.Graph(job["n"], tuple(map(tuple, job["edges"])))


def call(job, graph):
    """The public API call a user makes for this job, with default arguments."""
    if job["kind"] == "charpoly":
        return hyperspectra.char_poly_power(graph, job["k"])
    if job["kind"] == "beta":
        return hyperspectra.beta(graph)
    return hyperspectra.run_verify_suite(scope="full", seed_graphs=graph)


def run_jobs(jobs, inputs, tracer):
    """Run the job list in order; returns (records, results, wall seconds)."""
    records, results = [], []
    start = time.perf_counter()
    for job, graph in zip(jobs, inputs):
        root = tracer.begin_job() if tracer else None
        t0 = time.perf_counter()
        result, status, detail = None, "done", ""
        try:
            signal.setitimer(signal.ITIMER_REAL, job["budget_s"])
            try:
                result = call(job, graph)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            status, detail = "timeout", f"over its {job['budget_s']} s budget"
        except Exception as exc:  # noqa: BLE001 - a raising job is a failed job
            status, detail = "error", f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if root is not None:
            tracer.end_job(root)
        records.append(
            {"name": job["name"], "seconds": seconds, "status": status, "detail": detail}
        )
        results.append(result)
    return records, results, time.perf_counter() - start


def gate(jobs, inputs, records, results, expected):
    """Check every finished job; returns (attempted, failed, verify check times)."""
    attempted = failed = 0
    check_ms = {}
    for job, graph, record, result in zip(jobs, inputs, records, results):
        if job["kind"] == "verify":
            if result is None:
                attempted += len(expected["verify"]["checks"])
                failed += len(expected["verify"]["checks"])
                continue
            count, bad = verify_outcome(result)
            check_ms = {c.name: c.elapsed_ms for c in result.checks}
            attempted += count
            failed += len(bad)
            if bad:
                record["status"], record["detail"] = "wrong", "failed: " + ", ".join(bad)
            continue
        attempted += 1
        if result is None:
            failed += 1
            continue
        try:
            problems = check_pipeline(
                hyperspectra, graph, job["k"], result, expected[job["name"]]
            )
        except Exception as exc:  # noqa: BLE001 - a result the gate cannot read fails
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        if problems:
            failed += 1
            record["status"], record["detail"] = "wrong", "; ".join(problems)
    return attempted, failed, check_ms


def main():
    if os.path.dirname(os.path.abspath(hyperspectra.__file__)) != os.path.join(
        SRC, "hyperspectra"
    ):
        sys.exit(f"imported {hyperspectra.__file__}, not the checkout's src/")
    if sys.argv[2] == "setup":
        print(json.dumps({"setup_s": SETUP_S}))
        return
    request = json.load(sys.stdin)
    jobs = request["jobs"]
    inputs = [prepare(job) for job in jobs]
    expected = load_expected()
    signal.signal(signal.SIGALRM, _alarm)

    tracer = Tracer() if request["trace"] else None
    if tracer:
        tracer.install()
    records, results, wall_s = run_jobs(jobs, inputs, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    attempted, failed, check_ms = gate(jobs, inputs, records, results, expected)
    out = {
        "setup_s": SETUP_S,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "jobs": records,
        "verify_check_ms": check_ms,
        "env": environment(),
    }
    if tracer:
        out["layers"] = tracer.metrics(wall_s)
        out["absent"] = tracer.absent
        if request.get("spans"):
            out["spans"] = tracer.spans()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
