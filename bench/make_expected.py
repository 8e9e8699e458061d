"""Regenerate data/expected.json from the package in src/.

    python3 bench/make_expected.py

Runs every pipeline job of dense-small and sparse-long once, unrelabelled,
and stores mu0 and each nonzero (sigma^2, mu) pair; for verify-corpus it
stores the names of the verify checks.  The gate compares every benchmark
result with this file, so regenerate it only for an intended output change,
and say so where that change is described.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hyperspectra  # noqa: E402
from hyperspectra import verify  # noqa: E402

from gate import EXPECTED  # noqa: E402
from workloads import DENSE_SMALL, SPARSE_LONG  # noqa: E402


def main():
    expected = {}
    for name, (n, edges), k in DENSE_SMALL + SPARSE_LONG:
        graph = hyperspectra.Graph(n, tuple(edges))
        if k == 2:
            result = hyperspectra.beta(graph)
        else:
            result = hyperspectra.char_poly_power(graph, k)
        expected[name] = {
            "k": k,
            "mu0": str(result.mu0),
            "factors": [[f.sigma_sq, str(f.mu)] for f in result.factors if f.mu != 0],
        }
        print(name, result.to_text(), file=sys.stderr)
    expected["verify"] = {"checks": [name for name, _ in verify.CHECKS]}
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    EXPECTED.write_text(text)


if __name__ == "__main__":
    main()
