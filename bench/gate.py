"""Output gate: every job's result is checked before it counts as done.

Pipeline jobs (char_poly_power at k >= 3, and beta) are checked against
the expected data in data/expected.json and against identities that do not
go through the multiplicity solve:

* mu0, and every expected (sigma^2, mu) pair read back through
  `exponent_near` (a factor the result drops reads as exponent 0);
* the total degree (n + (k-2)m)(k-1)^(n + (k-2)m - 1), which is n for beta;
* k >= 3: `spectral_radius_multiplicity` equals the exponent at the
  spectral-radius cluster (`radius_cluster_exponent`);
* beta: the radius exponent is 2^-(m-n+1), and 2 sum mu (sigma^2)^l equals
  the parity-closed walk count P_2l of the bitmask DP
  `walks.parity_closed_profile`.

Only `mu0`, `exponent_near` and `total_degree` of the result are read, so
the gate does not depend on how factors or diagnostics are stored.  Verify
jobs pass when no check of the returned `VerifyReport` failed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

EXPECTED = Path(__file__).resolve().parent / "data" / "expected.json"
MOMENT_REL_TOL = 1e-9


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def total_degree(n, m, k):
    size = n + (k - 2) * m
    return size * (k - 1) ** (size - 1)


def _exponent(result, sigma_sq):
    try:
        return Fraction(result.exponent_near(sigma_sq))
    except KeyError:
        return Fraction(0)


def check_pipeline(package, graph, k, result, expected):
    """Problems found in a char_poly_power (k >= 3) or beta (k = 2) result;
    an empty list means the result passes."""
    problems = []
    if Fraction(result.mu0) != Fraction(expected["mu0"]):
        problems.append(f"mu0 {result.mu0} != expected {expected['mu0']}")
    pairs = [(s, Fraction(mu)) for s, mu in expected["factors"]]
    for sigma_sq, mu in pairs:
        got = _exponent(result, sigma_sq)
        if got != mu:
            problems.append(f"exponent at sigma^2={sigma_sq!r} is {got}, expected {mu}")
    degree = total_degree(graph.n, graph.m, k)
    if Fraction(result.total_degree()) != degree:
        problems.append(f"total degree {result.total_degree()} != {degree}")

    spectrum = package.spectrum
    radius = Fraction(spectrum.radius_cluster_exponent(result, graph))
    if k >= 3:
        formula = spectrum.spectral_radius_multiplicity(graph, k)
        if radius != formula:
            problems.append(f"radius exponent {radius} != formula {formula}")
    else:
        want = Fraction(1, 2 ** (graph.m - graph.n + 1))
        if radius != want:
            problems.append(f"beta radius exponent {radius} != {want}")
        problems.extend(_parity_moment_problems(package, graph, result, pairs))
    return problems


def _parity_moment_problems(package, graph, result, pairs):
    top = len(pairs) + 1
    counts = package.walks.parity_closed_profile(graph, 2 * top)
    problems = []
    for ell in range(1, top + 1):
        lhs = 2 * sum(float(_exponent(result, s)) * s**ell for s, _ in pairs)
        rhs = counts[2 * ell]
        if abs(lhs - rhs) > MOMENT_REL_TOL * max(1.0, abs(rhs)):
            problems.append(f"parity moment l={ell}: {lhs} != P_{2 * ell} = {rhs}")
    return problems


def verify_outcome(report):
    """(checks attempted, names of failed checks) of a VerifyReport."""
    failed = [c.name for c in report.checks if c.status == "fail"]
    return len(report.checks), failed
