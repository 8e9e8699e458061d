"""Command-line front end.

Subcommands: walks, census, signed, oracle, charpoly, beta, matching,
geomean, amgm, radius-mult, verify.  Exit codes: 0 success, 1 computation
error, 2 usage error.

The oracle modules (digraphs, means, verify) are imported by the commands
that run them, so `charpoly` and `beta` load only the exact pipeline.

JSON output is byte-deterministic: object keys are emitted sorted, floats at
17 significant digits, and big integers/rationals as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from . import spectrum, walks
from .graphs import (
    canonical_certificate,
    connected_subgraph_classes,
    parse_graph,
    power_hypergraph,
)
from .signed import _roots, char_poly_exact, enumerate_signings, is_balanced


def _json_dump(obj):
    """Deterministic JSON: sorted keys, fixed float formatting."""
    out = []
    _json_write(obj, out)
    return "".join(out)


def _json_write(obj, out):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            out.append(f'"{obj}"')
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            _json_write(str(key), out)
            out.append(":")
            _json_write(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _json_write(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _count(text):
    """argparse type: a negative or malformed count is a usage error."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {text!r}")
    return int(text)


class _Default(int):
    """A count left at its default, told apart from the same count given on
    the command line."""


def _finite(text):
    """argparse type: a malformed, infinite or NaN point is a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _load_graph(spec):
    """Accept a builtin name, a file path, or inline edge-list text (with
    literal backslash-n sequences standing for newlines)."""
    if spec is None:
        raise ValueError("this subcommand needs --graph")
    if "\\n" in spec:
        spec = spec.replace("\\n", "\n")
    if "\n" not in spec and ":" not in spec and os.path.exists(spec):
        with open(spec, encoding="utf-8") as handle:
            spec = handle.read()
    return parse_graph(spec)


def _exact_str(value):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value)


def _emit(args, payload, text):
    if args.format == "json":
        print(_json_dump(payload))
    else:
        print(text)


def _factored_payload(fsf):
    return {
        "k": fsf.k,
        "mu0": _exact_str(fsf.mu0),
        "factors": [
            {"sigma_sq": f.sigma_sq, "mu": _exact_str(f.mu)}
            for f in fsf.factors
        ],
    }


def _cmd_walks(args):
    if not args.covering and not isinstance(args.budget, _Default):
        args.usage_error("--budget applies only with --covering")
    g = _load_graph(args.graph)
    if args.covering:
        profile = walks.covering_parity_profile(g, args.d, state_budget=args.budget)
        kind = "covering-parity-closed"
    elif args.method == "closed":
        profile = walks.closed_walk_profile(g, args.d)
        kind = "closed"
    elif args.method == "signed_mean":
        from . import means

        profile = means.mean_signed_moments(g, args.d)
        kind = "parity-closed/signed_mean"
    else:
        profile = walks.parity_closed_profile(g, args.d)
        kind = "parity-closed/dp"
    count = profile[args.d]
    payload = {"d": args.d, "kind": kind, "count": str(count)}
    _emit(args, payload, f"{kind} walks of length {args.d}: {count}")
    return 0


def _cmd_census(args):
    g = _load_graph(args.graph)
    max_edges = args.max_edges if args.max_edges else g.m
    payload = [
        {
            "certificate": canonical_certificate(h).hex(),
            "edges": h.m,
            "vertices": h.n,
            "count": len(subsets),
        }
        for h, subsets in connected_subgraph_classes(g, max_edges)
    ]
    lines = [
        f"{entry['vertices']}v {entry['edges']}e  count {entry['count']}  "
        f"cert {entry['certificate']}"
        for entry in payload
    ]
    _emit(args, payload, "\n".join(lines) if lines else "no motifs")
    return 0


def _cmd_signed(args):
    g = _load_graph(args.graph)
    reps = enumerate_signings(g, up_to_switching=args.up_to_switching)
    payload = []
    lines = []
    for sg in reps:
        poly = char_poly_exact(sg)
        eigs = _roots(poly)
        balanced = is_balanced(sg)
        payload.append(
            {
                "signs": list(sg.signs),
                "balanced": balanced,
                "eigenvalues": list(eigs),
                "char_poly": [str(c) for c in poly],
            }
        )
        lines.append(
            f"signs {''.join('+' if s > 0 else '-' for s in sg.signs)}  "
            f"balanced={balanced}  "
            f"eigs {[round(x, 6) for x in eigs]}"
        )
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_oracle(args):
    from . import digraphs

    g = _load_graph(args.graph)
    h = power_hypergraph(g, args.k)
    value = digraphs.naive_tensor_trace(h, args.d, term_budget=args.budget)
    closed = spectrum.script_S(g, args.d, args.k)
    payload = {
        "d": args.d,
        "k": args.k,
        "trace": _exact_str(value),
        "closed_form": _exact_str(closed),
        "agree": value == closed,
    }
    lines = [
        f"Tr_{args.d} of the {args.k}-power: {_exact_str(value)} "
        f"(closed form {_exact_str(closed)}, agree={value == closed})"
    ]
    ok = value == closed
    if args.best_check:
        checks = []
        # a structure of length ell has 2 ell arcs; brute force takes 10 at most
        for ell in range(g.m, min(max(g.m + 1, args.d // args.k), 5) + 1):
            for dstar in digraphs.eulerian_structures_on(g, ell):
                formula = digraphs.eulerian_walk_count(dstar)
                brute = digraphs.eulerian_walks_by_backtracking(dstar)
                ok = ok and formula == brute
                checks.append(
                    {
                        "digraph": dstar.to_json_obj(),
                        "formula": str(formula),
                        "brute": str(brute),
                        "agree": formula == brute,
                    }
                )
                lines.append(
                    f"  BEST {formula} vs brute {brute} on "
                    f"{dstar.to_json_obj()['arcs']}"
                )
        payload["best_checks"] = checks
    _emit(args, payload, "\n".join(lines))
    return 0 if ok else 1


def _cmd_charpoly(args):
    g = _load_graph(args.graph)
    fsf = spectrum.char_poly_power(g, args.k)
    _emit(args, _factored_payload(fsf), fsf.to_text())
    return 0


def _cmd_beta(args):
    g = _load_graph(args.graph)
    fsf = spectrum.beta(g)
    _emit(args, _factored_payload(fsf), fsf.to_text())
    return 0


def _cmd_matching(args):
    from . import means

    g = _load_graph(args.graph)
    if args.method == "signed_mean":
        poly = means.mean_signed_char_poly(g)
    else:
        poly = means.matching_polynomial(g)
    payload = {"coefficients": [_exact_str(c) for c in poly]}
    terms = []
    for power in range(len(poly) - 1, -1, -1):
        c = poly[power]
        if c == 0:
            continue
        body = "" if power == 0 else ("λ" if power == 1 else f"λ^{power}")
        mag = "" if abs(c) == 1 and body else str(abs(c))
        terms.append(f"{'+' if c > 0 else '-'} {mag}{body}")
    _emit(args, payload, " ".join(terms).lstrip("+ ") or "0")
    return 0


def _cmd_geomean(args):
    from . import means

    g = _load_graph(args.graph)
    value = means.geometric_mean_evaluate(g, args.at)
    payload = {"at": args.at, "value": value}
    _emit(args, payload, f"geometric mean at {args.at}: {value!r}")
    return 0


def _cmd_amgm(args):
    from . import means

    g = _load_graph(args.graph)
    report = means.amgm_check(g, args.at)
    payload = {
        "at": report.lambda0,
        "status": report.status,
        "alpha": None if report.alpha_value is None else _exact_str(report.alpha_value),
        "beta": report.beta_value,
        "equality": report.equality,
        "detail": report.detail,
    }
    _emit(
        args,
        payload,
        f"[{report.status}] alpha >= beta at {args.at}: {report.detail}",
    )
    return 0 if report.status != "fail" else 1


def _cmd_radius_mult(args):
    g = _load_graph(args.graph)
    mult = spectrum.spectral_radius_multiplicity(g, args.k)
    payload = {
        "k": args.k,
        "multiplicity": str(mult),
        "spectral_circle_total": str(args.k * mult),
    }
    _emit(
        args,
        payload,
        f"multiplicity of the spectral radius at k={args.k}: {mult} "
        f"(spectral circle total {args.k * mult})",
    )
    return 0


def _cmd_verify(args):
    from . import verify

    seeds = [args.graph] if args.graph else None
    report = verify.run_verify_suite(scope=args.scope, seed_graphs=seeds)
    if args.format == "json":
        payload = {
            "ok": report.ok,
            "summary": report.summary(),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "detail": c.detail,
                    "elapsed_ms": c.elapsed_ms,
                }
                for c in report.checks
            ],
        }
        print(_json_dump(payload))
    else:
        for c in report.checks:
            print(f"[{c.status.upper():7s}] {c.name:32s} {c.elapsed_ms:9.1f} ms  {c.detail}")
        counts = report.summary()
        print(
            f"{counts['pass']} passed, {counts['fail']} failed, "
            f"{counts['skipped']} skipped"
        )
    return 0 if report.ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hyperspectra",
        description=(
            "Spectra of k-power hypergraphs from parity-closed walk counts, "
            "with exact oracles for every identity involved"
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--graph",
        help="builtin (path:n, cycle:n, complete:n, star:n), file path, or "
        "inline edge list ('n m\\nu v...')",
    )
    common.add_argument("--format", choices=("text", "json"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walks", parents=[common], help="exact walk counts")
    p.add_argument("--d", type=_count, required=True)
    # a default would let argparse pass "--method dp --covering"; None is dp
    kind = p.add_mutually_exclusive_group()
    kind.add_argument("--method", choices=("dp", "signed_mean", "closed"))
    kind.add_argument("--covering", action="store_true")
    p.add_argument(
        "--budget",
        type=_count,
        default=_Default(walks.COVERING_STATE_BUDGET),
        help="covering-walk DP states (default %(default)s)",
    )
    p.set_defaults(func=_cmd_walks, usage_error=p.error)

    p = sub.add_parser("census", parents=[common], help="connected motif census")
    p.add_argument("--max-edges", type=_count, default=0, help="0: all edges")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("signed", parents=[common], help="signings and spectra")
    p.add_argument("--up-to-switching", action="store_true")
    p.set_defaults(func=_cmd_signed)

    p = sub.add_parser(
        "oracle", parents=[common], help="naive trace-formula cross-check"
    )
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--d", type=_count, required=True)
    p.add_argument(
        "--best-check",
        action="store_true",
        help="also compare the Eulerian-walk formula against backtracking "
        "on the graph's digraph structures",
    )
    p.add_argument(
        "--budget",
        type=_count,
        default=walks.TRACE_TERM_BUDGET,
        help="naive-trace terms (default %(default)s)",
    )
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "charpoly", parents=[common], help="factored characteristic polynomial"
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_charpoly)

    p = sub.add_parser(
        "beta", parents=[common], help="pseudo-characteristic function (k=2)"
    )
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("matching", parents=[common], help="matching polynomial")
    p.add_argument("--method", choices=("direct", "signed_mean"), default="direct")
    p.set_defaults(func=_cmd_matching)

    p = sub.add_parser(
        "geomean", parents=[common], help="geometric mean of signed char polys"
    )
    p.add_argument("--at", type=_finite, required=True)
    p.set_defaults(func=_cmd_geomean)

    p = sub.add_parser("amgm", parents=[common], help="AM-GM comparison")
    p.add_argument("--at", type=_finite, required=True)
    p.set_defaults(func=_cmd_amgm)

    p = sub.add_parser(
        "radius-mult", parents=[common], help="spectral-radius multiplicity"
    )
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_radius_mult)

    p = sub.add_parser("verify", parents=[common], help="identity replay suite")
    p.add_argument("--scope", choices=("quick", "full"), default="quick")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
