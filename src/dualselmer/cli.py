"""Command-line surface: classify, paper-example, euler and torsion commands
with canonical JSON output.

Exit codes: 0 ok, 1 computational failure, 2 hypothesis failure, 64 usage.
JSON serialization is canonical (sorted keys, two-space indent, trailing
newline); fields that can exceed 64 bits (curve coefficients, unit-root
values) are emitted as decimal strings so every JSON parser round-trips them
exactly.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import classify as classify_mod
from . import lfunc, registry, torsion
from .curve import (
    Additive,
    Good,
    WeierstrassCurve,
    is_cm,
    is_good_ordinary,
    reduction_type,
)
from .errors import (
    DualSelmerError,
    HypothesisFailure,
    NotOrdinary,
    NotPrime,
)
from .integers import is_prime

EXIT_OK = 0
EXIT_COMPUTATION = 1
EXIT_HYPOTHESIS = 2
EXIT_USAGE = 64

SCHEMA_VERSION = 1


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; the documented usage code is 64
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def dumps_canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _reduction_dict(red) -> dict:
    if isinstance(red, Good):
        return {"type": red.kind, "trace": red.trace}
    if isinstance(red, Additive):
        return {
            "type": red.kind,
            "potentially_multiplicative": red.potentially_multiplicative,
        }
    return {"type": red.kind}


def _profile_dict(profile) -> dict | None:
    if profile is None:
        return None
    return {
        "x_factor_degrees": list(profile.x_factor_degrees),
        "point_degrees": list(profile.point_degrees),
    }


def report_to_dict(report: classify_mod.ClassificationReport) -> dict:
    evidence = [
        {
            "q": ev.q,
            "f": ev.f,
            "reduction_over_Q": _reduction_dict(ev.reduction_over_Q),
            "split_over_K": ev.split_over_K,
            "torsion_profile": _profile_dict(ev.torsion_profile),
            "class": ev.prime_class,
            "primes_in_K": ev.primes_in_K,
            "primes_in_Kcyc": ev.primes_in_Kcyc,
        }
        for ev in report.evidence
    ]
    return {
        "schema_version": SCHEMA_VERSION,
        "inputs": {
            "p": report.p,
            "label_E": report.label_E,
            "label_A": report.label_A,
            "a_invariants_E": [str(a) for a in report.curve_E.a_invariants],
            "a_invariants_A": [str(a) for a in report.curve_A.a_invariants],
            "lambda": report.lam,
            "mu": report.mu,
            "rk_zp": report.rk_zp,
        },
        "hypotheses": {
            "ordinary_ok": report.ordinary_ok,
            "cm_free_ok": report.cm_free_ok,
            "pro_p_status": report.pro_p_status,
        },
        "evidence": evidence,
        "summary": {
            "P0": list(report.p0),
            "P1": list(report.p1),
            "P2": list(report.p2),
            "n1_cyc": report.n1_cyc,
            "n2_cyc": report.n2_cyc,
            "rank": report.lambda_h_rank,
            "verdict": report.verdict,
            "caveats": list(report.caveats),
        },
    }


def render_text(report: classify_mod.ClassificationReport) -> str:
    # narrative order: P0, reduction types, torsion factorizations, conclusion
    def curve_line(label, curve):
        name = f"{label} " if label else ""
        return f"{name}{list(curve.a_invariants)}"

    lines = [
        f"p = {report.p}",
        f"E = {curve_line(report.label_E, report.curve_E)}",
        f"A = {curve_line(report.label_A, report.curve_A)}",
        f"P0 (bad primes of A away from p): {{{', '.join(map(str, report.p0))}}}",
        "reduction of E at the primes of P0:",
    ]
    for ev in report.evidence:
        red = ev.reduction_over_Q
        if isinstance(red, Good):
            desc = f"good, a_q = {red.trace}"
        elif isinstance(red, Additive):
            desc = "additive"
        else:
            split = "splits" if ev.split_over_K else "stays nonsplit"
            desc = f"{red.kind.replace('_', ' ')}, {split} over K_v"
        lines.append(f"  q = {ev.q} (f = {ev.f}): {desc}")
    torsion_lines = [
        f"  q = {ev.q}: x-factor degrees {list(ev.torsion_profile.x_factor_degrees)}, "
        f"point degrees {list(ev.torsion_profile.point_degrees)}"
        for ev in report.evidence
        if ev.torsion_profile is not None
    ]
    if torsion_lines:
        lines.append(f"{report.p}-division polynomial factor degrees at good primes:")
        lines.extend(torsion_lines)
    lines.append(
        f"P1 = {{{', '.join(map(str, report.p1))}}}, "
        f"P2 = {{{', '.join(map(str, report.p2))}}}"
    )
    lines.append(f"n1_cyc = {report.n1_cyc}, n2_cyc = {report.n2_cyc}")
    if report.lambda_h_rank is not None:
        lines.append(
            f"Lambda(H)-rank = rk_Zp + n1_cyc + 2*n2_cyc = "
            f"{report.rk_zp} + {report.n1_cyc} + 2*{report.n2_cyc} = "
            f"{report.lambda_h_rank}"
        )
    else:
        lines.append("Lambda(H)-rank: not computed (rk_zp not supplied)")
    lines.append(f"pro-p status: {report.pro_p_status}")
    lines.append(f"verdict: {report.verdict}")
    lines.append("caveats:")
    lines.extend(f"  - {c}" for c in report.caveats)
    return "\n".join(lines) + "\n"


def _parse_coeffs(text: str) -> WeierstrassCurve:
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError("expected 5 comma-separated integers")
    try:
        return WeierstrassCurve(*(int(p) for p in parts))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _int_at_least(low: int):
    # argparse type: an int below low is a usage error naming the flag
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


def _resolve(args, *which):
    """(curve, label) for each X in which ("E", "A", or "" for the
    single-curve --curve/--label pair), from --curve[-X] coefficients or a
    --label[-X] registry lookup.  Every pair of flags is checked before the
    registry is read, and it is read at most once."""
    picks = []
    for x in which:
        suffix = f"-{x}" if x else ""
        attr = suffix.replace("-", "_")
        coeffs, label = getattr(args, "curve" + attr), getattr(args, "label" + attr)
        if (coeffs is None) == (label is None):
            raise UsageError(f"give exactly one of --curve{suffix} or --label{suffix}")
        picks.append((coeffs, label))
    if all(label is None for _, label in picks):
        return picks
    table = registry.load_registry(args.registry)
    for _, label in picks:
        if label is not None and label not in table:
            raise UsageError(f"label {label!r} not in the registry")
    return [(coeffs, None) if label is None else (table[label], label)
            for coeffs, label in picks]


class UsageError(Exception):
    pass


def _check_p(p: int) -> None:
    if p < 5 or not is_prime(p):
        raise HypothesisFailure("p must be a prime >= 5")


def _checked_report(E, A, p, **kwargs) -> classify_mod.ClassificationReport:
    # every refusal comes before any factoring, and the report reuses the
    # hypotheses decided here
    _check_p(p)
    if is_cm(E) is not None or is_cm(A) is not None:
        raise HypothesisFailure("both curves must be without complex multiplication")
    if not is_good_ordinary(E, p):
        raise HypothesisFailure(f"E must have good ordinary reduction at {p}")
    return classify_mod.build_report(
        E, A, p, ordinary_ok=True, cm_free_ok=True, **kwargs
    )


def _write_report(report, text: bool) -> int:
    if text:
        sys.stdout.write(render_text(report))
    else:
        sys.stdout.write(dumps_canonical(report_to_dict(report)))
    return EXIT_OK


def _cmd_classify(args) -> int:
    (E, label_E), (A, label_A) = _resolve(args, "E", "A")
    report = _checked_report(
        E, A, args.p, lam=args.lam, mu=args.mu, rk_zp=args.rk_zp,
        label_E=label_E, label_A=label_A,
    )
    return _write_report(report, args.text)


PAPER_EXAMPLE_CAVEAT = (
    "paper-conditional: lambda = mu = rk_zp = 0 are the published "
    "invariants for this example, assumed rather than computed"
)


def paper_example_report(registry_path=None) -> classify_mod.ClassificationReport:
    """The built-in example: E = 21a4, A = 1950y1, p = 5, with the published
    lambda = mu = rk_zp = 0 assumed."""
    table = registry.load_registry(registry_path)
    return _checked_report(
        table["21a4"], table["1950y1"], 5, lam=0, mu=0, rk_zp=0,
        label_E="21a4", label_A="1950y1", extra_caveats=(PAPER_EXAMPLE_CAVEAT,),
    )


def _cmd_paper_example(args) -> int:
    return _write_report(paper_example_report(args.registry), args.text)


def _cmd_euler(args) -> int:
    [(curve, _)] = _resolve(args, "")
    if not is_prime(args.q):
        raise NotPrime(f"{args.q} is not prime")
    if args.p is not None:
        _check_p(args.p)
    factor = lfunc.euler_factor(curve, args.q)
    root = None
    if args.p is not None:
        red = reduction_type(curve, args.p)
        if not isinstance(red, Good):
            raise NotOrdinary(f"no good reduction at {args.p}")
        root = lfunc.unit_root(red.trace, args.p, args.precision)
    if args.json:
        payload = {"q": factor.q, "coefficients": list(factor.coeffs)}
        if root is not None:
            payload["unit_root"] = {
                "p": root.p,
                "precision": root.precision,
                "value": str(root.value),
            }
        sys.stdout.write(dumps_canonical(payload))
    else:
        sys.stdout.write(f"{factor}\n")
        if root is not None:
            sys.stdout.write(f"unit root: {root.value} (mod {root.p}^{root.precision})\n")
    return EXIT_OK


def _cmd_torsion(args) -> int:
    [(curve, _)] = _resolve(args, "")
    profile = torsion.torsion_point_degrees(curve, args.p, args.q, args.f)
    tower = torsion.has_p_power_point_degree(profile)
    if args.json:
        payload = {
            "p": args.p,
            "q": args.q,
            "f": args.f,
            "x_factor_degrees": list(profile.x_factor_degrees),
            "point_degrees": list(profile.point_degrees),
            "tower_torsion": tower,
        }
        sys.stdout.write(dumps_canonical(payload))
    else:
        sys.stdout.write(
            f"x-factor degrees over F_({args.q}^{args.f}): "
            f"{list(profile.x_factor_degrees)}\n"
            f"point degrees: {list(profile.point_degrees)}\n"
            f"tower torsion: {'true' if tower else 'false'}\n"
        )
    return EXIT_OK


def _add_output_flags(sub):
    group = sub.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true", default=True)
    group.add_argument(
        "--text", dest="text", action="store_true", default=False,
        help="human-readable narrative instead of JSON",
    )


def _add_single_curve_flags(sub):
    sub.add_argument("--curve", type=_parse_coeffs, metavar="a1,a2,a3,a4,a6")
    sub.add_argument("--label", help="registry label such as 21a4")


@functools.cache
def build_parser() -> _Parser:
    """The CLI's parser, built once per process; main reuses it on every
    call, which is safe because parse_args keeps no state between calls."""
    parser = _Parser(prog="dualselmer")
    parser.add_argument(
        "--registry", default=None, help="path to an alternative curve registry"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify the primes of P0 and evaluate the rank formula"
    )
    p_classify.add_argument("--p", type=int, required=True)
    p_classify.add_argument("--curve-E", type=_parse_coeffs, metavar="a1,a2,a3,a4,a6")
    p_classify.add_argument("--label-E")
    p_classify.add_argument("--curve-A", type=_parse_coeffs, metavar="a1,a2,a3,a4,a6")
    p_classify.add_argument("--label-A")
    p_classify.add_argument("--lambda", dest="lam", type=_int_at_least(0), default=None)
    p_classify.add_argument("--mu", type=_int_at_least(0), default=None)
    p_classify.add_argument("--rk-zp", type=_int_at_least(0), default=None)
    _add_output_flags(p_classify)
    p_classify.set_defaults(func=_cmd_classify)

    p_example = sub.add_parser(
        "paper-example", help="run the built-in end-to-end example"
    )
    _add_output_flags(p_example)
    p_example.set_defaults(func=_cmd_paper_example)

    p_euler = sub.add_parser("euler", help="local Euler factor, optional unit root")
    _add_single_curve_flags(p_euler)
    p_euler.add_argument("--q", type=int, required=True)
    p_euler.add_argument("--p", type=int, default=None)
    p_euler.add_argument(
        "--precision", type=_int_at_least(1), default=lfunc.DEFAULT_PRECISION
    )
    p_euler.add_argument("--json", action="store_true", default=False)
    p_euler.set_defaults(func=_cmd_euler)

    p_torsion = sub.add_parser(
        "torsion", help="torsion field degree profile over F_(q^f)"
    )
    _add_single_curve_flags(p_torsion)
    p_torsion.add_argument("--p", type=int, required=True)
    p_torsion.add_argument("--q", type=int, required=True)
    p_torsion.add_argument("--f", type=int, required=True)
    p_torsion.add_argument("--json", action="store_true", default=False)
    p_torsion.set_defaults(func=_cmd_torsion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        # parsing is inside the try: --curve coefficients with a zero
        # discriminant raise SingularCurve from the argparse type hook
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code or 0
    except UsageError as exc:
        print(f"dualselmer: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except HypothesisFailure as exc:
        print(f"dualselmer: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except DualSelmerError as exc:
        print(f"dualselmer: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
