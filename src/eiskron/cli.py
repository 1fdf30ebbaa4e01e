"""Command-line front end: expansion, verification, scanning, numerics.

Exit codes: 0 success / verified, 1 verification failure, 2 invalid input.
With --json, exactly one JSON document is written to stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from .eisenstein import EisensteinIndex, bg_tilde_s, eisenstein_qexp
from .relations import (RelationInstance, recurrence_check, run_scan, scan_sturm_order,
                        verify_instance)

DEFAULT_ORDER = 40


def _pair(form: str, make):
    """argparse type for 'x,y': make(x, y), or exit 2 naming the form."""
    def parse(text: str):
        try:
            x, y = text.split(",")
            return make(x, y)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {form!r}, got {text!r}")
    return parse


_pair_int = _pair("i,j", lambda i, j: (int(i), int(j)))
_pair_float = _pair("re,im", lambda re, im: complex(float(re), float(im)))


def _workers(text: str) -> int:
    """Worker count: at least 1, clamped to the CPUs this process may run
    on (its affinity, where the OS reports one)."""
    n = int(text)  # argparse reports a ValueError and exits 2
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    if hasattr(os, "sched_getaffinity"):
        return min(n, len(os.sched_getaffinity(0)))
    return min(n, os.cpu_count() or 1)


def _scan_order(text: str):
    """scan's --order: an int, or 'sturm', the least order that proves every
    weight of the scan (see relations.scan_sturm_order)."""
    if text == "sturm":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or 'sturm', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eiskron",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    series = argparse.ArgumentParser(add_help=False)  # one series' level and weight
    series.add_argument("--level", type=int, required=True)
    series.add_argument("--weight", type=int, required=True)

    p = sub.add_parser("expand", parents=[series], help="print the q-expansion of one series")
    p.add_argument("--a", type=_pair_int, required=True, metavar="A1,A2")
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("bg-series", parents=[series],
                       help="print the Gamma_1(N) variant series")
    p.add_argument("--a", type=int, required=True)
    p.set_defaults(run=cmd_bg_series)

    p = sub.add_parser("verify", parents=[series], help="verify one 3-term relation instance")
    p.add_argument("--split", type=_pair_int, required=True, metavar="K1,K2")
    p.add_argument("--a", type=_pair_int, required=True, metavar="A1,A2")
    p.add_argument("--b", type=_pair_int, required=True, metavar="B1,B2")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("scan", help="verify every instance up to given bounds")
    p.add_argument("--level-max", type=int, required=True)
    p.add_argument("--weight-max", type=int, default=6)
    p.add_argument("--parallel", type=_workers, default=1, metavar="N")
    p.set_defaults(run=cmd_scan)

    p = sub.add_parser("recurrences", help="check the closed-form recurrence system")
    p.add_argument("--degree-max", type=int, default=10)
    p.set_defaults(run=cmd_recurrences)

    p = sub.add_parser("numeric", help="floating-point checks of the analytic theory")
    p.add_argument("--check", required=True, choices=list(NUMERIC_CHECKS))
    p.add_argument("--tau", type=_pair_float, default=complex(0.3, 1.1), metavar="RE,IM")
    # defaults per check, in NUMERIC_CHECKS
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--split", type=_pair_int, default=None, metavar="K1,K2")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(run=cmd_numeric)



    for name, p in sub.choices.items():  # --json for all, --order where series are built
        if name not in ("recurrences", "numeric"):
            p.add_argument("--order", type=_scan_order if name == "scan" else int,
                           default=DEFAULT_ORDER)
        p.add_argument("--json", action="store_true")
    return ap


def _emit(args, doc: dict, human: str) -> None:
    try:
        print(json.dumps(doc) if args.json else human, flush=True)
    except BrokenPipeError:
        # the reader closed stdout, as `| head` does: what is left goes to
        # devnull, so that the flush at exit cannot raise again, and the
        # command still exits with its verdict
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def cmd_expand(args) -> int:
    idx = EisensteinIndex(args.weight, args.level, args.a[0], args.a[1])
    f = eisenstein_qexp(idx, args.order)
    _emit(args, f.to_json_dict(), str(f))
    return 0


def cmd_bg_series(args) -> int:
    f = bg_tilde_s(args.weight, args.level, args.a, args.order)
    _emit(args, f.to_json_dict(), str(f))
    return 0


def cmd_verify(args) -> int:
    inst = RelationInstance(args.level, args.weight, args.split[0], args.split[1],
                            args.a, args.b)
    report = verify_instance(inst, args.order)
    ok = report["residual_zero"]
    human = ("verified: residual is zero in Q(zeta_N) at order "
             f"{args.order}" if ok else
             f"FAILED: first nonzero exponent {report['first_nonzero_exponent']}"
             f"/{args.level}")
    _emit(args, report, human)
    return 0 if ok else 1


def cmd_scan(args) -> int:
    order = (scan_sturm_order(args.level_max, args.weight_max) if args.order == "sturm"
             else args.order)
    summary = run_scan(args.level_max, args.weight_max, order, workers=args.parallel)
    human = (f"instances={summary['instances']} passed={summary['passed']} "
             f"failed={summary['failed']} (order {summary['order']})")
    _emit(args, summary, human)
    return 0 if summary["failed"] == 0 else 1


def cmd_recurrences(args) -> int:
    if args.degree_max < 0:
        raise ValueError("--degree-max must be >= 0")
    report = recurrence_check(args.degree_max + 2)
    ok = report["all_pass"]
    human = (f"{len(report['checks'])} identities checked up to degree "
             f"{args.degree_max}: " + ("all pass" if ok else "FAILURES"))
    _emit(args, report, human)
    return 0 if ok else 1


# each runner hands its check's seeded draws to the numeric module's reports
def _numeric_relation(nm, args, cfg, draw_point) -> list:
    return nm.relation_reports(args.weight, [(draw_point(), draw_point()) for _ in range(3)], cfg)


def _numeric_diff(nm, args, cfg, draw_point) -> list:
    return nm.diff_reports(args.weight, draw_point(), cfg)


def _numeric_bracket(nm, args, cfg, draw_point) -> list:
    return nm.bracket_reports(*args.split, draw_point(), draw_point(), cfg)


def _numeric_modularity(nm, args, cfg, draw_point) -> list:
    return nm.modularity_reports(args.weight, cfg)


def _numeric_asymptotics(nm, args, cfg, draw_point) -> list:
    return [nm.check_asymptotics(args.weight, cfg)]


DEFAULT_SEED = 20240901

# check -> (runner, defaults of the options it accepts besides --tau and
# --json); any other of NUMERIC_OPTIONS given on the command line exits 2.
NUMERIC_CHECKS = {
    "relation": (_numeric_relation, {"weight": 2, "seed": DEFAULT_SEED}),
    "diff": (_numeric_diff, {"weight": 1, "seed": DEFAULT_SEED}),
    "bracket": (_numeric_bracket, {"split": (1, 0), "seed": DEFAULT_SEED}),
    "modularity": (_numeric_modularity, {"weight": 3}),
    "asymptotics": (_numeric_asymptotics, {"weight": 2}),
}
NUMERIC_OPTIONS = ("weight", "split", "seed")


def cmd_numeric(args) -> int:
    # imported lazily: the exact-arithmetic commands should not need numpy
    from . import numeric as nm

    run, defaults = NUMERIC_CHECKS[args.check]
    for opt in NUMERIC_OPTIONS:
        if getattr(args, opt) is None:
            setattr(args, opt, defaults.get(opt))
        elif opt not in defaults:
            raise ValueError(f"--{opt} does not apply to the {args.check} check")
    cfg = nm.NumericConfig(tau=args.tau)
    rng = random.Random(args.seed)

    def draw_point() -> nm.TorusPoint:
        return nm.TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))

    reports = run(nm, args, cfg, draw_point)
    ok = all(r["pass"] for r in reports)
    doc = {"check": args.check, "tau": [args.tau.real, args.tau.imag],
           "reports": reports, "pass": ok}
    _emit(args, doc, "\n".join(
        f"{r['check']}: residual={r.get('residual', r.get('limit_error')):.3e} "
        f"tail_estimate={r['tail_estimate']:.3e} {'PASS' if r['pass'] else 'FAIL'}"
        for r in reports))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # the package's bad-input errors subclass it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
