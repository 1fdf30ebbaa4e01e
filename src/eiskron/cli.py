"""Command-line front end: expansion, verification, scanning, numerics.

Exit codes: 0 success / verified, 1 verification failure, 2 invalid input.
With --json, exactly one JSON document is written to stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from .eisenstein import EisensteinIndex, bg_tilde_s, eisenstein_qexp
from .relations import (RelationInstance, poly_P, recurrence_check, run_scan,
                        verify_instance)

DEFAULT_ORDER = 40


def _pair_int(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(",")
        return int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'i,j', got {text!r}")


def _workers(text: str) -> int:
    """Worker count: at least 1, clamped to the CPUs this process may run
    on (its affinity, where the OS reports one)."""
    n = int(text)  # argparse reports a ValueError and exits 2
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    if hasattr(os, "sched_getaffinity"):
        return min(n, len(os.sched_getaffinity(0)))
    return min(n, os.cpu_count() or 1)


def _pair_float(text: str) -> complex:
    try:
        re, im = text.split(",")
        return complex(float(re), float(im))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="eiskron",
                                 description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="print the q-expansion of one series")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--a", type=_pair_int, required=True, metavar="A1,A2")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_expand)

    p = sub.add_parser("bg-series", help="print the Gamma_1(N) variant series")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_bg_series)

    p = sub.add_parser("verify", help="verify one 3-term relation instance")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--weight", type=int, required=True)
    p.add_argument("--split", type=_pair_int, required=True, metavar="K1,K2")
    p.add_argument("--a", type=_pair_int, required=True, metavar="A1,A2")
    p.add_argument("--b", type=_pair_int, required=True, metavar="B1,B2")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("scan", help="verify every instance up to given bounds")
    p.add_argument("--level-max", type=int, required=True)
    p.add_argument("--weight-max", type=int, default=6)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--parallel", type=_workers, default=1, metavar="N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_scan)

    p = sub.add_parser("recurrences", help="check the closed-form recurrence system")
    p.add_argument("--degree-max", type=int, default=10)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_recurrences)

    p = sub.add_parser("numeric", help="floating-point checks of the analytic theory")
    p.add_argument("--check", required=True, choices=list(NUMERIC_CHECKS))
    p.add_argument("--tau", type=_pair_float, default=complex(0.3, 1.1), metavar="RE,IM")
    # defaults per check, in NUMERIC_CHECKS
    p.add_argument("--weight", type=int, default=None)
    p.add_argument("--split", type=_pair_int, default=None, metavar="K1,K2")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_numeric)
    return ap


def _emit(args, doc: dict, human: str) -> None:
    print(json.dumps(doc) if args.json else human)


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
    summary = run_scan(args.level_max, args.weight_max, args.order,
                       workers=args.parallel)
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


# a numeric report passes when its residual is below its check's tolerance:
# TOL for the relation and T-modularity residuals, FD_TOL for the
# finite-difference checks, 1e-6 for S-modularity and the asymptotics
TOL = 1e-8
FD_TOL = 1e-5


def _numeric_relation(nm, args, cfg, draw_point) -> list:
    k = args.weight
    if k < 2:
        raise ValueError("relation check needs weight >= 2")
    points = [(draw_point(), draw_point()) for _ in range(3)]
    points.append((nm.TorusPoint(1 / math.sqrt(5), 1 / math.sqrt(7)),
                   nm.TorusPoint(1 / math.sqrt(3), 1 / math.sqrt(11))))
    tail = nm.fourier_tail_estimate(k, cfg)
    grids = [nm._relation_grids(k, u, v, cfg) for u, v in points]
    reports = []
    for k1 in range(k - 1):
        k2 = k - 2 - k1
        for (u, v), E in zip(points, grids):
            reports.append(nm.make_report(
                "relation", {"split": [k1, k2], "u": list(u), "v": list(v)},
                nm._relation_residual(k1, k2, E), tail, TOL))
    return reports


def _numeric_diff(nm, args, cfg, draw_point) -> list:
    k = args.weight
    p = draw_point()
    res = nm.check_diff_relation(k, p, cfg, nm.FD_STEP)
    return [nm.make_report("diff", {"weight": k, "p": list(p), "h": nm.FD_STEP}, res,
                           nm.fourier_tail_estimate(k, cfg), FD_TOL)]


def _numeric_bracket(nm, args, cfg, draw_point) -> list:
    k1, k2 = args.split
    u, v = draw_point(), draw_point()
    e1, e2 = nm.check_diff_bracket(poly_P(k1, k2), u, v, cfg)
    tail = nm.fourier_tail_estimate(k1 + k2 + 2, cfg)
    return [nm.make_report("bracket", {"split": [k1, k2], "u": list(u), "v": list(v),
                                       "side": side}, err, tail, FD_TOL)
            for side, err in (("u", e1), ("v", e2))]


def _numeric_modularity(nm, args, cfg, draw_point) -> list:
    k = args.weight
    x = nm.TorusPoint(float(Fraction(1, 3)), 0.0)
    reports = []
    for name, gam, tol in (("T", ((1, 1), (0, 1)), TOL),
                           ("S", ((0, -1), (1, 0)), 1e-6)):
        res = nm.check_modularity(k, x, gam, cfg)
        reports.append(nm.make_report(
            "modularity", {"weight": k, "gamma": name, "x": list(x)},
            res, nm.modularity_tail_estimate(k, gam, cfg), tol))
    return reports


def _numeric_asymptotics(nm, args, cfg, draw_point) -> list:
    rep = nm.check_asymptotics(args.weight, cfg)
    rep["pass"] = bool(rep["limit_error"] < 1e-6
                       and rep.get("real_ray_error", 0.0) < 1e-6)
    return [rep]


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
    human_lines = []
    for r in reports:
        res = r.get("residual", r.get("limit_error"))
        human_lines.append(
            f"{r['check']}: residual={res:.3e} "
            f"tail_estimate={r.get('tail_estimate', 0.0):.3e} "
            f"{'PASS' if r['pass'] else 'FAIL'}")
    _emit(args, doc, "\n".join(human_lines))
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
