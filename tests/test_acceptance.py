"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The exact criteria (1-3, 8) use rational/cyclotomic arithmetic with zero
tolerance; the numeric criteria (4-7) pin the tolerances stated below.
"""

import math
import random
from fractions import Fraction

import pytest

from eiskron import numeric as nm
from eiskron.eisenstein import EisensteinIndex, eisenstein_qexp
from eiskron.relations import (coeff_alpha, coeff_beta, coeff_gamma,
                               enumerate_instances, recurrence_check, run_scan,
                               verify_instance)

TAU = 0.3 + 1.1j
ORDER = 40


def report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_exact_main_relation(capsys):
    """Every instance with N in 2..6, k in 2..8, all splits and triples,
    has a field-zero residual at order 40."""
    summary = run_scan(6, 8, ORDER)
    ok = summary["failed"] == 0 and summary["instances"] > 0
    report(capsys, 1, "exact 3-term relation scan", ok,
           f"{summary['passed']}/{summary['instances']} instances, order {ORDER}")
    assert ok, summary["failures"][:3]


def test_criterion_2_recurrence_algebra(capsys):
    """All ten derivative/boundary identities for every split with
    k1 + k2 <= 10, in exact rational arithmetic."""
    rep = recurrence_check(12)
    ok = rep["all_pass"]
    report(capsys, 2, "closed-form recurrence system", ok,
           f"{len(rep['checks'])} identities, degree <= 10")
    assert ok, [c for c in rep["checks"] if not c["pass"]][:5]


def test_criterion_3_parity_and_translation(capsys):
    """Parity and the tau -> tau+1 twist identity as field equalities for
    every valid index with N <= 8, k <= 8, at order 40."""
    checked = 0
    bad = []
    for N in range(1, 9):
        for k in range(1, 9):
            for a1 in range(N):
                for a2 in range(N):
                    if k == 2 and a1 == 0 and a2 == 0:
                        continue
                    f = eisenstein_qexp(EisensteinIndex(k, N, a1, a2), ORDER)
                    g = eisenstein_qexp(EisensteinIndex(k, N, -a1, -a2), ORDER)
                    if not g.field_equals(f.scale(Fraction((-1) ** k))):
                        bad.append(("parity", k, N, a1, a2))
                    h = eisenstein_qexp(EisensteinIndex(k, N, a1, a1 + a2), ORDER)
                    if not f.twist(1).field_equals(h):
                        bad.append(("translation", k, N, a1, a2))
                    checked += 1
    ok = not bad
    report(capsys, 3, "parity + translation modularity", ok,
           f"{checked} indices, N <= 8, k <= 8, order {ORDER}")
    assert ok, bad[:5]


def test_criterion_4_oracle_triangle(capsys):
    """Symbolic expansion (order 60), Fourier evaluator (cutoff 80) and
    windowed lattice sum (cutoff 200) agree pairwise within 1e-8 at every
    torsion point with N <= 5, k in 3..6, tau = 0.3+1.1i."""
    tol = 1e-8
    cfg = nm.NumericConfig(tau=TAU, fourier_terms=80, lattice_cutoff=200)
    worst = 0.0
    checked = 0
    bad = []
    for k in range(3, 7):
        for N in range(1, 6):
            for a1 in range(N):
                for a2 in range(N):
                    sym = eisenstein_qexp(EisensteinIndex(k, N, a1, a2),
                                          60 * N).eval_numeric(TAU)
                    p = nm.TorusPoint(a1 / N, a2 / N)
                    fou = nm.eval_E_fourier(k, p, cfg)
                    lat = nm.eval_E_lattice(k, p.to_z(TAU), TAU, cfg)
                    m = max(abs(sym - fou), abs(fou - lat), abs(sym - lat))
                    worst = max(worst, m)
                    checked += 1
                    if m >= tol:
                        bad.append((k, N, a1, a2, m))
    ok = not bad
    report(capsys, 4, "three-evaluator cross-check", ok,
           f"{checked} points, worst discrepancy {worst:.2e} < {tol:.0e}")
    assert ok, bad[:5]


def test_criterion_5_continuous_relation(capsys):
    """The 3-term relation at generic continuous parameters: residual
    < 1e-8 for k <= 8 over >= 20 seeded draws, including irrational ones."""
    tol = 1e-8
    cfg = nm.NumericConfig(tau=TAU)
    rng = random.Random(20240901)
    worst = 0.0
    draws = 0
    bad = []
    irrational = (nm.TorusPoint(1 / math.sqrt(5), 1 / math.sqrt(7)),
                  nm.TorusPoint(1 / math.sqrt(3), 1 / math.sqrt(11)))
    for k in range(2, 9):
        pairs = [(nm.TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)),
                  nm.TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)))
                 for _ in range(3)]
        pairs.append(irrational)
        for i, (u, v) in enumerate(pairs):
            k1 = (i + k) % (k - 1)
            res = nm.check_relation_numeric(k1, k - 2 - k1, u, v, cfg)
            worst = max(worst, res)
            draws += 1
            if res >= tol:
                bad.append((k, k1, res))
    ok = not bad and draws >= 20
    report(capsys, 5, "continuous-parameter relation", ok,
           f"{draws} draws, k <= 8, worst residual {worst:.2e} < {tol:.0e}")
    assert ok, bad[:5]


def test_criterion_6_differential_lemmas(capsys):
    """Finite-difference checks of both derivative formulas: error < 1e-5
    at h = 1e-4 for k <= 6, and roughly 4x error reduction on halving h."""
    tol = 1e-5
    cfg = nm.NumericConfig(tau=TAU)
    rng = random.Random(7)
    worst = 0.0
    bad = []
    for k in range(1, 7):
        p = nm.TorusPoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        err = nm.check_diff_relation(k, p, cfg, h=1e-4)
        worst = max(worst, err)
        if err >= tol:
            bad.append(("diff", k, err))
    from eiskron.relations import poly_P
    for k in range(2, 7):
        k1 = rng.randrange(k - 1)
        u = nm.TorusPoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        v = nm.TorusPoint(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        e_u, e_v = nm.check_diff_bracket(poly_P(k1, k - 2 - k1), u, v, cfg, h=1e-4)
        worst = max(worst, e_u, e_v)
        if max(e_u, e_v) >= tol:
            bad.append(("bracket", k, k1, e_u, e_v))
    # second-order convergence: halving h divides the error by about 4
    p = nm.TorusPoint(0.313, 0.457)
    e1 = nm.check_diff_relation(3, p, cfg, h=2e-3)
    e2 = nm.check_diff_relation(3, p, cfg, h=1e-3)
    ratio = e1 / e2
    if not 3.0 < ratio < 5.0:
        bad.append(("halving-ratio", ratio))
    ok = not bad
    report(capsys, 6, "derivative formulas via finite differences", ok,
           f"worst error {worst:.2e} < {tol:.0e}, halving ratio {ratio:.2f}")
    assert ok, bad[:5]


def test_criterion_7_asymptotics(capsys):
    """z -> 0 limits: z E^(1) -> 1/(2 pi i) (both rays) and
    E^(2) - x1/(2 pi i z) -> -2 G_2(tau), each within 1e-6."""
    tol = 1e-6
    cfg = nm.NumericConfig(tau=TAU)
    r1 = nm.check_asymptotics(1, cfg)
    r2 = nm.check_asymptotics(2, cfg._replace(tau=1j))
    errs = [r1["limit_error"], r1["real_ray_error"], r2["limit_error"]]
    ok = all(e < tol for e in errs)
    report(capsys, 7, "behaviour near the origin", ok,
           "errors " + ", ".join(f"{e:.2e}" for e in errs) + f" < {tol:.0e}")
    assert ok, (r1, r2)


def test_criterion_8_mutation_guard(capsys):
    """Corrupting any one of the three scalar weights by +1 must break at
    least one instance of the N <= 4, k <= 4 scan (no vacuous passes)."""
    mutations = {"alpha": coeff_alpha, "beta": coeff_beta, "gamma": coeff_gamma}
    caught = {}
    for name, coeff in mutations.items():
        found = False
        for N in range(2, 5):
            for inst in enumerate_instances(N, 4):
                override = {name: coeff(inst.k1, inst.k2) + 1}
                if not verify_instance(inst, ORDER, **override)["residual_zero"]:
                    found = True
                    break
            if found:
                break
        caught[name] = found
    ok = all(caught.values())
    report(capsys, 8, "mutation sensitivity of the scan", ok,
           "corruptions detected: " + ", ".join(k for k, v in caught.items() if v))
    assert ok, caught
