"""The four benchmark workloads: inputs, the timed call and the correctness gate.

A workload object has four parts, used by ``sample.py`` in this order:

* ``setup(seed)`` imports eiskron (and numpy where the workload uses it) and
  builds the inputs.  Its end marks the end of ``setup_s``.
* ``run(inputs)`` is the timed region.  It calls only public functions of
  eiskron, through module attributes, so that the tracer's wrappers see it.
* ``check(inputs, out)`` runs after the timed region and returns the list of
  problems found; an empty list means the outputs are correct.
* ``items`` is the number of items one run verifies.  It is computed here,
  independently of eiskron, so a scan that skips instances is caught.

Every expected count below is derived from the enumeration's definition and
never read back from the program under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import List, Tuple

TAU = complex(0.3, 1.1)
TOL = 1e-8  # the acceptance tolerance of criteria 4 and 5


# ---------------------------------------------------------------------------
# Exact scans through the CLI.
# ---------------------------------------------------------------------------

def expected_instances(level_max: int, weight_max: int) -> int:
    """Sum over N of |ordered nonzero pairs (a, b) with a + b != 0| times
    the number of splits k1 + k2 = k - 2 over 2 <= k <= weight_max."""
    pairs = 0
    for N in range(2, level_max + 1):
        nonzero = [(i, j) for i in range(N) for j in range(N) if (i, j) != (0, 0)]
        pairs += sum(1 for a in nonzero for b in nonzero
                     if ((a[0] + b[0]) % N, (a[1] + b[1]) % N) != (0, 0))
    splits = sum(k - 1 for k in range(2, weight_max + 1))
    return pairs * splits


def scan_problems(summary: dict, exit_code: int, expected: int,
                  probe: Tuple[bool, bool]) -> List[str]:
    """Correctness gate of one scan.

    ``probe`` is (canonical weights verify, alpha+1 verifies) on one
    instance: the first must be True and the second False, so a residual
    path that always answers "zero" cannot pass.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"scan exited {exit_code}")
    if summary.get("instances") != expected:
        problems.append(f"scan reported {summary.get('instances')} instances, "
                        f"expected {expected}")
    if summary.get("failed") != 0:
        problems.append(f"scan reported {summary.get('failed')} failed instances")
    if summary.get("passed") != expected:
        problems.append(f"scan reported {summary.get('passed')} passed, "
                        f"expected {expected}")
    canonical_ok, mutated_ok = probe
    if not canonical_ok:
        problems.append("vacuity probe: canonical weights do not verify")
    if mutated_ok:
        problems.append("vacuity probe: alpha+1 verifies, the zero test is vacuous")
    return problems


@dataclass(frozen=True)
class Scan:
    level_max: int
    weight_max: int
    order: int
    parallel: int = 1
    # boundaries the traced run wraps; None means every layer (see tracing.py)
    traced: Tuple[str, ...] | None = None

    @property
    def items(self) -> int:
        return expected_instances(self.level_max, self.weight_max)

    def setup(self, seed: int) -> List[str]:
        # The scan is exhaustive: the seed selects nothing.
        import eiskron.cli  # noqa: F401  (import cost belongs to set-up)
        argv = ["scan", "--level-max", str(self.level_max),
                "--weight-max", str(self.weight_max), "--order", str(self.order),
                "--json"]
        if self.parallel > 1:
            argv += ["--parallel", str(self.parallel)]
        return argv

    def run(self, argv: List[str]):
        import eiskron.cli
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = eiskron.cli.main(argv)
        return code, json.loads(buf.getvalue())

    def check(self, argv, out) -> List[str]:
        code, summary = out
        return scan_problems(summary, code, self.items, self.vacuity_probe())

    def failed(self, out) -> int:
        code, summary = out
        if summary.get("instances") != self.items:
            return self.items
        return summary.get("failed", self.items)

    def vacuity_probe(self) -> Tuple[bool, bool]:
        from eiskron import relations
        inst = relations.RelationInstance(3, 4, 1, 1, (1, 0), (0, 1))
        alpha = relations.coeff_alpha(1, 1) + 1
        return (relations.verify_instance(inst, self.order)["residual_zero"],
                relations.verify_instance(inst, self.order, alpha=alpha)["residual_zero"])


# ---------------------------------------------------------------------------
# Float cross-checks: identities, the oracle triangle, seeded draws.
# ---------------------------------------------------------------------------

def _near_integer(t: float, margin: float) -> bool:
    return abs(t - round(t)) < margin


def draw_relations(seed: int, weights: range, per_weight: int) -> list:
    """Seeded generic points (k1, k2, u, v) for check_relation_numeric.

    The x1 coordinates of u, v and w = -(u + v) keep a distance >= 0.1 from
    the integers: the points stay off the lattice, and the Fourier
    evaluator's work, which grows like 1/frac(x1), stays within a factor of
    about two between seeds.
    """
    rng = random.Random(seed)
    draws = []
    for k in weights:
        for _ in range(per_weight):
            k1 = rng.randrange(k - 1)
            while True:
                u = (rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.95))
                v = (rng.uniform(0.1, 0.9), rng.uniform(0.05, 0.95))
                if not _near_integer(u[0] + v[0], 0.1):
                    break
            draws.append((k1, k - 2 - k1, u, v))
    return draws


def identity_indices(level_max: int, weight_max: int) -> list:
    """Valid indices (k, N, a1, a2) of the criterion-3 shape."""
    return [(k, N, a1, a2)
            for N in range(1, level_max + 1) for k in range(1, weight_max + 1)
            for a1 in range(N) for a2 in range(N)
            if not (k == 2 and a1 == 0 and a2 == 0)]


def triangle_points(level_max: int, weights: range) -> list:
    """Torsion points (k, N, a1, a2) of the criterion-4 shape."""
    return [(k, N, a1, a2) for k in weights for N in range(1, level_max + 1)
            for a1 in range(N) for a2 in range(N)]


def crosscheck_problems(out: dict, n_points: int, n_draws: int) -> List[str]:
    """Correctness gate of one cross-check run, at the acceptance tolerances."""
    problems = []
    if out["identity_failures"]:
        problems.append(f"identities fail: {out['identity_failures'][:3]}")
    if len(out["triangle"]) != n_points:
        problems.append(f"{len(out['triangle'])} triangle points, expected {n_points}")
    worst = max(out["triangle"], default=math.inf)
    if not worst < TOL:
        problems.append(f"triangle discrepancy {worst:.3e} >= {TOL}")
    if len(out["residuals"]) != n_draws:
        problems.append(f"{len(out['residuals'])} relation draws, expected {n_draws}")
    worst = max(out["residuals"], default=math.inf)
    if not worst < TOL:
        problems.append(f"relation residual {worst:.3e} >= {TOL}")
    if out["probe_equal"]:
        problems.append("vacuity probe: f equals 2f, field_equals is vacuous")
    return problems


@dataclass(frozen=True)
class Crosscheck:
    identity_level_max: int      # parity and twist, as acceptance criterion 3
    identity_weight_max: int
    identity_order: int
    triangle_level_max: int      # order-60N series vs Fourier vs lattice, criterion 4
    triangle_weights: range
    fourier_terms: int
    lattice_cutoff: int
    draw_weights: range          # seeded generic draws, as criterion 5
    draws_per_weight: int
    traced: Tuple[str, ...] | None = None

    @property
    def items(self) -> int:
        return (2 * len(identity_indices(self.identity_level_max, self.identity_weight_max))
                + len(triangle_points(self.triangle_level_max, self.triangle_weights))
                + len(self.draw_weights) * self.draws_per_weight)

    def setup(self, seed: int) -> dict:
        import eiskron.eisenstein  # noqa: F401
        import eiskron.numeric  # noqa: F401  (imports numpy)
        return {
            "identities": identity_indices(self.identity_level_max,
                                           self.identity_weight_max),
            "points": triangle_points(self.triangle_level_max, self.triangle_weights),
            "draws": draw_relations(seed, self.draw_weights, self.draws_per_weight),
        }

    def run(self, inputs: dict) -> dict:
        from fractions import Fraction

        from eiskron import eisenstein as es
        from eiskron import numeric as nm

        order = self.identity_order
        identity_failures = []
        for k, N, a1, a2 in inputs["identities"]:
            f = es.eisenstein_qexp(es.EisensteinIndex(k, N, a1, a2), order)
            g = es.eisenstein_qexp(es.EisensteinIndex(k, N, -a1, -a2), order)
            if not g.field_equals(f.scale(Fraction((-1) ** k))):
                identity_failures.append(("parity", k, N, a1, a2))
            h = es.eisenstein_qexp(es.EisensteinIndex(k, N, a1, a1 + a2), order)
            if not f.twist(1).field_equals(h):
                identity_failures.append(("translation", k, N, a1, a2))

        cfg = nm.NumericConfig(tau=TAU, fourier_terms=self.fourier_terms,
                               lattice_cutoff=self.lattice_cutoff)
        triangle = []
        for k, N, a1, a2 in inputs["points"]:
            sym = es.eisenstein_qexp(es.EisensteinIndex(k, N, a1, a2),
                                     60 * N).eval_numeric(TAU)
            p = nm.TorusPoint(a1 / N, a2 / N)
            fou = nm.eval_E_fourier(k, p, cfg)
            lat = nm.eval_E_lattice(k, p.to_z(TAU), TAU, cfg)
            triangle.append(max(abs(sym - fou), abs(fou - lat), abs(sym - lat)))

        residuals = [nm.check_relation_numeric(k1, k2, nm.TorusPoint(*u),
                                               nm.TorusPoint(*v), cfg)
                     for k1, k2, u, v in inputs["draws"]]
        return {"identity_failures": identity_failures, "triangle": triangle,
                "residuals": residuals}

    def check(self, inputs: dict, out: dict) -> List[str]:
        from eiskron import eisenstein as es
        f = es.eisenstein_qexp(es.EisensteinIndex(4, 3, 1, 0), self.identity_order)
        probe_equal = f.field_equals(f.scale(2))
        return crosscheck_problems(dict(out, probe_equal=probe_equal),
                                   len(inputs["points"]), len(inputs["draws"]))

    def failed(self, out: dict) -> int:
        return (len(out["identity_failures"])
                + sum(1 for m in out["triangle"] if not m < TOL)
                + sum(1 for r in out["residuals"] if not r < TOL))


# ---------------------------------------------------------------------------
# The workload table.  The full criterion-1 scan (56,392 instances) stays a
# tier-1 test; these are smaller shapes of the same enumerations, sized to
# about 1 s each so that one 30 s run holds 15 to 25 cold samples: the
# host's speed varies from sample to sample, and more samples steady the
# median of a run.
# ---------------------------------------------------------------------------

# scan_parallel's workers are forked from the traced process; tracing only
# the parent-side boundaries leaves the workers' code, and so their CPU
# time, as in an untraced run.
PARENT_SIDE = ("cli.main", "relations.run_scan")

WORKLOADS = {
    "scan_wide": Scan(level_max=4, weight_max=4, order=40),
    "scan_deep": Scan(level_max=3, weight_max=4, order=160),
    "scan_parallel": Scan(level_max=4, weight_max=4, order=40, parallel=2,
                          traced=PARENT_SIDE),
    "crosscheck": Crosscheck(identity_level_max=4, identity_weight_max=8,
                             identity_order=40, triangle_level_max=3,
                             triangle_weights=range(3, 5), fourier_terms=80,
                             lattice_cutoff=200, draw_weights=range(2, 9),
                             draws_per_weight=4),
}

# Smoke-test sizes: the same code paths in well under a second each.
TINY = {
    "scan_wide": Scan(level_max=3, weight_max=3, order=12),
    "scan_deep": Scan(level_max=2, weight_max=3, order=48),
    "scan_parallel": Scan(level_max=3, weight_max=3, order=12, parallel=2,
                          traced=PARENT_SIDE),
    "crosscheck": Crosscheck(identity_level_max=2, identity_weight_max=3,
                             identity_order=12, triangle_level_max=1,
                             triangle_weights=range(3, 4), fourier_terms=80,
                             lattice_cutoff=200, draw_weights=range(2, 4),
                             draws_per_weight=1),
}


def get(name: str, tiny: bool = False):
    return (TINY if tiny else WORKLOADS)[name]
