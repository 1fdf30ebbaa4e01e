"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench/tests``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= workloads.get(workload, tiny=True).items
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: result["metrics"][m]["unit"] for m in result["metrics"]} == \
        {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    report = "\n".join(lines[:-1])
    for name in ("setup_s", "wall_s", "verified_per_s", "peak_rss_mb", "error_rate"):
        assert f"{name}:" in report


def test_declared_metrics_match_the_code():
    names = [m["name"] for m in SPEC["per_layer"]]
    assert {n: m["unit"] for n, m in zip(names, SPEC["per_layer"])} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "scan_wide", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_instance_counts_match_the_known_scans():
    assert workloads.expected_instances(6, 8) == 56392  # acceptance criterion 1
    assert workloads.expected_instances(4, 8) == 7616
    assert workloads.expected_instances(3, 8) == 1736


GOOD_SUMMARY = {"instances": 54, "passed": 54, "failed": 0}


def test_scan_gate_accepts_a_correct_scan():
    assert workloads.scan_problems(GOOD_SUMMARY, 0, 54, (True, False)) == []


@pytest.mark.parametrize("summary, code, probe", [
    ({"instances": 54, "passed": 53, "failed": 1}, 1, (True, False)),
    ({"instances": 53, "passed": 53, "failed": 0}, 0, (True, False)),
    (GOOD_SUMMARY, 0, (True, True)),
    (GOOD_SUMMARY, 0, (False, False)),
], ids=["failed=1", "wrong-count", "vacuous-probe", "probe-rejects-canonical"])
def test_scan_gate_rejects(summary, code, probe):
    assert workloads.scan_problems(summary, code, 54, probe)


def test_crosscheck_gate():
    good = {"identity_failures": [], "triangle": [1e-12], "residuals": [1e-16],
            "probe_equal": False}
    assert workloads.crosscheck_problems(good, 1, 1) == []
    for bad in ({"identity_failures": [("parity", 3, 2, 1, 0)]},
                {"triangle": [2e-8]}, {"residuals": [float("nan")]},
                {"residuals": []}, {"probe_equal": True}):
        assert workloads.crosscheck_problems(dict(good, **bad), 1, 1)


def test_vacuity_probe_catches_a_wrong_weight():
    assert workloads.get("scan_wide", tiny=True).vacuity_probe() == (True, False)


def test_draws_follow_the_seed():
    a = workloads.draw_relations(11, range(2, 9), 4)
    assert a == workloads.draw_relations(11, range(2, 9), 4)
    assert a != workloads.draw_relations(12, range(2, 9), 4)
    for k1, k2, u, v in a:
        w1 = -(u[0] + v[0])
        assert min(abs(t - round(t)) for t in (u[0], v[0], w1)) >= 0.1


def test_tracer_wraps_every_binding_and_restores():
    import eiskron.eisenstein
    import eiskron.qseries
    import eiskron.relations
    from eiskron.relations import RelationInstance, verify_instance

    orig = eiskron.qseries.convolve_int
    tracer = tracing.Tracer()
    try:
        assert eiskron.relations.convolve_int is eiskron.qseries.convolve_int
        assert eiskron.relations.convolve_int is not orig
        report = eiskron.relations.verify_instance(
            RelationInstance(3, 4, 1, 1, (1, 0), (0, 1)), 9)
        # a weight-1 constant term inverts 1 - zeta, reducing mod Phi_3
        eiskron.eisenstein.eisenstein_qexp(
            eiskron.eisenstein.EisensteinIndex(1, 3, 0, 1), 7)
    finally:
        tracer.close()
    assert eiskron.relations.convolve_int is orig
    assert verify_instance is eiskron.relations.verify_instance
    assert report["residual_zero"]
    stats = tracer.layer_stats()
    inst = stats["relations.verify_instance"]
    assert inst["calls"] == 1
    assert 0 <= inst["self_s"] <= inst["s"]
    assert stats["qseries.convolve_int"]["calls"] >= 1
    assert tracer.counters["qseries.convolve_int.in_bits"] > 0
    assert tracer.counters["relations.residual_terms"] > 0
    # the folded leaf makes no spans but is counted
    assert all(s[0] != "cyclotomic.reduce_mod_cyclotomic" for s in tracer.spans)
    assert tracer.counters["cyclotomic.reduce_mod_cyclotomic.calls"] > 0


@pytest.mark.parametrize("processes", [1, 2])
def test_calibration_kernel_reaps_its_children(processes):
    import multiprocessing

    import calibrate
    assert calibrate.kernel_s(processes) > 0
    assert multiprocessing.active_children() == []
