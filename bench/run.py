"""eiskron benchmark: cold-process exact scans and float cross-checks.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sample is a fresh interpreter (``bench/sample.py``), because every CLI
run pays cold ``lru_cache``s, and because ``run_scan``'s pool forks its
workers from the calling process: a warm parent would hand the workers warm
caches and fake a parallel speed-up.  Samples run one after another (a
closed loop with one client) until the next one would pass ``--seconds``,
and never fewer than three.  Three extra set-up-only samples feed
``setup_s``.

The host's speed drifts by up to 1.6x in spells of tens of seconds, so
every sample also times a fixed calibration kernel (``calibrate.py``), and
each timing is reported scaled to the kernel's reference time: measured
seconds times ``REFERENCE_S`` / kernel seconds.  The kernel runs no eiskron
code, so a change to eiskron moves the scaled timings as it moves the
measured ones.  The report lines show the measured medians and the median
speed factor beside the scaled ones.

With ``--trace 0`` the result holds the end-to-end metrics, each the median
over the samples.  With ``--trace 1`` one traced sample gives the per-layer
metrics, and untraced samples after it give ``trace.overhead_s``.  Every
sample checks its outputs after its timed region; the last line of output
is the JSON result, and the exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_SAMPLES = 3
SETUP_ONLY_SAMPLES = 3
HARD_LIMIT_S = 170  # the whole run ends within 180 s

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "verified_per_s": "1/s",
                    "peak_rss_mb": "MB"}


class SampleError(RuntimeError):
    pass


def spans_path(workload: str, seed: int) -> Path:
    return ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"


def spawn(workload: str, seed: int, mode: str, tiny: bool, deadline: float,
          spans: Path | None = None) -> dict:
    """Run one sample in a fresh interpreter; return its result plus setup_s."""
    cmd = [sys.executable, "-I", str(HERE / "sample.py"), workload, str(seed), mode]
    if tiny:
        cmd.append("--tiny")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.perf_counter()
    # A session of its own lets a timeout kill the sample's pool workers too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise SampleError(f"{mode} sample of {workload} timed out")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    try:
        result = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or not isinstance(result, dict):
        raise SampleError(f"{mode} sample of {workload} exited {proc.returncode}: "
                          f"{err.strip()[-2000:]}")
    result["setup_s"] = result["setup_done"] - t0
    result["elapsed_s"] = time.perf_counter() - t0
    return result


def speed_factor(sample: dict) -> float:
    """Reference over measured kernel time: below 1 when the host is slow."""
    return calibrate.REFERENCE_S / sample["kernel_s"]


def collect(workload: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Samples until the next would pass the budget; returns (runs, setups)."""
    start = time.perf_counter()
    hard_deadline = start + HARD_LIMIT_S
    setups = [spawn(workload, seed, "setup", tiny, hard_deadline)
              for _ in range(SETUP_ONLY_SAMPLES)]
    runs = []
    if trace:
        runs.append(spawn(workload, seed, "trace", tiny, hard_deadline,
                          spans_path(workload, seed)))
    budget_end = min(start + seconds, hard_deadline)
    while True:
        runs.append(spawn(workload, seed, "run", tiny, hard_deadline))
        untraced = [r for r in runs if "layers" not in r]
        longest = max(r["elapsed_s"] for r in untraced)
        if len(untraced) >= MIN_SAMPLES and time.perf_counter() + longest > budget_end:
            return runs, setups + runs


def describe(name: str, values: list, unit: str, measured: list | None = None) -> str:
    # A run has 15 to 25 samples, too few for a percentile above the median
    # with ten samples beyond it, so the spread is shown as min and max.
    line = (f"{name}: median {statistics.median(values):.6g} {unit}, "
            f"min {min(values):.6g}, max {max(values):.6g}, n={len(values)}")
    if measured is not None:
        line += f" (scaled; measured median {statistics.median(measured):.6g} {unit})"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (for the benchmark's own tests)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "eiskron" / "__init__.py").is_file():
        print(f"error: no eiskron sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        runs, setups = collect(args.workload, args.seed, args.seconds,
                               bool(args.trace), args.tiny)
    except SampleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in runs if "layers" not in r]
    measured = {
        "setup_s": [r["setup_s"] for r in setups],
        "wall_s": [r["wall_s"] for r in untraced],
        "verified_per_s": [(r["items"] - r["failed"]) / r["wall_s"] for r in untraced],
    }
    per_sample = {
        "setup_s": [r["setup_s"] * speed_factor(r) for r in setups],
        "wall_s": [r["wall_s"] * speed_factor(r) for r in untraced],
        "verified_per_s": [(r["items"] - r["failed"]) / (r["wall_s"] * speed_factor(r))
                           for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    attempted = sum(r["items"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = sorted({p for r in runs for p in r["problems"]})

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(untraced)} cold samples (untraced), {len(setups)} set-ups")
    print(f"machine: nproc {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {metadata.version('numpy')}")
    factors = [speed_factor(r) for r in setups]
    print(f"host speed factor (reference {calibrate.REFERENCE_S} s / kernel s): "
          f"median {statistics.median(factors):.4g}, min {min(factors):.4g}, "
          f"max {max(factors):.4g}")
    for name, values in per_sample.items():
        print(describe(name, values, END_TO_END_UNITS[name], measured.get(name)))
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6g}")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    if args.trace:
        print(f"spans: {spans_path(args.workload, args.seed)}")
        traced = next(r for r in runs if "layers" in r)
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = (traced["wall_s"] * speed_factor(traced)
                                      - statistics.median(per_sample["wall_s"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(values),
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in per_sample.items()}
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
