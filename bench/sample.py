"""One cold sample of one workload, in a fresh interpreter.

    python3 -I bench/sample.py WORKLOAD SEED MODE [--tiny] [--spans PATH]

MODE is ``setup`` (set up and stop), ``run`` (set up, run untraced, check) or
``trace`` (the same with every layer traced).  The last line of standard
output is one JSON object.  ``setup_done`` is a ``time.perf_counter()``
reading; on Linux that clock is CLOCK_MONOTONIC, shared by all processes,
so the parent subtracts its own reading taken just before the spawn.
``kernel_s`` is the calibration kernel's time (``calibrate.py``) after
set-up, averaged with its time after the timed region in the other modes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv) -> int:
    import argparse
    import json
    import resource

    import calibrate
    import workloads

    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=["setup", "run", "trace"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    wl = workloads.get(args.workload, args.tiny)
    inputs = wl.setup(args.seed)
    result = {"setup_done": time.perf_counter()}
    processes = getattr(wl, "parallel", 1)
    kernel_before = calibrate.kernel_s(processes)
    if args.mode == "setup":
        result["kernel_s"] = kernel_before
        print(json.dumps(result))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracing
        tracer = tracing.Tracer(wl.traced)
    # the kernel's own child processes are reaped by now; their CPU time
    # is taken out of the workers'
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = wl.run(inputs)
    wall = time.perf_counter() - t0
    own = resource.getrusage(resource.RUSAGE_SELF)
    workers = resource.getrusage(resource.RUSAGE_CHILDREN)
    kernel_after = calibrate.kernel_s(processes)
    if tracer is not None:
        tracer.close()
        worker_cpu = (workers.ru_utime + workers.ru_stime
                      - before.ru_utime - before.ru_stime)
        result["layers"] = tracing.layer_metrics(
            tracer.layer_stats(), tracer.counters, worker_cpu, processes)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans)

    result.update(
        wall_s=wall,
        kernel_s=(kernel_before + kernel_after) / 2,
        items=wl.items,
        failed=wl.failed(out),
        # ru_maxrss is in KiB on Linux; pool workers are reaped by now.  The
        # kernel's children were forked after set-up and allocate next to
        # nothing, so they stay below the sample's own peak.
        peak_rss_mb=max(own.ru_maxrss, workers.ru_maxrss) / 1024,
        problems=wl.check(inputs, out),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
