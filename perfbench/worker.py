"""One benchmark pass in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py --workload certify --seed 1 --mode pass

Modes: `setup` stops once `import qsymm` is done and the inputs exist;
`pass` runs the workload once untraced; `traced` runs it under the tracer.
Needs `src` on PYTHONPATH. `setup_end_ns` is read from CLOCK_MONOTONIC, which
the parent shares, so the parent can time the set-up from before the spawn.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    args = ap.parse_args()

    import qsymm
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    inputs = wl.make_inputs(args.seed)
    result: dict = {"setup_end_ns": time.monotonic_ns()}
    if args.mode != "setup":
        try:
            result.update(run_pass(qsymm, wl, inputs, traced=args.mode == "traced"))
        except Exception:
            result["error"] = traceback.format_exc()
    print(json.dumps(result))


def run_pass(qsymm, wl, inputs, traced: bool) -> dict:
    tracer = None
    if traced:
        import tracer as tracing

        tracer = tracing.install()
    t0 = time.perf_counter()
    out = wl.run(qsymm, inputs)
    wall_s = time.perf_counter() - t0
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result: dict = {"wall_s": wall_s, "rss_kib": rss_kib}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracing.layer_metrics(tracer, wall_s)
    result["attempted"], result["failed"] = wl.check(qsymm, inputs, out)
    if hasattr(wl, "properties"):
        result["latencies_ns"] = list(out[0])
        result["properties"] = wl.properties(qsymm, inputs)
    return result


if __name__ == "__main__":
    sys.exit(main())
