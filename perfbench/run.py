"""Benchmark of the qsymm package: four workloads, each pass in a fresh
interpreter, outputs checked, one JSON result on the last line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

`--trace 0` times untraced passes until `--seconds` have gone by (at least
three) and reports the end-to-end metrics as medians. `--trace 1` runs one
untraced and two traced passes, reports the per-layer metrics, and fails if
a count differs between the two traced passes. Run from anywhere; the
package is imported from `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("certify", "express", "verify", "session")
MIN_PASSES = 3
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 170

class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run one worker; adds `setup_s`, timed from before the spawn."""
    # The package reads QSYMM_* settings (such as the lambda memo cap) from
    # the environment; every worker runs with the defaults.
    env = {k: v for k, v in os.environ.items() if not k.startswith("QSYMM_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    t0 = time.monotonic_ns()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{workload} {mode} worker exited {proc.returncode}:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if "error" in res:
        raise WorkerError(f"{workload} {mode} worker raised:\n{res['error']}")
    res["setup_s"] = (res["setup_end_ns"] - t0) / 1e9
    return res


def p99(values: list[float]) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict], dict]:
    """Untraced passes until `seconds` are used up; medians over passes."""
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(spawn(workload, seed, "pass"))
    walls = [p["wall_s"] for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in passes]),
        "peak_rss_mib": statistics.median(p["rss_kib"] for p in passes) / 1024,
    }
    if workload == "session":
        # One op is one library request, timed after the in-process warm-up.
        lat = [ns / 1e6 for p in passes for ns in p["latencies_ns"]]
        ops = (statistics.median(lat), p99(lat), len(lat) / (sum(lat) / 1e3))
        samples = {"requests": len(lat), "passes": len(passes)}
    else:
        # One op is one whole cold pass, as a command-line user runs it.
        ops = (statistics.median(walls) * 1e3, p99(walls) * 1e3, len(walls) / sum(walls))
        samples = {"passes": len(passes)}
    values.update(zip(("op_p50_ms", "op_p99_ms", "ops_per_s"), ops))
    samples["setup_samples"] = SETUP_PROBES + len(passes)
    return values, passes, samples


def per_layer(workload: str, seed: int) -> tuple[dict, list[dict], dict]:
    """One untraced and two traced passes; times are the mean of the two
    traced ones, counts must be equal in both."""
    plain = spawn(workload, seed, "pass")
    traced = [spawn(workload, seed, "traced") for _ in range(2)]
    a, b = (t["layers"] for t in traced)
    differ = [k for k in EXACT_METRICS if a[k] != b[k]]
    values = {name: a[name] if name in EXACT_METRICS else (a[name] + b[name]) / 2 for name in a}
    values["traced_wall_s"] = statistics.mean(t["wall_s"] for t in traced)
    values["trace_overhead_s"] = values["traced_wall_s"] - plain["wall_s"]
    return values, [plain] + traced, {"counts_differ": differ}


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "git_sha": git_sha(),
    }


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" where it is not a git repository."""
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    values, passes, extra = per_layer(workload, seed) if trace else end_to_end(workload, seed, seconds)
    units = declared_units(trace)
    if set(values) != set(units):
        raise WorkerError(f"measured metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and not extra.get("counts_differ")
    print(f"# {workload}: seed {seed}, trace {int(trace)}, {json.dumps(environment())}")
    for name, unit in units.items():
        print(f"{workload:8} {name:36} {values[name]:14.6g} {unit}")
    print(f"{workload:8} {'failed_ratio':36} {failed / attempted:14.6g} ratio ({failed} of {attempted})")
    for key, value in extra.items():
        print(f"{workload:8} {key:36} {value}")
    if workload == "session":
        print(f"{workload:8} {'input properties':36} {json.dumps(passes[0]['properties'])}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "qsymm" / "__init__.py").is_file():
        print(f"no qsymm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        spawn(names[0], args.seed, "setup")  # compile bytecode before timing anything
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
