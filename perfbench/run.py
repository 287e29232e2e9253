"""gdas benchmark: Monte-Carlo throughput of four scenario workloads.

    python3 perfbench/run.py --workload aloha-k100 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                       # every workload, untraced

Each workload runs in a fresh worker process (``worker.py``) that uses the
gdas sources under ``src/`` through ``PYTHONPATH``.  Untraced runs report the
end-to-end metrics of ``spec.END_TO_END``; ``--trace 1`` reports the
per-layer metrics of ``spec.PER_LAYER``.  The last stdout line of a
single-workload run is the JSON result; the exit code is nonzero when the
correctness gate fails.  See README.md in this directory.
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

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
# Set-up is timed in this many set-up-only processes, started after the
# measuring worker so that the bytecode cache is filled and the machine is
# past its idle state; the median is reported.
SETUP_SPAWNS = 11
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
# Longest a worker may take beyond its measuring time: set-up, the last batch
# and the replay checks.
WORKER_SLACK_S = 120


def worker_env() -> dict:
    """Environment of a worker: gdas from src/, BLAS threads capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(env[var])
        except (KeyError, ValueError):
            current = nproc + 1
        if not 1 <= current <= nproc:
            env[var] = str(nproc)
    return env


def spawn(args: list[str], env: dict, timeout: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it printed READY, the rest of its stdout)."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - started
        rest, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if first.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    return ready, rest


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = worker_env()
    base = ["--workload", name, "--seed", str(seed)]
    _, out = spawn(
        [*base, "--seconds", str(seconds), "--trace", str(trace)], env, seconds + WORKER_SLACK_S
    )
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        setups = [spawn([*base, "--seconds", "0", "--setup-only"], env, WORKER_SLACK_S)[0]
                  for _ in range(SETUP_SPAWNS)]
        result["setup_s"] = statistics.median(setups)
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        names = [m["name"] for m in spec.PER_LAYER]
        if sorted(names) != sorted(result["layers"]):
            raise RuntimeError(
                "per_layer in BENCHMARK.json and the tracer's metrics differ: "
                f"{sorted(set(names) ^ set(result['layers']))}"
            )
        return {m["name"]: {"value": result["layers"][m["name"]], "unit": m["unit"]}
                for m in spec.PER_LAYER}
    return {m["name"]: {"value": result[m["name"]], "unit": m["unit"]} for m in spec.END_TO_END}


def report(result: dict, trace: int) -> tuple[dict, list[str]]:
    """The contract's JSON line, plus human-readable lines that precede it."""
    failed = min(len(result["failures"]), result["attempted"])
    metrics = metrics_of(result, trace)
    lines = [
        f"{result['workload']} seed={result['seed']} trace={trace}: {result['batches']} "
        f"{'batch pairs' if trace else 'batches'} x {spec.WORKLOADS[result['workload']]['batch_runs']}"
        f" runs, {result['attempted']} runs attempted, {failed} failed"
    ]
    lines += [f"  {k:<34} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"  {'failed_frac':<34} {failed / max(result['attempted'], 1):.6g} frac")
    if trace:
        shares = result["module_self_frac"]
        lines.append(f"  traced Monte-Carlo runs: {result['traced_runs']}")
        lines.append(
            "  self time by module (share of traced wall): "
            + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items()))
            + f"; all spans {sum(shares.values()):.1%}"
        )
    lines += [f"  check {'PASS' if ok else 'FAIL'}: {line}" for ok, line in result["checks"]]
    lines += [f"  FAIL: {msg}" for msg in result["failures"][:20]]
    if len(result["failures"]) > 20:
        lines.append(f"  ... and {len(result['failures']) - 20} more failures")
    lines.append(f"  output digest (first batch CSVs, sha256): {result['digest']}")
    lines.append(f"  env: {json.dumps(result['env'], sort_keys=True)}")
    final = {"correct": result["correct"], "attempted": result["attempted"], "failed": failed,
             "metrics": metrics}
    return final, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(spec.WORKLOADS), help="default: every workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")
    if not (ROOT / "src" / "gdas" / "__init__.py").is_file():
        print(f"no gdas sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    all_correct = True
    final = None
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        final, lines = report(result, args.trace)
        print("\n".join(lines), flush=True)
        all_correct = all_correct and final["correct"]
    if args.workload:
        print(json.dumps(final), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
