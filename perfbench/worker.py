"""One benchmark workload in one fresh process; started by ``run.py``.

Prints ``READY`` once set-up is done (imports, the scenario's model build
with its PSD check, the sampler's Cholesky factor), then runs Monte-Carlo
batches back to back for ``--seconds``: each batch is one in-process
``gdas run|bandit --config <cfg> --out <dir>`` call.  Its last stdout line is
a JSON object with the batch measurements and the correctness-gate verdict.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import spec
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "commit": _git_commit(),
    }


class Workload:
    """Runs batches of one workload and checks each one's output."""

    def __init__(self, name: str, seed: int, workdir: Path) -> None:
        import gdas.cli
        import gdas.config
        from gdas.experiments import Scenario

        self.cli = gdas.cli
        self.to_text = gdas.config.scenario_to_text
        self.Scenario = Scenario
        self.spec = spec.WORKLOADS[name]
        self.sc = self.spec["scenario"]
        self.runs = self.spec["batch_runs"]
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.stops: list[float] = []
        self.true_costs: list[float] = []

    def run(self, index: int, tag: str, runs: int | None = None) -> dict:
        """One timed batch; its directory is kept for the checks that follow."""
        seed = self.seed * 1000 + index
        runs = runs or self.runs
        out = self.workdir / f"{tag}{index}"
        out.mkdir()
        cfg = out / "scenario.cfg"
        cfg.write_text(self.to_text(self.Scenario(**self.sc, runs=runs, seed=seed)))
        argv = [self.spec["command"], "--config", str(cfg), "--out", str(out)]
        error = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash fails the batch's runs, the benchmark goes on
            code, error = 1, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - started
        return {"seed": seed, "runs": runs, "dir": out, "wall": wall, "code": code, "error": error}

    def check(self, batch: dict, pool_statistics: bool = True) -> dict:
        """Gate one batch; adds rows, bytes and an output digest to it.

        ``pool_statistics`` adds the batch's stop rounds or true-model costs to
        the samples of the statistical check.
        """
        runs = batch["runs"]
        self.attempted += runs
        out = batch["dir"]
        rounds = sorted(out.glob("rounds_*.csv"))
        summary = sorted(out.glob("summary_*.csv"))
        if batch["code"] != 0 or len(rounds) != 1 or len(summary) != 1:
            why = batch["error"] or f"exit code {batch['code']}, files {[p.name for p in out.iterdir()]}"
            self.failures += [f"batch seed {batch['seed']} run {r}: {why}" for r in range(runs)]
            batch.update(rows=0, bytes=0, digest=None, ok=False)
            return batch
        columns, rows = gate.read_rounds_csv(rounds[0])
        failed, stops = gate.check_batch(self.sc, runs, columns, rows)
        self.failures += [f"batch seed {batch['seed']} run {r}: {msg}" for r, msg in failed.items()]
        if pool_statistics:
            self.stops += stops
            if self.sc["mode"] == "bandit":
                m, y = rows[:, columns.index("m")], rows[:, columns.index("Y")]
                self.true_costs += [float(v) for v in y[(m == 1) & np.isfinite(y)]]
        digest = hashlib.sha256()
        size = 0
        for path in (rounds[0], summary[0]):
            data = path.read_bytes()
            digest.update(data)
            size += len(data)
        batch.update(rows=len(rows), bytes=size, digest=digest.hexdigest(), ok=not failed,
                     columns=columns, table=rows)
        return batch

    def replay(self, batch: dict) -> list[str]:
        """Replay the first runs of a batch against the conditioning oracle."""
        if not batch["ok"]:
            return []
        problems = []
        for run in range(min(self.spec["replay_runs"], batch["runs"])):
            problem = gate.replay(self.sc, batch["seed"], run, batch["columns"], batch["table"])
            if problem:
                problems.append(f"replay batch seed {batch['seed']} {problem}")
        return problems

    def drop(self, batch: dict) -> None:
        shutil.rmtree(batch["dir"], ignore_errors=True)
        batch.pop("table", None)


def setup(name: str):
    """The work a process does before its first Monte-Carlo run."""
    import gdas.cli  # noqa: F401  (the entry point the batches call)
    from gdas.models import build_ar1_model, build_model_family

    sc = spec.WORKLOADS[name]["scenario"]
    if sc["mode"] == "bandit":
        model = build_model_family(sc["K"])[0]
    else:
        model = build_ar1_model(sc["K"], sc["rho"])
    np.linalg.cholesky(model.cov)


def warm_up(w: Workload) -> None:
    """A gated one-run batch that pays one-time costs (lazy imports, cold caches)."""
    w.drop(w.check(w.run(0, "w", runs=1)))


def another_fits(started: float, last_wall: float, seconds: float) -> bool:
    """Whether one more batch as long as the last one ends within ``seconds``."""
    return time.perf_counter() - started + last_wall <= seconds


def measure(w: Workload, seconds: float) -> dict:
    """Batches back to back, at least one, while the next is expected to fit."""
    warm_up(w)
    started = time.perf_counter()
    batches = [w.run(1, "b")]
    while another_fits(started, batches[-1]["wall"], seconds):
        batches.append(w.run(len(batches) + 1, "b"))
    # Read before the gate parses the CSVs, so that only the program counts.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for i, batch in enumerate(batches):
        w.check(batch)
        if i:
            w.drop(batch)
    w.failures += w.replay(batches[0])
    w.drop(batches[0])
    return {
        "batches": len(batches),
        "wall_s": statistics.median(b["wall"] for b in batches),
        "rounds_per_s": statistics.median(b["rows"] / b["wall"] for b in batches),
        "peak_rss_mb": peak_rss_mb,
        "digest": batches[0]["digest"],
    }


def measure_traced(w: Workload, seconds: float, spans_path: Path) -> dict:
    """Pairs of identical batches, one plain and one traced, in alternating order."""
    tracer = Tracer(w.sc["mode"])
    warm_up(w)
    started = time.perf_counter()
    pairs = []
    traced_wall, rows, size = 0.0, 0, 0
    while not pairs or another_fits(started, traced_wall / len(pairs) * 2, seconds):
        index = len(pairs) + 1
        pair = {}
        for traced in ((False, True) if index % 2 else (True, False)):
            if traced:
                with tracer:
                    batch = w.run(index, "t")
            else:
                batch = w.run(index, "u")
            pair[traced] = w.check(batch, pool_statistics=not traced)
        if pair[True]["digest"] != pair[False]["digest"]:
            w.failures.append(f"batch seed {pair[True]['seed']}: traced output differs from untraced")
        traced_wall += pair[True]["wall"]
        rows += pair[True]["rows"]
        size += pair[True]["bytes"]
        pairs.append(pair)
        for b in (pair[True], pair[False]) if len(pairs) > 1 else (pair[True],):
            w.drop(b)
    w.failures += w.replay(pairs[0][False])
    w.drop(pairs[0][False])
    w.failures += tracer.problems()
    tracer.write_spans(spans_path)
    runs = w.runs * len(pairs)
    metrics = tracer.layer_metrics(runs, traced_wall, rows, size)
    metrics["trace.overhead_frac"] = (
        statistics.median(p[True]["wall"] / p[False]["wall"] for p in pairs) - 1.0
    )
    modules = {k: v / traced_wall for k, v in tracer.module_self_s().items()}
    return {"batches": len(pairs), "traced_runs": runs, "layers": metrics,
            "module_self_frac": modules, "digest": pairs[0][False]["digest"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    setup(args.workload)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        w = Workload(args.workload, args.seed, workdir)
        if args.trace:
            spans = OUT / f"spans-{args.workload}.csv"
            result = measure_traced(w, args.seconds, spans)
        else:
            result = measure(w, args.seconds)
        checks = gate.check_statistic(w.sc, w.stops, w.true_costs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.update(
        workload=args.workload,
        seed=args.seed,
        attempted=w.attempted,
        failures=w.failures,
        checks=checks,
        correct=not w.failures and all(ok for ok, _ in checks),
        env=fingerprint(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
