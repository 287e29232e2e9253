"""Tracing from outside the program: spans around gdas layer boundaries.

The gdas source is not edited.  Entering a ``Tracer`` (``with tracer:``)
rebinds, until the block ends, the module attributes through which each gdas
layer calls the next (``gdas.experiments.select_nodes``,
``gdas.engine.rank_one_condition`` and so on) to wrappers that append one
span per call: name, start, end, parent and a size (picks per select call,
nodes per ingest call).  Spans stay in memory; ``write_spans`` saves them
when the run ends, and ``layer_metrics`` turns them into the per-layer
numbers of ``spec.PER_LAYER``.
"""

from __future__ import annotations

import importlib
from time import perf_counter_ns

import spec

# (module, attribute, span name, path).  The attribute is looked up where the
# calling layer looks it up, so only calls made on the workload's path are
# recorded.  ``path`` names the workload modes whose calls go through the
# target.  A target on the traced workload's path must exist and be called,
# or the traced run fails: a renamed layer would otherwise read 0 and look
# like a speed-up.  Targets that the ROADMAP plans to delete (``mark_known``,
# ``record_selection``) are on no path: they may be missing.
_RUN = ("aloha", "polling")
_ALL = ("aloha", "polling", "bandit")
_OPTIONAL = ()
TARGETS = [
    ("gdas.cli", "main", "cli.main", _ALL),
    ("gdas.cli", "run_scenario", "experiments.run", _RUN),
    ("gdas.cli", "run_bandit_scenario", "experiments.run", ("bandit",)),
    ("gdas.cli", "write_rounds_csv", "experiments.csv", _ALL),
    ("gdas.cli", "write_summary_csv", "experiments.csv", _ALL),
    ("gdas.experiments:RunResult", "summary_rows", "experiments.summary", _RUN),
    ("gdas.experiments:BanditResult", "summary_rows", "experiments.summary", ("bandit",)),
    ("gdas.experiments", "initial_state", "engine.initial_state", _ALL),
    ("gdas.experiments", "select_nodes", "engine.select", _ALL),
    ("gdas.experiments", "ingest", "engine.ingest", _ALL),
    ("gdas.experiments", "build_ar1_model", "models.build", _RUN),
    ("gdas.experiments", "build_model_family", "models.build", ("bandit",)),
    ("gdas.engine", "condition", "models.condition", _ALL),
    ("gdas.engine", "rank_one_condition", "models.rank_one", _ALL),
    ("gdas.engine", "mark_known", "models.mark_known", _OPTIONAL),
    ("gdas.experiments", "polling_round", "access.round", ("polling",)),
    ("gdas.experiments", "aloha_round", "access.round", ("aloha", "bandit")),
    ("gdas.experiments", "select_model", "bandit.select_model", ("bandit",)),
    ("gdas.experiments", "prediction_error_terms", "bandit.cost", ("bandit",)),
    ("gdas.experiments", "update", "bandit.update", ("bandit",)),
    ("gdas.experiments", "record_selection", "bandit.record_selection", _OPTIONAL),
    ("gdas.experiments", "softmax_probs", "bandit.softmax", ("bandit",)),
    ("gdas.bandit", "softmax_probs", "bandit.softmax", ("bandit",)),
]

_ACCESS_COUNTS = ("requested", "responders", "delivered", "collided_channels")


def _resolve(target: str):
    """The module or class named by ``target``, or None when gdas lacks it."""
    module, _, cls = target.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


def _percentile(sorted_vals: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_vals:
        return 0.0
    rank = max(1, -(-len(sorted_vals) * q // 100))
    return sorted_vals[int(rank) - 1]


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, mode: str) -> None:
        self.mode = mode
        self.missing: list[str] = []
        self.names: list[str] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.size: list[int] = []
        self.access = dict.fromkeys(_ACCESS_COUNTS, 0)
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, start, end, parent, size, stack = (
            self.names, self.start, self.end, self.parent, self.size, self._stack
        )
        access = self.access

        def traced(*args, **kwargs):
            idx = len(start)
            names.append(name)
            parent.append(stack[-1])
            size.append(-1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if name == "engine.select":
                size[idx] = len(out)
            elif name == "engine.ingest":
                size[idx] = len(args[1])
            elif name == "access.round":
                for key in _ACCESS_COUNTS:
                    access[key] += len(getattr(out, key))
            return out

        return traced

    def __enter__(self) -> "Tracer":
        for target, attr, name, path in TARGETS:
            owner = _resolve(target)
            if owner is None or attr not in vars(owner):
                if self.mode in path and f"{target}.{attr}" not in self.missing:
                    self.missing.append(f"{target}.{attr}")
                continue
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def problems(self) -> list[str]:
        """Targets on the workload's path that are missing or were never called."""
        out = [f"trace target {t} is missing; update perfbench/tracing.py" for t in self.missing]
        called = set(self.names)
        for target, attr, name, path in TARGETS:
            if self.mode in path and name not in called and f"{target}.{attr}" not in self.missing:
                out.append(f"trace target {target}.{attr} ({name}) was never called")
        return out

    def write_spans(self, path) -> None:
        """Save every span as CSV: id, name, start_ns, end_ns, parent id, size."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_ns,end_ns,parent,size\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i},{name},{self.start[i]},{self.end[i]},{self.parent[i]},{self.size[i]}\n")

    def self_times(self) -> list[int]:
        """Span duration minus the time its direct children cover, in ns."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_metrics(self, runs: int, traced_wall_s: float, csv_rows: int, csv_bytes: int) -> dict:
        """Per-layer numbers of ``spec.PER_LAYER`` except ``trace.overhead_frac``."""
        own = self.self_times()
        calls: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        lat: dict[str, list[float]] = {}
        buckets: dict[str, list[float]] = {}
        sizes: dict[str, int] = {}
        for i, name in enumerate(self.names):
            d = self.end[i] - self.start[i]
            calls[name] = calls.get(name, 0) + 1
            incl_ns[name] = incl_ns.get(name, 0) + d
            self_ns[name] = self_ns.get(name, 0) + own[i]
            lat.setdefault(name, []).append(d / 1e3)
            n = self.size[i]
            if n >= 0:
                sizes[name] = sizes.get(name, 0) + n
                key = name + "." + (
                    spec.select_bucket(n) if name == "engine.select" else spec.ingest_bucket(n)
                )
                buckets.setdefault(key, []).append(d / 1e3)
        for vals in (*lat.values(), *buckets.values()):
            vals.sort()

        per_run = 1.0 / max(runs, 1)

        def n_calls(name):
            return calls.get(name, 0) * per_run

        def p50(name):
            return _percentile(lat.get(name, []), 50)

        def secs(table, name):
            return table.get(name, 0) / 1e9 * per_run

        picks = sizes.get("engine.select", 0)
        nodes = sizes.get("engine.ingest", 0)
        requested = self.access["requested"]
        m = {
            "engine.select.calls": n_calls("engine.select"),
            "engine.select.us_per_call_p50": p50("engine.select"),
            "engine.select.self_s": secs(self_ns, "engine.select"),
            "engine.picks": picks * per_run,
            "engine.select.us_per_pick": incl_ns.get("engine.select", 0) / 1e3 / max(picks, 1),
            "engine.ingest.calls": n_calls("engine.ingest"),
            "engine.ingest.us_per_call_p50": p50("engine.ingest"),
            "engine.ingest.self_s": secs(self_ns, "engine.ingest"),
            "engine.ingest.nodes": nodes * per_run,
            "engine.ingest.us_per_node": incl_ns.get("engine.ingest", 0) / 1e3 / max(nodes, 1),
            "engine.initial_state.s": secs(incl_ns, "engine.initial_state"),
            "models.rank_one.calls": n_calls("models.rank_one"),
            "models.rank_one.us_per_call_p50": p50("models.rank_one"),
            "models.rank_one.s": secs(incl_ns, "models.rank_one"),
            "models.mark_known.calls": n_calls("models.mark_known"),
            "models.condition.calls": n_calls("models.condition"),
            "models.condition.s": secs(incl_ns, "models.condition"),
            "models.build_s": p50("models.build") / 1e6,
            "access.round.calls": n_calls("access.round"),
            "access.round.us_per_call_p50": p50("access.round"),
            "access.round.s": secs(incl_ns, "access.round"),
            **{f"access.{k}": v * per_run for k, v in self.access.items()},
            "access.delivery_ratio": self.access["delivered"] / requested if requested else 0.0,
        }
        for op in ("select_model", "cost", "update", "record_selection", "softmax"):
            m[f"bandit.{op}.calls"] = n_calls(f"bandit.{op}")
            m[f"bandit.{op}.us_per_call_p50"] = p50(f"bandit.{op}")
        m["bandit.s"] = sum((secs(self_ns, n) for n in self_ns if n.startswith("bandit.")), 0.0)
        m["experiments.loop_self_s"] = secs(self_ns, "experiments.run")
        m["experiments.csv.s"] = secs(self_ns, "experiments.csv")
        m["experiments.csv.rows"] = csv_rows * per_run
        m["experiments.csv.bytes"] = csv_bytes * per_run
        m["experiments.summary.s"] = secs(self_ns, "experiments.summary")
        m["cli.self_s"] = secs(self_ns, "cli.main")
        # Time the run loop and the CLI spend outside every traced layer: it
        # grows when work leaves the layers the tracer knows.
        m["trace.unattributed_frac"] = (
            (m["cli.self_s"] + m["experiments.loop_self_s"]) * runs / traced_wall_s
            if traced_wall_s > 0 else 0.0
        )
        for b in spec.SELECT_BUCKETS:
            vals = buckets.get(f"engine.select.{b}", [])
            m[f"engine.select.{b}.us_p50"] = _percentile(vals, 50)
            m[f"engine.select.{b}.us_p90"] = _percentile(vals, 90)
        for b in spec.INGEST_BUCKETS:
            vals = buckets.get(f"engine.ingest.{b}", [])
            m[f"engine.ingest.{b}.us_p50"] = _percentile(vals, 50)
            m[f"engine.ingest.{b}.us_p90"] = _percentile(vals, 90)
        return m

    def module_self_s(self) -> dict[str, float]:
        """Self seconds summed per gdas module (the first part of the span name)."""
        out: dict[str, float] = {}
        for name, own in zip(self.names, self.self_times()):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + own / 1e9
        return out
