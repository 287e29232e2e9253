"""Command-line front end: run / sweep / bandit / validate."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .config import load_scenario
from .errors import NumericalDegeneracyError
from .experiments import (
    RunResult,
    Scenario,
    run_bandit_scenario,
    run_scenario,
    sweep,
    write_rounds_csv,
    write_summary_csv,
    write_sweep_csv,
)
from .presets import BANDIT_PRESETS, RUN_PRESETS, SWEEP_PRESETS
from .validate import (
    ALL_CHECKS,
    DEFAULT_SEED,
    SWEEP_RULES,
    preset_rule,
    run_all,
    sweep_problems,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="flat key=value scenario file")
    parser.add_argument("--preset", help="named scenario preset")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--runs", type=int, help="override the Monte-Carlo run count")
    parser.add_argument("--out", type=Path, help="directory for CSV output")
    parser.add_argument(
        "--check",
        action="store_true",
        help="validate the documented preset property and exit nonzero on failure",
    )


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.runs is not None:
        overrides["runs"] = args.runs
    return replace(scenario, **overrides) if overrides else scenario


def _preset_or_config(args, presets: dict, kind: str):
    """The ``--preset`` entry of ``presets``, or None when ``--config`` was given."""
    if (args.config is None) == (args.preset is None):
        raise SystemExit("give exactly one of --config or --preset")
    if args.preset is None:
        return None
    if args.preset not in presets:
        raise SystemExit(f"unknown {kind} preset {args.preset!r}; have {sorted(presets)}")
    return presets[args.preset]


def _rule(args, presets: dict, kind: str, config_rule=None):
    """The rule ``--check`` applies: ``--preset``'s, else ``config_rule``; None without it."""
    if not args.check:
        return None
    rule = preset_rule(args.preset) or config_rule
    if rule is None:
        checked = [name for name in sorted(presets) if preset_rule(name) is not None]
        raise SystemExit(f"--check is defined for the {kind} presets {checked}")
    return rule


def _check(rule, result, passed: str) -> int:
    """Print each problem ``rule`` finds in ``result`` (exit code 1), else ``passed``."""
    if rule is None:
        return 0
    problems = rule(result)
    for msg in problems:
        print(f"CHECK FAIL: {msg}")
    if problems:
        return 1
    print(f"CHECK PASS: {passed}")
    return 0


def _make_out(out: Path | None) -> None:
    """Create the ``--out`` directory before the batch runs, so a bad path fails first."""
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)


def _write(out: Path | None, name: str, writer, payload) -> None:
    if out is not None:
        writer(out / name, payload)


def cmd_run(args) -> int:
    scenarios = _preset_or_config(args, RUN_PRESETS, "run") or [
        ("scenario", load_scenario(args.config))
    ]
    rule = _rule(args, RUN_PRESETS, "run")
    _make_out(args.out)
    results: dict[str, RunResult] = {}
    for label, scenario in scenarios:
        scenario = _apply_overrides(scenario, args)
        result = run_scenario(scenario)
        results[label] = result
        bounds = result.bounds()
        stop = f"mean stop round {result.mean_stop_round:.2f}"
        if result.censored_runs == scenario.run_count:
            stop = f"no run reached kbar={scenario.stop_threshold}"
        print(
            f"{label}: {stop} over "
            f"{scenario.run_count} runs (closed form {bounds['rounds_' + scenario.mode]:.2f}; "
            f"censored {result.censored_runs})"
        )
        _write(args.out, f"rounds_{label}.csv", write_rounds_csv, result)
        _write(args.out, f"summary_{label}.csv", write_summary_csv, result)
    return _check(rule, results, "stop rounds within the documented windows")


def cmd_sweep(args) -> int:
    preset = _preset_or_config(args, SWEEP_PRESETS, "sweep")
    rule = _rule(args, SWEEP_PRESETS, "sweep", config_rule=sweep_problems)
    if preset is not None:
        if args.param is not None or args.values is not None:
            raise SystemExit(f"--param and --values are for --config sweeps, not {args.preset!r}")
        scenario, param, values = preset
    else:
        scenario = load_scenario(args.config)
        param = args.param
        if param is None or args.values is None:
            raise SystemExit("--config sweeps need --param and --values")
        values = [float(v) for v in args.values.split(",")]
    scenario = _apply_overrides(scenario, args)
    _make_out(args.out)
    result = sweep(scenario, param, values)
    for pt in result.points:
        verdict = "tie" if pt.tie else "aloha" if pt.aloha_better else "polling"
        if param == "p":
            # Only the p rule tests the 1/e prediction; an N-sweep holds p fixed.
            predicted = "aloha" if pt.aloha_favored_predicted else "polling"
            verdict += f" ({'untested; ' if pt.tie else ''}predicted {predicted})"
        print(
            f"{param}={pt.value:g}: polling {pt.polling_mse:.4g}, aloha {pt.aloha_mse:.4g}"
            f" -> {verdict}"
        )
    _write(args.out, f"sweep_{param}.csv", write_sweep_csv, result)
    return _check(rule, result, SWEEP_RULES[param])


def cmd_bandit(args) -> int:
    scenario = _preset_or_config(args, BANDIT_PRESETS, "bandit")
    rule = _rule(args, BANDIT_PRESETS, "bandit")
    if scenario is None:
        scenario = load_scenario(args.config)
    scenario = _apply_overrides(scenario, args)
    _make_out(args.out)
    result = run_bandit_scenario(scenario)
    summary = result.summary_rows()
    freqs = " ".join(f"m{m}={summary[f'freq_{m}'][-1]:.2f}" for m in range(1, scenario.M + 1))
    print(
        f"bandit tau={scenario.tau:g}: round {int(summary['t'][-1])} selection frequencies "
        f"{freqs}; mean per-round sqerr {summary['mean_sqerr_delivered'][-1]:.4g}"
    )
    _write(args.out, "rounds_bandit.csv", write_rounds_csv, result)
    _write(args.out, "summary_bandit.csv", write_summary_csv, result)
    return _check(rule, result, "bandit behavior matches the documented property")


def cmd_validate(args) -> int:
    only = set(args.only.split(",")) if args.only else None
    keys = [key for key, _ in ALL_CHECKS]
    if only is not None and not only <= set(keys):
        raise SystemExit(f"unknown check {sorted(only - set(keys))}; have {keys}")
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    results = run_all(seed=seed, only=only)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.name}: {res.detail} ({res.elapsed:.1f}s)")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdas",
        description=(
            "Simulate round-based collection of correlated Gaussian sensor data "
            "with greedy minimum-MSE node selection"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a polling/aloha scenario")
    _add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep p or N at a fixed horizon")
    _add_common(p_sweep)
    p_sweep.add_argument("--param", choices=("p", "N"))
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_bandit = sub.add_parser("bandit", help="run a model-selection scenario")
    _add_common(p_bandit)
    p_bandit.set_defaults(fn=cmd_bandit)

    p_val = sub.add_parser("validate", help="run the full acceptance checks")
    p_val.add_argument("--seed", type=int, help="seed for every check")
    p_val.add_argument("--only", help="comma-separated check numbers, e.g. 1,4,9")
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, NumericalDegeneracyError, OSError) as exc:
        raise SystemExit(f"gdas {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
