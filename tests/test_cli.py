"""Command-line entry points."""

import os
import subprocess
import sys
from pathlib import Path
from unittest.mock import patch

import pytest

import gdas.cli as cli
import gdas.validate as validate
from gdas.cli import main
from gdas.experiments import SweepPoint, SweepResult


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(
        "mode = aloha\nK = 12\nrho = 0.9\nN = 2\np = 0.4\nkbar = 9\nT = 40\nruns = 4\nseed = 3\n"
    )
    return path


def test_run_writes_csvs(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tiny_cfg), "--out", str(out)])
    assert code == 0
    assert (out / "rounds_scenario.csv").exists()
    assert (out / "summary_scenario.csv").exists()
    assert "mean stop round" in capsys.readouterr().out


def test_run_seed_override_changes_output(tiny_cfg, tmp_path):
    out_a, out_b, out_c = (tmp_path / d for d in ("a", "b", "c"))
    main(["run", "--config", str(tiny_cfg), "--out", str(out_a)])
    main(["run", "--config", str(tiny_cfg), "--out", str(out_b)])
    main(["run", "--config", str(tiny_cfg), "--out", str(out_c), "--seed", "8"])
    a = (out_a / "rounds_scenario.csv").read_bytes()
    b = (out_b / "rounds_scenario.csv").read_bytes()
    c = (out_c / "rounds_scenario.csv").read_bytes()
    assert a == b
    assert a != c


def test_sweep_from_config(tiny_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        ["sweep", "--config", str(tiny_cfg), "--param", "p", "--values", "0.3,0.6",
         "--out", str(out)]
    )
    assert code == 0
    assert (out / "sweep_p.csv").exists()
    assert "p=0.3" in capsys.readouterr().out


def test_bandit_from_config(tmp_path, capsys):
    cfg = tmp_path / "bandit.cfg"
    cfg.write_text("mode = bandit\nK = 12\nN = 2\np = 0.4\nT = 8\nruns = 3\nseed = 2\n")
    out = tmp_path / "out"
    code = main(["bandit", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "rounds_bandit.csv").exists()
    assert "selection frequencies" in capsys.readouterr().out


def test_validate_subset(capsys):
    code = main(["validate", "--only", "9"])
    assert code == 0
    out = capsys.readouterr().out
    assert "9 softmax-units" in out and "PASS" in out


def test_validate_rejects_unknown_check(capsys):
    for only in ("9,10", "10"):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--only", only])
        assert str(exc.value) == (
            "unknown check ['10']; have ['1', '2', '3', '4', '5', '6', '7', '8', '9']"
        )
    assert capsys.readouterr().out == ""


def test_sweep_rejects_non_integer_n(tiny_cfg):
    with pytest.raises(SystemExit, match="N values must be integers"):
        main(["sweep", "--config", str(tiny_cfg), "--param", "N", "--values", "1,2.5"])


def test_invalid_config_value_exits_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = aloha\nK = 12\np = 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert str(exc.value) == "gdas run: p must lie in (0, 1]"
    assert capsys.readouterr().out == ""


def test_config_type_error_exits_with_one_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mode = aloha\nK = 12\nseed = 1e3\n")
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert str(exc.value) == "gdas run: line 3: seed must be an int, got '1e3'"
    assert capsys.readouterr().out == ""


def test_degenerate_model_family_exits_with_one_line(tmp_path):
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text("mode = bandit\nK = 100\nfamily_noise = 1e-14\nruns = 8\nseed = 3\n")
    with pytest.raises(SystemExit) as exc:
        main(["bandit", "--config", str(cfg)])
    assert str(exc.value) == (
        "gdas bandit: model assigns (near-)zero conditional variance to the delivered nodes"
    )


@pytest.mark.parametrize("case", ["missing-config", "config-is-a-directory", "out-is-a-file"])
def test_file_errors_exit_with_one_line(case, tiny_cfg, tmp_path):
    path, args = {
        "missing-config": (tmp_path / "missing.cfg", ["--config"]),
        "config-is-a-directory": (tmp_path, ["--config"]),
        "out-is-a-file": (tiny_cfg, ["--config", str(tiny_cfg), "--out"]),
    }[case]
    with pytest.raises(SystemExit) as exc:
        main(["run", *args, str(path)])
    assert str(exc.value).startswith("gdas run: [Errno ")
    assert str(exc.value).endswith(f"'{path}'")


@pytest.mark.parametrize(
    "command, runner, extra",
    [
        ("run", "run_scenario", []),
        ("sweep", "sweep", ["--param", "p", "--values", "0.3"]),
        ("bandit", "run_bandit_scenario", []),
    ],
)
def test_out_is_checked_before_the_batch_runs(command, runner, extra, tiny_cfg, capsys):
    def never(*args):
        raise AssertionError(f"{runner} ran before --out was checked")

    with patch.object(cli, runner, never), pytest.raises(SystemExit) as exc:
        main([command, "--config", str(tiny_cfg), *extra, "--out", str(tiny_cfg)])
    assert str(exc.value).startswith(f"gdas {command}: [Errno ")
    assert str(exc.value).endswith(f"'{tiny_cfg}'")
    assert capsys.readouterr().out == ""


def test_bandit_config_with_nan_tau_exits_with_one_line(tmp_path):
    # T <= M: every round is round-robin, so a nan tau never reached a softmax.
    cfg = tmp_path / "nan-tau.cfg"
    cfg.write_text("mode = bandit\nK = 12\nN = 2\np = 0.4\nT = 3\nruns = 2\ntau = nan\n")
    with pytest.raises(SystemExit) as exc:
        main(["bandit", "--config", str(cfg)])
    assert str(exc.value) == "gdas bandit: tau must be finite and > 0, got nan"


def test_sweep_preset_rejects_param_and_values(capsys):
    for extra in (["--param", "N"], ["--values", "1,2"]):
        with pytest.raises(SystemExit, match="--param and --values are for --config sweeps"):
            main(["sweep", "--preset", "p-sweep", *extra])
    assert capsys.readouterr().out == ""


def test_run_says_when_no_run_reached_kbar(tmp_path, capsys):
    cfg = tmp_path / "censored.cfg"
    cfg.write_text("mode = aloha\nK = 12\nN = 2\np = 0.4\nkbar = 12\nT = 12\nruns = 3\n")
    assert main(["run", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("scenario: no run reached kbar=12 over 3 runs (closed form ")
    assert out.rstrip().endswith("censored 3)")
    assert "nan" not in out


def test_sweep_check_applies_the_validate_rule(capsys):
    points = [
        SweepPoint("p", p, 2.0, 2.0, 1.0, 1.0, True, favored)
        for p, favored in ((0.2, True), (0.6, False))
    ]

    def fake_sweep(scenario, param, values):
        return SweepResult(scenario, param, points)

    with patch.object(cli, "sweep", fake_sweep):
        assert main(["sweep", "--preset", "p-sweep", "--check"]) == 1
    out = capsys.readouterr().out
    assert "CHECK FAIL: p=0.6: winner differs from the 1/e crossover prediction" in out
    assert "p=0.2: winner" not in out


def test_sweep_reports_a_tie_as_untested(tmp_path, capsys):
    # Every run of both modes learns all 12 nodes by T = 75: equal final
    # MSEs order nothing, so they neither confirm nor break the prediction.
    cfg = tmp_path / "tie.cfg"
    cfg.write_text("mode = aloha\nK = 12\nN = 2\np = 0.4\nruns = 2\n")
    assert main(["sweep", "--config", str(cfg), "--param", "p", "--values", "0.2", "--check"]) == 0
    out = capsys.readouterr().out
    assert "p=0.2: polling 0, aloha 0 -> tie (untested; predicted aloha)" in out
    assert "CHECK PASS" in out


def test_n_sweep_at_mse_zero_passes_its_check(tmp_path, capsys):
    # Every run of both modes learns all 12 nodes at each N: the MSEs sit
    # at 0 and cannot fall in N, which breaks nothing.
    cfg = tmp_path / "zero.cfg"
    cfg.write_text("mode = aloha\nK = 12\nN = 2\np = 0.4\nkbar = 5\nruns = 2\nseed = 3\n")
    argv = ["sweep", "--config", str(cfg), "--param", "N", "--values", "1,2,4", "--check"]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "polling 0, aloha 0" in out
    assert "not decreasing" not in out and "CHECK PASS" in out


def test_n_sweep_states_the_rule_it_tests(tmp_path, capsys):
    # The N rule tests each mode's fall in N, never the 1/e prediction (p is
    # held fixed): the point lines leave the prediction out, and the CHECK
    # line names the N rule.
    cfg = tmp_path / "n.cfg"
    cfg.write_text("mode = aloha\nK = 12\nN = 2\np = 0.4\nkbar = 5\nruns = 2\nseed = 3\n")
    argv = ["sweep", "--config", str(cfg), "--param", "N", "--values", "1,2", "--check"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:2]] == ["N=1", "N=2"]
    assert all(line.rsplit("-> ", 1)[1] in ("aloha", "polling", "tie") for line in lines[:2])
    assert lines[2] == (
        "CHECK PASS: each mode's final MSE falls strictly in N (untested at MSE 0 on both sides)"
    )


def test_sweep_rejects_a_bandit_scenario(tmp_path):
    # A sweep runs polling and ALOHA only; its header must not claim a bandit.
    cfg = tmp_path / "bandit.cfg"
    cfg.write_text("mode = bandit\nK = 12\nN = 2\np = 0.4\nruns = 2\ntau = 5\n")
    out = tmp_path / "out"
    with pytest.raises(SystemExit, match="gdas sweep: sweep compares polling and ALOHA"):
        main(["sweep", "--config", str(cfg), "--param", "p", "--values", "0.2,0.5",
              "--out", str(out)])
    assert not (out / "sweep_p.csv").exists()


# Every preset with a --check and the validate rule it applies.
CHECKED_PRESETS = [
    ("run", "rounds", "rounds_problems"),
    ("sweep", "p-sweep", "sweep_problems"),
    ("sweep", "n-sweep", "sweep_problems"),
    ("bandit", "bandit-tau1", "lead_problems"),
    ("bandit", "bandit-tau20", "band_problems"),
    ("bandit", "mismatch", "mismatch_problems"),
]


@pytest.mark.parametrize("command, preset, rule", CHECKED_PRESETS)
def test_check_reports_the_validate_rule(command, preset, rule, capsys):
    with patch.object(validate, rule, lambda result: ["injected problem"]):
        assert main([command, "--preset", preset, "--runs", "2", "--check"]) == 1
    out = capsys.readouterr().out
    assert "\nCHECK FAIL: injected problem\n" in out
    assert "CHECK PASS" not in out


def test_run_requires_config_or_preset():
    with pytest.raises(SystemExit):
        main(["run"])


def test_unknown_preset_rejected():
    with pytest.raises(SystemExit, match="unknown run preset"):
        main(["run", "--preset", "everything"])


def test_check_requires_matching_preset(tiny_cfg):
    with pytest.raises(SystemExit, match="rounds"):
        main(["run", "--config", str(tiny_cfg), "--check"])


# Runs the CLI in a fresh interpreter, then prints every scipy module loaded.
_IMPORT_PROBE = """
import sys

import gdas, gdas.cli

run_cfg, bandit_cfg, out = sys.argv[1:]
assert gdas.cli.main(["run", "--config", run_cfg, "--out", out]) == 0
assert gdas.cli.main(["bandit", "--config", bandit_cfg, "--out", out]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_runtime_imports_no_scipy(tiny_cfg, tmp_path):
    # In a subprocess: pytest and the test modules import scipy themselves.
    bandit_cfg = tmp_path / "bandit.cfg"
    bandit_cfg.write_text("mode = bandit\nK = 12\nN = 2\np = 0.4\nT = 6\nruns = 2\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tiny_cfg), str(bandit_cfg), str(tmp_path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
