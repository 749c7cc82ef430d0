from pathlib import Path

import numpy as np
import pytest

import wnvfront.cli as cli
from wnvfront.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, cli_main
from wnvfront.config import load_config
from wnvfront.thresholds import NotConvergedError

FAST_CFG = """
[solver]
J = 80
dt0 = 0.02
dt_min = 0.02
dt_max = 0.02
t_end = 3.0
[lyapunov]
J = 64
dt = 0.05
horizon = 10.0
"""


@pytest.fixture()
def fast_cfg(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CFG, encoding="utf-8")
    return str(path)


def test_unknown_subcommand_is_usage_error():
    assert cli_main(["frobnicate"]) == EXIT_USAGE


def test_no_subcommand_is_usage_error():
    assert cli_main([]) == EXIT_USAGE


def test_missing_config_is_usage_error(tmp_path):
    assert cli_main(["--config", str(tmp_path / "nope.cfg"), "simulate"]) == EXIT_USAGE


def test_invalid_config_is_usage_error(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[model]\nD1 = -3\n", encoding="utf-8")
    assert cli_main(["--config", str(bad), "simulate"]) == EXIT_USAGE


def test_simulate_writes_outputs(fast_cfg, tmp_path):
    out = tmp_path / "run1"
    rc = cli_main(["--config", fast_cfg, "--out", str(out), "simulate"])
    assert rc == EXIT_OK
    assert (out / "boundaries.csv").exists()
    assert (out / "fronts.svg").exists()
    assert (out / "config_used.cfg").exists()


def test_simulate_deterministic_outputs(fast_cfg, tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["--config", fast_cfg, "--out", str(out), "simulate"]) == EXIT_OK
        outs.append((out / "boundaries.csv").read_bytes())
    assert outs[0] == outs[1]


def test_simulate_env_out_dir(fast_cfg, tmp_path, monkeypatch):
    out = tmp_path / "env_out"
    monkeypatch.setenv("WNV_OUT", str(out))
    assert cli_main(["--config", fast_cfg, "simulate"]) == EXIT_OK
    assert (out / "boundaries.csv").exists()


def test_overrides_applied(fast_cfg, tmp_path, capsys):
    out = tmp_path / "o"
    rc = cli_main(["--config", fast_cfg, "--out", str(out), "simulate",
                   "--h0", "0.5", "--t-end", "2.0", "--grid", "64"])
    assert rc == EXIT_OK
    text = (out / "config_used.cfg").read_text(encoding="utf-8")
    assert "h0 = 0.5" in text
    assert "t_end = 2.0" in text
    assert "J = 64" in text


def test_classify_with_given_lstar(fast_cfg, tmp_path, capsys):
    rc = cli_main(["--config", fast_cfg, "--out", str(tmp_path / "c"), "classify",
                   "--L-star", "1.0"])
    assert rc == EXIT_OK
    assert "verdict=" in capsys.readouterr().out


def test_lyapunov_command(fast_cfg, tmp_path, capsys):
    rc = cli_main(["--config", fast_cfg, "--out", str(tmp_path / "l"), "lyapunov",
                   "--half-width", "2.0"])
    assert rc == EXIT_OK
    assert "lambda=" in capsys.readouterr().out


def test_sweep_command(fast_cfg, tmp_path):
    out = tmp_path / "s"
    rc = cli_main(["--config", fast_cfg, "--out", str(out), "sweep-lambda",
                   "--L-list", "1.0,2.0"])
    assert rc == EXIT_OK
    assert (out / "lambda_sweep.csv").exists()
    assert (out / "lambda_vs_L.svg").exists()


def test_verify_failure_is_exit_3(tmp_path, monkeypatch):
    bad_rows = [
        {"study": "spatial", "J": J, "dt": 0.01, "error": e, "order": o}
        for J, e, o in ((24, 1e-2, np.nan), (48, 5e-3, 1.0), (96, 2.5e-3, 1.0))
    ] + [
        {"study": "temporal", "J": 256, "dt": d, "error": e, "order": o}
        for d, e, o in ((0.04, 1e-2, np.nan), (0.02, 5e-3, 1.0), (0.01, 2.5e-3, 1.0))
    ]
    monkeypatch.setattr(cli, "manufactured_convergence", lambda: bad_rows)
    monkeypatch.setattr(cli, "comparison_suite",
                        lambda *a, **k: {"passed": True, "cases": [], "tolerance": 0.0})
    rc = cli_main(["--out", str(tmp_path / "v"), "verify"])
    assert rc == EXIT_VERIFY


def test_reproduce_paper_unconverged_mustar_is_exit_2(fast_cfg, tmp_path, monkeypatch):
    def unconverged(*a, **k):
        raise NotConvergedError("probe at mu=0.87 undetermined")

    monkeypatch.setattr(cli, "find_L_star", lambda *a, **k: (1.27, 0))
    monkeypatch.setattr(cli, "find_mu_star", unconverged)
    out = tmp_path / "r"
    rc = cli_main(["--config", fast_cfg, "--out", str(out), "reproduce-paper"])
    assert rc == EXIT_NUMERICAL
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("init", [
    "kind = bogus",
    "amp_U = 5.0",
    "file = no_such_initial_data.csv",
], ids=["unknown_kind", "amp_above_capacity", "missing_file"])
def test_bad_init_section_is_usage_error(tmp_path, init):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + "[init]\n" + init + "\n", encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "simulate"]) == EXIT_USAGE


def test_verify_uses_config_model(tmp_path, monkeypatch):
    good_rows = [
        {"study": "spatial", "J": J, "dt": 0.01, "error": e, "order": o}
        for J, e, o in ((24, 4e-2, np.nan), (48, 1e-2, 2.0), (96, 2.5e-3, 2.0))
    ] + [
        {"study": "temporal", "J": 256, "dt": d, "error": e, "order": o}
        for d, e, o in ((0.04, 1e-2, np.nan), (0.02, 5e-3, 1.0), (0.01, 2.5e-3, 1.0))
    ]
    seen = []
    monkeypatch.setattr(cli, "manufactured_convergence", lambda: good_rows)
    monkeypatch.setattr(cli, "comparison_suite",
                        lambda spec, *a, **k: seen.append(spec) or {"passed": True, "cases": []})
    cfg = tmp_path / "model.cfg"
    cfg.write_text("[model]\nD1 = 2.0\nalpha1_base = 0.5\nh0 = 0.6\n", encoding="utf-8")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "v"), "verify"]) == EXIT_OK
    (spec,) = seen
    assert spec.D1 == 2.0
    assert spec.alpha1.base == 0.5
    assert spec.h0 == 1.0  # verify raises h0 to at least 1.0


def test_invalid_command_input_is_usage_error(tmp_path):
    assert cli_main(["--out", str(tmp_path / "l"), "lyapunov", "--half-width", "-1"]) == EXIT_USAGE


def test_verify_comparison_data_within_capacity(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "manufactured_convergence", lambda: [])
    monkeypatch.setattr(cli, "comparison_suite",
                        lambda spec, pairs, *a, **k: seen.append((spec, pairs))
                        or {"passed": True, "cases": []})
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[model]\nN1 = 0.1\nN2 = 5.0\n", encoding="utf-8")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "v"), "verify"]) == EXIT_OK
    ((spec, [(lo, hi)]),) = seen
    for init in (lo, hi):
        init.validate(spec)
    assert lo.amp_U < hi.amp_U and lo.amp_V < hi.amp_V


@pytest.mark.parametrize("command", ["lyapunov", "find-lstar"])
@pytest.mark.parametrize("setting", [
    "[lyapunov]\ndt = 0",
    "[lyapunov]\nhorizon = 0.001",
    "[lyapunov]\ntol = 0",
    "[run]\nsearch_dt = 0",
    "[run]\nsearch_J = 1",
], ids=["dt_zero", "horizon_below_dt", "tol_zero", "search_dt_zero", "search_J_one"])
def test_bad_estimator_setting_is_usage_error(tmp_path, capsys, setting, command):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + setting + "\n", encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), command]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("classify", "t_end = 0"),
    ("simulate", "t_end = -5"),
], ids=["zero", "negative"])
def test_nonpositive_t_end_is_config_error(tmp_path, capsys, command, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + "[solver]\n" + setting + "\n", encoding="utf-8")
    extra = ["--L-star", "1.27"] if command == "classify" else []
    out = tmp_path / "o"
    assert cli_main(["--config", str(bad), "--out", str(out), command, *extra]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["lyapunov", "--grid", "64"],
    ["find-lstar", "--t-end", "5"],
    ["find-mustar", "--mu", "5"],
    ["sweep-lambda", "--h0", "1"],
    ["verify", "--grid", "10"],
], ids=lambda argv: argv[0])
def test_flag_the_subcommand_ignores_is_usage_error(fast_cfg, tmp_path, capsys, argv):
    assert cli_main(["--config", fast_cfg, "--out", str(tmp_path / "o"), *argv]) == EXIT_USAGE
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [
    "[solver]\nnewton_tol = 1e-10",
    "[lyapunov]\nrenorm_lo = 1e-6",
    "[init]\nkind = cosine",
], ids=["newton_tol", "renorm_lo", "kind"])
def test_constant_is_not_a_config_key(tmp_path, capsys, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_CFG + setting + "\n", encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "simulate"]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_init_file_loads_samples(tmp_path):
    # a tent on the default initial interval [-2, 2], which no cosine bump matches
    x = np.linspace(-2.0, 2.0, 9)
    U, V = 0.05 * (2.0 - np.abs(x)), 2.0 - np.abs(x)
    samples = tmp_path / "init.csv"
    np.savetxt(samples, np.column_stack([x, U, V]), delimiter=",", header="x,U,V", comments="")
    cfg_path = tmp_path / "sampled.cfg"
    cfg_path.write_text(FAST_CFG + f"[init]\nfile = {samples}\n", encoding="utf-8")
    init = load_config(cfg_path).initial_data()
    assert init.is_sampled
    np.testing.assert_array_equal(init.u0(x, 2.0), U)
    np.testing.assert_array_equal(init.v0(x, 2.0), V)
    out = tmp_path / "o"
    assert cli_main(["--config", str(cfg_path), "--out", str(out), "simulate"]) == EXIT_OK
    snap = np.genfromtxt(out / "snapshot_0.csv", delimiter=",", names=True)
    np.testing.assert_allclose(snap["U"], np.interp(snap["x"], x, U), rtol=0, atol=1e-15)
    np.testing.assert_allclose(snap["V"], np.interp(snap["x"], x, V), rtol=0, atol=1e-15)


def test_readme_cli_examples_parse():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line.split()[1:] for line in block.splitlines() if line.startswith("wnvfront ")]
    assert len(examples) >= 8
    for argv in examples:
        cli._build_parser().parse_args(argv)
