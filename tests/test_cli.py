import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import wnvfront.cli as cli
import wnvfront.thresholds as th
from wnvfront.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, cli_main
from wnvfront.config import load_config
from wnvfront.thresholds import NotConvergedError, ProbeRecord

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


def _fast_cfg_with(setting):
    """FAST_CFG with ``setting`` ("[section]\nkey = value") in that section, each key once."""
    header, line = setting.split("\n")
    key = line.partition("=")[0].strip()
    lines, section = [], None
    for old in FAST_CFG.strip().splitlines():
        section = old if old.startswith("[") else section
        if section != header or old.partition("=")[0].strip() != key:
            lines.append(old)
        if old == header:
            lines.append(line)
    if header not in lines:
        lines += [header, line]
    return "\n".join(lines) + "\n"


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
                        lambda *a, **k: {"passed": True})
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
                        lambda spec, *a, **k: seen.append(spec) or {"passed": True})
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
                        lambda spec, lo, hi, *a, **k: seen.append((spec, lo, hi))
                        or {"passed": True})
    cfg = tmp_path / "small.cfg"
    cfg.write_text("[model]\nN1 = 0.1\nN2 = 5.0\n", encoding="utf-8")
    assert cli_main(["--config", str(cfg), "--out", str(tmp_path / "v"), "verify"]) == EXIT_OK
    ((spec, lo, hi),) = seen
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
    bad.write_text(_fast_cfg_with(setting), encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), command]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command, setting", [
    ("classify", "t_end = 0"),
    ("simulate", "t_end = -5"),
], ids=["zero", "negative"])
def test_nonpositive_t_end_is_config_error(tmp_path, capsys, command, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_fast_cfg_with("[solver]\n" + setting), encoding="utf-8")
    extra = ["--L-star", "1.27"] if command == "classify" else []
    out = tmp_path / "o"
    assert cli_main(["--config", str(bad), "--out", str(out), command, *extra]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, setting", [
    ("find-lstar", "[run]\nshifts = nan"),
    ("find-lstar", "[run]\nshifts ="),
    ("simulate", "[solver]\noutput_times = -1.0, nan"),
], ids=["nan_shift", "no_shift", "bad_output_times"])
def test_bad_run_setting_is_config_error(tmp_path, capsys, monkeypatch, command, setting):
    # rejected while the config is read, before anything is integrated
    def must_not_run(*args, **kwargs):
        raise AssertionError("integrated despite a bad setting")

    monkeypatch.setattr(th, "lyapunov_exponent", must_not_run)
    monkeypatch.setattr(cli, "simulate", must_not_run)
    bad = tmp_path / "bad.cfg"
    bad.write_text(_fast_cfg_with(setting), encoding="utf-8")
    out = tmp_path / "o"
    assert cli_main(["--config", str(bad), "--out", str(out), command]) == EXIT_USAGE
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
    bad.write_text(_fast_cfg_with(setting), encoding="utf-8")
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


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_examples_parse():
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    examples = [line.split()[1:] for line in block.splitlines() if line.startswith("wnvfront ")]
    assert len(examples) >= 8
    for argv in examples:
        cli._build_parser().parse_args(argv)


def test_readme_cli_table_matches_commands():
    # each row: `name`[, `name`] | `--flag ...` and a remark, or "none"
    table = README.read_text(encoding="utf-8").split("| subcommand | flags |", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines():
        if not row.startswith("| `"):
            continue
        _, names, flags, _ = row.split("|")
        listed = re.match(r"\s*`([^`]*)`", flags)
        for name in re.findall(r"`([^`]+)`", names):
            documented[name] = tuple(listed.group(1).split()) if listed else ()
    assert documented == {name: flags for name, (_, _, flags) in cli._COMMANDS.items()}


def _failed(run):
    """run, with the trajectory it returns marked as a blow-up."""
    return lambda *a, **k: replace(run(*a, **k), status="blowup")


def test_failed_mustar_probe_is_exit_2(fast_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(th, "simulate", _failed(th.simulate))
    rc = cli_main(["--config", fast_cfg, "--out", str(tmp_path / "m"), "find-mustar",
                   "--h0", "0.6", "--t-end", "2", "--grid", "32", "--L-star", "1.27"])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_failed_regime_run_in_reproduce_paper_is_exit_2(fast_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "find_L_star", lambda *a, **k: (1.27, 0))
    monkeypatch.setattr(cli, "simulate", _failed(cli.simulate))
    out = tmp_path / "r"
    assert cli_main(["--config", fast_cfg, "--out", str(out), "reproduce-paper"]) == EXIT_NUMERICAL
    assert not (out / "summary.csv").exists()


def test_reproduce_paper_searches_mustar_as_find_mustar_does(fast_cfg, tmp_path, monkeypatch):
    seen = []

    def spy(spec, init, bracket, mcfg):
        seen.append((spec, bracket, mcfg))
        return 0.5, 1, [ProbeRecord(0.1, "Vanishing", 3.0), ProbeRecord(1.0, "Spreading", 3.0)]

    monkeypatch.setattr(cli, "find_L_star", lambda *a, **k: (1.27, 0))
    monkeypatch.setattr(cli, "find_mu_star", spy)
    cli_main(["--config", fast_cfg, "--out", str(tmp_path / "r"), "reproduce-paper"])
    assert cli_main(["--config", fast_cfg, "--out", str(tmp_path / "m"), "find-mustar",
                     "--h0", "0.6", "--L-star", "1.27"]) == EXIT_OK
    (repro_spec, repro_bracket, repro), (spec, bracket, direct) = seen
    assert repro.solver == direct.solver == load_config(fast_cfg).solver
    assert (repro_spec, repro_bracket, repro) == (spec, bracket, direct)


@pytest.mark.parametrize("command", ["classify", "find-mustar"])
@pytest.mark.parametrize("l_star", ["-1", "nan"])
def test_invalid_lstar_is_usage_error(fast_cfg, tmp_path, monkeypatch, capsys, command, l_star):
    # both fail before anything is simulated: no classify run, no mu* probe
    runs = []
    monkeypatch.setattr(cli, "simulate", lambda *a, **k: runs.append("classify run"))
    monkeypatch.setattr(th, "simulate", lambda *a, **k: runs.append("mu* probe"))
    rc = cli_main(["--config", fast_cfg, "--out", str(tmp_path / "o"), command,
                   "--L-star", l_star, "--t-end", "5", "--grid", "32"])
    assert rc == EXIT_USAGE
    assert "L_star must be positive and finite" in capsys.readouterr().err
    assert runs == []


def test_relative_init_file_and_recorded_config(tmp_path, monkeypatch):
    sub = tmp_path / "sub"
    sub.mkdir()
    x = np.linspace(-2.0, 2.0, 9)
    U, V = 0.05 * (2.0 - np.abs(x)), 2.0 - np.abs(x)
    np.savetxt(sub / "tent.csv", np.column_stack([x, U, V]), delimiter=",", header="x,U,V",
               comments="")
    (sub / "rel.cfg").write_text(FAST_CFG + "[init]\nfile = tent.csv\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert cli_main(["--config", "sub/rel.cfg", "--out", "o", "simulate"]) == EXIT_OK
    # config_used.cfg names a file that loads from any working directory
    monkeypatch.chdir(tmp_path / "o")
    init = load_config("config_used.cfg").initial_data()
    np.testing.assert_array_equal(init.u0(x, 2.0), U)
    np.testing.assert_array_equal(init.v0(x, 2.0), V)
