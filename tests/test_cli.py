import re
from pathlib import Path

import numpy as np
import pytest

import wnvfront.cli as cli
import wnvfront.lyapunov as lyapunov
import wnvfront.output as output
import wnvfront.solver as solver
import wnvfront.thresholds as th
from wnvfront.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, cli_main
from wnvfront.config import load_config
from wnvfront.solver import NonFiniteError
from wnvfront.thresholds import NotConvergedError, ProbeRecord

FAST_CFG = """
[solver]
J = 80
dt_min = 0.02
dt_max = 0.02
t_end = 3.0
[lyapunov]
J = 64
dt = 0.05
horizon = 10.0
"""


def _fast_cfg_with(setting):
    """FAST_CFG with ``setting`` ("[section]\nkey = value\n...") in that section, each key once."""
    header, *new = setting.split("\n")
    keys = {line.partition("=")[0].strip() for line in new}
    lines, section = [], None
    for old in FAST_CFG.strip().splitlines():
        section = old if old.startswith("[") else section
        if section != header or old.partition("=")[0].strip() not in keys:
            lines.append(old)
        if old == header:
            lines.extend(new)
    if header not in lines:
        lines += [header, *new]
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


def test_failed_simulate_is_exit_2_and_writes_nothing(tmp_path, capsys):
    # a fixed step of 20 undershoots the clip band at once and cannot be halved
    cfg = tmp_path / "dt20.cfg"
    cfg.write_text("[solver]\nJ = 64\ndt_min = 20\ndt_max = 20\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli_main(["--config", str(cfg), "--out", str(out), "simulate"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numerical failure: undershoot ")
    assert "below clip band at t=20.0" in captured.err and "dt_min=20" in captured.err
    assert list(out.iterdir()) == []


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


@pytest.mark.parametrize("fails", [
    lambda state, dt, sources: sources is None and state.t + dt > 1.0,
    lambda state, dt, sources: sources is not None,
], ids=["comparison_runs_past_t1", "manufactured_runs"])
def test_verify_with_failed_runs_is_exit_2(tmp_path, monkeypatch, capsys, fails):
    # the comparison runs have no sources, the manufactured runs have them
    step = solver.step

    def failing(spec, state, dt, fronts=None, sources=None, terms=None):
        if fails(state, dt, sources):
            raise NonFiniteError(f"non-finite values at t={state.t + dt}")
        return step(spec, state, dt, fronts, sources, terms)

    monkeypatch.setattr(solver, "step", failing)
    assert cli_main(["--out", str(tmp_path / "v"), "verify"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "verify PASS" not in captured.out
    assert "numerical failure: non-finite values" in captured.err


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
    passing = [{"study": study, "J": 24, "dt": 0.01, "error": 1e-3, "order": order}
               for study, order in (("spatial", 2.0), ("temporal", 1.0))]
    monkeypatch.setattr(cli, "manufactured_convergence", lambda: passing)
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
], ids=["dt_zero", "horizon_below_dt", "tol_zero"])
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


# a field that dips below zero between the points of a 200 x 200 sample
_DIPPING_GAMMA = ("[model]\ngamma_base = 1.0\n"
                  "gamma_harmonics = 0.9:cos:1.0, 0.9:cos:1.4142135623730951\n"
                  "gamma_spatial_amp = -0.014\ngamma_spatial = constant_one")


@pytest.mark.parametrize("command, setting", [
    ("simulate", "[solver]\noutput_times = -1.0, nan"),
    ("simulate", "[solver]\noutput_times = 1.0000001, 1.0000004"),
    ("simulate", _DIPPING_GAMMA),
    ("find-mustar --t-end inf --grid 32 --L-star 1.27", ""),
    ("simulate", "[solver]\nt_end = inf\noutput_times = 1.0"),
    ("simulate", "[model]\nmu = inf"),
    ("simulate", "[model]\nD1 = inf"),
    ("simulate", "[model]\nbeta = inf"),
    ("simulate", "[model]\nh0 = inf"),
    ("simulate", "[model]\nalpha1_harmonics = 0.5:cos:inf"),
    ("simulate", "[model]\nalpha1_base = inf"),
    ("simulate", "[model]\nalpha1_spatial_amp = nan"),
    ("simulate", "[init]\namp_U = nan"),
    ("lyapunov", "[lyapunov]\nhorizon = inf"),
    ("find-lstar", "[run]\nL_hi = inf"),
    ("sweep-lambda", "[run]\nL_list = 0.5, inf"),
    ("sweep-lambda --L-list 0.5,inf", ""),
    ("simulate --t-end 5e-10", ""),
    ("classify --t-end 1e-10 --L-star 1.28", ""),
], ids=["bad_output_times", "colliding_output_times", "dipping_field", "t_end_flag_inf",
        "t_end_inf", "mu_inf", "D1_inf", "beta_inf", "h0_inf", "frequency_inf",
        "base_inf", "spatial_amp_nan", "amp_U_nan", "horizon_inf", "L_hi_inf", "L_list_inf",
        "L_list_flag_inf", "t_end_flag_within_time_tol", "classify_t_end_within_time_tol"])
def test_bad_run_setting_is_config_error(tmp_path, capsys, monkeypatch, command, setting):
    # rejected while the config is read, before anything is integrated
    def must_not_run(*args, **kwargs):
        raise AssertionError("integrated despite a bad setting")

    for module, name in ((th, "lyapunov_exponent"), (th, "simulate"), (cli, "simulate"),
                         (cli, "lyapunov_exponent"), (lyapunov, "lyapunov_exponent")):
        monkeypatch.setattr(module, name, must_not_run)
    bad = tmp_path / "bad.cfg"
    bad.write_text(_fast_cfg_with(setting) if setting else FAST_CFG, encoding="utf-8")
    out = tmp_path / "o"
    assert cli_main(["--config", str(bad), "--out", str(out), *command.split()]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["results#1", " x", "a\nb"])
def test_out_the_config_cannot_hold_is_config_error(tmp_path, capsys, monkeypatch, out):
    # config_used.cfg would read back another directory, or not at all
    def must_not_run(*args, **kwargs):
        raise AssertionError("integrated despite a bad --out")

    monkeypatch.setattr(cli, "simulate", must_not_run)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["--out", out, "simulate"]) == EXIT_USAGE
    assert "config error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_rejected_field_names_its_keys(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_fast_cfg_with(_DIPPING_GAMMA), encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "simulate"]) == EXIT_USAGE
    assert "gamma_*: coefficient field infimum" in capsys.readouterr().err


def test_sampled_init_is_checked_at_its_samples(tmp_path, capsys):
    # U dips to -0.01 at x = 0.005, between two points of a 401-point grid on [-2, 2]
    samples = tmp_path / "dip.csv"
    samples.write_text("x,U,V\n-2,0,0\n0.004,0.05,1\n0.005,-0.01,1\n0.006,0.05,1\n2,0,0\n",
                       encoding="utf-8")
    cfg = tmp_path / "dip.cfg"
    cfg.write_text(FAST_CFG + f"[init]\nfile = {samples}\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli_main(["--config", str(cfg), "--out", str(out), "simulate",
                     "--grid", "800", "--t-end", "1"]) == EXIT_USAGE
    assert "U0 must satisfy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep-lambda", "find-mustar --L-star 1.27"])
def test_out_that_names_a_file_is_usage_error(fast_cfg, tmp_path, monkeypatch, capsys, command):
    # the output directory is made before any work is done
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran although the output directory cannot be made")

    for name in ("simulate", "lambda_sweep", "find_mu_star"):
        monkeypatch.setattr(cli, name, must_not_run)
    afile = tmp_path / "afile"
    afile.write_text("", encoding="utf-8")
    assert cli_main(["--config", fast_cfg, "--out", str(afile), *command.split()]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("cannot write output: ") and str(afile) in err
    assert len(err.splitlines()) == 1


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
    "[model]\ngamma_floor = 0.001",
    "[run]\nsearch_J = 128",
    "[run]\nsearch_dt = 0.02",
    "[run]\nsearch_horizon = 400.0",
    "[run]\nshifts = 0.0",
], ids=["newton_tol", "renorm_lo", "kind", "gamma_floor", "search_J", "search_dt",
        "search_horizon", "shifts"])
def test_constant_is_not_a_config_key(tmp_path, capsys, setting):
    bad = tmp_path / "bad.cfg"
    bad.write_text(_fast_cfg_with(setting), encoding="utf-8")
    assert cli_main(["--config", str(bad), "--out", str(tmp_path / "o"), "simulate"]) == EXIT_USAGE
    assert re.match(r"config error: line \d+: unknown key", capsys.readouterr().err)


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


def test_init_file_is_read_once_per_run(tmp_path, monkeypatch):
    x = np.linspace(-2.0, 2.0, 9)
    samples = tmp_path / "init.csv"
    np.savetxt(samples, np.column_stack([x, 0.05 * (2.0 - np.abs(x)), 2.0 - np.abs(x)]),
               delimiter=",", header="x,U,V", comments="")
    cfg_path = tmp_path / "sampled.cfg"
    cfg_path.write_text(FAST_CFG + f"[init]\nfile = {samples}\n", encoding="utf-8")
    reads = []
    genfromtxt = np.genfromtxt
    monkeypatch.setattr(np, "genfromtxt", lambda *a, **k: reads.append(a[0]) or genfromtxt(*a, **k))
    assert cli_main(["--config", str(cfg_path), "--out", str(tmp_path / "o"), "simulate"]) == EXIT_OK
    assert reads == [str(samples)]


def test_horizon_just_above_time_tol_writes_each_landed_state_once(tmp_path, monkeypatch):
    # the default output times 0 and 5e-9/6 both land on the start state
    names = []
    write_csv = output.write_csv
    monkeypatch.setattr(output, "write_csv", lambda path, *a: names.append(Path(path).name)
                        or write_csv(path, *a))
    out = tmp_path / "o"
    assert cli_main(["--out", str(out), "simulate", "--t-end", "5e-9", "--grid", "32"]) == EXIT_OK
    assert names.count("snapshot_0.csv") == 1
    assert len(names) == len(set(names))


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


def test_readme_quoted_outputs_are_printed(tmp_path, capsys):
    # the paragraph below the subcommand table quotes commands and what they print
    paragraph = README.read_text(encoding="utf-8").split("On `configs/reference.cfg`, ", 1)[1]
    printed, quoted = [], []
    for span in re.findall(r"`([^`]*)`", paragraph.split("\n\n", 1)[0]):
        argv = span.split()
        if argv[0] in cli._COMMANDS:
            assert cli_main(["--config", str(README.parent / "configs" / "reference.cfg"),
                             "--out", str(tmp_path), *argv]) == EXIT_OK
            printed += capsys.readouterr().out.splitlines()
        elif "=" in span:
            quoted.append(span)
    assert len(quoted) == 3
    assert printed == quoted


def _failed(*args, **kwargs):
    """A simulate whose run blows up."""
    raise NonFiniteError("non-finite values at t=1")


def test_failed_mustar_probe_is_exit_2(fast_cfg, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(th, "simulate", _failed)
    rc = cli_main(["--config", fast_cfg, "--out", str(tmp_path / "m"), "find-mustar",
                   "--h0", "0.6", "--t-end", "2", "--grid", "32", "--L-star", "1.27"])
    assert rc == EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_failed_regime_run_in_reproduce_paper_is_exit_2(fast_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "find_L_star", lambda *a, **k: (1.27, 0))
    monkeypatch.setattr(cli, "simulate", _failed)
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
