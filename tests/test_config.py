from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnvfront.coefficients import PROFILE_KINDS, CoefficientField, TemporalHarmonic
from wnvfront.config import (
    ParseError,
    RunConfig,
    ValidationError,
    load_config,
    parse_config,
    render_config,
)
from wnvfront.model import ModelSpec
from wnvfront.thresholds import LStarConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_round_trip_defaults():
    cfg = RunConfig()
    assert parse_config(render_config(cfg)) == cfg


def test_round_trip_modified():
    cfg = RunConfig()
    cfg = replace(cfg, model=replace(cfg.model, h0=0.6, mu=0.2, D1=2.5))
    cfg = replace(cfg, solver=replace(cfg.solver, t_end=42.0, output_times=(1.0, 2.0)))
    assert parse_config(render_config(cfg)) == cfg


def test_empty_file_gives_defaults():
    assert parse_config("") == RunConfig()


def test_comments_and_partial_sections():
    cfg = parse_config("# leading comment\n[model]\nh0 = 0.6  # trailing\nmu = 0.2\n")
    assert cfg.model.h0 == 0.6
    assert cfg.model.mu == 0.2
    assert cfg.model.D1 == 3.0  # untouched default


def test_search_defaults_are_the_lstar_search():
    assert RunConfig().search_config() == LStarConfig()


def test_unknown_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("[model]\nh0 = 1.0\nbogus = 3\n")
    assert err.value.line == 3
    assert "bogus" in str(err.value)


def test_unknown_section_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("[model]\nh0 = 1.0\n[nonsense]\nx = 1\n")
    assert err.value.line == 3


def test_repeated_key_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("[model]\nmu = 0.1\n\nmu = 0.7\n")
    assert err.value.line == 4
    assert "'mu' given twice" in str(err.value)


def test_repeated_section_reports_line():
    with pytest.raises(ParseError) as err:
        parse_config("[model]\nmu = 0.1\n[solver]\nJ = 64\n[model]\nh0 = 0.6\n")
    assert err.value.line == 5
    assert "[model] given twice" in str(err.value)


def test_syntax_errors():
    with pytest.raises(ParseError):
        parse_config("[model]\nno equals sign here\n")
    with pytest.raises(ParseError):
        parse_config("orphan = 1\n")
    with pytest.raises(ParseError):
        parse_config("[model]\nh0 = not_a_number\n")
    with pytest.raises(ParseError):
        parse_config("[model]\nalpha1_harmonics = 0.5:cos\n")
    with pytest.raises(ParseError):
        parse_config("[model]\nalpha1_spatial = no_such_profile\n")


@pytest.mark.parametrize("setting", [
    "L_hi = inf", "L_lo = 0.0", "L_lo = 3.5", "mu_hi = nan", "mu_lo = -0.1",
    "L_list = 0.5, inf", "L_list = 1.0, 0.5", "L_list = 0.0, 0.5", "L_list = 0.5, 0.5",
])
def test_bad_run_bracket_or_sweep_list_rejected(setting):
    with pytest.raises(ValidationError):
        parse_config(f"[run]\n{setting}\n")


def test_negative_diffusivity_rejected():
    with pytest.raises(ValidationError):
        parse_config("[model]\nD1 = -3\n")


def test_field_spec_overrides():
    cfg = parse_config(
        "[model]\nalpha1_base = 0.5\nalpha1_harmonics = 0.1:sin:2.0\nalpha1_spatial_amp = 0.0\n"
    )
    f = cfg.model.alpha1
    assert f.base == 0.5
    assert f.harmonics == (TemporalHarmonic(0.1, 2.0, "sin"),)
    assert f.spatial_amp == 0.0
    assert f.eval(0.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_shipped_corpus_parses():
    expected = {
        "paper_fig1a.cfg": (2.0, 0.1),
        "paper_fig1b.cfg": (1.0, 0.1),
        "paper_fig1c.cfg": (0.6, 0.1),
        "paper_fig1d.cfg": (0.5, 0.1),
        "paper_fig2a.cfg": (0.6, 0.2),
        "reference.cfg": (2.0, 0.1),
    }
    for name, (h0, mu) in expected.items():
        cfg = load_config(CONFIGS / name)
        assert cfg.model.h0 == h0, name
        assert cfg.model.mu == mu, name
        cfg.model_spec()  # builds and validates
        assert cfg.search_config() == LStarConfig(), name
    # the first corpus entry is exactly the reference parameterization
    spec = load_config(CONFIGS / "paper_fig1a.cfg").model_spec()
    assert spec == ModelSpec(mu=0.1, h0=2.0)
    # the reference file holds exactly the defaults, and every file exactly the rendered keys
    assert load_config(CONFIGS / "reference.cfg") == RunConfig()
    rendered = _keys(render_config(RunConfig()))
    for name in expected:
        assert _keys((CONFIGS / name).read_text(encoding="utf-8")) == rendered, name


def test_render_writes_every_field():
    # a section's keys are exactly its dataclass fields, a coefficient field as four keys
    cfg = RunConfig()
    written = _keys(render_config(cfg))
    for section in fields(cfg):
        obj = getattr(cfg, section.name)
        values = {f.name: getattr(obj, f.name) for f in fields(obj)}
        plain = [n for n, v in values.items() if not isinstance(v, CoefficientField)]
        keys = [k for s, k in written if s == section.name]
        assert [k for k in keys if k in plain] == plain, section.name
        assert len(keys) == len(plain) + 4 * (len(values) - len(plain)), section.name


def _keys(text):
    """The (section, key) pairs of config text, in order."""
    keys, section = [], None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            keys.append((section, line.partition("=")[0].strip()))
    return keys


def test_derived_configs_build():
    cfg = RunConfig()
    spec = cfg.model_spec()
    assert spec.h0 == 2.0
    assert cfg.solver.t_end == 300.0
    assert cfg.lyapunov.horizon == 2000.0


_floats = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
_fractions = st.floats(min_value=0.0, max_value=0.9)


@st.composite
def _fields(draw):
    """A coefficient field with a positive infimum by construction."""
    harmonics = tuple(
        TemporalHarmonic(draw(st.floats(-0.9, 0.9)), draw(st.floats(0.01, 10.0)),
                         draw(st.sampled_from(("cos", "sin"))), draw(st.floats(-1e3, 1e3)))
        for _ in range(draw(st.integers(0, 2)))
    )
    base = draw(_floats)
    lowest = base
    for h in harmonics:
        lowest *= 1.0 - abs(h.amplitude)
    # every profile stays within [-2.2, 2.2]
    return CoefficientField(base, harmonics, draw(_fractions) * lowest / 2.2,
                            draw(st.sampled_from(PROFILE_KINDS)))


_halfwidths = st.lists(_floats, max_size=4, unique=True).map(sorted).map(tuple)  # increasing
_brackets = st.lists(_floats, min_size=2, max_size=2, unique=True).map(sorted)  # lo < hi
_times = st.lists(st.floats(0.0, 1e3), max_size=4).map(tuple)  # output times are nonnegative


@st.composite
def _configs(draw):
    cfg = RunConfig()
    model = replace(
        cfg.model,
        **{k: draw(_floats) for k in ("D1", "D2", "N1", "N2", "beta", "mu", "h0")},
        alpha1=draw(_fields()), alpha2=draw(_fields()),
        gamma=draw(_fields()), death=draw(_fields()),
    )
    init = replace(cfg.init, amp_U=draw(_fractions) * model.N1 + 1e-6 * model.N1,
                   amp_V=draw(_fractions) * model.N2 + 1e-6 * model.N2)
    dts = sorted(draw(st.lists(st.floats(1e-8, 1.0), min_size=2, max_size=2)))
    solver = replace(
        cfg.solver, J=draw(st.integers(16, 4000)), dt_min=dts[0], dt_max=dts[1],
        t_end=draw(_floats), output_times=draw(_times),
    )
    dt, horizon = sorted(draw(st.lists(_floats, min_size=2, max_size=2)))
    lyapunov = replace(
        cfg.lyapunov, J=draw(st.integers(2, 4000)), dt=dt, horizon=horizon, tol=draw(_floats),
    )
    (L_lo, L_hi), (mu_lo, mu_hi) = draw(_brackets), draw(_brackets)
    run = replace(
        cfg.run, out=draw(st.text("abcxyz0123_-./", min_size=1)),
        L_lo=L_lo, L_hi=L_hi, mu_lo=mu_lo, mu_hi=mu_hi, L_list=draw(_halfwidths),
    )
    return RunConfig(model=model, init=init, solver=solver, lyapunov=lyapunov, run=run)


@settings(max_examples=40, deadline=None)
@given(_configs())
def test_round_trip_generated(cfg):
    assert parse_config(render_config(cfg)) == cfg


@pytest.mark.parametrize("amps", ["amp_U = 5.0\namp_V = 1000.0", "amp_V = 1.0"],
                         ids=["both", "amp_V"])
def test_init_amplitudes_beside_a_file_are_rejected(tmp_path, amps):
    x = np.linspace(-2.0, 2.0, 9)
    tent = tmp_path / "tent.csv"
    np.savetxt(tent, np.column_stack([x, 0.05 * (2.0 - np.abs(x)), 2.0 - np.abs(x)]),
               delimiter=",", header="x,U,V", comments="")
    with pytest.raises(ValidationError, match="file replaces"):
        parse_config(f"[init]\nfile = {tent}\n{amps}\n")
    # the default amplitudes that render_config writes beside the file still parse
    cfg = parse_config(f"[init]\nfile = {tent}\n")
    assert parse_config(render_config(cfg)) == cfg
