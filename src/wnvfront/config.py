"""Sectioned key=value run configuration: parsing, rendering, validation.

The format is flat and diffable:

    [model]
    h0 = 0.6
    mu = 0.1
    # comment
    [solver]
    t_end = 300.0

The [model], [solver] and [lyapunov] sections are ModelSpec, SolverConfig
and EstimatorConfig themselves, so every key takes its default from the
program.  A section's keys are exactly its dataclass fields, with a
coefficient field written as five keys.  Unknown keys are errors, and
parse(render(cfg)) round-trips exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Tuple

import numpy as np

from .coefficients import CoefficientField, PROFILE_KINDS, TemporalHarmonic
from .lyapunov import EstimatorConfig
from .model import InitialData, ModelSpec
from .reproduce import LSTAR_BRACKET, MU_BRACKET
from .solver import SolverConfig
from .thresholds import LStarConfig


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ConfigError):
    pass


@dataclass(frozen=True)
class InitSection:
    """The cosine bump of amplitudes amp_U, amp_V, or the samples in ``file`` when it is set."""

    amp_U: float = InitialData.amp_U
    amp_V: float = InitialData.amp_V
    file: str = ""  # CSV with columns x, U, V

    def __post_init__(self):
        if self.file and (self.amp_U, self.amp_V) != (InitialData.amp_U, InitialData.amp_V):
            raise ValueError("amp_U and amp_V set the cosine bump, which [init] file replaces")


@dataclass(frozen=True)
class RunSection:
    out: str = "out"
    L_lo: float = LSTAR_BRACKET[0]
    L_hi: float = LSTAR_BRACKET[1]
    mu_lo: float = MU_BRACKET[0]
    mu_hi: float = MU_BRACKET[1]
    shifts: Tuple[float, ...] = LStarConfig.shifts
    L_list: Tuple[float, ...] = ()
    search_J: int = LStarConfig.estimator.J
    search_dt: float = LStarConfig.estimator.dt
    search_horizon: float = LStarConfig.estimator.horizon


@dataclass(frozen=True)
class RunConfig:
    model: ModelSpec = ModelSpec()
    init: InitSection = InitSection()
    solver: SolverConfig = SolverConfig()
    lyapunov: EstimatorConfig = EstimatorConfig()
    run: RunSection = RunSection()

    def model_spec(self) -> ModelSpec:
        return self.model

    def initial_data(self) -> InitialData:
        s = self.init
        if not s.file:
            return InitialData(amp_U=s.amp_U, amp_V=s.amp_V)
        data = np.genfromtxt(s.file, delimiter=",", names=True)
        return InitialData.from_samples(data["x"], data["U"], data["V"])

    def search_estimator_config(self) -> EstimatorConfig:
        r = self.run
        return replace(self.lyapunov, J=r.search_J, dt=r.search_dt, horizon=r.search_horizon)

    def search_config(self) -> LStarConfig:
        """The L* search that find-lstar runs: the [run] shifts with the search estimator."""
        return LStarConfig(estimator=self.search_estimator_config(), shifts=self.run.shifts)


# section name -> its dataclass, in file order
_SECTIONS = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}

# A coefficient field is written as five keys <prefix>_<part>
_FIELD_PREFIX = {"gamma_field": "gamma", "death_field": "death"}
_FIELD_PARTS = ("base", "harmonics", "spatial_amp", "spatial", "floor")


def _fmt(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_fmt(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _fmt_harmonic(h: TemporalHarmonic) -> str:
    """amp:kind:freq, with :phase appended when the phase is nonzero."""
    text = f"{h.amplitude!r}:{h.kind}:{h.frequency!r}"
    return text + f":{h.phase!r}" if h.phase else text


def render_config(cfg: RunConfig) -> str:
    """Serialize every key, defaults included, so files are self-describing."""
    lines = []
    for section_name in _SECTIONS:
        lines.append(f"[{section_name}]")
        section = getattr(cfg, section_name)
        for name in (f.name for f in fields(section)):
            value = getattr(section, name)
            if isinstance(value, CoefficientField):
                prefix = _FIELD_PREFIX.get(name, name)
                harmonics = ", ".join(_fmt_harmonic(h) for h in value.harmonics)
                lines.append(f"{prefix}_base = {_fmt(value.base)}")
                lines.append(f"{prefix}_harmonics = {harmonics}")
                lines.append(f"{prefix}_spatial_amp = {_fmt(value.spatial_amp)}")
                lines.append(f"{prefix}_spatial = {value.spatial}")
                lines.append(f"{prefix}_floor = {_fmt(value.floor)}")
            else:
                lines.append(f"{name} = {_fmt(value)}")
        lines.append("")
    return "\n".join(lines)


def _parse_harmonics(text: str, line_no: int):
    text = text.strip()
    if not text:
        return ()
    out = []
    for part in text.split(","):
        bits = part.strip().split(":")
        if len(bits) not in (3, 4):
            raise ParseError(f"harmonic {part.strip()!r} is not amp:kind:freq[:phase]", line_no)
        try:
            phase = float(bits[3]) if len(bits) == 4 else 0.0
            out.append(TemporalHarmonic(float(bits[0]), float(bits[2]), bits[1].strip(), phase))
        except ValueError as e:
            raise ParseError(f"bad harmonic {part.strip()!r}: {e}", line_no) from None
    return tuple(out)


def _parse_value(raw: str, template, line_no: int):
    raw = raw.strip()
    if isinstance(template, int):
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"expected integer, got {raw!r}", line_no) from None
    if isinstance(template, float):
        try:
            return float(raw)
        except ValueError:
            raise ParseError(f"expected number, got {raw!r}", line_no) from None
    if isinstance(template, tuple):
        if not raw:
            return ()
        try:
            return tuple(float(v) for v in raw.split(","))
        except ValueError:
            raise ParseError(f"expected comma-separated numbers, got {raw!r}", line_no) from None
    return raw


def _parse_field(prefix: str, default: CoefficientField, pending: dict) -> CoefficientField:
    parts = {}
    for part in _FIELD_PARTS:
        key = f"{prefix}_{part}"
        if key not in pending:
            continue
        raw_value, line_no = pending.pop(key)
        if part == "harmonics":
            parts[part] = _parse_harmonics(raw_value, line_no)
        elif part == "spatial":
            value = raw_value.strip()
            if value not in PROFILE_KINDS:
                raise ParseError(f"unknown spatial profile {value!r}", line_no)
            parts[part] = value
        else:
            parts[part] = _parse_value(raw_value, 0.0, line_no)
    return _validated(replace, default, **parts) if parts else default


def _validated(build, *args, **kwargs):
    """build(*args, **kwargs), with a ValueError or OSError reported as a ValidationError."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as e:
        raise ValidationError(str(e)) from e


def parse_config(text: str) -> RunConfig:
    """Parse config text; raises ParseError (syntax/unknown keys) or ValidationError.

    A relative [init] file is read from the working directory.
    """
    return _parse(text, Path())


def load_config(path) -> RunConfig:
    """Parse a config file; a relative [init] file is taken from the file's directory."""
    path = Path(path).absolute()
    return _parse(path.read_text(encoding="utf-8"), path.parent)


def _parse(text: str, root: Path) -> RunConfig:
    sections = {}  # section name -> {key: (raw value, line number)}
    current = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SECTIONS:
                raise ParseError(f"unknown section [{current}]", line_no)
            if current in sections:
                raise ParseError(f"section [{current}] given twice", line_no)
            sections[current] = {}
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no)
        if current is None:
            raise ParseError("key outside any [section]", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        if key in sections[current]:
            raise ParseError(f"key {key!r} given twice in section [{current}]", line_no)
        sections[current][key] = (raw_value, line_no)

    built = {}
    for section_name, cls in _SECTIONS.items():
        pending = sections.get(section_name, {})
        default = cls()
        kwargs = {}
        for name in (f.name for f in fields(cls)):
            value = getattr(default, name)
            if isinstance(value, CoefficientField):
                kwargs[name] = _parse_field(_FIELD_PREFIX.get(name, name), value, pending)
            elif name in pending:
                raw_value, line_no = pending.pop(name)
                kwargs[name] = _parse_value(raw_value, value, line_no)
        if pending:
            key, (_, line_no) = next(iter(pending.items()))
            raise ParseError(f"unknown key {key!r} in section [{section_name}]", line_no)
        if section_name == "init" and kwargs.get("file"):
            kwargs["file"] = str(root / kwargs["file"])
        built[section_name] = _validated(cls, **kwargs)
    cfg = RunConfig(**built)
    _validated(lambda: cfg.initial_data().validate(cfg.model))
    try:
        cfg.search_config()
    except ValueError as e:
        raise ValidationError(f"[run] search: {e}") from e
    return cfg

