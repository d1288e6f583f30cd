"""Run configuration: flat key-value text with sections, validated presets.

Config files are INI-like: `[section]` headers, `key = value` lines, `#`
comments.  Unknown sections or keys and invariant violations are rejected
with the offending line number, so archived experiment files stay auditable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigurationError
from .evolution import ModelParams, StepOptions
from .geometry import StripGrid
from .spectral import SpectrumField, cosine, sine, zero_field

_SCHEMA: dict[str, dict[str, type]] = {
    "model": {"alpha": float, "epsilon": float, "kappa": float, "mu": float},
    "grid": {"n_modes": int, "depth": float, "n_depth": int},
    "time": {"dt": float, "t_final": float},
    "initial": {"preset": str, "amplitude": float, "h_modes": str, "xi_modes": str},
    "numerics": {"picard_tol": str, "picard_max_iter": int, "margin_min": float},
    "output": {"directory": str, "record_every": int, "snapshot_every": int},
}

PRESETS = ("zero", "small_two_mode", "explicit")


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    n_modes: int = 64
    depth: float = 8.0
    n_depth: int = 192
    dt: float = 1e-3
    t_final: float = 1.0
    preset: str = "small_two_mode"
    amplitude: float = 0.01
    h_modes: tuple[tuple[int, float, float], ...] = ()
    xi_modes: tuple[tuple[int, float, float], ...] = ()
    picard_tol: float | None = None       # None: StepOptions.for_dt(dt)
    picard_max_iter: int = 25
    margin_min: float = 0.1
    directory: str = "out"
    record_every: int = 10
    snapshot_every: int = 0               # 0: first and last record only
    grid: StripGrid = field(init=False)

    def __post_init__(self):
        if self.n_modes < 8 or self.n_modes % 2 != 0:
            raise ConfigurationError(
                f"n_modes must be even and >= 8, got {self.n_modes}")
        if self.dt <= 0:
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if self.t_final < 0:
            raise ConfigurationError(f"t_final must be >= 0, got {self.t_final}")
        if self.params.mu > 0 and self.params.mu >= self.params.alpha / 2.0:
            raise ConfigurationError(
                f"analyticity diagnostics need mu < alpha/2 "
                f"(mu={self.params.mu}, alpha={self.params.alpha})")
        if self.picard_tol is not None and not self.picard_tol > 0:
            raise ConfigurationError(
                f"picard_tol must be positive, got {self.picard_tol}")
        if self.picard_max_iter < 1:
            raise ConfigurationError(
                f"picard_max_iter must be >= 1, got {self.picard_max_iter}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}")
        if self.snapshot_every < 0:
            raise ConfigurationError(
                f"snapshot_every must be >= 0, got {self.snapshot_every}")
        object.__setattr__(self, "grid", StripGrid(self.n_modes, depth=self.depth,
                                                   n_depth=self.n_depth))

    @property
    def step_options(self) -> StepOptions:
        kw = dict(picard_max_iter=self.picard_max_iter, margin_min=self.margin_min)
        if self.picard_tol is None:
            return StepOptions.for_dt(self.dt, **kw)
        return StepOptions(picard_tol=self.picard_tol, **kw)


def _parse_mode_list(text: str, line: int) -> tuple[tuple[int, float, float], ...]:
    """`n:amplitude[:phase]` entries, comma separated."""
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) not in (2, 3):
            raise ConfigurationError(
                f"line {line}: mode entry {chunk!r} is not n:amplitude[:phase]")
        try:
            n = int(parts[0])
            amp = float(parts[1])
            phase = float(parts[2]) if len(parts) == 3 else 0.0
        except ValueError as exc:
            raise ConfigurationError(f"line {line}: bad mode entry {chunk!r}") from exc
        if not (math.isfinite(amp) and math.isfinite(phase)):
            raise ConfigurationError(f"line {line}: non-finite mode entry {chunk!r}")
        out.append((n, amp, phase))
    return tuple(out)


def _coerce(raw: str, typ: type, where: str, line: int):
    try:
        value = typ(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"line {line}: cannot parse {where} = {raw!r} as {typ.__name__}") from exc
    if typ is float and not math.isfinite(value):
        raise ConfigurationError(f"line {line}: {where} = {raw!r} is not finite")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate the structured key-value config text."""
    section = None
    values: dict[str, dict[str, object]] = {}
    mode_lines: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                raise ConfigurationError(f"line {lineno}: unknown section [{section}]")
            values.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected key = value, got {rawline!r}")
        if section is None:
            raise ConfigurationError(f"line {lineno}: key outside any [section]")
        key, raw = (p.strip() for p in line.split("=", 1))
        key = key.lower()
        if key not in _SCHEMA[section]:
            raise ConfigurationError(
                f"line {lineno}: unknown key {key!r} in section [{section}]")
        if key in values[section]:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[section][key] = _coerce(raw, _SCHEMA[section][key],
                                       f"{section}.{key}", lineno)
        if key == "preset" and values[section][key] not in PRESETS:
            raise ConfigurationError(
                f"line {lineno}: unknown preset {raw!r}; choose from {PRESETS}")
        mode_lines[f"{section}.{key}"] = lineno

    model = values.get("model", {})
    if "alpha" not in model:
        raise ConfigurationError("missing required key model.alpha")
    params = ModelParams(alpha=float(model["alpha"]),
                         epsilon=float(model.get("epsilon", 1.0)),
                         kappa=float(model.get("kappa", 0.0)),
                         mu=float(model.get("mu", 0.0)))

    kv: dict[str, object] = {}
    for sect in ("grid", "time", "numerics", "output"):
        kv.update(values.get(sect, {}))
    init = values.get("initial", {})
    if "preset" in init:
        kv["preset"] = init["preset"]
    if "amplitude" in init:
        kv["amplitude"] = init["amplitude"]
    for name in ("h_modes", "xi_modes"):
        if name in init:
            kv[name] = _parse_mode_list(str(init[name]),
                                        mode_lines[f"initial.{name}"])
    if "picard_tol" in kv:
        raw = str(kv["picard_tol"])
        kv["picard_tol"] = None if raw.lower() == "auto" else _coerce(
            raw, float, "numerics.picard_tol", mode_lines["numerics.picard_tol"])
    try:
        return RunConfig(params=params, **kv)   # type: ignore[arg-type]
    except ConfigurationError:
        raise
    except TypeError as exc:
        raise ConfigurationError(str(exc)) from exc


def config_to_text(cfg: RunConfig) -> str:
    """Canonical text form (archivable; parses back to an equal config)."""
    tol = "auto" if cfg.picard_tol is None else repr(cfg.picard_tol)
    modes = ", ".join(f"{n}:{a!r}:{p!r}" for n, a, p in cfg.h_modes)
    xmodes = ", ".join(f"{n}:{a!r}:{p!r}" for n, a, p in cfg.xi_modes)
    return "\n".join([
        "[model]",
        f"alpha = {cfg.params.alpha!r}",
        f"epsilon = {cfg.params.epsilon!r}",
        f"kappa = {cfg.params.kappa!r}",
        f"mu = {cfg.params.mu!r}",
        "[grid]",
        f"n_modes = {cfg.n_modes}",
        f"depth = {cfg.depth!r}",
        f"n_depth = {cfg.n_depth}",
        "[time]",
        f"dt = {cfg.dt!r}",
        f"t_final = {cfg.t_final!r}",
        "[initial]",
        f"preset = {cfg.preset}",
        f"amplitude = {cfg.amplitude!r}",
        *([f"h_modes = {modes}"] if modes else []),
        *([f"xi_modes = {xmodes}"] if xmodes else []),
        "[numerics]",
        f"picard_tol = {tol}",
        f"picard_max_iter = {cfg.picard_max_iter}",
        f"margin_min = {cfg.margin_min!r}",
        "[output]",
        f"directory = {cfg.directory}",
        f"record_every = {cfg.record_every}",
        f"snapshot_every = {cfg.snapshot_every}",
        "",
    ])


# ---------------------------------------------------------------------------
# initial data

def initial_data(cfg: RunConfig) -> tuple[SpectrumField, SpectrumField]:
    """Build (h₀, ξ₀) for the configured preset.

    For small_two_mode `amplitude` is the target |h₀|₁ + |ξ₀|₁; h₀ is
    always zero mean.
    """
    n = cfg.n_modes
    if cfg.preset == "zero":
        return zero_field(n), zero_field(n)
    if cfg.preset == "small_two_mode":
        # modes 1 and 2 at relative weight 1 : 1/2 in both fields
        a = cfg.amplitude / 7.0     # |cos|₁ + |c₂ cos 2x|₁ summed over h and ξ
        h0 = cosine(1, a, n) + cosine(2, 0.5 * a, n)
        xi0 = sine(1, a, n) + sine(2, 0.5 * a, n)
        return h0, xi0
    if cfg.preset == "explicit":
        h0 = zero_field(n)
        xi0 = zero_field(n)
        for k, a, p in cfg.h_modes:
            if k == 0:
                raise ConfigurationError("h must be zero mean: mode 0 not allowed")
            h0 = h0 + cosine(k, a, n, phase=p)
        for k, a, p in cfg.xi_modes:
            xi0 = xi0 + cosine(k, a, n, phase=p)
        return h0, xi0
    raise ConfigurationError(f"unknown preset {cfg.preset!r}")
