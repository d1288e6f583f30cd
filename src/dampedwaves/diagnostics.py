"""Monitored quantities along trajectories: energies, radii, decay rates.

Time-weighted Wiener norms |·|_{1,μt} apply a relative noise floor (default
1e−13·max|f̂|) before summing: the analytic weights e^{μt|n|} reach e^{60+}
by the end of a run and would otherwise amplify round-off at modes whose true
content decayed like e^{−αn²t} long ago.  The same floor governs the
analyticity-radius fits.

The recorded radius is fitted on the per-mode envelope √(|n||ξ̂|² + |ĥ|²),
which the linear flow contracts smoothly (no phase oscillation), rather than
on a single field whose coefficients pass near zero twice per period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import gradient_norm, solve_phi1, solve_phi2
from .errors import ConfigurationError
from .evolution import ModelParams, SimState, StepOptions, Trajectory
from .geometry import StripGrid, build_geometry, zero_strip
from .norms import InequalityReport, sobolev_norm
from .spectral import SpectrumField, lam, mode_multiplicity, mollify

DEFAULT_NOISE_FLOOR = 1e-13
RADIUS_MIN_POINTS = 2        # fewer fitted modes leave the radius undefined
RADIUS_TAPER_DECADES = 2.0   # fit weights fade out over this range above the floor
_EXP_CAP = 700.0  # overflow guard for e^{μt|n|}


def floored_wiener(f: SpectrumField, s: float, lam_t: float,
                   floor_rel: float = DEFAULT_NOISE_FLOOR) -> float:
    """|f|_{s,λ} over modes with |f̂| above the relative noise floor."""
    a = np.abs(f.coeffs)
    scale = a.max(initial=0.0)
    if scale == 0.0:
        return 0.0
    keep = a > floor_rel * scale
    n = f.modes[keep].astype(float)
    expo = np.minimum(lam_t * n, _EXP_CAP)
    return float(np.sum(mode_multiplicity(f.n_modes)[keep] * (1.0 + n) ** s
                        * np.exp(expo) * a[keep]))


@dataclass(frozen=True)
class RadiusFit:
    rho: float
    r_squared: float
    n_points: int

    @property
    def defined(self) -> bool:
        return np.isfinite(self.rho)


UNDEFINED_RADIUS = RadiusFit(rho=float("nan"), r_squared=float("nan"), n_points=0)


def analyticity_radius(f: SpectrumField,
                       noise_floor: float | None = None) -> RadiusFit:
    """Fitted decay slope: ρ = −slope of log|f̂(n)| against |n|.

    Fits over the stored modes n >= 1 with |f̂(n)| above the noise floor
    (default 1e−13·max|f̂|); returns the undefined sentinel when fewer than
    RADIUS_MIN_POINTS modes qualify.

    Modes within RADIUS_TAPER_DECADES of the floor enter with a weight that
    fades linearly (in log distance) to zero, so the fitted ρ(t) along a decaying
    trajectory is continuous when a mode sinks through the floor instead of
    jumping with the discrete fit set.  Exact log-linear data is recovered
    exactly regardless of the weights.
    """
    a = np.abs(f.coeffs)
    scale = a.max(initial=0.0)
    if scale == 0.0:
        return UNDEFINED_RADIUS
    floor = noise_floor if noise_floor is not None else DEFAULT_NOISE_FLOOR * scale
    keep = a > floor
    keep[0] = False
    n_pts = int(np.count_nonzero(keep))
    if n_pts < RADIUS_MIN_POINTS:
        return UNDEFINED_RADIUS
    x = f.modes[keep].astype(float)
    y = np.log(a[keep])
    wgt = np.clip(np.log10(a[keep] / floor) / RADIUS_TAPER_DECADES, 0.0, 1.0)
    slope, intercept = np.polyfit(x, y, 1, w=np.sqrt(wgt))
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum(wgt * (y - np.average(y, weights=wgt)) ** 2))
    r2 = 1.0 - float(np.sum(wgt * resid ** 2)) / ss_tot if ss_tot > 0 else 1.0
    return RadiusFit(rho=float(-slope), r_squared=r2, n_points=n_pts)


def envelope_spectrum(h: SpectrumField, xi: SpectrumField) -> SpectrumField:
    """Phase-free per-mode envelope √(|n||ξ̂|² + |ĥ|²) as a spectrum."""
    e = np.sqrt(h.modes * np.abs(xi.coeffs) ** 2 + np.abs(h.coeffs) ** 2)
    return h._like(e.astype(np.complex128))


def decay_rate(times: np.ndarray, values: np.ndarray,
               window: tuple[float, float] | None = None) -> float:
    """δ̂ = −slope of the least-squares fit of log(values) against t."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        keep = (times >= window[0]) & (times <= window[1])
        times, values = times[keep], values[keep]
    if times.size < 2:
        raise ConfigurationError("decay fit needs at least two samples in the window")
    if np.any(values <= 0):
        raise ConfigurationError("decay fit requires positive values")
    slope = np.polyfit(times, np.log(values), 1)[0]
    return float(-slope)


def check_lyapunov_monotone(times: np.ndarray, values: np.ndarray,
                            slack: float = 1e-6,
                            transient: float | None = None,
                            n_min: int = 1) -> InequalityReport:
    """Nonincreasing after the transient window (default one linear period).

    Reports the worst adjacent pair: lhs = v(t_{i+1}), rhs = v(t_i)(1+slack).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if transient is None:
        transient = 2.0 * np.pi / np.sqrt(max(n_min, 1))
    idx = np.where(times >= transient)[0]
    if idx.size < 2:
        raise ConfigurationError("monotonicity window holds fewer than two records")
    worst_lhs, worst_rhs = -np.inf, np.inf
    holds = True
    for i in idx[:-1]:
        lhs, rhs = values[i + 1], values[i] * (1.0 + slack)
        if lhs - rhs > worst_lhs - worst_rhs:
            worst_lhs, worst_rhs = lhs, rhs
        if lhs > rhs:
            holds = False
    return InequalityReport(lhs=float(worst_lhs), rhs=float(worst_rhs),
                            constant_used=1.0 + slack, holds=holds,
                            margin=float(worst_rhs - worst_lhs))


# ---------------------------------------------------------------------------
# per-record diagnostics

@dataclass(frozen=True)
class DiagRecord:
    t: float
    sobolev_h3: float
    sobolev_xi3: float
    wiener_h: float          # |h|_{1,μt}, floored
    wiener_xi: float         # |ξ|_{1,μt}, floored
    energy: float            # running boundary max + cumulative bulk integral
    radius: float            # envelope-spectrum fit (nan while undefined)
    lyapunov: float          # wiener_h + wiener_xi

    FIELDS = ("t", "sobolev_h3", "sobolev_xi3", "wiener_h", "wiener_xi",
              "energy", "radius", "lyapunov")

    def row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)


def bulk_gradient_norm(state: SimState, params: ModelParams, grid: StripGrid,
                       opts: StepOptions = StepOptions(),
                       s: float = 2.5) -> float:
    """elliptic.gradient_norm of the potential at one state, solved afresh.

    The geometry and Picard problem are the stepper's (εh^κ, ξ^κ, opts); with
    opts.linear_only the potential is φ₁ = e^{x₂Λ}ξ^κ on the flat strip.
    """
    phi1 = solve_phi1(mollify(state.xi, params.kappa), grid)
    if opts.linear_only:
        zero = zero_strip(grid)
        return gradient_norm(phi1, zero, zero, s)
    bundle = build_geometry(params.epsilon * mollify(state.h, params.kappa), grid,
                            margin_min=opts.margin_min)
    esol = solve_phi2(bundle, phi1, tol=opts.picard_tol,
                      max_iter=opts.picard_max_iter)
    return gradient_norm(phi1, esol.phi2, esol.dzphi2, s)


def compute_records(traj: Trajectory,
                    floor_rel: float = DEFAULT_NOISE_FLOOR,
                    opts: StepOptions | None = None) -> list[DiagRecord]:
    """Diagnostics at every recorded state.

    opts default to the trajectory's own.  Under those options the bulk
    term reuses the value the stepper took from its own elliptic solve at
    each state (traj.bulk), so only the states no step solved are solved
    here: the final state and those of hand-built trajectories.
    """
    params = traj.params
    if params.mu > 0 and params.mu >= params.alpha / 2.0:
        raise ConfigurationError(
            f"analyticity diagnostics need mu < alpha/2 (mu={params.mu}, alpha={params.alpha})")
    if opts is None:
        opts = traj.step_options
    reused = traj.bulk if opts == traj.step_options else ()
    times = traj.times
    if np.any(np.diff(times) <= 0):
        raise ConfigurationError("trajectory records are not strictly increasing in time")

    records: list[DiagRecord] = []
    boundary_max = 0.0
    bulk_integral = 0.0
    prev_t = None
    prev_bulk = None
    for i, state in enumerate(traj.states):
        sh = sobolev_norm(state.h, 3.0)
        sx = sobolev_norm(state.xi, 3.0)
        boundary_max = max(boundary_max, sh ** 2 + sx ** 2)
        bulk = reused[i] if i < len(reused) else None
        if bulk is None:
            bulk = bulk_gradient_norm(state, params, traj.grid, opts)
        if prev_t is not None:
            bulk_integral += 0.5 * (bulk + prev_bulk) * (state.t - prev_t)
        prev_t, prev_bulk = state.t, bulk
        lam_t = params.mu * state.t
        wh = floored_wiener(state.h, 1.0, lam_t, floor_rel)
        wx = floored_wiener(state.xi, 1.0, lam_t, floor_rel)
        env = envelope_spectrum(state.h, state.xi)
        env_scale = float(np.max(np.abs(env.coeffs), initial=0.0))
        fit = analyticity_radius(env, noise_floor=floor_rel * env_scale
                                 if env_scale > 0 else None)
        records.append(DiagRecord(
            t=state.t, sobolev_h3=sh, sobolev_xi3=sx,
            wiener_h=wh, wiener_xi=wx,
            energy=boundary_max + bulk_integral,
            radius=fit.rho, lyapunov=wh + wx))
    return records


# ---------------------------------------------------------------------------
# structural checks along runs

def check_xi_energy_budget(traj: Trajectory, floor_rel: float = DEFAULT_NOISE_FLOOR,
                           rel_slack: float = 5e-2) -> InequalityReport:
    """Discrete check of the ξ energy-estimate structure.

    For consecutive records, the centered difference of |ξ|_{1,μt} must not
    exceed −(α−μ)|Λ²ξ|_{1,μt} + |h|_{1,μt} + |NL|_{1,μt}, where NL is the
    nonlinear remainder ξ_t − (−h + αξ,₁₁) the stepper applied at the record
    (traj.xi_remainder, zero in a linear_only run), so nothing is solved
    here.  The comparison carries a relative slack for the
    finite-difference-in-time error.  Raises ConfigurationError for fewer
    than three records or an interior record without a remainder, as in a
    hand-built trajectory.
    """
    params = traj.params
    states = traj.states
    if len(states) < 3:
        raise ConfigurationError("budget check needs at least three records")
    remainders = traj.xi_remainder
    worst = None
    holds = True
    for i in range(1, len(states) - 1):
        if i >= len(remainders) or remainders[i] is None:
            raise ConfigurationError(
                f"record {i} has no xi remainder from the stepper")
        sm, s0, sp = states[i - 1], states[i], states[i + 1]
        lam_t = params.mu * s0.t
        dxi = (floored_wiener(sp.xi, 1.0, params.mu * sp.t, floor_rel) -
               floored_wiener(sm.xi, 1.0, params.mu * sm.t, floor_rel)) / (sp.t - sm.t)
        rhs = (-(params.alpha - params.mu) *
               floored_wiener(lam(s0.xi, 2.0), 1.0, lam_t, floor_rel)
               + floored_wiener(s0.h, 1.0, lam_t, floor_rel)
               + floored_wiener(remainders[i], 1.0, lam_t, floor_rel))
        slack = rel_slack * max(abs(dxi), abs(rhs), 1e-14)
        if worst is None or dxi - rhs > worst[0] - worst[1]:
            worst = (dxi, rhs + slack)
        if dxi > rhs + slack:
            holds = False
    return InequalityReport(lhs=worst[0], rhs=worst[1], constant_used=rel_slack,
                            holds=holds, margin=worst[1] - worst[0])


def smallness_flags(records: list[DiagRecord], cap: float) -> list[bool]:
    """True where the admissibility cap was exceeded (flagged, not fatal)."""
    return [rec.lyapunov > cap for rec in records]
