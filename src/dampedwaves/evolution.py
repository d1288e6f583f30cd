"""Boundary evolution of (h, ξ): right-hand sides and time stepping.

The kinematic and dynamic boundary conditions, written on the flattened
strip with ñ = (−εh,₁, 1), are

    h_t  = A^k_j φ,_k ñ_j + α h,₁₁
    ξ_t  = −(ε/2)|Aᵀ∇φ|² − h − α A^ℓ₂(A^k₂ φ,_k),_ℓ + ε A^k₂φ,_k (A^k_jφ,_kñ_j + α h,₁₁)

with the dissipative trace expanded through the elliptic split,

    A²₂(A²₂φ,₂),₂|₀ = (Λ²ξ + ∂₂²φ₂)/w² − δψ,₂₂ φ,₂ / w³,    w = 1 + δψ,₂|₀.

The flattening is built from the scaled interface εh (the physical surface of
the dimensionless problem sits at height εh), so w = 1 + εΛh and the ε→0
limit is exactly the linear system; at ε = 1 the terms reduce to the familiar
rational-in-Λh form.  With mollification strength κ > 0 the heat kernel is
applied where the regularized system places it: the elliptic data are ξ^κ and
εh^κ, the transport bracket of h_t and the whole ξ_t bracket are smoothed
once more, and the h-diffusion uses the doubly smoothed h^{κκ},₁₁.

Time stepping is a Lawson (integrating-factor) Heun scheme: the exact
per-mode exponential of the stiff linear system

    d/dt (ξ̂, ĥ) = M(n)(ξ̂, ĥ),   M(n) = [[−αn², −1], [|n|, −αn²]]

(κ-adjusted when mollified) propagates the linear part, the nonlinear
remainder is advanced explicitly at second order.  At ε = 0 the remainder
vanishes and a step is the propagator alone.

A run at ε > 0 steps only the modes that carry content: before each step it
picks a working cap K from N/2, N/4, … (K >= 4), the horizontal twin of the
depth blocks of `elliptic._depth_blocks`, with their threshold
e^{−ROUNDOFF_EXPONENT}·max(|ĥ|, |ξ̂|) ≈ 6e-19 of the largest coefficient.
K's guard band is its top quarter, the modes 3K/4..K−1.  K doubles before
any step whose input has content above the threshold in K's guard band, and
halves only after the guard band of K/2 and every mode above it have held
none for BAND_HOLD_STEPS steps in a row.  The step then runs on the state
truncated to its modes < K on StripGrid(2K, depth, n_depth), and its new
state is embedded back with zeros; the warm-start φ₂ pairs are truncated or
zero-padded when K changes.  A run starts at K = N/2; at ε = 0 and on grids
with N/2 < 8 it keeps N/2 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .elliptic import (ROUNDOFF_EXPONENT, EllipticSolution, gradient_norm,
                       solve_phi1, solve_phi2)
from .errors import ConfigurationError, NumericsError
from .geometry import StripField, StripGrid, build_geometry
from .spectral import (SpectrumField, dx, dxx, lam, mollify, pad_size,
                       project_stack, stored_modes, values_stack, zero_field)


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless viscosity α, steepness ε, mollification κ, strip rate μ."""

    alpha: float
    epsilon: float = 1.0
    kappa: float = 0.0
    mu: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "epsilon", "kappa", "mu"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class StepOptions:
    picard_tol: float = 1e-10
    picard_max_iter: int = 25
    margin_min: float = 0.1

    @staticmethod
    def for_dt(dt: float, **kw) -> "StepOptions":
        # elliptic error kept below the integrator's local truncation error
        return StepOptions(picard_tol=min(1e-10, dt ** 3), **kw)


@dataclass(frozen=True)
class SimState:
    h: SpectrumField
    xi: SpectrumField
    t: float

    @property
    def n_modes(self) -> int:
        return self.h.n_modes


@dataclass(frozen=True)
class RhsEval:
    h_t: SpectrumField
    xi_t: SpectrumField
    solution: EllipticSolution


def evaluate_rhs(state: SimState, params: ModelParams, grid: StripGrid,
                 opts: StepOptions = StepOptions(),
                 phi2_start: tuple[StripField, StripField] | None = None) -> RhsEval:
    """Full right-hand sides of the boundary system at one state; the φ₂
    solve starts from phi2_start (see solve_phi2)."""
    h, xi = state.h, state.xi
    hk = mollify(h, params.kappa)
    xik = mollify(xi, params.kappa)
    bundle = build_geometry(params.epsilon * hk, grid, margin_min=opts.margin_min)
    esol = solve_phi2(bundle, solve_phi1(xik, grid), tol=opts.picard_tol,
                      max_iter=opts.picard_max_iter, start=phi2_start)
    b = bundle.boundary                       # = ε h^κ
    mpad = pad_size(h.n_modes, 4)

    xi_x, p2, hx, lam_b, lam2xi, t2, lam2b, h2x = values_stack([
        dx(xik),                              # φ,₁|₀
        esol.traces.dphi1_dz0 + esol.traces.dphi2_dz0,   # φ,₂|₀
        dx(b),                                # δψ,₁|₀
        lam(b),                               # δψ,₂|₀
        lam(xik, 2.0),                        # ∂₂²φ₁|₀ = Λ²ξ^κ
        esol.traces.d2phi2_dz0,               # ∂₂²φ₂|₀
        lam(b, 2.0),                          # δψ,₂₂|₀ = Λ²(εh^κ)
        dxx(hk),                              # h^κ,₁₁
    ], mpad)
    w = 1.0 + lam_b                           # 1 + δψ,₂|₀
    a2phi = p2 / w
    a1phi = xi_x - hx * a2phi
    kin = -hx * a1phi + a2phi                 # A^k_j φ,_k ñ_j
    quad = -0.5 * params.epsilon * (a1phi ** 2 + a2phi ** 2)
    diss = -params.alpha * ((lam2xi + t2) / w ** 2 - lam2b * p2 / w ** 3)
    mixed = params.epsilon * a2phi * (kin + params.alpha * h2x)
    kin_hat, nonlin_hat = project_stack([kin, quad + diss + mixed], h)

    h_t = mollify(kin_hat, params.kappa) + \
        params.alpha * dxx(mollify(hk, params.kappa))
    xi_t = mollify(nonlin_hat - h, params.kappa)
    return RhsEval(h_t=h_t, xi_t=xi_t, solution=esol)


# ---------------------------------------------------------------------------
# exact linear propagator

def _linear_factors(modes: np.ndarray, alpha: float, kappa: float):
    """Coefficients of M = [[−a, −c], [b, −a]] per mode (κ-mollified)."""
    n2 = modes.astype(float) ** 2
    heat = np.exp(-kappa * n2) if kappa > 0 else np.ones_like(n2)
    a = alpha * n2 * heat ** 2
    c = heat.copy()
    b = np.abs(modes).astype(float) * heat ** 2
    return a, b, c


def propagator_entries(modes: np.ndarray, alpha: float, dt: float,
                       kappa: float = 0.0):
    """Entrywise exp(dt·M(n)): arrays (p11, p12, p21, p22).

    exp(dt M) = e^{−a dt} [[cos νdt, −c sin(νdt)/ν], [b sin(νdt)/ν, cos νdt]]
    with ν = √(bc); the ν → 0 limit gives the shear block [[1, −c dt],[0, 1]].
    """
    a, b, c = _linear_factors(modes, alpha, kappa)
    nu = np.sqrt(b * c)
    decay = np.exp(-a * dt)
    cosd = np.cos(nu * dt)
    sincd = np.where(nu > 0, np.sin(nu * dt) / np.where(nu > 0, nu, 1.0), dt)
    return decay * cosd, -decay * c * sincd, decay * b * sincd, decay * cosd


@lru_cache(maxsize=16)
def _step_tables(n_modes: int, alpha: float, dt: float, kappa: float):
    """The step's per-mode 2×2 matrices, entrywise (m11, m12, m21, m22):
    the propagator exp(dt·M) and M = [[−a, −c], [b, −a]] itself, built once
    per (N, α, dt, κ) (shared, read-only)."""
    modes = stored_modes(n_modes)
    a, b, c = _linear_factors(modes, alpha, kappa)
    tables = (propagator_entries(modes, alpha, dt, kappa), (-a, -c, b, -a))
    for arr in (*tables[0], *tables[1]):
        arr.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# time stepping

@dataclass(frozen=True)
class StepInfo:
    mean_drift: float
    picard_iters: int                    # the most sweeps any φ₂ solve of the step took
    picard_sweeps: int = 0               # the sweeps of all its φ₂ solves
    phi2_solves: int = 0                 # its φ₂ solves: 2, or 0 at ε = 0
    bulk_gradient: float | None = None   # gradient_norm at the input state (ε > 0)
    xi_remainder: SpectrumField | None = None   # ξ row of N(u⁰) at the input state
    mixed_solves: int = 0                # solves that switched to Anderson mixing
    phi2: tuple[StripField, StripField] | None = None        # first-stage (φ₂, ∂₂φ₂)
    phi2_pred: tuple[StripField, StripField] | None = None   # predictor (φ₂, ∂₂φ₂)


def _pack(state: SimState) -> np.ndarray:
    return np.array([state.xi.coeffs, state.h.coeffs])


def _unpack(u: np.ndarray, t: float, like: SpectrumField) -> SimState:
    """The state held by u = (ξ̂, ĥ), a fresh array its fields adopt."""
    return SimState(h=like._like(u[1]), xi=like._like(u[0]), t=t)


def _apply(p, u: np.ndarray) -> np.ndarray:
    p11, p12, p21, p22 = p
    return np.array([p11 * u[0] + p12 * u[1], p21 * u[0] + p22 * u[1]])


def _finite(u: np.ndarray, what: str) -> np.ndarray:
    if not np.all(np.isfinite(u)):
        raise NumericsError(f"non-finite coefficient in the {what}")
    return u


def step(state: SimState, params: ModelParams, grid: StripGrid, dt: float,
         opts: StepOptions = StepOptions(), record: bool = False,
         prev: StepInfo | None = None) -> tuple[SimState, StepInfo]:
    """One Lawson–Heun step: u¹ = P u⁰ + (dt/2)(P N(u⁰) + N(P(u⁰ + dt N(u⁰)))).

    At ε = 0 the system is linear, N = 0, and the step is the exact
    propagator u¹ = P u⁰ with no elliptic solve.  The interface mean is
    re-projected to zero afterwards, recording the drift removed.  With
    record set, the info carries gradient_norm of the elliptic solution the
    step made at the input state (None at ε = 0, which solves none) and the
    ξ row of the nonlinear remainder N(u⁰) = ∂ₜu⁰ − M·u⁰ the step applied
    (zero at ε = 0).

    Both φ₂ solves start warm from prev, the previous step's info; info.phi2
    and info.phi2_pred are this step's first-stage and predictor
    (φ₂, ∂₂φ₂).  The first-stage solve at u⁰ starts from prev.phi2_pred,
    the solution at the previous predictor state ũ⁰: the same time, and
    O(dt²) from u⁰, since Heun's predictor and corrector differ by O(dt²).
    The predictor solve starts from the extrapolation 2φ₂(u⁰) − φ₂(u⁻¹),
    O(dt²) from its solution, written over the arrays of
    prev.phi2 = φ₂(u⁻¹).  Without prev the first stage starts from zero and
    the predictor from φ₂(u⁰).  Raises NumericsError when the predictor or
    the new state has a non-finite coefficient.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    p, m = _step_tables(state.n_modes, params.alpha, dt, params.kappa)
    u0 = _pack(state)
    iters = sweeps = solves = mixed = 0
    bulk = None
    remainder = None
    phi2 = phi2_pred = None

    if params.epsilon == 0.0:
        u1 = _apply(p, u0)
        if record:
            remainder = zero_field(state.n_modes)
    else:
        r0 = evaluate_rhs(state, params, grid, opts,
                          phi2_start=None if prev is None else prev.phi2_pred)
        iters = sweeps = r0.solution.picard_iters
        mixed += r0.solution.mixed_from is not None
        if record:
            bulk = gradient_norm(r0.solution.phi1, r0.solution.phi2,
                                 r0.solution.dzphi2)
        phi2 = (r0.solution.phi2, r0.solution.dzphi2)
        k1 = np.array([r0.xi_t.coeffs, r0.h_t.coeffs]) - _apply(m, u0)
        if record:
            remainder = state.xi._like(k1[0].copy())
        del r0                                # freed before the second solve
        u_pred = _finite(_apply(p, u0 + dt * k1), "predictor state")
        pred = _unpack(u_pred, state.t + dt, state.h)
        start = phi2
        if prev is not None and prev.phi2 is not None:   # in place: (c − p) + c
            for cur, old in zip(phi2, prev.phi2):
                np.subtract(cur.coeffs, old.coeffs, out=old.coeffs)
                np.add(old.coeffs, cur.coeffs, out=old.coeffs)
            start = prev.phi2
        r1 = evaluate_rhs(pred, params, grid, opts, phi2_start=start)
        iters = max(iters, r1.solution.picard_iters)
        sweeps += r1.solution.picard_iters
        solves = 2
        mixed += r1.solution.mixed_from is not None
        phi2_pred = (r1.solution.phi2, r1.solution.dzphi2)
        k2 = np.array([r1.xi_t.coeffs, r1.h_t.coeffs]) - _apply(m, u_pred)
        u1 = _apply(p, u0) + 0.5 * dt * (_apply(p, k1) + k2)

    drift = abs(_finite(u1, "new state")[1][0])
    u1[1][0] = 0.0
    info = StepInfo(mean_drift=float(drift), picard_iters=iters, picard_sweeps=sweeps,
                    phi2_solves=solves, bulk_gradient=bulk, xi_remainder=remainder,
                    mixed_solves=mixed, phi2=phi2, phi2_pred=phi2_pred)
    return _unpack(u1, state.t + dt, state.h), info


# ---------------------------------------------------------------------------
# the working band

BAND_HOLD_STEPS = 5    # steps in a row K/2's guard band must stay empty before K halves


def _content_cap(state: SimState) -> int:
    """The smallest cap K of N/2, N/4, … (K >= 4) whose guard band, the
    modes 3K/4 and up, holds no |ĥ| or |ξ̂| above
    e^{−ROUNDOFF_EXPONENT}·max(|ĥ|, |ξ̂|); N/2 when no smaller cap's is
    empty."""
    size = np.maximum(np.abs(state.h.coeffs), np.abs(state.xi.coeffs))
    loud = np.flatnonzero(size > np.exp(-ROUNDOFF_EXPONENT) * size.max())
    top = loud[-1] if loud.size else -1
    cap = state.n_modes // 2
    while cap // 2 >= 4 and top < 3 * (cap // 2) // 4:
        cap //= 2
    return cap


def _band(coeffs: np.ndarray, k: int) -> np.ndarray:
    """The modes 0..k−1 along axis 0 of coeffs, truncated or zero-padded,
    in a fresh array."""
    out = np.zeros((k,) + coeffs.shape[1:], dtype=np.complex128)
    n = min(k, coeffs.shape[0])
    out[:n] = coeffs[:n]
    return out


def _state_on_band(state: SimState, k: int) -> SimState:
    """state on the modes 0..k−1 (state itself when it has k)."""
    if 2 * k == state.n_modes:
        return state
    return SimState(h=state.h._like(_band(state.h.coeffs, k)),
                    xi=state.xi._like(_band(state.xi.coeffs, k)), t=state.t)


def _pair_on_grid(pair: tuple[StripField, StripField],
                  grid: StripGrid) -> tuple[StripField, StripField]:
    """A warm-start (φ₂, ∂₂φ₂) on grid's modes, in fresh arrays."""
    return tuple(StripField(grid, _band(f.coeffs, grid.n_modes // 2)) for f in pair)


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a run and what the run knew about them.

    opts are the step options the run used.  bulk holds, per recorded
    state, the elliptic gradient_norm the stepper took from its own solve at
    that state, or None where no step solved it (the final state, every
    state at ε = 0); xi_remainder holds the step's StepInfo.xi_remainder
    there, or None at the final state.  Both are empty for hand-built
    trajectories.  final_phi2 is the last step's predictor (φ₂, ∂₂φ₂) on
    the run's grid, a start for a solve at the final state (None when no
    step solved).  The counters sum the steps' StepInfo over the run, and
    band_steps counts the steps run at each working cap K.
    """

    states: tuple[SimState, ...]
    params: ModelParams
    grid: StripGrid
    dt: float
    max_mean_drift: float
    max_picard_iters: int
    opts: StepOptions
    bulk: tuple[float | None, ...] = ()
    xi_remainder: tuple[SpectrumField | None, ...] = ()
    mixed_solves: int = 0      # the stepper's solves that switched to mixing
    picard_sweeps: int = 0     # the sweeps of all the stepper's φ₂ solves
    phi2_solves: int = 0       # the stepper's φ₂ solves
    final_phi2: tuple[StripField, StripField] | None = None
    band_steps: dict[int, int] = field(default_factory=dict)

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])


def step_count(t_final: float, dt: float) -> int:
    """The number of dt steps that end at t_final; ConfigurationError unless
    t_final/dt is within 1e-9 of a whole number (t_final = 0 is 0 steps)."""
    ratio = t_final / dt if t_final else 0.0
    if not (math.isfinite(ratio) and abs(ratio - round(ratio)) <= 1e-9):
        raise ConfigurationError(
            f"t_final = {t_final!r} is not a whole number of steps of dt = {dt!r}")
    return round(ratio)


def run(h0: SpectrumField, xi0: SpectrumField, params: ModelParams,
        grid: StripGrid, dt: float, t_final: float, record_every: int = 10,
        opts: StepOptions | None = None) -> Trajectory:
    """Advance to t_final in step_count(t_final, dt) steps, recording every
    record_every steps (plus endpoints).

    Each step's φ₂ solves start from the last step's (see step).  At ε > 0
    each step runs on a working cap K of the stored modes, picked before
    the step from its input: K starts at N/2 and doubles before any step
    whose input has content above e^{−ROUNDOFF_EXPONENT}·max(|ĥ|, |ξ̂|) in
    K's guard band, the modes 3K/4..K−1; it halves, never below 4, only
    after BAND_HOLD_STEPS inputs in a row have held none in the guard band
    of K/2 or above it.  The step runs on the input truncated to its modes
    < K on StripGrid(2K, depth, n_depth); the new state, the step's
    xi_remainder and the warm-start pairs are zero-padded back (the pairs
    only when K changes).  ε = 0 runs and grids with N/2 < 8 keep K = N/2."""
    if t_final < 0:
        raise ConfigurationError(f"t_final must be >= 0, got {t_final}")
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    n_steps = step_count(t_final, dt)
    if opts is None:
        opts = StepOptions.for_dt(dt)
    state = SimState(h=h0, xi=xi0, t=0.0)
    records = [state]
    bulk: list[float | None] = [None]
    remainders: list[SpectrumField | None] = [None]
    max_drift = 0.0
    max_iters = sweeps = solves = mixed = 0
    info = None                 # the last step's, for one step
    full = h0.n_modes // 2
    cap, quiet, work = full, 0, grid
    adaptive = params.epsilon != 0.0 and full >= 8
    band_steps: dict[int, int] = {}
    for i in range(n_steps):
        if adaptive:
            need = _content_cap(state)
            quiet = quiet + 1 if need < cap else 0
            new_cap = max(need, cap // 2 if quiet >= BAND_HOLD_STEPS else cap)
            if new_cap != cap:
                cap, quiet = new_cap, 0
                work = StripGrid(2 * cap, depth=grid.depth, n_depth=grid.n_depth)
                if info is not None:
                    info = replace(info, phi2=_pair_on_grid(info.phi2, work),
                                   phi2_pred=_pair_on_grid(info.phi2_pred, work))
        band_steps[cap] = band_steps.get(cap, 0) + 1
        # the state entering step i was recorded exactly when i % record_every == 0
        try:
            new, info = step(_state_on_band(state, cap), params, work, dt, opts,
                             record=i % record_every == 0, prev=info)
        except NumericsError as exc:
            raise NumericsError(f"step {i + 1} of {n_steps} "
                                f"(t = {state.t:.6g} -> {state.t + dt:.6g}): {exc}") from exc
        state = _state_on_band(new, full)
        if info.bulk_gradient is not None:
            bulk[-1] = info.bulk_gradient
        if info.xi_remainder is not None:
            remainders[-1] = info.xi_remainder._like(_band(info.xi_remainder.coeffs, full))
        max_drift = max(max_drift, info.mean_drift)
        max_iters = max(max_iters, info.picard_iters)
        sweeps += info.picard_sweeps
        solves += info.phi2_solves
        mixed += info.mixed_solves
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            records.append(state)
            bulk.append(None)
            remainders.append(None)
    final_phi2 = None if info is None or info.phi2_pred is None else \
        _pair_on_grid(info.phi2_pred, grid)
    return Trajectory(states=tuple(records), params=params, grid=grid, dt=dt,
                      max_mean_drift=max_drift, max_picard_iters=max_iters, opts=opts,
                      bulk=tuple(bulk), xi_remainder=tuple(remainders),
                      mixed_solves=mixed, picard_sweeps=sweeps, phi2_solves=solves,
                      final_phi2=final_phi2, band_steps=band_steps)
