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
remainder is advanced explicitly at second order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .elliptic import EllipticSolution, gradient_norm, solve_phi1, solve_phi2
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
    linear_only: bool = False

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


def _apply_linear(factors, u: np.ndarray) -> np.ndarray:
    a, b, c = factors
    return np.array([-a * u[0] - c * u[1], b * u[0] - a * u[1]])


@lru_cache(maxsize=16)
def _step_tables(n_modes: int, alpha: float, dt: float, kappa: float):
    """The step's propagator entries and M's factors, built once per
    (N, α, dt, κ) (shared, read-only)."""
    modes = stored_modes(n_modes)
    tables = (propagator_entries(modes, alpha, dt, kappa),
              _linear_factors(modes, alpha, kappa))
    for arr in (*tables[0], *tables[1]):
        arr.setflags(write=False)
    return tables


# ---------------------------------------------------------------------------
# time stepping

@dataclass(frozen=True)
class StepInfo:
    mean_drift: float
    picard_iters: int
    bulk_gradient: float | None = None   # gradient_norm at the input state
    xi_remainder: SpectrumField | None = None   # ξ row of N(u⁰) at the input state
    mixed_solves: int = 0                # solves that switched to Anderson mixing
    phi2: tuple[StripField, StripField] | None = None   # first-stage (φ₂, ∂₂φ₂)


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
         phi2_prev: tuple[StripField, StripField] | None = None
         ) -> tuple[SimState, StepInfo]:
    """One Lawson–Heun step: u¹ = P u⁰ + (dt/2)(P N(u⁰) + N(P(u⁰ + dt N(u⁰)))).

    Exact (to round-off) for the pure linear system; the interface mean is
    re-projected to zero afterwards, recording the drift removed.  With
    record set, the info carries gradient_norm of the elliptic solution the
    step made at the input state (None when linear_only solves none) and
    the ξ row of the nonlinear remainder N(u⁰) = ∂ₜu⁰ − M·u⁰ the step
    applied (zero when linear_only).

    The first-stage φ₂ solve at u⁰ starts from zero, so it is the solve
    any other caller makes at that state; info.phi2 is its (φ₂, ∂₂φ₂).  The
    predictor solve starts from the extrapolation 2φ₂(u⁰) − φ₂(u⁻¹), O(dt²)
    from its solution, with phi2_prev = φ₂(u⁻¹) the previous step's
    info.phi2, whose arrays it overwrites; without phi2_prev from φ₂(u⁰).
    Raises NumericsError when the predictor or the new state has a
    non-finite coefficient.
    """
    if dt <= 0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    p, factors = _step_tables(state.n_modes, params.alpha, dt, params.kappa)
    u0 = _pack(state)
    iters = 0
    mixed = 0
    bulk = None
    remainder = None
    phi2 = None

    if opts.linear_only:
        u1 = _apply(p, u0)
        if record:
            remainder = zero_field(state.n_modes)
    else:
        r0 = evaluate_rhs(state, params, grid, opts)
        iters = max(iters, r0.solution.picard_iters)
        mixed += r0.solution.mixed_from is not None
        if record:
            bulk = gradient_norm(r0.solution.phi1, r0.solution.phi2,
                                 r0.solution.dzphi2)
        phi2 = (r0.solution.phi2, r0.solution.dzphi2)
        k1 = np.array([r0.xi_t.coeffs, r0.h_t.coeffs]) - _apply_linear(factors, u0)
        if record:
            remainder = state.xi._like(k1[0].copy())
        del r0                                # freed before the second solve
        u_pred = _finite(_apply(p, u0 + dt * k1), "predictor state")
        pred = _unpack(u_pred, state.t + dt, state.h)
        start = phi2
        if phi2_prev is not None:             # in place: (c − p) + c
            for cur, prev in zip(phi2, phi2_prev):
                np.subtract(cur.coeffs, prev.coeffs, out=prev.coeffs)
                np.add(prev.coeffs, cur.coeffs, out=prev.coeffs)
            start = phi2_prev
        r1 = evaluate_rhs(pred, params, grid, opts, phi2_start=start)
        iters = max(iters, r1.solution.picard_iters)
        mixed += r1.solution.mixed_from is not None
        k2 = np.array([r1.xi_t.coeffs, r1.h_t.coeffs]) - _apply_linear(factors, u_pred)
        u1 = _apply(p, u0) + 0.5 * dt * (_apply(p, k1) + k2)

    drift = abs(_finite(u1, "new state")[1][0])
    u1[1][0] = 0.0
    info = StepInfo(mean_drift=float(drift), picard_iters=iters, bulk_gradient=bulk,
                    xi_remainder=remainder, mixed_solves=mixed, phi2=phi2)
    return _unpack(u1, state.t + dt, state.h), info


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of a run and what the run knew about them.

    opts are the step options the run used (None: StepOptions.for_dt(dt)).
    bulk holds, per recorded state, the elliptic gradient_norm the stepper
    took from its own solve at that state, or None where no step solved it
    (the final state, linear_only runs); xi_remainder holds the step's
    StepInfo.xi_remainder there, or None at the final state.  Both are empty
    for hand-built trajectories.
    """

    states: tuple[SimState, ...]
    params: ModelParams
    grid: StripGrid
    dt: float
    record_every: int
    max_mean_drift: float
    max_picard_iters: int
    opts: StepOptions | None = None
    bulk: tuple[float | None, ...] = ()
    xi_remainder: tuple[SpectrumField | None, ...] = ()
    mixed_solves: int = 0      # the stepper's solves that switched to mixing

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def step_options(self) -> StepOptions:
        return self.opts if self.opts is not None else StepOptions.for_dt(self.dt)


def run(h0: SpectrumField, xi0: SpectrumField, params: ModelParams,
        grid: StripGrid, dt: float, t_final: float, record_every: int = 10,
        opts: StepOptions | None = None) -> Trajectory:
    """Advance to t_final, recording every record_every steps (plus endpoints)."""
    if t_final < 0:
        raise ConfigurationError(f"t_final must be >= 0, got {t_final}")
    if record_every < 1:
        raise ConfigurationError("record_every must be >= 1")
    if opts is None:
        opts = StepOptions.for_dt(dt)
    state = SimState(h=h0, xi=xi0, t=0.0)
    records = [state]
    bulk: list[float | None] = [None]
    remainders: list[SpectrumField | None] = [None]
    n_steps = int(round(t_final / dt)) if t_final > 0 else 0
    max_drift = 0.0
    max_iters = 0
    mixed = 0
    phi2 = None                 # the last step's first-stage φ₂, for one step
    for i in range(n_steps):
        # the state entering step i was recorded exactly when i % record_every == 0
        try:
            state, info = step(state, params, grid, dt, opts,
                               record=i % record_every == 0, phi2_prev=phi2)
        except NumericsError as exc:
            raise NumericsError(f"step {i + 1} of {n_steps} "
                                f"(t = {state.t:.6g} -> {state.t + dt:.6g}): {exc}") from exc
        phi2 = info.phi2
        if info.bulk_gradient is not None:
            bulk[-1] = info.bulk_gradient
        if info.xi_remainder is not None:
            remainders[-1] = info.xi_remainder
        max_drift = max(max_drift, info.mean_drift)
        max_iters = max(max_iters, info.picard_iters)
        mixed += info.mixed_solves
        if (i + 1) % record_every == 0 or i == n_steps - 1:
            records.append(state)
            bulk.append(None)
            remainders.append(None)
    return Trajectory(states=tuple(records), params=params, grid=grid, dt=dt,
                      record_every=record_every, max_mean_drift=max_drift,
                      max_picard_iters=max_iters, opts=opts, bulk=tuple(bulk),
                      xi_remainder=tuple(remainders), mixed_solves=mixed)
