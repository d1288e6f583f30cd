"""Reference computations that only the tests use.

Small helpers that number the modes of the FFT layout and read a spectrum
by signed mode; M·u written from the evolution docstring's M(n); the lemma
checks whose sharp constants the package's runs never evaluate; the
geometry as built before it was built in depth blocks, and random analytic
states to build it from; and the ξ energy budget as computed before the
stepper carried its remainder, by solving every interior record afresh
from the start the stepper's solve had.
"""

from __future__ import annotations

import itertools

import numpy as np

from dampedwaves import evolution as ev
from dampedwaves.diagnostics import BUDGET_REL_SLACK, floored_wiener
from dampedwaves.errors import ConfigurationError, DiffeomorphismError
from dampedwaves.geometry import GeometryBundle, StripGrid, harmonic_extension
from dampedwaves.harness import random_boundary_field
from dampedwaves.norms import (DEFAULT_SLACK, QUADRATURE_SLACK, InequalityReport,
                               NormSpec, wiener_norm)
from dampedwaves.spectral import (SpectrumField, dx, hermitian_fill, lam,
                                  mode_multiplicity, pad_size, project_stack,
                                  values_stack)


def signed_modes(n_modes: int) -> np.ndarray:
    """Signed mode numbers in numpy FFT order: 0, 1, …, N/2−1, −N/2, …, −1."""
    return np.fft.fftfreq(n_modes, d=1.0 / n_modes).astype(int)


def coeff(f: SpectrumField, n: int) -> complex:
    """f̂(n) for a signed mode n, from the FFT layout of f."""
    return complex(hermitian_fill(f.coeffs)[n % f.n_modes])


def grid_points(n_modes: int) -> np.ndarray:
    """Uniform collocation grid on [0, 2π)."""
    return 2.0 * np.pi * np.arange(n_modes) / n_modes


def linear_rhs(u: np.ndarray, modes: np.ndarray, alpha: float,
               kappa: float = 0.0) -> np.ndarray:
    """M·u for the stacked state u = (ξ̂, ĥ): M(n) = [[−αn², −1], [|n|, −αn²]],
    κ-mollified as the evolution module applies it (h enters ξ_t through one
    heat factor e^{−κn²}, every other entry through two)."""
    n2 = modes.astype(float) ** 2
    heat = np.exp(-kappa * n2)
    a = alpha * n2 * heat ** 2
    b = np.abs(modes).astype(float) * heat ** 2
    return np.array([-a * u[0] - heat * u[1], b * u[0] - a * u[1]])


def boundary_a_minus_identity(b: SpectrumField) -> list[SpectrumField]:
    """The nonzero entries (A²₁, A²₂ − 1) of A − Id at x₂ = 0 for the
    flattening built from b: −b,₁/(1+Λb) and −Λb/(1+Λb)."""
    d1, d2 = values_stack([dx(b), lam(b)], pad_size(b.n_modes, 4))
    return project_stack([-d1 / (1.0 + d2), -d2 / (1.0 + d2)], b)


def check_A_deviation(b: SpectrumField, s: float, lam_: float,
                      cap: float = 4.0) -> tuple[InequalityReport, float]:
    """|A(t)−Id|_{s,λ} <= C(s)|Λb|_{s,λ} at the boundary, with empirical C.

    The nonzero entries of A−Id at x₂ = 0 are −b,₁/(1+Λb) and −Λb/(1+Λb);
    the matrix norm is the sum of entry norms.  Returns the report against
    the configured cap and the measured constant.
    """
    a21, a22 = boundary_a_minus_identity(b)
    spec = NormSpec(s, lam_)
    lhs = wiener_norm(a21, spec) + wiener_norm(a22, spec)
    denom = wiener_norm(lam(b), spec)
    c_emp = lhs / denom if denom > 0 else 0.0
    rhs = cap * denom
    return InequalityReport(lhs=lhs, rhs=rhs, constant_used=cap,
                            holds=lhs <= rhs * (1 + 1e-9), margin=rhs - lhs), c_emp


def check_semigroup_multiplier(v: SpectrumField, s: float, lam_: float, j: int = 1,
                               slack: float = DEFAULT_SLACK) -> InequalityReport:
    """‖e^{x₂Λ}v‖_{s,j,λ} <= |Λ^{j−1}v|_{s,λ}: the multiplier lemma at f = exp.

    The vertical integral ∫|∂₂^j e^{|n|x₂} v̂| dx₂ = |n|^{j−1}|v̂|(1 − e^{−|n|L_d})
    plus its exact tail is summed in closed form per mode (quadrature would
    blur the sharp constant C_f = 1; the bound is an equality for this f).
    """
    if j < 1:
        raise ConfigurationError("vertical derivative count j must be >= 1")
    n = v.modes.astype(float)
    per_mode = n ** (j - 1) * np.abs(v.coeffs)   # includes the exact tail
    lhs = float(np.sum(mode_multiplicity(v.n_modes) * (1.0 + n) ** s
                       * np.exp(lam_ * n) * per_mode))
    rhs = wiener_norm(lam(v, float(j - 1)), NormSpec(s, lam_))
    return InequalityReport.compare(lhs, rhs, 1.0, slack)


def check_extension_chain(xi: SpectrumField, grid: StripGrid, r: float, s: float,
                          lam_: float, j: int, i: int,
                          slack: float = QUADRATURE_SLACK) -> InequalityReport:
    """|Λʳ∂₂^j∂_i φ₁|_{s,λ} <= |Λ^{r+j+1}ξ|_{s,λ} for φ₁ = e^{x₂Λ}ξ.

    The lhs trace is computed from the closed-form extension; i = 1 is the
    tangential, i = 2 the vertical first derivative.
    """
    if i not in (1, 2):
        raise ConfigurationError("derivative direction i must be 1 or 2")
    phi1 = harmonic_extension(xi, grid)
    n = xi.modes.astype(float)
    sym = (1j * n) if i == 1 else n
    trace = SpectrumField(hermitian_fill(sym * n ** j * n ** r * phi1.trace().coeffs))
    lhs = wiener_norm(trace, NormSpec(s, lam_))
    rhs = wiener_norm(lam(xi, r + j + 1), NormSpec(s, lam_))
    return InequalityReport.compare(lhs, rhs, 1.0, slack)


def full_band_geometry(h: SpectrumField, grid: StripGrid,
                       margin_min: float = 0.1) -> GeometryBundle:
    """build_geometry as it was before its depth blocks: min J over every
    depth row of the pad_size(N, 3) grid, and −Q in one block of every row,
    sampled from all N/2 modes of δψ,₁ and δψ,₂ on the pad_size(N, 2) grid."""
    psi = harmonic_extension(h, grid)
    dpsi1, dpsi2 = dx(psi), lam(psi)
    margin = float(np.min(1.0 + values_stack([dpsi2], pad_size(grid.n_modes, 3))))
    if margin <= margin_min:
        raise DiffeomorphismError(f"min J = {margin:.4f} <= margin_min = {margin_min:g}")
    # depth-major samples (N_z, m), as the blocks of build_geometry hold them
    d1, d2 = values_stack([dpsi1, dpsi2], pad_size(grid.n_modes, 2)).swapaxes(1, 2)
    neg_q = (-d2, d1, (d2 - d1 * d1) / (1.0 + d2))
    return GeometryBundle(grid=grid, boundary=h, dpsi1=dpsi1, dpsi2=dpsi2,
                          neg_q=((0, grid.n_depth, grid.n_modes // 2, neg_q),),
                          diffeo_margin=margin)


def analytic_data(n: int, seed: int = 0) -> tuple[SpectrumField, SpectrumField]:
    """Random h and ξ on every mode 1..N/2−1, decaying like e^{−0.3|n|}."""
    rng = np.random.default_rng(seed)
    return tuple(random_boundary_field(rng, n, n // 2 - 1, decay=0.3, scale=0.1)
                 for _ in range(2))


def capture_first_stage_starts(monkeypatch) -> list:
    """Wrap evolution.solve_phi2 so that each step's first solve, the first
    stage at the step's input state, leaves a copy of its start in the
    returned list: one (φ₂, ∂₂φ₂) per step at ε ≠ 0, None for a cold start."""
    starts, solve = [], ev.solve_phi2
    calls = itertools.count()

    def wrapped(*args, start=None, **kwargs):
        if next(calls) % 2 == 0:      # two solves per step, the first stage first
            starts.append(None if start is None else
                          tuple(f._like(f.coeffs.copy()) for f in start))
        return solve(*args, start=start, **kwargs)

    monkeypatch.setattr(ev, "solve_phi2", wrapped)
    return starts


def resolved_rhs(traj: ev.Trajectory, i: int, starts=()) -> ev.RhsEval:
    """evaluate_rhs at record i under the run's options, its φ₂ solve
    started from starts[k], k the step that the record's state entered (see
    capture_first_stage_starts), or from zero where starts has no entry."""
    state = traj.states[i]
    k = int(round(state.t / traj.dt))
    start = starts[k] if k < len(starts) else None
    return ev.evaluate_rhs(state, traj.params, traj.grid, traj.opts, phi2_start=start)


def resolved_xi_energy_budget(traj: ev.Trajectory, starts=()) -> InequalityReport:
    """diagnostics.check_xi_energy_budget with each interior record's
    remainder ξ_t − (M·u)_ξ re-solved by resolved_rhs, or zero at ε = 0,
    where the run applies none."""
    params = traj.params
    states = traj.states
    if len(states) < 3:
        raise ConfigurationError("budget check needs at least three records")
    modes = states[0].xi.modes
    worst = None
    holds = True
    for i in range(1, len(states) - 1):
        sm, s0, sp = states[i - 1], states[i], states[i + 1]
        lam_t = params.mu * s0.t
        dxi = (floored_wiener(sp.xi, 1.0, params.mu * sp.t) -
               floored_wiener(sm.xi, 1.0, params.mu * sm.t)) / (sp.t - sm.t)
        if params.epsilon == 0.0:
            nl = np.zeros_like(s0.xi.coeffs)
        else:
            r = resolved_rhs(traj, i, starts)
            u = np.stack([s0.xi.coeffs, s0.h.coeffs])
            nl = r.xi_t.coeffs - linear_rhs(u, modes, params.alpha, params.kappa)[0]
        rhs = (-(params.alpha - params.mu) * floored_wiener(lam(s0.xi, 2.0), 1.0, lam_t)
               + floored_wiener(s0.h, 1.0, lam_t)
               + floored_wiener(SpectrumField(hermitian_fill(nl)), 1.0, lam_t))
        slack = BUDGET_REL_SLACK * max(abs(dxi), abs(rhs), 1e-14)
        if worst is None or dxi - rhs > worst[0] - worst[1]:
            worst = (dxi, rhs + slack)
        if dxi > rhs + slack:
            holds = False
    return InequalityReport(lhs=worst[0], rhs=worst[1], constant_used=BUDGET_REL_SLACK,
                            holds=holds, margin=worst[1] - worst[0])
