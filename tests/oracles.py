"""Reference computations that only the tests use.

Small helpers that number the modes of the FFT layout and read a spectrum
by signed mode; M·u written from the evolution docstring's M(n); the lemma
checks whose sharp constants the package's runs never evaluate; the
geometry as built before it was built in depth blocks, and random analytic
states to build it from; the ξ energy budget as computed before the
stepper carried its remainder, by solving every interior record afresh
on the working band and from the start the stepper's solve had; and the
boundary system's right-hand side from the surface alone, through the
Craig–Sulem series of the Dirichlet–Neumann operator.
"""

from __future__ import annotations

import itertools
from math import factorial

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
    stage at the step's input state, leaves in the returned list the grid it
    ran on, the step's working band, and a copy of its start: one
    (grid, (φ₂, ∂₂φ₂)) per step at ε ≠ 0, (grid, None) for a cold start."""
    starts, solve = [], ev.solve_phi2
    calls = itertools.count()

    def wrapped(bundle, *args, start=None, **kwargs):
        if next(calls) % 2 == 0:      # two solves per step, the first stage first
            starts.append((bundle.grid, None if start is None else
                           tuple(f._like(f.coeffs.copy()) for f in start)))
        return solve(bundle, *args, start=start, **kwargs)

    monkeypatch.setattr(ev, "solve_phi2", wrapped)
    return starts


def on_modes(f: SpectrumField, k: int) -> SpectrumField:
    """f truncated to, or zero-padded to, the modes 0..k−1."""
    c = np.zeros(k, dtype=np.complex128)
    n = min(k, f.coeffs.size)
    c[:n] = f.coeffs[:n]
    return SpectrumField(hermitian_fill(c))


def resolved_rhs(traj: ev.Trajectory, i: int, starts=()) -> ev.RhsEval:
    """evaluate_rhs at record i under the run's options, on the working band
    of the step that the record's state entered, k, and its φ₂ solve started
    from the start that step had, both from starts[k] (see
    capture_first_stage_starts); on the run's grid from zero where starts
    has no entry.  The state is truncated to the band's modes, so the
    right-hand side has them too."""
    state = traj.states[i]
    k = int(round(state.t / traj.dt))
    grid, start = starts[k] if k < len(starts) else (traj.grid, None)
    m = grid.n_modes
    banded = ev.SimState(h=on_modes(state.h, m // 2), xi=on_modes(state.xi, m // 2),
                         t=state.t)
    return ev.evaluate_rhs(banded, traj.params, grid, traj.opts, phi2_start=start)


def resolved_xi_energy_budget(traj: ev.Trajectory, starts=()) -> InequalityReport:
    """diagnostics.check_xi_energy_budget with each interior record's
    remainder ξ_t − (M·u)_ξ re-solved by resolved_rhs on the step's band and
    zero above it, or zero at ε = 0, where the run applies none."""
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
        nl = np.zeros_like(s0.xi.coeffs)
        if params.epsilon != 0.0:
            # the remainder on the step's band, zero above it
            r = resolved_rhs(traj, i, starts)
            k = r.xi_t.coeffs.size
            u = np.stack([s0.xi.coeffs[:k], s0.h.coeffs[:k]])
            nl[:k] = r.xi_t.coeffs - linear_rhs(u, modes[:k], params.alpha,
                                                params.kappa)[0]
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


def dirichlet_neumann_rhs(h: SpectrumField, xi: SpectrumField, alpha: float,
                          order: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """(h_t, ξ_t) of the boundary system on the modes 0..N/2−1, at ε = 1 and
    κ = 0, from the surface alone: no strip, no depth grid, no Picard
    iteration.

    G(η) is the Dirichlet–Neumann operator of the deep fluid below the
    physical surface η = εh = h, G(η)ξ = Φ_y − η′Φ_x there, summed to order J by
    the Craig–Sulem series (J. Comput. Phys. 108, 1993) in its self-adjoint
    recursion, D = −i∂ₓ:

        G₀ = |D|,   G_j = |D|^{j−1} D η^j D / j! − Σ_{m=1..j} |D|^m η^m G_{j−m} / m!.

    The surface gradient follows from ξ′ = Φ_x + η′Φ_y and Gξ, and Φ_xx
    from differentiating the two traces (Φ_yy = −Φ_xx):

        Φ_y = (Gξ + η′ξ′)/(1 + η′²),   Φ_x = ξ′ − η′Φ_y,
        Φ_xx = (∂ₓ(Φ_x|) − η′∂ₓ(Φ_y|))/(1 + η′²),
        h_t = Gξ + αh,₁₁,
        ξ_t = −½(Φ_x² + Φ_y²) − h + αΦ_xx + Φ_y(Gξ + αh,₁₁).

    Products are taken on 4N points with the full complex FFT.  The
    recursion cancels badly in high modes: keep J <= 8 and N <= 128.
    """
    n_modes = h.n_modes
    m = 4 * n_modes
    k = np.fft.fftfreq(m, d=1.0 / m)
    absk = np.abs(k)

    def spectrum(f: SpectrumField) -> np.ndarray:
        c = np.zeros(m, dtype=np.complex128)
        c[:n_modes // 2] = f.coeffs
        c[m - n_modes // 2 + 1:] = np.conj(f.coeffs[:0:-1])
        return c

    def values(c: np.ndarray) -> np.ndarray:
        return np.fft.ifft(c, norm="forward").real

    def coeffs(v: np.ndarray) -> np.ndarray:
        return np.fft.fft(v, norm="forward")

    h_hat, xi_hat = spectrum(h), spectrum(xi)
    eta = values(h_hat)
    dxi = values(1j * k * xi_hat)
    terms = [absk * xi_hat]                       # G_j ξ, Fourier side
    for j in range(1, order + 1):
        # D η^j D = −∂ₓ η^j ∂ₓ, which keeps the samples real
        g = -absk ** (j - 1) * 1j * k * coeffs(eta ** j * dxi) / factorial(j)
        for i in range(1, j + 1):
            g -= absk ** i * coeffs(eta ** i * values(terms[j - i])) / factorial(i)
        terms.append(g)
    g_hat = sum(terms)

    hxx_hat = -k ** 2 * h_hat
    g_xi, hxx = values(g_hat), values(hxx_hat)
    deta = values(1j * k * h_hat)
    stretch = 1.0 + deta ** 2
    phi_y = (g_xi + deta * dxi) / stretch
    phi_x = dxi - deta * phi_y
    phi_xx = (values(1j * k * coeffs(phi_x)) - deta * values(1j * k * coeffs(phi_y))) / stretch
    h_t = g_hat + alpha * hxx_hat
    xi_t = coeffs(-0.5 * (phi_x ** 2 + phi_y ** 2) - eta + alpha * phi_xx
                  + phi_y * (g_xi + alpha * hxx))
    return h_t[:n_modes // 2], xi_t[:n_modes // 2]
