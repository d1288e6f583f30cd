"""Seeded random ensembles and validation suites.

Everything here is deterministic given the seed, so the CLI subcommands and
the test suite share one source of trials.  Random boundary fields carry
exponentially decaying spectra (the fields of interest are analytic); random
strip fields use mode-wise mixtures of decaying exponentials c·e^{a x₂} with
a >= max(1,|n|), which keeps them convex and monotone in depth so that
trapezoid bias works against false inequality violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptic import poisson_divform
from .errors import ConfigurationError
from .evolution import ModelParams, StepOptions, run
from .geometry import StripField, StripGrid, zero_strip
from .norms import (QUADRATURE_SLACK, NormSpec, check_composition,
                    check_composition_corrected, check_interpolation,
                    check_power_rule, check_product_rule, check_trace_inequality,
                    check_zero_mean_interpolation, constant_k, strip_norm,
                    wiener_norm)
from .spectral import SpectrumField, _adopt, cosine, dx, lam, sine, zero_field


@dataclass(frozen=True)
class TrialRow:
    lemma: str
    trial: int
    r: float
    s: float
    lam: float
    n: int            # power / secondary index; 0 when not applicable
    lhs: float
    rhs: float
    constant: float
    margin: float
    holds: bool

    HEADER = ("lemma", "trial", "r", "s", "lam", "n",
              "lhs", "rhs", "constant", "margin", "holds")

    def row(self) -> tuple:
        return (self.lemma, self.trial, self.r, self.s, self.lam, self.n,
                self.lhs, self.rhs, self.constant, self.margin, self.holds)


def random_boundary_field(rng: np.random.Generator, n_modes: int,
                          max_mode: int, decay: float = 0.6,
                          zero_mean: bool = True, scale: float = 1.0) -> SpectrumField:
    c = np.zeros(n_modes // 2, dtype=np.complex128)
    for n in range(1, max_mode + 1):
        amp = scale * rng.uniform(0.2, 1.0) * np.exp(-decay * n)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        c[n] = 0.5 * amp * np.exp(1j * phase)
    if not zero_mean:
        c[0] = scale * rng.uniform(-0.5, 0.5)
    return _adopt(SpectrumField, c)


def random_strip_field(rng: np.random.Generator, grid: StripGrid,
                       max_mode: int) -> StripField:
    """Mode-wise mixture of two decaying exponentials, rate >= max(1,|n|),
    on the modes 0..max_mode (max_mode <= N/2 − 1), amplitude decaying
    like e^{−n/2}."""
    c = np.zeros((grid.n_modes // 2, grid.n_depth), dtype=np.complex128)
    z = grid.z
    for n in range(0, max_mode + 1):
        base = max(1.0, float(n))
        a1 = base * rng.uniform(0.9, 1.4)
        a2 = base * rng.uniform(1.4, 2.2)
        amp = rng.uniform(0.2, 1.0) * np.exp(-0.5 * n)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        coef = amp * np.exp(1j * phase)
        prof = 0.7 * np.exp(a1 * z) + 0.3 * np.exp(a2 * z)
        c[n] = coef * prof if n > 0 else np.real(coef) * prof
    return StripField(grid, c)


# ---------------------------------------------------------------------------
# lemma suite trials

_R_SET = (0.0, 1.0, 2.0)
_S_SET = (0.0, 1.0, 2.0)
_LAM_SET = (0.0, 0.3)
_BOUNDARY_MODES = 32                                 # boundary-field trials
_STRIP_GRID = StripGrid(16, depth=8.0, n_depth=257)  # strip-field trials


def product_rule_trials(seed: int, trials: int) -> list[TrialRow]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(trials):
        f = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=10, zero_mean=False)
        g = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=10, zero_mean=False)
        r = _R_SET[i % 3]
        s = _S_SET[(i // 3) % 3]
        lam_ = _LAM_SET[i % 2]
        rep = check_product_rule(f, g, r, s, lam_)
        rows.append(TrialRow("product_rule", i, r, s, lam_, 0, rep.lhs, rep.rhs,
                             rep.constant_used, rep.margin, rep.holds))
    return rows


def power_rule_trials(seed: int, trials: int) -> list[TrialRow]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(trials):
        v = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=8, zero_mean=False,
                                  scale=rng.uniform(0.2, 2.0))
        r = _R_SET[i % 3]
        s = _S_SET[(i // 3) % 3]
        lam_ = _LAM_SET[i % 2]
        n = 2 + (i % 3)
        rep = check_power_rule(v, r, s, lam_, n)
        rows.append(TrialRow("power_rule", i, r, s, lam_, n, rep.lhs, rep.rhs,
                             rep.constant_used, rep.margin, rep.holds))
    return rows


def interpolation_trials(seed: int, trials: int) -> list[TrialRow]:
    """Alternates the Hölder-in-s inequality and the zero-mean estimate."""
    rng = np.random.default_rng(seed)
    rows = []
    thetas = (0.25, 0.5, 0.75)
    for i in range(trials):
        lam_ = _LAM_SET[i % 2]
        if i % 2 == 0:
            v = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=10, zero_mean=False)
            theta = thetas[i % 3]
            s2 = rng.uniform(0.5, 3.0)
            rep = check_interpolation(v, 0.0, s2, theta, lam_)
            rows.append(TrialRow("interpolation_theta", i, theta, s2, lam_, 0,
                                 rep.lhs, rep.rhs, rep.constant_used,
                                 rep.margin, rep.holds))
        else:
            f = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=10, zero_mean=True)
            s = float(rng.choice((0.5, 1.0, 2.0)))
            rep = check_zero_mean_interpolation(f, s, lam_)
            rows.append(TrialRow("interpolation_zero_mean", i, 0.0, s, lam_, 0,
                                 rep.lhs, rep.rhs, rep.constant_used,
                                 rep.margin, rep.holds))
    return rows


def composition_trials(seed: int, trials: int, corrected: bool = False) -> list[TrialRow]:
    """Composition-bound trials over the full admissible ball.

    With corrected=False this is the literal Lemma-A.2 constant, which is
    falsified on part of its stated domain (see check_composition_corrected);
    the trials are kept faithful to the stated bound rather than resampled
    around the defect.
    """
    rng = np.random.default_rng(seed)
    check = check_composition_corrected if corrected else check_composition
    name = "composition_corrected" if corrected else "composition"
    rows = []
    for i in range(trials):
        s = _S_SET[i % 3]
        lam_ = _LAM_SET[i % 2]
        v = random_boundary_field(rng, _BOUNDARY_MODES, max_mode=8, zero_mean=False)
        # rescale into the admissibility ball |v|_{0,λ} < min(1, 1/k_s)
        limit = min(1.0, 1.0 / constant_k(s))
        v0 = wiener_norm(v, NormSpec(0.0, lam_))
        v = v * (rng.uniform(0.1, 0.85) * limit / v0)
        rep = check(v, s, lam_)
        rows.append(TrialRow(name, i, 0.0, s, lam_, 0, rep.lhs, rep.rhs,
                             rep.constant_used, rep.margin, rep.holds))
    return rows


def trace_trials(seed: int, trials: int) -> list[TrialRow]:
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(trials):
        u = random_strip_field(rng, _STRIP_GRID, max_mode=6)
        s = _S_SET[i % 3]
        lam_ = (0.0, 0.2)[i % 2]
        rep = check_trace_inequality(u, s, lam_)
        rows.append(TrialRow("trace", i, 0.0, s, lam_, 0, rep.lhs, rep.rhs,
                             rep.constant_used, rep.margin, rep.holds))
    return rows


def lemma_suite(seed: int, trials: int) -> list[TrialRow]:
    """The five 1000-trial families of the acceptance gate, seeded.

    Emits both composition variants: the literal stated constant and the
    corrected one.
    """
    rows: list[TrialRow] = []
    rows += product_rule_trials(seed, trials)
    rows += power_rule_trials(seed + 1, trials)
    rows += interpolation_trials(seed + 2, trials)
    rows += composition_trials(seed + 3, trials)
    rows += composition_trials(seed + 3, trials, corrected=True)
    rows += trace_trials(seed + 4, trials)
    return rows


# ---------------------------------------------------------------------------
# Poisson-solver ensembles

def gradient_strip_norms(u1: StripField, u2: StripField, r: float,
                         spec: NormSpec) -> float:
    """‖Λʳ(u₁, u₂)‖ in the anisotropic strip norm (component sum)."""
    return strip_norm(lam(u1, r), spec) + strip_norm(lam(u2, r), spec)


def elliptic_bound_trials(seed: int, n_samples: int) -> list[TrialRow]:
    """Both constant-explicit solver estimates on random band-limited data.

    First family: ‖Λʳ∇φ‖_{s,1,λ} <= 12‖Λʳg‖_{s,1,λ}, r,s ∈ {0,1,2}, λ ∈ {0,0.2}.
    Second family: ‖∇φ‖_{s,2,λ} <= 12‖Λg‖_{s,1,λ} + 4‖g‖_{s,2,λ}.
    Both hold up to the relative slack QUADRATURE_SLACK of the depth
    quadrature.
    """
    rng = np.random.default_rng(seed)
    grid = _STRIP_GRID
    rows = []
    lam_set = (0.0, 0.2)
    for i in range(n_samples):
        g1 = random_strip_field(rng, grid, max_mode=6)
        g2 = random_strip_field(rng, grid, max_mode=6)
        # the construction tail of the ensemble is e^{-depth}; not a flux defect
        sol = poisson_divform(g1, g2, tail_tol=10.0 * np.exp(-grid.depth))
        u1 = dx(sol.phi)
        u2 = sol.dzphi
        r = _R_SET[i % 3]
        s = _S_SET[(i // 3) % 3]
        lam_ = lam_set[i % 2]
        spec1 = NormSpec(s, lam_, k=1)
        lhs = gradient_strip_norms(u1, u2, r, spec1)
        rhs = 12.0 * gradient_strip_norms(g1, g2, r, spec1)
        rows.append(TrialRow("solver_grad_k1", i, r, s, lam_, 0, lhs, rhs, 12.0,
                             rhs - lhs, lhs <= rhs * (1 + QUADRATURE_SLACK)))
        spec2 = NormSpec(s, lam_, k=2)
        lhs2 = gradient_strip_norms(u1, u2, 0.0, spec2)
        rhs2 = (12.0 * gradient_strip_norms(g1, g2, 1.0, spec1) +
                4.0 * gradient_strip_norms(g1, g2, 0.0, spec2))
        rows.append(TrialRow("solver_grad_k2", i, 0.0, s, lam_, 0, lhs2, rhs2, 12.0,
                             rhs2 - lhs2, lhs2 <= rhs2 * (1 + QUADRATURE_SLACK)))
    return rows


def manufactured_solution_errors(n_depths: tuple[int, ...] = (128, 256, 512),
                                 depth: float = 8.0) -> list[tuple[int, float]]:
    """Max error of the solver against φ = x₂e^{x₂}cos x₁ for g = (0, 2e^{x₂}cos x₁)."""
    out = []
    for nz in n_depths:
        grid = StripGrid(8, depth=depth, n_depth=nz)
        prof = np.exp(grid.z)
        c2 = np.zeros((grid.n_modes // 2, nz), dtype=np.complex128)
        c2[1, :] = prof
        # the forcing's tail at depth is e^{-depth} by construction
        sol = poisson_divform(zero_strip(grid), StripField(grid, c2),
                              tail_tol=10.0 * np.exp(-depth))
        exact = np.zeros_like(c2)
        exact[1, :] = 0.5 * grid.z * prof
        out.append((nz, float(np.max(np.abs(sol.phi.coeffs - exact)))))
    return out


# ---------------------------------------------------------------------------
# linear fidelity (closed-form propagator oracle)

def linear_exponential(k: int, alpha: float, t: float) -> np.ndarray:
    """exp(tM) for M = [[−αk², −1], [|k|, −αk²]] acting on (ξ̂, ĥ), in closed form.

    M = −αk²·I + N with N² = −|k|·I, so with ω = √|k|
    e^{tM} = e^{−αk²t} [[cos ωt, −sin ωt/ω], [ω sin ωt, cos ωt]].
    """
    w = np.sqrt(abs(k))
    decay = np.exp(-alpha * k ** 2 * t)
    c, s = np.cos(w * t), np.sin(w * t)
    s_over_w = s / w if w > 0 else t          # the ω → 0 limit of sin ωt/ω
    return decay * np.array([[c, -s_over_w], [w * s, c]])


def linear_fidelity(alpha: float, ks: tuple[int, ...], dt: float,
                    t_final: float) -> dict[int, float]:
    """Max deviation (relative to δ) of the simulated modes from exp(tM(k)).

    One simulation on 8 modes × 48 depth nodes seeds every requested mode
    at amplitude δ = 1e-8, runs the full nonlinear path and records every
    100 steps; the reference is the closed-form exponential
    `linear_exponential`.  Raises ConfigurationError for a mode outside
    1..3.
    """
    delta = 1e-8
    grid = StripGrid(8, depth=8.0, n_depth=48)
    if not all(1 <= k < grid.n_modes // 2 for k in ks):
        raise ConfigurationError(
            f"modes must lie in 1..{grid.n_modes // 2 - 1}, got {list(ks)}")
    h0 = zero_field(grid.n_modes)
    xi0 = zero_field(grid.n_modes)
    for k in ks:
        h0 = h0 + cosine(k, delta, grid.n_modes)
        xi0 = xi0 + sine(k, delta, grid.n_modes)
    params = ModelParams(alpha=alpha, epsilon=1.0)
    traj = run(h0, xi0, params, grid, dt, t_final, record_every=100,
               opts=StepOptions.for_dt(dt))
    errs = {k: 0.0 for k in ks}
    for k in ks:
        u0 = np.array([complex(xi0.coeffs[k]), complex(h0.coeffs[k])])
        for state in traj.states:
            exact = linear_exponential(k, alpha, state.t) @ u0
            sim = np.array([state.xi.coeffs[k], state.h.coeffs[k]])
            errs[k] = max(errs[k], float(np.max(np.abs(sim - exact)) / delta))
    return errs
