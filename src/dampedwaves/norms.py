"""Analytic-weight Wiener norms, strip norms, and the lemma suite.

Boundary norm:   |v|_{s,λ} = Σ_n (1+|n|)^s e^{λ|n|} |v̂(n)|
Strip norm:      ‖u‖_{s,k,λ} = Σ_n (1+|n|)^s e^{λ|n|} ∫_{−∞}^0 |∂₂^k û(n,x₂)| dx₂
Sobolev norm:    |h|_s² = Σ_n (1+|n|^s)² |ĥ(n)|²

All sums run over the represented (truncated) mode set: the stored modes
0..N/2−1 weighted by `spectral.mode_multiplicity`.  Strip integrals use
composite trapezoid on [−L_d, 0] plus a modeled tail (each mode is assumed to
keep decaying like e^{max(1,|n|)x₂} below the truncation depth, which is
exact for harmonic-extension-type fields).

The check_* functions turn the product rule, power rule, interpolation,
composition and trace inequalities into InequalityReport values with the
explicit constants 𝓀_q and K_{r,s,n}, at the relative slack DEFAULT_SLACK
(QUADRATURE_SLACK for the trace inequality, which integrates in depth).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericsError
from .geometry import StripField
from .spectral import (SpectrumField, lam, mode_multiplicity, pointwise_apply,
                       pointwise_power, pointwise_product, reciprocal_guard,
                       stored_modes)

DEFAULT_SLACK = 1e-9          # analytic checks
QUADRATURE_SLACK = 1e-6       # checks involving depth quadrature


@dataclass(frozen=True)
class NormSpec:
    """Regularity index s, analyticity width λ, vertical derivative count k."""

    s: float = 0.0
    lam: float = 0.0
    k: int = 0

    def __post_init__(self):
        if self.s < 0 or self.lam < 0:
            raise ConfigurationError(f"s and lambda must be >= 0: {self}")
        if self.k not in (0, 1, 2, 3):
            raise ConfigurationError(f"k must be in 0..3, got {self.k}")


@dataclass(frozen=True)
class InequalityReport:
    lhs: float
    rhs: float
    constant_used: float
    holds: bool
    margin: float

    @staticmethod
    def compare(lhs: float, rhs: float, constant: float,
                slack: float = DEFAULT_SLACK) -> "InequalityReport":
        holds = lhs <= rhs * (1.0 + slack) + 1e-300
        return InequalityReport(lhs=lhs, rhs=rhs, constant_used=constant,
                                holds=holds, margin=rhs - lhs)


@lru_cache(maxsize=32)
def _weights(n_modes: int, s: float, lam_: float) -> np.ndarray:
    """(1+|n|)^s e^{λ|n|} of the stored modes, multiplicity included, for
    the boundary and the strip norm (shared, read-only)."""
    n = stored_modes(n_modes).astype(float)
    w = mode_multiplicity(n_modes) * (1.0 + n) ** s * np.exp(lam_ * n)
    w.setflags(write=False)
    return w


def wiener_norm(f: SpectrumField, spec: NormSpec) -> float:
    a = np.abs(f.coeffs)
    if not np.all(np.isfinite(a)):
        raise NumericsError("non-finite coefficient in wiener_norm")
    return float(np.sum(_weights(f.n_modes, spec.s, spec.lam) * a))


def sobolev_norm(f: SpectrumField, s: float) -> float:
    a = np.abs(f.coeffs)
    if not np.all(np.isfinite(a)):
        raise NumericsError("non-finite coefficient in sobolev_norm")
    w = 1.0 + f.modes.astype(float) ** s
    return float(np.sqrt(np.sum(mode_multiplicity(f.n_modes) * (w * a) ** 2)))


def strip_norm_report(u: StripField, spec: NormSpec, acc: int = 4) -> tuple[float, float]:
    """(norm, tail_estimate): quadrature on [−L_d,0] plus the modeled tail."""
    if spec.k == 0:
        d = u.coeffs
    else:
        d = u.deriv_z(spec.k, acc=acc).coeffs
    a = np.abs(d)
    if not np.all(np.isfinite(a)):
        raise NumericsError("non-finite value in strip_norm")
    grid = u.grid
    per_mode = np.trapezoid(a, dx=grid.dz, axis=1)
    tail_per_mode = a[:, 0] / np.maximum(grid.modes.astype(float), 1.0)
    w = _weights(grid.n_modes, spec.s, spec.lam)
    tail = float(np.sum(w * tail_per_mode))
    return float(np.sum(w * per_mode)) + tail, tail


def strip_norm(u: StripField, spec: NormSpec, acc: int = 4) -> float:
    return strip_norm_report(u, spec, acc=acc)[0]


# ---------------------------------------------------------------------------
# explicit constants

def constant_k(q: float) -> float:
    """𝓀_q = 1 on [0,1], 2^q above."""
    if q < 0:
        raise ConfigurationError(f"q must be >= 0, got {q}")
    return 1.0 if q <= 1.0 else 2.0 ** q


def constant_K(r: float, s: float, n: int) -> float:
    """Power-rule constant K_{r,s,n}: n when 𝓀_r𝓀_s = 1, else the geometric sum."""
    if n < 2:
        raise ConfigurationError(f"power-rule constant needs n >= 2, got {n}")
    c = constant_k(r) * constant_k(s)
    if c == 1.0:
        return float(n)
    return c * (c ** (n - 1) - 1.0) / (c - 1.0)


# ---------------------------------------------------------------------------
# composition with G(x) = x/(1+x)

def compose_G(v: SpectrumField) -> SpectrumField:
    """Pointwise x/(1+x), evaluated in physical space and re-projected;
    raises SingularityError where a sample of 1 + x is <= 0."""
    guard = reciprocal_guard()
    return pointwise_apply(lambda x: x / (1.0 + x), v,
                           guard=lambda x: guard(1.0 + x))


# ---------------------------------------------------------------------------
# lemma suite

def check_product_rule(f: SpectrumField, g: SpectrumField, r: float, s: float,
                       lam_: float) -> InequalityReport:
    """|Λʳ(fg)|_{s,λ} <= 𝓀_s𝓀_r (|f|_{0,λ}|Λʳg|_{s,λ} + |Λʳf|_{s,λ}|g|_{0,λ}).

    At r = s = 0 the improved algebra bound |fg|_{0,λ} <= |f|_{0,λ}|g|_{0,λ}
    is used instead.
    """
    lhs = wiener_norm(lam(pointwise_product(f, g), r), NormSpec(s, lam_))
    zero = NormSpec(0.0, lam_)
    if r == 0.0 and s == 0.0:
        rhs = wiener_norm(f, zero) * wiener_norm(g, zero)
        return InequalityReport.compare(lhs, rhs, 1.0)
    c = constant_k(s) * constant_k(r)
    rhs = c * (wiener_norm(f, zero) * wiener_norm(lam(g, r), NormSpec(s, lam_)) +
               wiener_norm(lam(f, r), NormSpec(s, lam_)) * wiener_norm(g, zero))
    return InequalityReport.compare(lhs, rhs, c)


def check_power_rule(v: SpectrumField, r: float, s: float, lam_: float,
                     n: int) -> InequalityReport:
    """|Λʳ(vⁿ)|_{s,λ} <= K_{r,s,n} |v|_{0,λ}^{n−1} |Λʳv|_{s,λ}."""
    c = constant_K(r, s, n)
    lhs = wiener_norm(lam(pointwise_power(v, n), r), NormSpec(s, lam_))
    rhs = c * wiener_norm(v, NormSpec(0.0, lam_)) ** (n - 1) * \
        wiener_norm(lam(v, r), NormSpec(s, lam_))
    return InequalityReport.compare(lhs, rhs, c)


def check_interpolation(v: SpectrumField, s1: float, s2: float, theta: float,
                        lam_: float) -> InequalityReport:
    """|v|_{sθ,λ} <= |v|_{s1,λ}^θ |v|_{s2,λ}^{1−θ} with sθ = θs1 + (1−θ)s2."""
    if not 0.0 <= theta <= 1.0 or s1 > s2:
        raise ConfigurationError("need 0 <= theta <= 1 and s1 <= s2")
    s_theta = theta * s1 + (1.0 - theta) * s2
    lhs = wiener_norm(v, NormSpec(s_theta, lam_))
    rhs = wiener_norm(v, NormSpec(s1, lam_)) ** theta * \
        wiener_norm(v, NormSpec(s2, lam_)) ** (1.0 - theta)
    return InequalityReport.compare(lhs, rhs, 1.0)


def check_zero_mean_interpolation(f: SpectrumField, s: float,
                                  lam_: float) -> InequalityReport:
    """|f|_{s,λ} <= 2^{1+s/(s+1)} |f|_{0,λ}^{1/(s+1)} |Λf|_{s,λ}^{s/(s+1)} (zero mean)."""
    scale = np.max(np.abs(f.coeffs), initial=0.0)
    if scale > 0 and abs(f.coeffs[0]) > 1e-12 * scale:
        raise ConfigurationError("interpolation estimate requires zero-mean input")
    c = 2.0 ** (1.0 + s / (s + 1.0))
    lhs = wiener_norm(f, NormSpec(s, lam_))
    rhs = c * wiener_norm(f, NormSpec(0.0, lam_)) ** (1.0 / (s + 1.0)) * \
        wiener_norm(lam(f), NormSpec(s, lam_)) ** (s / (s + 1.0))
    return InequalityReport.compare(lhs, rhs, c)


def check_composition(v: SpectrumField, s: float, lam_: float) -> InequalityReport:
    """|G∘v|_{s,λ} <= |v|_{s,λ} / (1 − 𝓀_s|v|_{0,λ}) for |v|_{0,λ} < min(1, 1/𝓀_s)."""
    ks = constant_k(s)
    v0 = wiener_norm(v, NormSpec(0.0, lam_))
    if v0 >= min(1.0, 1.0 / ks):
        raise ConfigurationError(
            f"composition bound needs |v|_0,λ < min(1, 1/k_s); got {v0:.3f}")
    lhs = wiener_norm(compose_G(v), NormSpec(s, lam_))
    rhs = wiener_norm(v, NormSpec(s, lam_)) / (1.0 - ks * v0)
    return InequalityReport.compare(lhs, rhs, ks)


def check_composition_corrected(v: SpectrumField, s: float,
                                lam_: float) -> InequalityReport:
    """|G∘v|_{s,λ} <= |v|_{s,λ} / [(1 − 𝓀_s|v|₀,λ)(1 − |v|₀,λ)].

    The extra (1 − |v|₀,λ) factor follows from summing the alternating series
    G(v) = Σ (−1)^{m+1} vᵐ with the power-rule constants K_{0,s,m} (for
    s <= 1, K = m and the sum is 1/(1−x)²; for s > 1 the geometric-sum K
    gives the displayed product).  The plain 1/(1 − 𝓀_s|v|₀,λ) version fails
    numerically, e.g. for v = 0.1·cos x₁ at s = 1.
    """
    ks = constant_k(s)
    v0 = wiener_norm(v, NormSpec(0.0, lam_))
    if v0 >= min(1.0, 1.0 / ks):
        raise ConfigurationError(
            f"composition bound needs |v|_0,λ < min(1, 1/k_s); got {v0:.3f}")
    lhs = wiener_norm(compose_G(v), NormSpec(s, lam_))
    rhs = wiener_norm(v, NormSpec(s, lam_)) / ((1.0 - ks * v0) * (1.0 - v0))
    return InequalityReport.compare(lhs, rhs, ks)


def check_trace_inequality(u: StripField, s: float, lam_: float) -> InequalityReport:
    """|u|_{x₂=0}|_{s,λ} <= ‖u‖_{s,k=1,λ} (continuity of the trace)."""
    lhs = wiener_norm(u.trace(), NormSpec(s, lam_))
    rhs = strip_norm(u, NormSpec(s, lam_, k=1))
    return InequalityReport.compare(lhs, rhs, 1.0, QUADRATURE_SLACK)
