"""Periodic Fourier representation of real fields.

A real 2π-periodic function v(x₁) has Hermitian coefficients,
v̂(−n) = conj v̂(n), so its modes 0..N/2−1 fix it (the Nyquist mode n = −N/2,
unpaired for even N, is zero, so every multiplier m(n) acts on a symmetric
mode set).  Every real field stores only those modes along axis 0: a
boundary `SpectrumField` has coeffs (N/2,), a strip field
(`geometry.StripField`, one spectrum per depth node) coeffs (N/2, N_z).
Sums over the full spectrum weight the stored modes by `mode_multiplicity`.
The full numpy FFT layout, coeffs (N,), appears only where data cross the
program's edge: the `SpectrumField` constructor reads it, and the snapshot
writer writes it with `hermitian_fill`.

Both kinds of real field share the arithmetic, fixed multipliers, sampling
and projection below, all along the mode axis: values come from the stored
modes by `irfft`, samples go back by `rfft`, and each kind rebuilds itself
from the transform's modes 0..N/2−1 through `_from_half`.

Fourier-multiplier operators (Λ = |n|, ∂₁ = in, ∂₁², heat kernel e^{−κn²})
act diagonally on the coefficients.  Every pointwise nonlinearity is
evaluated the same way: `values_stack` samples its fields on the
`pad_size(N, degree)` grid, the formula acts on the samples, and
`project_stack` takes the result back to N modes.  On (degree+1)·N/2 points
a polynomial of that degree in fields with modes |n| <= N/2−1 aliases onto
no retained mode, so every retained mode is exact (Orszag's rule; degree 2
is the two-thirds rule).  Rational factors such as 1/(1+Λh) are sampled as
degree 3 by convention.

The φ₂ sweep's flux −Q∇φ, in a depth block that keeps the modes below K,
multiplies by −Q as `geometry.build_geometry` sampled it on the flux's own
pad_size(2K, 2) grid, its rational entry Q²₂ not projected first.  A kept
mode then misses only aliased terms q̂(k)û(l) with |k| + |l| > 2K, not every
term with |k| >= K: about e^{−2ρK} in place of e^{−ρK} for spectra decaying
like e^{−ρ|n|} (Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 11).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, NumericsError, SingularityError


def _check_n_modes(n_modes: int) -> None:
    if n_modes < 4 or n_modes % 2 != 0:
        raise ConfigurationError(
            f"n_modes must be even and >= 4, got {n_modes}")


LAYOUT_TOL = 1e-12   # relative Hermitian defect the constructor accepts


@lru_cache(maxsize=None)
def stored_modes(n_modes: int) -> np.ndarray:
    """The modes 0..N/2−1 a real field stores (shared, read-only)."""
    n = np.arange(n_modes // 2)
    n.setflags(write=False)
    return n


@lru_cache(maxsize=None)
def mode_multiplicity(n_modes: int) -> np.ndarray:
    """How often each stored mode 0..N/2−1 occurs in the full spectrum: 1 for
    mode 0, 2 for ±n (the Nyquist mode is zero).  A sum over the full
    spectrum of a quantity even in n is this weighted sum over the stored
    modes (shared, read-only)."""
    w = np.full(n_modes // 2, 2.0)
    w[0] = 1.0
    w.setflags(write=False)
    return w


class RealField:
    """Arithmetic of a real field whose coeffs hold the modes 0..N/2−1 along
    axis 0; subclasses define `_like(coeffs)`, a field of the same kind and
    grid that adopts coeffs, a fresh array in its own storage, without a
    copy."""

    coeffs: np.ndarray

    @property
    def n_modes(self) -> int:
        return 2 * self.coeffs.shape[0]

    @property
    def modes(self) -> np.ndarray:
        return stored_modes(self.n_modes)

    def _from_half(self, half: np.ndarray) -> "RealField":
        """A field of the same kind and grid from the modes 0..N/2−1 along
        axis 0 of half (extra rows ignored), copied."""
        return self._like(half[:self.coeffs.shape[0]].copy())

    def __add__(self, other):
        return self._like(self.coeffs + other.coeffs)

    def __sub__(self, other):
        return self._like(self.coeffs - other.coeffs)

    def __mul__(self, scalar: float):
        return self._like(self.coeffs * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.coeffs)


@dataclass(frozen=True)
class SpectrumField(RealField):
    """Real periodic function of x₁ stored as Fourier coefficients.

    coeffs[n] is v̂(n) for the modes n = 0..N/2−1.  The constructor takes
    the full numpy FFT layout (N,) of a real field, v̂(n) at index n mod N,
    and keeps its modes 0..N/2−1.  It raises ConfigurationError when the
    Nyquist entry is nonzero or the negative modes are not the conjugates of
    the positive ones, beyond LAYOUT_TOL·max|v̂|, as for a half spectrum
    passed by mistake.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        full = np.asarray(self.coeffs, dtype=np.complex128)
        _check_n_modes(full.size)
        half = full[:full.size // 2]
        with np.errstate(invalid="ignore"):     # inf − inf: the norms reject it
            defect = np.max(np.abs(full - hermitian_fill(half)))
        if defect > LAYOUT_TOL * np.max(np.abs(full)):
            raise ConfigurationError(
                f"coefficients of {full.size} modes are not the FFT layout of a "
                f"real field (Hermitian defect {defect:.3e})")
        object.__setattr__(self, "coeffs", half.copy())

    def _like(self, coeffs: np.ndarray) -> "SpectrumField":
        return _adopt(SpectrumField, coeffs)


def _adopt(cls: type, coeffs: np.ndarray, **attrs) -> RealField:
    """A cls field that holds coeffs itself, not a copy, plus attrs: for a
    fresh complex array of the right shape (not checked) that nothing else
    writes while the field is in use."""
    f = object.__new__(cls)
    object.__setattr__(f, "coeffs", coeffs)
    for name, value in attrs.items():
        object.__setattr__(f, name, value)
    return f


def zero_field(n_modes: int) -> SpectrumField:
    _check_n_modes(n_modes)
    return _adopt(SpectrumField, np.zeros(n_modes // 2, dtype=np.complex128))


def cosine(n: int, amplitude: float, n_modes: int, phase: float = 0.0) -> SpectrumField:
    """a·cos(n x₁ + φ) as a spectrum (coefficients a e^{±iφ}/2 at ±n)."""
    _check_n_modes(n_modes)
    if not 0 <= n < n_modes // 2:
        raise ConfigurationError(f"mode {n} not representable with N={n_modes}")
    c = np.zeros(n_modes // 2, dtype=np.complex128)
    c[n] = amplitude * np.cos(phase) if n == 0 else 0.5 * amplitude * np.exp(1j * phase)
    return _adopt(SpectrumField, c)


def sine(n: int, amplitude: float, n_modes: int) -> SpectrumField:
    return cosine(n, amplitude, n_modes, phase=-np.pi / 2.0)


def hermitian_fill(half: np.ndarray) -> np.ndarray:
    """Full FFT-layout coefficients (N, ...) of a real field from its modes
    0..N/2−1 along axis 0: the modes as given, a zero Nyquist row, and the
    conjugates of the modes N/2−1..1 in the negative slots."""
    k = half.shape[0]
    out = np.empty((2 * k,) + half.shape[1:], dtype=np.complex128)
    out[:k] = half
    out[k] = 0.0
    np.conjugate(half[k - 1:0:-1], out=out[k + 1:])
    return out


def pad_size(n_modes: int, degree: int) -> int:
    """Sampling grid of a degree-p nonlinearity: (p+1)·N/2 points, made even.

    A product of p fields with modes |n| <= K = N/2−1 aliases onto no
    retained mode once m >= (p+1)K + 1, which (p+1)(K+1) exceeds by p
    points.  Rational factors are sampled as degree 3.
    """
    m = (degree + 1) * (n_modes // 2)
    return m + (m % 2)


def values_on_grid(f: RealField, m: int | None = None) -> np.ndarray:
    """Real samples of f on an m-point uniform grid (default: its own grid)."""
    m = f.n_modes if m is None else m
    return values_stack([f], m)[0]


def values_stack(fields: Sequence[RealField], m: int) -> np.ndarray:
    """Samples of real fields of one kind and grid on one m-point grid
    (m >= N): shape (len(fields), m), or (len(fields), m, N_z) for strips.

    One batched `irfft` of the stored modes along the last axis of a
    depth-major buffer; strip samples are a view with the depth axis last.
    Entry i equals values_on_grid(fields[i], m).
    """
    c0 = fields[0].coeffs
    k = c0.shape[0]
    half = np.zeros((len(fields),) + c0.shape[1:] + (m // 2 + 1,), dtype=np.complex128)
    for block, f in zip(half, fields):
        block[..., :k] = f.coeffs.T
    return np.fft.irfft(half, n=m, axis=-1, norm="forward").swapaxes(1, -1)


def project(samples: np.ndarray, like: RealField) -> RealField:
    """Projection of real samples (m, ...) onto the modes of like's kind and
    grid; project_stack of one field."""
    return project_stack([samples], like)[0]


def project_stack(samples: Sequence[np.ndarray], like: RealField) -> list[RealField]:
    """Fields of like's kind and grid from real samples, each of shape (m,)
    or (m, N_z), on an m-point grid (m even, m >= N).

    One batched `rfft` along the sample axis, whose modes 0..N/2−1 each kind
    keeps through `_from_half`.  Strip samples are stacked depth-major, the
    memory order `values_stack` and the pointwise formulas leave them in, so
    the stack is a plain copy and every transformed line is contiguous.
    Entry i equals project(samples[i], like).
    """
    stack = np.array([s.T for s in samples]).swapaxes(1, -1)
    c = np.fft.rfft(stack, axis=1, norm="forward")
    return [like._from_half(ci) for ci in c]


def _symbol_values(symbol: Callable[[np.ndarray], np.ndarray],
                   modes: np.ndarray) -> np.ndarray:
    """The symbol on the modes, checked finite; real symbols stay real."""
    m = np.asarray(symbol(modes))
    if not np.all(np.isfinite(m)):
        bad = modes[~np.isfinite(m)]
        raise NumericsError(f"multiplier not finite at mode(s) {bad[:5].tolist()}")
    return m


# symbols of the fixed multipliers below, as functions of (modes, parameter)
_SYMBOLS: dict[str, Callable[[np.ndarray, float], np.ndarray]] = {
    "lam": lambda n, r: np.power(n.astype(float), r),
    "dx": lambda n, _: 1j * n,
    "dxx": lambda n, _: -(n.astype(float) ** 2),
    "mollify": lambda n, kappa: np.exp(-kappa * n.astype(float) ** 2),
}


@lru_cache(maxsize=256)
def _fixed_symbol(kind: str, n_modes: int, param: float, ndim: int) -> np.ndarray:
    """Checked symbol of a fixed multiplier on the stored modes 0..N/2−1,
    built once per (kind, N, param), shaped (N/2, 1, ...) to broadcast over
    the depth axis of ndim-d coeffs."""
    m = _symbol_values(lambda n: _SYMBOLS[kind](n, param), stored_modes(n_modes))
    m = m.reshape((n_modes // 2,) + (1,) * (ndim - 1))
    m.setflags(write=False)
    return m


def _apply_fixed(f: RealField, kind: str, param: float = 0.0) -> RealField:
    c = f.coeffs
    return f._like(_fixed_symbol(kind, f.n_modes, param, c.ndim) * c)


def lam(f: RealField, power: float = 1.0) -> RealField:
    """Calderon operator Λ^r, the multiplier |n|^r (with 0^r = 0 for r > 0);
    on a harmonic extension e^{x₂Λ}v it is the vertical derivative ∂₂ʳ."""
    return _apply_fixed(f, "lam", power)


def dx(f: RealField) -> RealField:
    """Tangential derivative ∂₁, multiplier in."""
    return _apply_fixed(f, "dx")


def dxx(f: RealField) -> RealField:
    """Second tangential derivative ∂₁², multiplier −n²."""
    return _apply_fixed(f, "dxx")


def mollify(f: RealField, kappa: float) -> RealField:
    """Periodic heat-kernel smoothing, multiplier e^{−κn²}; κ=0 is identity."""
    if kappa < 0:
        raise ConfigurationError(f"mollification strength must be >= 0, got {kappa}")
    if kappa == 0.0:
        return f
    return _apply_fixed(f, "mollify", kappa)


def pointwise_product(f: SpectrumField, g: SpectrumField) -> SpectrumField:
    """Dealiased product: the retained modes equal the projection of f·g."""
    if f.n_modes != g.n_modes:
        raise ConfigurationError(
            f"mode-count mismatch: {f.n_modes} vs {g.n_modes}")
    fv, gv = values_stack([f, g], pad_size(f.n_modes, 2))
    return project(fv * gv, f)


def pointwise_power(f: SpectrumField, n: int) -> SpectrumField:
    """Dealiased integer power fⁿ, sampled as degree n."""
    if n < 1:
        raise ConfigurationError(f"power must be >= 1, got {n}")
    return project(values_on_grid(f, pad_size(f.n_modes, n)) ** n, f)


def pointwise_apply(func: Callable[..., np.ndarray],
                    *fields: SpectrumField,
                    guard: Callable[[np.ndarray], None] | None = None) -> SpectrumField:
    """Evaluate func on padded physical samples of the fields and re-project.

    Used for the rational nonlinearities (1/(1+Λh) and friends), which are
    evaluated pointwise rather than by their geometric series and sampled as
    degree 3.  `guard`, if given, sees the sample arrays before evaluation
    and may raise.
    """
    samples = values_stack(fields, pad_size(fields[0].n_modes, 3))
    if guard is not None:
        guard(*samples)
    return project(func(*samples), fields[0])


def reciprocal_guard(threshold: float = 0.0):
    """Guard raising SingularityError where samples are <= threshold."""

    def _guard(values: np.ndarray, *_rest: np.ndarray) -> None:
        j = int(np.argmin(values))
        if values[j] <= threshold:
            x = 2.0 * np.pi * j / values.size
            raise SingularityError(
                f"denominator {values[j]:.3e} <= {threshold:g} at x1={x:.4f}")

    return _guard
