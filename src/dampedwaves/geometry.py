"""Flattening diffeomorphism and geometric tensors on the half-strip.

The reference domain is Ω = 𝕋 × (−∞, 0], truncated to [−L_d, 0] on a uniform
depth grid.  Given an interface b (the boundary trace used for flattening),
δψ is its harmonic extension, ψ = e + (0, δψ), and

    J = 1 + δψ,₂
    A = (∇ψ)⁻¹ = (1/J) [[J, 0], [−δψ,₁, 1]]
    Q = J A Aᵀ − Id = [[δψ,₂, −δψ,₁], [−δψ,₁, ((δψ,₁)² − δψ,₂)/J]]

Everything is stored mode-wise; derivatives of the harmonic extension are
the shared multipliers `spectral.dx` (in) and `spectral.lam` (|n|), and
finite-difference stencils are reserved for residual checks.  A strip field
is real, so, like a boundary field, it stores only the modes 0..N/2−1: it is
a stack of half spectra, one per depth node, coeffs (N/2, N_z), and its
trace is the boundary field of its top row.  Its arithmetic, multipliers
(`spectral.lam`, `dx`, ...), sampling (`spectral.values_stack`), projection
(`spectral.project_stack`) and full-spectrum weights
(`spectral.mode_multiplicity`) are the boundary fields' own, from
`spectral`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DiffeomorphismError
from .spectral import (RealField, SpectrumField, _adopt, _check_n_modes, dx,
                       lam, pad_size, project_stack, stored_modes, values_on_grid,
                       values_stack)


@dataclass(frozen=True)
class StripGrid:
    """Truncated half-strip discretization: N modes × N_z depth nodes."""

    n_modes: int
    depth: float = 8.0
    n_depth: int = 257

    def __post_init__(self):
        _check_n_modes(self.n_modes)
        if self.depth <= 0:
            raise ConfigurationError(f"depth must be positive, got {self.depth}")
        if self.n_depth < 8:
            raise ConfigurationError(f"n_depth must be >= 8, got {self.n_depth}")

    @property
    def z(self) -> np.ndarray:
        """Depth nodes from −L_d up to 0 (boundary last; shared, read-only)."""
        return _depth_nodes(self.depth, self.n_depth)

    @property
    def dz(self) -> float:
        return self.depth / (self.n_depth - 1)

    @property
    def modes(self) -> np.ndarray:
        """The modes a strip field stores, 0..N/2−1 (shared, read-only)."""
        return stored_modes(self.n_modes)


@dataclass(frozen=True)
class StripField(RealField):
    """Scalar field on the strip, one Fourier row per stored mode.

    coeffs has shape (n_modes // 2, n_depth): the modes 0..N/2−1 at every
    depth node.
    """

    grid: StripGrid
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128)  # own copy
        if c.shape != (self.grid.n_modes // 2, self.grid.n_depth):
            raise ConfigurationError(
                f"coeff shape {c.shape} does not match grid "
                f"({self.grid.n_modes // 2}, {self.grid.n_depth})")
        object.__setattr__(self, "coeffs", c)

    def _like(self, coeffs: np.ndarray) -> "StripField":
        return _adopt(StripField, coeffs, grid=self.grid)

    def trace(self) -> SpectrumField:
        """Boundary values at x₂ = 0."""
        return _adopt(SpectrumField, self.coeffs[:, -1].copy())

    def deriv_z(self, order: int = 1, acc: int = 4) -> "StripField":
        """Vertical derivative by finite differences (residual checks only)."""
        d = fd_derivative(self.coeffs, self.grid.dz, order, acc)
        return StripField(self.grid, d)


@lru_cache(maxsize=None)
def _depth_nodes(depth: float, n_depth: int) -> np.ndarray:
    z = np.linspace(-depth, 0.0, n_depth)
    z.setflags(write=False)
    return z


def zero_strip(grid: StripGrid) -> StripField:
    return StripField(grid, np.zeros((grid.n_modes // 2, grid.n_depth), dtype=np.complex128))


# ---------------------------------------------------------------------------
# finite-difference stencils (Fornberg weights on a uniform grid)

def fornberg_weights(x0: float, xs: np.ndarray, m: int) -> np.ndarray:
    """Weights of the m-th derivative at x0 from nodes xs (Fornberg 1988)."""
    n = len(xs)
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = xs[0] - x0
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = xs[i] - x0
        for j in range(i):
            c3 = xs[i] - xs[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m].copy()


@lru_cache(maxsize=None)
def _stencil_table(n_nodes: int, deriv: int, acc: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row stencil offsets and weights (unit spacing) for a uniform grid.

    Returns (offsets, weights) with shapes (n_nodes, width); centered in the
    interior, one-sided near the ends.
    """
    width = deriv + acc
    if width % 2 == 0:
        width += 1
    if n_nodes < width:
        raise ConfigurationError(
            f"grid with {n_nodes} nodes too coarse for derivative {deriv} at order {acc}")
    half = width // 2
    offsets = np.empty((n_nodes, width), dtype=int)
    weights = np.empty((n_nodes, width))
    for i in range(n_nodes):
        start = min(max(i - half, 0), n_nodes - width)
        offs = np.arange(start, start + width) - i
        offsets[i] = offs
        weights[i] = fornberg_weights(0.0, offs.astype(float), deriv)
    return offsets, weights


def fd_derivative(values: np.ndarray, dz: float, deriv: int, acc: int = 4) -> np.ndarray:
    """Finite-difference z-derivative along the last axis."""
    n = values.shape[-1]
    offsets, weights = _stencil_table(n, deriv, acc)
    idx = offsets + np.arange(n)[:, None]
    out = np.einsum("...nw,nw->...n", values[..., idx.ravel()].reshape(
        values.shape[:-1] + idx.shape), weights)
    return out / dz ** deriv


# ---------------------------------------------------------------------------
# harmonic extension and geometry

@lru_cache(maxsize=16)
def extension_profile(grid: StripGrid) -> np.ndarray:
    """e^{|n|x₂} on the stored modes, shape (n_modes // 2, n_depth) (shared,
    read-only)."""
    prof = np.exp(grid.modes.astype(float)[:, None] * grid.z[None, :])
    prof.setflags(write=False)
    return prof


def harmonic_extension(h: SpectrumField, grid: StripGrid) -> StripField:
    """The decaying solution of Δδψ = 0 on the strip with trace h,
    δψ̂(n,x₂) = e^{|n|x₂}ĥ(n); its derivatives ∂₁ and ∂₂ are dx and lam."""
    if h.n_modes != grid.n_modes:
        raise ConfigurationError("interface and grid mode counts differ")
    return StripField(grid, extension_profile(grid) * h.coeffs[:, None])


# ---------------------------------------------------------------------------
# depth blocks: the modes above round-off at each depth

ROUNDOFF_EXPONENT = 42.0    # a block drops mode n at depth z only where n·|z| exceeds
                            # this: e^{−42} ≈ 6e-19 of the top size, under round-off


@lru_cache(maxsize=16)
def _depth_blocks(grid: StripGrid) -> tuple[tuple[int, int, int], ...]:
    """Contiguous depth-row blocks (start, stop, K), bottom up, that cover
    the rows: a block's pointwise products (Q²₂ in build_geometry, the
    forcing of a φ₂ sweep) keep the modes 0..K−1.  Each row takes the
    smallest cap K of N/2, N/4, … (K >= 4) with K·|z| > ROUNDOFF_EXPONENT,
    and N/2 when there is none, so every dropped (n, z) has
    n·|z| > ROUNDOFF_EXPONENT and the caps grow towards the top.

    Every such product is built from harmonic extensions, so its mode n at
    depth z is of size e^{n·z} against its top value: a dropped entry is
    under e^{−42} of the largest, far below its ulp."""
    depth = -grid.z
    cap = np.full(grid.n_depth, grid.n_modes // 2)
    k = grid.n_modes // 4
    while k >= 4:
        cap[k * depth > ROUNDOFF_EXPONENT] = k
        k //= 2
    edges = [0, *(np.flatnonzero(np.diff(cap)) + 1).tolist(), grid.n_depth]
    return tuple((lo, hi, int(cap[lo])) for lo, hi in zip(edges[:-1], edges[1:]))


def block_values(fields: Sequence[StripField], lo: int, hi: int, cap: int,
                 degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Samples of the depth rows lo:hi of strip fields from their modes
    0..cap−1, on the m = pad_size(2·cap, degree) grid of a product of that
    degree in such fields: (half, values), the zero-padded half spectra
    (len(fields), hi − lo, m/2 + 1) and the real samples (len(fields),
    hi − lo, m), depth-major.  With cap = N/2 every row's samples are those
    of values_stack at pad_size(N, degree), bit for bit."""
    m = pad_size(2 * cap, degree)
    half = np.zeros((len(fields), hi - lo, m // 2 + 1), dtype=np.complex128)
    for plane, f in zip(half, fields):
        plane[:, :cap] = f.coeffs[:cap, lo:hi].T
    return half, np.fft.irfft(half, n=m, axis=-1, norm="forward")


@dataclass(frozen=True)
class GeometryBundle:
    """δψ's derivatives and the tensors J, A, Q = JAAᵀ − Id of one interface.

    Only Q²₂ is projected at build time, per depth block (_depth_blocks):
    a block of cap K samples δψ,₁ and δψ,₂ from their modes < K on 4K
    points and keeps Q²₂'s modes < K, so Q²₂'s entries at n·|x₂| >
    ROUNDOFF_EXPONENT are exactly 0.  Q¹₁ and Q¹₂ are derived on read, the
    A row only by identity_defect.  A¹₁ ≡ 1 and A¹₂ ≡ 0 are not
    materialized.
    diffeo_margin is the minimum of J over the blocks' sampling grids.  By
    the maximum principle it lies on the top row, which the top block
    samples on the full pad_size(N, 3) grid; admissible states keep it
    positive.
    """

    grid: StripGrid
    boundary: SpectrumField          # the trace the flattening was built from
    dpsi1: StripField                # δψ,₁
    dpsi2: StripField                # δψ,₂  (= J − 1, analytic)
    q22: StripField                  # Q²₂ = ((δψ,₁)² − δψ,₂)/J
    diffeo_margin: float

    @property
    def q11(self) -> StripField:     # Q¹₁ = δψ,₂
        return self.dpsi2

    @property
    def q12(self) -> StripField:     # Q¹₂ = Q²₁ = −δψ,₁
        return -self.dpsi1

    def _a_row(self) -> list[StripField]:
        """The A row (A²₁, A²₂) = (−δψ,₁, 1) / J."""
        d1, d2 = values_stack([self.dpsi1, self.dpsi2], pad_size(self.grid.n_modes, 3))
        j = 1.0 + d2
        return project_stack([-d1 / j, 1.0 / j], self.dpsi1)


def build_geometry(h: SpectrumField, grid: StripGrid,
                   margin_min: float = 0.1) -> GeometryBundle:
    """Geometry bundle for the flattening built from interface trace h.

    Raises DiffeomorphismError when min(1 + δψ,₂) <= margin_min, mirroring
    the smallness requirement that makes ψ injective.
    """
    psi = harmonic_extension(h, grid)
    dpsi1, dpsi2 = dx(psi), lam(psi)
    del psi                               # freed before sampling: peak memory

    blocks = [(lo, hi, cap, *block_values([dpsi1, dpsi2], lo, hi, cap, 3)[1])
              for lo, hi, cap in _depth_blocks(grid)]
    js = [1.0 + d2 for *_, d2 in blocks]
    margin = float(min(np.min(j) for j in js))
    if margin <= margin_min:
        raise DiffeomorphismError(
            f"not a diffeomorphism at this amplitude: min J = {margin:.4f} "
            f"<= margin_min = {margin_min:g}")

    q22 = np.zeros_like(dpsi1.coeffs)     # a block's modes >= K stay 0
    for (lo, hi, cap, d1, d2), j in zip(blocks, js):
        q = np.fft.rfft((d1 * d1 - d2) / j, axis=-1, norm="forward")
        q22[:cap, lo:hi] = q[:, :cap].T
    return GeometryBundle(grid=grid, boundary=h, dpsi1=dpsi1, dpsi2=dpsi2,
                          q22=dpsi1._like(q22), diffeo_margin=margin)


def identity_defect(bundle: GeometryBundle) -> float:
    """Max-norm residual of A·∇ψ = Id over the physical grid.

    Row 1 is the identity exactly; row 2 gives the two nontrivial entries
    A²₁ + A²₂ δψ,₁ = 0 and A²₂ (1 + δψ,₂) = 1.
    """
    a21, a22, d1, d2 = values_stack([*bundle._a_row(), bundle.dpsi1, bundle.dpsi2],
                                    pad_size(bundle.grid.n_modes, 3))
    r21 = a21 + a22 * d1
    r22 = a22 * (1.0 + d2) - 1.0
    return float(max(np.max(np.abs(r21)), np.max(np.abs(r22))))


def check_piola(bundle: GeometryBundle) -> float:
    """Max residual of Piola's identity (J A^k_i),_k = 0.

    J A = [[J, 0], [−δψ,₁, 1]]; ∂₁ is spectral, ∂₂ uses the fourth-order FD
    stencil.  The i = 2 column is identically satisfied.
    """
    dj_dx = dx(bundle.dpsi2)                # ∂₁ J = ∂₁ δψ,₂
    d2_col = (-bundle.dpsi1).deriv_z(1)
    res = dj_dx + d2_col
    return float(np.max(np.abs(values_on_grid(res))))
