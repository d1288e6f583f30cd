"""Half-strip potential solver: closed-form linear part plus Picard correction.

The transformed potential problem splits as φ = φ₁ + φ₂ where
φ₁ = e^{x₂Λ}ξ carries the Dirichlet data and φ₂ solves the divergence-form
problem Δφ₂ = −∇·(Q ∇(φ₁ + φ₂)) with zero trace, Q = JAAᵀ − Id.  φ₂ is the
fixed point of one Poisson solve per sweep, iterated as plain Picard while
it contracts fast and Anderson-mixed once it slows (solve_phi2).

The Poisson solver uses the periodic half-strip Green's kernels on the
stored modes n = 0..N/2−1 of the strip fields.  For a mode n > 0 and forcing
b = ∇·g, the textbook kernel solution is rewritten (by integrating the ∇·g
terms by parts) in a damped form whose kernels never grow, and ĝ₁, ĝ₂ enter
only through two combinations:

    φ̂(n,x₂)  = ½(E·U(0) − U − D)
    ∂₂φ̂(n,x₂) = ĝ₂ + (n/2)(E·U(0) + U − D)

with E = e^{nx₂}, the upward prefix U(x₂) = ∫_{−L}^{x₂} (iĝ₁ − ĝ₂)
e^{n(y−x₂)}dy and the downward prefix D(x₂) = ∫_{x₂}^0 (iĝ₁ + ĝ₂)
e^{n(x₂−y)}dy.  The two prefixes are product-trapezoid recursions (exact
exponential kernel against piecewise-linear data), O(N_z) per mode and
second-order accurate uniformly in n, run as one blocked scan: positive
exponents e^{θr} occur only inside a block, with θr <= SCAN_MAX_EXPONENT.
Mode 0 degenerates (the kernels carry 1/n) and is solved by direct
integration of ∂₂g₂.

Every field of a sweep is built from harmonic extensions, so mode n of the
forcing at depth x₂ is of size e^{n·x₂} against its top value.  The sweep
therefore forms g = −Q∇(φ₁+φ₂) in depth blocks (_depth_blocks): a block
keeps the modes below its cap K and multiplies on 3K points, and it drops
mode n at depth x₂ only where n·|x₂| > ROUNDOFF_EXPONENT = 42, a relative
size under e^{−42} ≈ 6e-19, far below one ulp of the largest entry.  −Q is
sampled per block from the interface b alone, δψ = e^{x₂Λ}b, as the
flattened problem fixes it.  The Poisson kernels are bounded by 1, so the
dropped entries move φ₂ by no more than round-off; a grid whose rows all
keep N/2 modes sweeps in one block, bitwise as a full-band sweep.

A solve starts from a given (φ₂, ∂₂φ₂): the stepper hands each solve the
solution of a nearby state, so that a warm solve takes about one sweep.
"""

from __future__ import annotations

import warnings
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, ContractionError
from .geometry import (GeometryBundle, StripField, StripGrid, extension_profile,
                       fd_derivative, harmonic_extension, zero_strip)
from .norms import NormSpec, strip_norm
from .spectral import (SpectrumField, _fixed_symbol, dx, dxx, lam,
                       mode_multiplicity, pad_size, project, project_stack,
                       values_stack)


def solve_phi1(xi: SpectrumField, grid: StripGrid) -> StripField:
    """Linear part φ₁ = e^{x₂Λ}ξ (flat-domain harmonic extension of ξ).

    Its vertical derivatives ∂₂ʲφ₁ are lam(φ₁, j).
    """
    return harmonic_extension(xi, grid)


def _product_trapezoid_weights(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Left/right node weights of ∫₀¹ f(u) e^{θ(u−1)} du for linear f.

    w0 = (1−e^{−θ})/θ² − e^{−θ}/θ,   w1 = 1/θ − (1−e^{−θ})/θ²,
    with series fallback below θ = 1e−3 to avoid cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    w0 = np.empty_like(theta)
    w1 = np.empty_like(theta)
    small = theta < 1e-3
    t = theta[small]
    w0[small] = 0.5 - t / 3.0 + t ** 2 / 8.0 - t ** 3 / 30.0
    w1[small] = 0.5 - t / 6.0 + t ** 2 / 24.0 - t ** 3 / 120.0
    t = theta[~small]
    em = np.exp(-t)
    w0[~small] = (1.0 - em) / t ** 2 - em / t
    w1[~small] = 1.0 / t - (1.0 - em) / t ** 2
    return w0, w1


SCAN_MAX_EXPONENT = 300.0   # bound on θ·(k − k₀) inside a scan block (overflow safety)


@lru_cache(maxsize=16)
def _scan_tables(grid: StripGrid) -> tuple[int, np.ndarray, np.ndarray, np.ndarray,
                                           np.ndarray]:
    """Per-grid constants of the blocked prefix scan at θ = n·dz, stored modes
    0..N/2−1: the block length B and, with r = k mod B the node's place in its
    block, the (N/2, N_z) tables ½dz·w0·e^{θr} and ½dz·w1·e^{θr} (zero at
    k = 0, where the scan starts from 0), e^{−θr}, and the block carry e^{−θB}."""
    theta = grid.modes.astype(float) * grid.dz     # n_modes >= 4, so θ_max > 0
    block = int(SCAN_MAX_EXPONENT // theta[-1]) + 1
    r = np.arange(grid.n_depth) % block
    growth = np.exp(theta[:, None] * r)
    growth[:, 0] = 0.0
    w0, w1 = (0.5 * grid.dz * w[:, None] for w in _product_trapezoid_weights(theta))
    return block, w0 * growth, w1 * growth, np.exp(-theta[:, None] * r), np.exp(-theta * block)


ROUNDOFF_EXPONENT = 42.0    # a block drops mode n at depth z only where n·|z| exceeds
                            # this: e^{−42} ≈ 6e-19 of the top size, under round-off


@lru_cache(maxsize=16)
def _depth_blocks(grid: StripGrid) -> tuple[tuple[int, int, int], ...]:
    """Contiguous depth-row blocks (start, stop, K), bottom up, that cover
    the rows: a block's sweep fluxes −Q∇(φ₁+φ₂) keep the modes 0..K−1.
    Each row takes the smallest cap K of N/2, N/4, … (K >= 4) with
    K·|z| > ROUNDOFF_EXPONENT, and N/2 when there is none, so every dropped
    (n, z) has n·|z| > ROUNDOFF_EXPONENT and the caps grow towards the top.

    Every such flux is built from harmonic extensions, so its mode n at
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


@dataclass(frozen=True)
class PoissonSolution:
    """Solution of Δφ = ∇·g with zero top trace and decaying bottom flux."""

    phi: StripField
    dzphi: StripField
    flux_flag: bool        # mode 0 had non-negligible g₂ at depth (no decaying solution)
    tail_defect: float     # relative size of g at the truncation depth

    @property
    def dz_trace(self) -> SpectrumField:
        return self.dzphi.trace()


def poisson_divform(g1: StripField, g2: StripField,
                    tail_tol: float = 1e-6) -> PoissonSolution:
    """Solve Δφ = ∇·(g₁, g₂) on the truncated strip; see module docstring."""
    grid = g1.grid
    if g2.grid != grid:
        raise ConfigurationError("g components live on different grids")
    n = grid.modes.astype(float)                 # 0..N/2−1, so |n| = n
    nz = grid.n_depth
    dz = grid.dz
    f1, f2 = g1.coeffs, g2.coeffs

    scale = max(np.max(np.abs(f1)), np.max(np.abs(f2)))
    tail = max(np.max(np.abs(f1[:, 0])), np.max(np.abs(f2[:, 0])))
    tail_defect = float(tail / scale) if scale > 0 else 0.0
    if tail_defect > tail_tol:
        warnings.warn(
            f"forcing has not decayed at depth -L_d (relative size {tail_defect:.2e}); "
            "truncation error exceeds tail_tol", stacklevel=2)

    # mode-major scan data: x[0] = iĝ₁ − ĝ₂ upward, x[1] = iĝ₁ + ĝ₂ depth-reversed
    block, w0, w1, shrink, carry = _scan_tables(grid)
    x = np.empty((2,) + f1.shape, dtype=np.complex128)
    np.multiply(f1, 1j, out=x[0])
    np.add(x[0], f2, out=x[1, :, ::-1])
    x[0] -= f2

    # ½U and ½D by one recursion S_k = e^{−θ}S_{k−1} + c_k, c_k the
    # product-trapezoid term of interval k, S_0 = 0, as a scan: in a block of
    # B nodes from k₀, S_k = e^{−θ(k−k₀)}T_k with the cumulative sum
    # T_k = e^{−θB}T_{k₀−1} + Σ_{k₀≤j≤k} e^{θ(j−k₀)}c_j
    s = np.empty_like(x)
    s[..., 0] = 0.0
    np.multiply(w0[:, 1:], x[..., :-1], out=s[..., 1:])
    x *= w1
    s += x
    for k0 in range(0, nz, block):
        blk = s[..., k0:k0 + block]
        if k0:
            blk[..., 0] += carry * s[..., k0 - 1]
        np.cumsum(blk, axis=-1, out=blk)
    s *= shrink
    su, sd = s[0], s[1, :, ::-1]

    phi = extension_profile(grid) * su[:, -1:]   # ½E·U(0)
    dzphi = phi + su
    dzphi -= sd
    dzphi *= n[:, None]
    dzphi += f2
    phi -= su
    phi -= sd

    # mode 0: φ'' = ∂₂ĝ₂ integrated directly with φ(0) = 0, φ' → ĝ₂ (decaying)
    g20 = f2[0, :]
    flux = abs(g20[0])
    flux_flag = bool(scale > 0 and flux > tail_tol * scale)
    if flux_flag:
        warnings.warn(
            f"mode 0 has nonzero net flux at depth ({flux:.2e}); "
            "no decaying solution exists", stacklevel=2)
    prim = np.zeros(nz, dtype=np.complex128)   # cumulative trapezoid, prim[0] = 0
    prim[1:] = np.cumsum(dz * (g20[1:] + g20[:-1]) / 2.0)
    phi[0, :] = prim - prim[-1]
    dzphi[0, :] = g20

    return PoissonSolution(phi=g1._like(phi), dzphi=g1._like(dzphi),
                           flux_flag=flux_flag, tail_defect=tail_defect)


# ---------------------------------------------------------------------------
# Picard iteration for the divergence-form correction, Anderson-mixed when slow

MIX_SWITCH_RATIO = 0.3   # switch to mixing once an increment exceeds this × the last
MIX_WINDOW = 2           # past sweeps in the least-squares fit
MIX_MAX_COND = 1e12      # normal equations worse than this: plain sweep instead

@dataclass(frozen=True)
class TraceSet:
    dphi1_dz0: SpectrumField    # ∂₂φ₁|₀ = Λξ
    dphi2_dz0: SpectrumField    # ∂₂φ₂|₀
    d2phi2_dz0: SpectrumField   # ∂₂²φ₂|₀ = (∇·g)|₀


@dataclass(frozen=True)
class EllipticSolution:
    phi1: StripField
    phi2: StripField
    dzphi2: StripField
    g1: StripField              # final right-hand side, g = −Q∇(φ₁+φ₂)
    g2: StripField
    traces: TraceSet
    picard_iters: int
    last_increment: StripField  # φ₂ minus the previous Picard iterate
    increments: tuple[float, ...] = field(default=())
    mixed_from: int | None = None   # first sweep fed a mixed iterate (None: plain Picard)

    @property
    def residual(self) -> float:
        """RMS of the discrete Laplacian applied to the final fixed-point
        increment, normalized by the RMS of ∇φ: the size of the equation
        defect in the solver's own discretization (computed on read)."""
        u1 = dx(self.phi1 + self.phi2)
        u2 = lam(self.phi1) + self.dzphi2
        grad_rms = max(_rms(u1), _rms(u2))
        defect = _rms(discrete_laplacian(self.last_increment))
        return defect / grad_rms if grad_rms > 0 else 0.0


def _rms(u: StripField) -> float:
    """RMS of u's coefficients over the full spectrum, N modes × N_z nodes."""
    grid = u.grid
    total = mode_multiplicity(grid.n_modes) @ (np.abs(u.coeffs) ** 2).sum(axis=1)
    return float(np.sqrt(total / (grid.n_modes * grid.n_depth)))


def discrete_laplacian(u: StripField) -> StripField:
    """∂₁²u + ∂₂²u, ∂₂² by the fourth-order FD stencil (oracle use)."""
    return StripField(u.grid,
                      dxx(u).coeffs + fd_derivative(u.coeffs, u.grid.dz, 2))


def _mixing_coefficients(dfs: list[np.ndarray], f: np.ndarray,
                         weight: np.ndarray) -> np.ndarray | None:
    """Real γ minimising ‖f − Σⱼ γⱼ dfⱼ‖ in the full-spectrum inner product
    (stored modes weighted by weight), or None when the normal equations are
    singular or ill-conditioned at round-off."""
    wdfs = [weight * d for d in dfs]
    gram = np.array([[np.vdot(a, b).real for b in wdfs] for a in dfs])
    rhs = np.array([np.vdot(a, f).real for a in wdfs])
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(rhs))) \
            or np.linalg.cond(gram) > MIX_MAX_COND:
        return None
    return np.linalg.solve(gram, rhs)


def solve_phi2(bundle: GeometryBundle, phi1: StripField,
               tol: float = 1e-10, max_iter: int = 25,
               start: tuple[StripField, StripField] | None = None) -> EllipticSolution:
    """Fixed-point iteration φ₂ ← P(φ₂) = Poisson(−Q∇(φ₁+φ₂)) from
    start = (φ₂⁽⁰⁾, ∂₂φ₂⁽⁰⁾), zero when None.  A start near the solution
    (a nearby state's φ₂, as evolution.step gives both of its solves) saves
    sweeps; it is only read, and another start moves the result by about tol.

    Plain Picard while the increments contract fast.  Once an increment
    exceeds MIX_SWITCH_RATIO times the one before, every later sweep is fed
    the Anderson-mixed iterate (type II, Walker & Ni 2011) over the last
    MIX_WINDOW sweeps: the pair (φ₂, ∂₂φ₂) ← P(φ₂) − Σⱼ γⱼ ΔPⱼ with real γ
    from the least-squares fit of the latest increment by the increment
    differences (see _mixing_coefficients); a singular fit falls back to the
    plain P(φ₂) for that sweep.  Every sweep is one poisson_divform call.

    Per depth block (_depth_blocks) of cap K the solve first samples
    −Q¹₁ = −δψ,₂, −Q¹₂ = δψ,₁ and −Q²₂ = (δψ,₂ − (δψ,₁)²)/J of the block's
    rows on pad_size(2K, 2) points, from the modes < K of δψ = e^{x₂Λ}b,
    b = bundle.boundary.  The sweeps multiply by these samples as they are
    and share one workspace per block: one half-spectrum buffer, into which
    a sweep writes ∂₁(φ₁+φ₂) and ∂₂(φ₁+φ₂) of the modes < K, zero-padded,
    and its rfft writes g₁, g₂; the samples, turned into g in place; and two
    scratch planes.  Each block places its modes < K in one (2, N/2, N_z)
    forcing, zeroed once per solve so that the dropped entries stay exactly
    0, which poisson_divform reads through field views without a copy.  A
    dropped (n, x₂) has n·|x₂| > ROUNDOFF_EXPONENT, so the blocks move the
    result by round-off only (see the module docstring).  The arithmetic of
    a block is that of values_stack, the pointwise products and
    project_stack, in the same order, so a one-block sweep is bitwise the
    same.

    Stops when the successive-iterate change P(φ₂) − φ₂ in the k=0 strip norm
    falls below tol and returns the last P(φ₂).  Raises ContractionError when
    three successive increments grow (the amplitude left the contraction
    regime) or max_iter is exhausted, and ConfigurationError for
    max_iter < 1.  The final increment is kept for EllipticSolution.residual.
    """
    grid = bundle.grid
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    if bundle.diffeo_margin <= 0:
        raise ContractionError("geometry margin is not positive")
    k = grid.n_modes // 2
    dx_symbol = _fixed_symbol("dx", grid.n_modes, 0.0, 2)
    lam_symbol = _fixed_symbol("lam", grid.n_modes, 1.0, 2)
    b = bundle.boundary.coeffs[:, None]
    dz1 = lam(phi1).coeffs
    weight = mode_multiplicity(grid.n_modes)[:, None]
    # the forcing g₁, g₂ that poisson_divform reads; a block's modes >= K stay 0
    forcing = np.zeros((2, k, grid.n_depth), dtype=np.complex128)
    g1v, g2v = phi1._like(forcing[0]), phi1._like(forcing[1])
    blocks = []
    for lo, hi, cap in _depth_blocks(grid):
        # half spectra depth-major (rows, m/2+1), like the transforms' lines
        m = pad_size(2 * cap, 2)
        spec = np.zeros((2, hi - lo, m // 2 + 1), dtype=np.complex128)
        psi = extension_profile(grid)[:cap, lo:hi] * b[:cap]    # δψ = e^{x₂Λ}b
        spec[0, :, :cap] = (dx_symbol[:cap] * psi).T
        spec[1, :, :cap] = (lam_symbol[:cap] * psi).T
        d1, d2 = np.fft.irfft(spec, n=m, axis=-1, norm="forward")   # δψ,₁, δψ,₂
        nq = (-d2, d1, (d2 - d1 * d1) / (1.0 + d2))     # −Q¹₁, −Q¹₂, −Q²₂
        blocks.append((lo, hi, cap, nq, spec, np.empty((2, hi - lo, m)),
                       np.empty((2, hi - lo, m))))

    phi2, dz2 = start if start is not None else (zero_strip(grid),) * 2
    out_phi, out_dz = phi2, dz2
    increments: list[float] = []
    sol = None
    last_inc_field = None
    converged = False
    mixed_from = None
    history: deque = deque(maxlen=MIX_WINDOW)   # (ΔP(φ₂), ΔP(∂₂φ₂), Δincrement)
    for sweep in range(1, max_iter + 1):
        for lo, hi, cap, (nq11, nq12, nq22), spec, vals, (s1, s2) in blocks:
            u1h, u2h = u_h = spec[..., :cap].swapaxes(1, 2)     # (2, K, rows) views
            spec[..., cap:] = 0.0               # padding, from the last rfft
            np.add(phi1.coeffs[:cap, lo:hi], phi2.coeffs[:cap, lo:hi], out=u1h)
            np.multiply(dx_symbol[:cap], u1h, out=u1h)
            np.add(dz1[:cap, lo:hi], dz2.coeffs[:cap, lo:hi], out=u2h)
            u1v, u2v = np.fft.irfft(spec, n=vals.shape[-1], axis=-1, norm="forward",
                                    out=vals)
            np.multiply(nq12, u1v, out=s1)
            np.multiply(nq12, u2v, out=s2)
            np.multiply(nq11, u1v, out=u1v)
            np.add(u1v, s2, out=u1v)            # g₁ = −Q¹₁u₁ − Q¹₂u₂
            np.multiply(nq22, u2v, out=u2v)
            np.add(s1, u2v, out=u2v)            # g₂ = −Q¹₂u₁ − Q²₂u₂
            np.fft.rfft(vals, axis=-1, norm="forward", out=spec)
            forcing[:, :cap, lo:hi] = u_h
        sol = poisson_divform(g1v, g2v)
        inc_field = sol.phi - phi2
        inc = strip_norm(inc_field, NormSpec(0.0, 0.0, 0))
        increments.append(inc)
        if inc <= tol:
            phi2, dz2, last_inc_field = sol.phi, sol.dzphi, inc_field
            converged = True
            break
        if len(increments) >= 3 and increments[-1] > increments[-2] > increments[-3]:
            raise ContractionError(
                "amplitude outside contraction regime: Picard increments grew "
                f"({increments[-3]:.3e} -> {increments[-1]:.3e})")
        if mixed_from is None and len(increments) >= 2 \
                and inc > MIX_SWITCH_RATIO * increments[-2]:
            mixed_from = sweep + 1
        if mixed_from is not None:
            # out_* is the previous sweep's P output (the input itself until mixing)
            history.append((sol.phi.coeffs - out_phi.coeffs,
                            sol.dzphi.coeffs - out_dz.coeffs,
                            inc_field.coeffs - last_inc_field.coeffs))
        phi2, dz2 = out_phi, out_dz = sol.phi, sol.dzphi
        last_inc_field = inc_field
        if mixed_from is not None:
            gamma = _mixing_coefficients([d[2] for d in history],
                                         inc_field.coeffs, weight)
            if gamma is not None:
                phi2 = StripField(grid, phi2.coeffs - sum(
                    c * d[0] for c, d in zip(gamma, history)))
                dz2 = StripField(grid, dz2.coeffs - sum(
                    c * d[1] for c, d in zip(gamma, history)))
    if not converged:
        raise ContractionError(
            f"Picard did not reach tol={tol:g} in {max_iter} iterations "
            f"(last increment {increments[-1]:.3e})")

    # the converged sweep's forcing, copied out of the workspace
    g1, g2 = StripField(grid, g1v.coeffs), StripField(grid, g2v.coeffs)
    xi = phi1.trace()
    d2trace = second_trace_primary(bundle, xi, sol.dz_trace, g1)
    traces = TraceSet(dphi1_dz0=lam(xi), dphi2_dz0=sol.dz_trace,
                      d2phi2_dz0=d2trace)
    return EllipticSolution(phi1=phi1, phi2=phi2, dzphi2=dz2, g1=g1, g2=g2,
                            traces=traces, picard_iters=len(increments),
                            last_increment=last_inc_field,
                            increments=tuple(increments), mixed_from=mixed_from)


def gradient_norm(phi1: StripField, phi2: StripField, dzphi2: StripField) -> float:
    """Proxy for ‖∇φ‖²_{5/2}, φ = φ₁ + φ₂: Σ_n (1+|n|)⁵ ∫ (|∂₁φ̂|² + |∂₂φ̂|²) dx₂.

    Fractional regularity is charged entirely to the horizontal multiplier
    (equivalent norm for the harmonic-type fields at hand); quadrature is
    trapezoid plus the modeled e^{2|n|x₂} tail.
    """
    grid = phi1.grid
    u1 = dx(phi1 + phi2)
    u2 = lam(phi1) + dzphi2
    dens = np.abs(u1.coeffs) ** 2 + np.abs(u2.coeffs) ** 2
    per_mode = np.trapezoid(dens, dx=grid.dz, axis=1)
    n = grid.modes.astype(float)
    per_mode = per_mode + dens[:, 0] / (2.0 * np.maximum(n, 1.0))
    w = mode_multiplicity(grid.n_modes) * (1.0 + n) ** 5.0
    return float(np.sum(w * per_mode))


# ---------------------------------------------------------------------------
# boundary traces

def second_trace_primary(bundle: GeometryBundle, xi: SpectrumField,
                         dphi2_dz0: SpectrumField, g1: StripField) -> SpectrumField:
    """∂₂²φ₂|₀ from the boundary identity ∂₂²φ₂|₀ = (∇·g)|₀.

    g = −Q∇φ contains ∂₂²φ₂|₀ itself through ∂₂(∇φ)₂, so the identity is a
    scalar pointwise equation (1 + Q²₂|₀)·T = known, with 1 + Q²₂|₀ =
    (1 + (δψ,₁)²)/(1 + δψ,₂) > 0 on admissible geometry.
    """
    b = bundle.boundary
    mpad = pad_size(b.n_modes, 4)

    d1, d2, d12, d22, u1, lam_xi, dz2, du1, p1_d2, dg1 = values_stack([
        dx(b), lam(b), dx(lam(b)), lam(b, 2.0),
        dx(xi), lam(xi), dphi2_dz0,
        dx(lam(xi) + dphi2_dz0),              # ∂₁(∂₂φ)|₀
        lam(xi, 2.0),                         # ∂₂²φ₁|₀
        dx(g1.trace()),                       # ∂₁g₁|₀
    ], mpad)
    u2 = lam_xi + dz2

    j0 = 1.0 + d2
    q12 = -d1
    dq12 = -d12
    q22 = (d1 * d1 - d2) / j0
    dq22 = (2.0 * d1 * d12 - d22) / j0 - (d1 * d1 - d2) * d22 / j0 ** 2

    known = dg1 - (dq12 * u1 + q12 * du1 + dq22 * u2 + q22 * p1_d2)
    return project(known / (1.0 + q22), b)


def second_trace_kernel(g1: StripField, g2: StripField) -> SpectrumField:
    """Cross-check route: (∇·g)|₀ with a one-sided fourth-order FD stencil
    for ∂₂ĝ₂|₀."""
    return dx(g1.trace()) + g2.deriv_z(1).trace()


# ---------------------------------------------------------------------------
# independent residual oracle

def ale_laplacian_residual(bundle: GeometryBundle, phi1: StripField,
                           phi2: StripField, dzphi2: StripField) -> tuple[float, float]:
    """FD-stencil residual of Δφ₂ + ∇·(Q∇φ) = 0 (per Piola this is J times
    the transformed Laplacian A^ℓ_j(A^k_jφ,_k),_ℓ).

    Returns (max residual, rms of ∇φ).  ∂₁ is spectral, all vertical
    derivatives here use fourth-order FD stencils, independent of the kernel
    quadrature.
    """
    m = pad_size(bundle.grid.n_modes, 2)
    u1 = dx(phi1 + phi2)
    u2 = lam(phi1) + dzphi2
    q11v, q12v, q22v, u1v, u2v = values_stack(
        [bundle.q11, bundle.q12, bundle.q22, u1, u2], m)
    f1, f2 = project_stack([q11v * u1v + q12v * u2v,
                            q12v * u1v + q22v * u2v], phi2)
    lapl = discrete_laplacian(phi2)
    div = dx(f1) + f2.deriv_z(1)
    res = lapl + div
    interior = res.coeffs[:, 2:-2]     # edge stencil rows excluded
    grad_rms = max(_rms(u1), _rms(u2))
    return float(np.max(np.abs(interior))), grad_rms
