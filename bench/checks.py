"""Checks of one `dampedwaves run` command's outputs.

Every reference value is computed here, apart from the program: the initial
data from the benchmark's own mode lists, the linear dynamics from a matrix
exponential, the Wiener sums from the snapshot coefficients.  The elliptic
check of `steep_128x384` is the exception: it calls the package's two
independent oracles (the finite-difference residual and the second route to
∂₂²φ₂|₀) on the final state, with bounds set from their discretisation error.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from workloads import Workload, phases

MEAN_DRIFT_MAX = 1e-12        # verdict.json: interface mean removed per step
HERMITIAN_REL = 1e-12         # |f̂(−n) − conj f̂(n)| / max|f̂|
INITIAL_REL = 1e-14           # first snapshot against the benchmark's own data
LINEAR_REL_ERR = 1e-6         # snapshot against exp(t·M(n)), relative 2-norm
LYAPUNOV_SLACK = 1e-6         # v(t_{i+1}) <= v(t_i)(1 + slack)
WIENER_FLOOR_REL = 1e-13      # the noise floor documented for series.csv
WIENER_AGREE_REL = 1e-12      # two summation orders of the same floored sum
L1_TARGET_REL = 1e-12         # |h₀|₁ + |ξ₀|₁ against the workload's target
# The FD residual and the two trace routes are second order in dz.  Refining
# the depth grid at the steep_128x384 initial state (96 to 768 nodes) gives
# residual/rms∇φ ≈ 14–27·dz² and a trace difference ≈ 0.13–0.35·dz², so the
# bounds sit a factor 2 and 1.5 above the largest constant seen.
RESIDUAL_DZ2 = 60.0
TRACE_DZ2 = 0.5


@dataclass(frozen=True)
class Snapshot:
    t: float
    h: np.ndarray
    xi: np.ndarray


@dataclass(frozen=True)
class Output:
    exit_code: int
    columns: tuple[str, ...]
    series: np.ndarray            # one row per record
    snapshots: tuple[Snapshot, ...]
    verdict: dict
    raw: dict[str, bytes]         # the files that must repeat byte for byte

    def column(self, name: str) -> np.ndarray:
        return self.series[:, self.columns.index(name)]


DETERMINISTIC_FILES = ("series.csv", "snapshots.jsonl")


def load(outdir: Path, exit_code: int) -> Output:
    raw = {name: (outdir / name).read_bytes() for name in DETERMINISTIC_FILES}
    lines = raw["series.csv"].decode().splitlines()
    columns = tuple(lines[1].split(","))
    series = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    snaps = []
    for ln in raw["snapshots.jsonl"].decode().splitlines():
        d = json.loads(ln)
        snaps.append(Snapshot(t=d["t"],
                              h=np.array(d["h_re"]) + 1j * np.array(d["h_im"]),
                              xi=np.array(d["xi_re"]) + 1j * np.array(d["xi_im"])))
    verdict = json.loads((outdir / "verdict.json").read_text())
    return Output(exit_code=exit_code, columns=columns, series=series,
                  snapshots=tuple(snaps), verdict=verdict, raw=raw)


def mode_numbers(n: int) -> np.ndarray:
    """Signed mode numbers in FFT order: 0, 1, …, N/2−1, −N/2, …, −1."""
    k = np.arange(n)
    return np.where(k < n // 2, k, k - n)


def initial_coeffs(wl: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(ĥ₀, ξ̂₀) of Σ a_k cos(kx + p_k), built from the workload's mode lists."""
    out = []
    for ps in phases(wl, seed):
        c = np.zeros(wl.n_modes, dtype=complex)
        for k, a, p in zip(wl.modes, wl.amplitudes(), ps):
            c[k] += 0.5 * a * complex(math.cos(p), math.sin(p))
            c[-k] += 0.5 * a * complex(math.cos(p), -math.sin(p))
        out.append(c)
    return out[0], out[1]


# ---------------------------------------------------------------------------
# checks run on every workload

def check_verdict(out: Output) -> list[str]:
    errs = []
    if out.exit_code != 0:
        errs.append(f"exit code {out.exit_code}")
    if out.verdict.get("failed") != 0:
        errs.append(f"verdict reports {out.verdict.get('failed')} failed checks")
    drift = [c for c in out.verdict.get("checks", ()) if c["name"] == "mean_drift_per_step"]
    if not drift or not drift[0]["value"] <= MEAN_DRIFT_MAX:
        errs.append(f"mean drift {drift[0]['value'] if drift else 'missing'} > {MEAN_DRIFT_MAX:g}")
    return errs


def check_run_length(out: Output, wl: Workload) -> list[str]:
    n = wl.steps
    records = 1 + n // wl.record_every + (1 if n % wl.record_every else 0)
    errs = []
    if out.series.shape[0] != records:
        errs.append(f"{out.series.shape[0]} records, expected {records}")
    elif abs(out.column("t")[-1] - n * wl.dt) > 1e-9:
        errs.append(f"last record at t = {out.column('t')[-1]:.17g}, expected {n * wl.dt!r}")
    if len(out.snapshots) != records:
        errs.append(f"{len(out.snapshots)} snapshots, expected {records}")
    return errs


def check_structure(out: Output) -> list[str]:
    """Zero mean of h, zero Nyquist entries and Hermitian coefficients."""
    errs = []
    for s in out.snapshots:
        nyq = s.h.size // 2
        if s.h[0] != 0 or s.h[nyq] != 0 or s.xi[nyq] != 0:
            errs.append(f"t={s.t!r}: mean or Nyquist entry nonzero")
        for name, c in (("h", s.h), ("xi", s.xi)):
            scale = np.max(np.abs(c))
            defect = np.max(np.abs(np.roll(c[::-1], 1) - np.conj(c)))
            if defect > HERMITIAN_REL * scale:
                errs.append(f"t={s.t!r}: {name} not Hermitian ({defect:.2e} of {scale:.2e})")
    return errs


def check_initial(out: Output, wl: Workload, seed: int) -> list[str]:
    """The first record is the configured data and |h₀|₁ + |ξ₀|₁ is the target."""
    h0, xi0 = initial_coeffs(wl, seed)
    s = out.snapshots[0]
    errs = []
    scale = max(np.max(np.abs(h0)), np.max(np.abs(xi0)))
    diff = max(np.max(np.abs(s.h - h0)), np.max(np.abs(s.xi - xi0)))
    if s.t != 0.0 or diff > INITIAL_REL * scale:
        errs.append(f"first snapshot (t={s.t!r}) differs from the initial data by {diff:.2e}")
    weight = 1.0 + np.abs(mode_numbers(wl.n_modes))
    l1 = float(np.sum(weight * (np.abs(h0) + np.abs(xi0))))
    lyap0 = out.column("lyapunov")[0]
    if abs(l1 - wl.wiener_l1) > L1_TARGET_REL * wl.wiener_l1 or \
            abs(lyap0 - l1) > L1_TARGET_REL * l1:
        errs.append(f"|h0|_1 + |xi0|_1: series {lyap0:.17g}, data {l1!r}, "
                    f"target {wl.wiener_l1!r}")
    return errs


def check_same_bytes(out: Output, ref: Output) -> list[str]:
    return [f"{name} differs from the first run of this config"
            for name in DETERMINISTIC_FILES if out.raw[name] != ref.raw[name]]


# ---------------------------------------------------------------------------
# coarse_linear_8x48: the closed-form linear propagator

def linear_matrix(n: int, alpha: float) -> np.ndarray:
    """M(n) acting on (ξ̂, ĥ): ξ̂' = −αn²ξ̂ − ĥ,  ĥ' = |n|ξ̂ − αn²ĥ."""
    return np.array([[-alpha * n * n, -1.0], [abs(n), -alpha * n * n]])


def check_linear_propagator(out: Output, wl: Workload, seed: int) -> list[str]:
    h0, xi0 = initial_coeffs(wl, seed)
    modes = mode_numbers(wl.n_modes)
    errs = []
    for s in out.snapshots:
        exact = np.empty((2, wl.n_modes), dtype=complex)
        for j, n in enumerate(modes):
            exact[:, j] = expm(s.t * linear_matrix(int(n), wl.alpha)) @ [xi0[j], h0[j]]
        exact[:, wl.n_modes // 2] = 0.0
        err = np.linalg.norm(np.stack([s.xi, s.h]) - exact) / np.linalg.norm(exact)
        if not err <= LINEAR_REL_ERR:
            errs.append(f"t={s.t!r}: relative error {err:.3e} against exp(tM) "
                        f"> {LINEAR_REL_ERR:g}")
    return errs


# ---------------------------------------------------------------------------
# decay_64x192: Lyapunov decay and the Wiener sums

def check_lyapunov_monotone(out: Output) -> list[str]:
    v = out.column("lyapunov")
    bad = np.nonzero(v[1:] > v[:-1] * (1.0 + LYAPUNOV_SLACK))[0]
    return [f"Lyapunov sum rises at t={out.column('t')[i + 1]:.17g}: "
            f"{v[i]:.17g} -> {v[i + 1]:.17g}" for i in bad]


def check_decay_rate(out: Output) -> list[str]:
    t, v = out.column("t"), out.column("lyapunov")
    if np.any(v <= 0):
        return ["nonpositive Lyapunov value"]
    slope = np.polyfit(t, np.log(v), 1)[0]
    return [] if -slope > 0 else [f"fitted decay rate {-slope:.3e} is not positive"]


def floored_wiener(c: np.ndarray, lam_t: float) -> float:
    """Σ (1+|n|) e^{λ|n|} |f̂(n)| over entries above 1e-13·max|f̂|."""
    a = np.abs(c)
    absn = np.abs(mode_numbers(c.size))
    total = 0.0
    for n, an in zip(absn, a):
        if an > WIENER_FLOOR_REL * a.max():
            total += (1.0 + n) * math.exp(min(lam_t * n, 700.0)) * an
    return float(total)


def check_wiener(out: Output, wl: Workload) -> list[str]:
    errs = []
    rows = {t: i for i, t in enumerate(out.column("t"))}
    for s in out.snapshots:
        if s.t not in rows:
            errs.append(f"snapshot t={s.t!r} has no record")
            continue
        i = rows[s.t]
        lam_t = wl.mu * s.t
        for name, c in (("wiener_h", s.h), ("wiener_xi", s.xi)):
            mine, theirs = floored_wiener(c, lam_t), out.column(name)[i]
            if abs(mine - theirs) > WIENER_AGREE_REL * mine:
                errs.append(f"t={s.t!r}: {name} {theirs:.17g}, recomputed {mine!r}")
        lyap = out.column("lyapunov")[i]
        parts = out.column("wiener_h")[i] + out.column("wiener_xi")[i]
        if lyap != parts:
            errs.append(f"t={s.t!r}: lyapunov {lyap:.17g} != wiener_h + wiener_xi")
    return errs


# ---------------------------------------------------------------------------
# steep_128x384: the elliptic oracles at the final state

def solve_final_state(out: Output, wl: Workload):
    """Geometry, φ₁ and the Picard solution at the last snapshot (ε = 1)."""
    from dampedwaves.elliptic import solve_phi1, solve_phi2
    from dampedwaves.geometry import StripGrid, build_geometry
    from dampedwaves.spectral import SpectrumField

    s = out.snapshots[-1]
    grid = StripGrid(wl.n_modes, depth=8.0, n_depth=wl.n_depth)
    bundle = build_geometry(SpectrumField(s.h), grid)
    phi1 = solve_phi1(SpectrumField(s.xi), grid)
    sol = solve_phi2(bundle, phi1, tol=min(1e-10, wl.dt ** 3), max_iter=25)
    return bundle, phi1, sol


def check_elliptic(bundle, phi1, sol) -> list[str]:
    from dampedwaves.elliptic import ale_laplacian_residual, second_trace_kernel

    dz2 = bundle.grid.dz ** 2
    errs = []
    res, grad = ale_laplacian_residual(bundle, phi1, sol.phi2, sol.dzphi2)
    if not res <= RESIDUAL_DZ2 * dz2 * grad:
        errs.append(f"FD residual / rms grad phi = {res / grad:.3e} > "
                    f"{RESIDUAL_DZ2:g} dz^2 = {RESIDUAL_DZ2 * dz2:.3e}")
    primary = sol.traces.d2phi2_dz0.coeffs
    kernel = second_trace_kernel(sol.g1, sol.g2).coeffs
    rel = np.max(np.abs(primary - kernel)) / np.max(np.abs(primary))
    if not rel <= TRACE_DZ2 * dz2:
        errs.append(f"second-trace routes differ by {rel:.3e} > "
                    f"{TRACE_DZ2:g} dz^2 = {TRACE_DZ2 * dz2:.3e}")
    return errs


# ---------------------------------------------------------------------------

def check_command(out: Output, wl: Workload, seed: int,
                  ref: Output | None = None) -> list[str]:
    """Every check that applies to one command of the workload, by name."""
    checks = {
        "verdict": lambda: check_verdict(out),
        "run_length": lambda: check_run_length(out, wl),
        "structure": lambda: check_structure(out),
        "initial": lambda: check_initial(out, wl, seed),
    }
    if ref is not None:
        checks["deterministic"] = lambda: check_same_bytes(out, ref)
    if wl.name == "coarse_linear_8x48":
        checks["linear_propagator"] = lambda: check_linear_propagator(out, wl, seed)
    elif wl.name == "decay_64x192":
        checks["lyapunov_monotone"] = lambda: check_lyapunov_monotone(out)
        checks["decay_rate"] = lambda: check_decay_rate(out)
        checks["wiener"] = lambda: check_wiener(out, wl)
    elif wl.name == "steep_128x384":
        checks["elliptic"] = lambda: check_elliptic(*solve_final_state(out, wl))
    return [f"{name}: {msg}" for name, run in checks.items() for msg in run()]
