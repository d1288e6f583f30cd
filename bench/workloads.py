"""The benchmark's workloads and the seeded `run` configs they feed the CLI.

Each workload is a fixed grid, model and run length, run as one
`dampedwaves run` command.  The seed draws the phases of the initial modes
(see `phases`); the amplitudes follow a fixed geometric profile scaled to a
stated |h₀|₁ + |ξ₀|₁.  Standard library only, so that importing it adds
nothing to the benchmark's set-up time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


RATIO = 0.5                       # amplitude ratio between consecutive modes


@dataclass(frozen=True)
class Workload:
    name: str
    n_modes: int
    n_depth: int
    alpha: float
    mu: float
    modes: tuple[int, ...]        # excited modes of both h and ξ
    wiener_l1: float              # target |h₀|₁ + |ξ₀|₁, |f|₁ = Σ(1+|n|)|f̂(n)|
    dt: float
    steps: int                    # time steps per command
    record_every: int

    def amplitudes(self) -> list[float]:
        """RATIO^i·a₁ for the i-th listed mode, a₁ set by Σ_fields Σ_k a_k(1+k) = wiener_l1."""
        weight = sum(RATIO ** i * (1 + k) for i, k in enumerate(self.modes))
        a1 = self.wiener_l1 / (2.0 * weight)
        return [a1 * RATIO ** i for i in range(len(self.modes))]


WORKLOADS = {w.name: w for w in (
    # tiny arrays: per-call Python/numpy overhead dominates, one Picard sweep
    Workload("coarse_linear_8x48", n_modes=8, n_depth=48, alpha=3.0, mu=0.0,
             modes=(1, 2, 3), wiener_l1=9e-8, dt=1e-3,
             steps=1500, record_every=250),
    # the Theorem-2 decay run at the acceptance grid
    Workload("decay_64x192", n_modes=64, n_depth=192, alpha=3.0, mu=1.0,
             modes=(1, 2), wiener_l1=0.01, dt=1e-3,
             steps=200, record_every=10),
    # large amplitude: many Picard sweeps, a record and a snapshot per step
    Workload("steep_128x384", n_modes=128, n_depth=384, alpha=1.0, mu=0.0,
             modes=(1, 2, 3), wiener_l1=1.08, dt=1e-3,
             steps=12, record_every=1),
)}


def phases(workload: Workload, seed: int) -> tuple[list[float], list[float]]:
    """Seeded phases of h and ξ for one workload.

    h = Σ a_k cos(k(x − x₀) + π) has all its troughs at the seeded x₀ and
    ξ = Σ a_k sin(k(x − x₀)) is a quarter period off.  Only the shift x₀ is
    random: a translation changes every coefficient but not the work, so the
    Picard sweep count (which moves with the relative phases: 10 to 19 per
    solve on steep_128x384 when every phase is drawn independently) is the
    same for every seed, and the seed-to-seed spread of the timings is the
    machine's.
    """
    rng = random.Random(f"{workload.name}/{seed}")
    shift = rng.uniform(0.0, 2.0 * math.pi)
    h = [math.pi - k * shift for k in workload.modes]
    xi = [-0.5 * math.pi - k * shift for k in workload.modes]
    return h, xi


def config_text(workload: Workload, seed: int, t_final: float | None = None) -> str:
    """An explicit-preset `run` config; t_final defaults to the full run."""
    if t_final is None:
        t_final = workload.steps * workload.dt
    ph, px = phases(workload, seed)
    amps = workload.amplitudes()

    def mode_list(ps: list[float]) -> str:
        return ", ".join(f"{k}:{a!r}:{p!r}" for k, a, p in zip(workload.modes, amps, ps))

    return "\n".join([
        "[model]",
        f"alpha = {workload.alpha!r}",
        "epsilon = 1.0",
        f"mu = {workload.mu!r}",
        "[grid]",
        f"n_modes = {workload.n_modes}",
        "depth = 8.0",
        f"n_depth = {workload.n_depth}",
        "[time]",
        f"dt = {workload.dt!r}",
        f"t_final = {t_final!r}",
        "[initial]",
        "preset = explicit",
        f"h_modes = {mode_list(ph)}",
        f"xi_modes = {mode_list(px)}",
        "[output]",
        f"record_every = {workload.record_every}",
        "snapshot_every = 1",          # every record: the checks pair them
        "",
    ])
