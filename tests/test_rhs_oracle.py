"""evaluate_rhs against a computation that shares none of its route.

The oracle (oracles.dirichlet_neumann_rhs) takes (h_t, ξ_t) from the
surface alone, through the Craig–Sulem series of the Dirichlet–Neumann
operator; evaluate_rhs goes through the flattened strip, its depth grid and
the Picard-iterated φ₂ solve.  Their difference is the strip route's depth
discretization, second order in dz, so it must fall four-fold per halving of
dz.  A wrong term in either route shows as a difference that does not fall.
"""

import numpy as np
import pytest

from dampedwaves import evolution as ev
from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from oracles import dirichlet_neumann_rhs, on_modes

N_MODES = 64
ALPHA = 3.0
TIGHT = ev.StepOptions(picard_tol=1e-14, picard_max_iter=60)


def two_mode_state(a: float) -> ev.SimState:
    """h = a cos(x+π) + (a/2) cos(2x+π), ξ = a sin x + (a/2) sin 2x: the
    decay workload's modes and profile."""
    h = sp.cosine(1, a, N_MODES, np.pi) + sp.cosine(2, 0.5 * a, N_MODES, np.pi)
    xi = sp.sine(1, a, N_MODES) + sp.sine(2, 0.5 * a, N_MODES)
    return ev.SimState(h=h, xi=xi, t=0.0)


# amplitude, and the largest errors of (h_t, ξ_t) at N_z = 193 relative to
# the oracle's max, twice those measured
STATES = {"decay": (0.01 / 7.0, (3e-7, 1.4e-9)),
          "steep": (0.12, (1.6e-5, 1.4e-5))}


@pytest.mark.parametrize("name", sorted(STATES))
def test_rhs_converges_to_the_oracle_at_second_order(name):
    a, bounds = STATES[name]
    state = two_mode_state(a)
    ref = dirichlet_neumann_rhs(state.h, state.xi, ALPHA)
    errs = []
    for n_depth in (97, 193, 385):
        r = ev.evaluate_rhs(state, ev.ModelParams(alpha=ALPHA),
                            geo.StripGrid(N_MODES, depth=8.0, n_depth=n_depth), TIGHT)
        errs.append([np.max(np.abs(got.coeffs - want)) / np.max(np.abs(want))
                     for got, want in zip((r.h_t, r.xi_t), ref)])
    errs = np.array(errs)                    # rows N_z, columns (h_t, ξ_t)
    orders = np.log2(errs[:-1] / errs[1:])
    assert np.all(np.abs(orders - 2.0) <= 0.2), orders
    assert np.all(errs[1] <= bounds), errs[1]


def test_oracle_series_has_converged():
    # the order-8 series against order 10 at the steep state: far below the
    # strip route's error there
    state = two_mode_state(0.12)
    for j8, j10 in zip(dirichlet_neumann_rhs(state.h, state.xi, ALPHA),
                       dirichlet_neumann_rhs(state.h, state.xi, ALPHA, order=10)):
        assert np.max(np.abs(j8 - j10)) <= 5e-8 * np.max(np.abs(j10))


def test_band_truncated_rhs_matches_full_band():
    # the decay state's modes < 16 on StripGrid(32): the working band K = 16
    # a run steps at; both right-hand sides within round-off of each other
    state = two_mode_state(0.01 / 7.0)
    params = ev.ModelParams(alpha=ALPHA)
    full = ev.evaluate_rhs(state, params, geo.StripGrid(N_MODES, depth=8.0, n_depth=193))
    banded = ev.SimState(h=on_modes(state.h, 16), xi=on_modes(state.xi, 16), t=0.0)
    band = ev.evaluate_rhs(banded, params, geo.StripGrid(32, depth=8.0, n_depth=193))
    assert band.solution.picard_iters == full.solution.picard_iters
    for f, b in ((full.h_t, band.h_t), (full.xi_t, band.xi_t)):
        scale = np.max(np.abs(f.coeffs))
        assert np.max(np.abs(f.coeffs[:16] - b.coeffs)) <= 1e-15 * scale
        assert np.max(np.abs(f.coeffs[16:])) <= 1e-15 * scale
