import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dampedwaves import elliptic as el
from dampedwaves import evolution as ev
from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from dampedwaves.errors import ConfigurationError, NumericsError
from dampedwaves.harness import linear_exponential
from oracles import linear_rhs


def small_grid(n_modes=32, n_depth=129):
    return geo.StripGrid(n_modes, depth=8.0, n_depth=n_depth)


def linear_reference(state0, alpha, t, modes):
    out = np.empty((2, len(modes)), dtype=np.complex128)
    u0 = np.stack([state0.xi.coeffs, state0.h.coeffs])
    for i, n in enumerate(modes):
        m = np.array([[-alpha * n ** 2, -1.0], [abs(n), -alpha * n ** 2]])
        out[:, i] = expm(t * m) @ u0[:, i]
    return out


def propagator(n: int, alpha: float, dt: float) -> np.ndarray:
    """propagator_entries at the single mode n as a 2 × 2 matrix."""
    p11, p12, p21, p22 = ev.propagator_entries(np.array([n]), alpha, dt)
    return np.array([[p11[0], p12[0]], [p21[0], p22[0]]])


class TestPropagator:
    def test_rotation_full_period(self):
        p = propagator(1, 0.0, 2.0 * np.pi)
        assert np.max(np.abs(p - np.eye(2))) < 1e-12

    def test_mode_zero_shear(self):
        p = propagator(0, 5.0, 0.25)
        assert np.max(np.abs(p - np.array([[1.0, -0.25], [0.0, 1.0]]))) == 0.0

    def test_series_oracle(self):
        n, alpha, dt = 2, 3.0, 0.1
        m = np.array([[-alpha * n ** 2, -1.0], [abs(n), -alpha * n ** 2]])
        p = propagator(n, alpha, dt)
        assert np.max(np.abs(p - expm(dt * m))) < 1e-12
        assert np.max(np.abs(np.linalg.eigvals(p))) == pytest.approx(
            np.exp(-alpha * n ** 2 * dt), rel=1e-12)

    def test_mollified_generator_consistency(self):
        modes = np.array([0, 1, 2, 3, -3, -2, -1])
        kappa, alpha, dt = 0.05, 2.0, 0.08
        p = ev.propagator_entries(modes, alpha, dt, kappa)
        for i, n in enumerate(modes):
            heat = np.exp(-kappa * n ** 2)
            m = np.array([[-alpha * n ** 2 * heat ** 2, -heat],
                          [abs(n) * heat ** 2, -alpha * n ** 2 * heat ** 2]])
            ref = expm(dt * m)
            got = np.array([[p[0][i], p[1][i]], [p[2][i], p[3][i]]])
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_rejects_bad_dt(self):
        st = ev.SimState(h=sp.cosine(1, 0.1, 16), xi=sp.zero_field(16), t=0.0)
        with pytest.raises(ConfigurationError):
            ev.step(st, ev.ModelParams(alpha=1.0, epsilon=0.0), small_grid(16, 64), 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    @pytest.mark.parametrize("alpha", [0.0, 3.0])
    def test_harness_oracle_matches_expm(self, k, alpha):
        # the linear-fidelity reference is written apart from propagator_entries;
        # entries are O(1), and expm's own error on strongly damped entries is
        # ~1e-12 relative, so the bound is absolute
        m = np.array([[-alpha * k ** 2, -1.0], [abs(k), -alpha * k ** 2]])
        for t in (0.0, 1e-3, 0.1, 0.5, 1.0, 2.5):
            got = linear_exponential(k, alpha, t)
            assert np.max(np.abs(got - expm(t * m))) <= 1e-13


class TestRhs:
    def test_zero_state(self):
        grid = small_grid()
        st = ev.SimState(h=sp.zero_field(32), xi=sp.zero_field(32), t=0.0)
        r = ev.evaluate_rhs(st, ev.ModelParams(alpha=2.0), grid)
        assert np.max(np.abs(r.h_t.coeffs)) == 0.0
        assert np.max(np.abs(r.xi_t.coeffs)) == 0.0

    def test_linearization_oracle(self):
        grid = small_grid()
        delta = 1e-6
        alpha = 1.0
        st = ev.SimState(h=sp.cosine(1, delta, 32), xi=sp.sine(1, delta, 32), t=0.0)
        r = ev.evaluate_rhs(st, ev.ModelParams(alpha=alpha), grid,
                            ev.StepOptions(picard_tol=1e-16, picard_max_iter=30))
        modes = sp.stored_modes(32)
        lin = linear_rhs(np.stack([st.xi.coeffs, st.h.coeffs]), modes, alpha)
        assert np.max(np.abs(r.h_t.coeffs - lin[1])) <= 10 * delta ** 2
        assert np.max(np.abs(r.xi_t.coeffs - lin[0])) <= 10 * delta ** 2

    def test_flat_geometry_closed_form(self):
        """h = 0, α = 0, ε = 1: ξ_t = −½((ξ,₁)² + (Λξ)²) + (Λξ)², h_t = Λξ.

        Independent evaluation with A = Id from the boundary system.
        """
        grid = small_grid()
        xi = sp.cosine(1, 0.3, 32)
        st = ev.SimState(h=sp.zero_field(32), xi=xi, t=0.0)
        r = ev.evaluate_rhs(st, ev.ModelParams(alpha=0.0, epsilon=1.0), grid,
                            ev.StepOptions(picard_tol=1e-15))
        xix, lxi = sp.dx(xi), sp.lam(xi)
        ref = (-0.5) * (sp.pointwise_product(xix, xix) +
                        sp.pointwise_product(lxi, lxi)) + \
            sp.pointwise_product(lxi, lxi)
        assert np.max(np.abs(r.xi_t.coeffs - ref.coeffs)) < 1e-14
        assert np.max(np.abs(r.h_t.coeffs - lxi.coeffs)) < 1e-14

    def test_mean_preservation_random_states(self):
        grid = small_grid()
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = np.zeros(32, dtype=np.complex128)
            for n in range(1, 6):
                c[n] = 0.004 * (rng.standard_normal() + 1j * rng.standard_normal())
                c[-n] = np.conj(c[n])
            h = sp.SpectrumField(c)
            xi = sp.SpectrumField(np.roll(c, 1) * 0 + c * 0.7)
            st = ev.SimState(h=h, xi=xi, t=0.0)
            # mean error tracks the elliptic tolerance; pin it tight
            r = ev.evaluate_rhs(st, ev.ModelParams(alpha=1.0), grid,
                                ev.StepOptions(picard_tol=1e-14,
                                               picard_max_iter=30))
            assert abs(r.h_t.coeffs[0]) < 1e-12

    def test_epsilon_zero_is_exactly_linear(self):
        grid = small_grid()
        # large data: with ε = 0 the geometry is flat and the rhs is linear
        h = sp.cosine(1, 0.4, 32) + sp.cosine(3, 0.2, 32)
        xi = sp.sine(1, 0.5, 32)
        st = ev.SimState(h=h, xi=xi, t=0.0)
        r = ev.evaluate_rhs(st, ev.ModelParams(alpha=2.0, epsilon=0.0), grid)
        lin = linear_rhs(np.stack([xi.coeffs, h.coeffs]), sp.stored_modes(32), 2.0)
        assert np.max(np.abs(r.xi_t.coeffs - lin[0])) < 1e-14
        assert np.max(np.abs(r.h_t.coeffs - lin[1])) < 1e-14

    def test_mollified_rhs_converges_to_unmollified(self):
        grid = small_grid()
        h = sp.cosine(1, 0.02, 32) + sp.cosine(2, 0.01, 32)
        xi = sp.sine(1, 0.02, 32)
        st = ev.SimState(h=h, xi=xi, t=0.0)
        base = ev.evaluate_rhs(st, ev.ModelParams(alpha=1.0), grid,
                               ev.StepOptions(picard_tol=1e-14))
        diffs = []
        for kappa in (2e-3, 1e-3, 5e-4):
            r = ev.evaluate_rhs(st, ev.ModelParams(alpha=1.0, kappa=kappa), grid,
                                ev.StepOptions(picard_tol=1e-14))
            diffs.append(max(np.max(np.abs(r.h_t.coeffs - base.h_t.coeffs)),
                             np.max(np.abs(r.xi_t.coeffs - base.xi_t.coeffs))))
        # leading error linear in κ
        assert diffs[0] / diffs[1] == pytest.approx(2.0, rel=0.15)
        assert diffs[1] / diffs[2] == pytest.approx(2.0, rel=0.15)

    def test_reads_only_the_sweeps_q(self, monkeypatch):
        # the sweep multiplies by the bundle's −Q samples (neg_q); the derived
        # Q fields are the FD oracle's
        def unread(bundle):
            raise AssertionError("evaluate_rhs read a derived Q field")
        for name in ("q11", "q12", "q22"):
            monkeypatch.setattr(geo.GeometryBundle, name, property(unread))
        state = ev.SimState(h=sp.cosine(1, 0.05, 32), xi=sp.sine(1, 0.05, 32), t=0.0)
        r = ev.evaluate_rhs(state, ev.ModelParams(alpha=1.0), small_grid())
        assert r.solution.picard_iters > 1


def resolved_field(parts: list[float], weight: np.ndarray,
                   amplitude: float) -> sp.SpectrumField:
    """A real zero-mean field on the modes 1..6 of N = 64 whose Wiener sum
    Σ 2·weight(n)·|v̂(n)| is the amplitude."""
    c = np.zeros(32, dtype=np.complex128)
    c[1:7] = np.array(parts[:6]) + 1j * np.array(parts[6:])
    total = 2.0 * np.sum(weight * np.abs(c[1:7]))
    c *= amplitude / total if total > 0 else 0.0
    return sp.SpectrumField(sp.hermitian_fill(c))


class TestSymmetries:
    """Translation and reflection of x₁ commute with evaluate_rhs on resolved
    states: h and ξ on the modes 1..6 of 64 × 192, |Λh|, |ξ| <= 0.1."""

    GRID = geo.StripGrid(64, depth=8.0, n_depth=192)
    PARTS = st.lists(st.floats(-1.0, 1.0), min_size=12, max_size=12)
    AMPLITUDE = st.floats(0.0, 0.1)

    @classmethod
    def check(cls, h_parts, xi_parts, amplitude, act):
        """act (on coeffs) applied to the state, then the rhs taken, against
        the rhs taken, then act applied: 1e-14 relative to the rhs."""
        n = np.arange(1.0, 7.0)
        h = resolved_field(h_parts, n, amplitude)
        xi = resolved_field(xi_parts, np.ones(6), amplitude)
        params = ev.ModelParams(alpha=3.0)

        def rhs(h, xi):
            r = ev.evaluate_rhs(ev.SimState(h=h, xi=xi, t=0.0), params, cls.GRID)
            return r.h_t.coeffs, r.xi_t.coeffs

        moved = rhs(h._like(act(h.coeffs)), xi._like(act(xi.coeffs)))
        for got, base in zip(moved, rhs(h, xi)):
            want = act(base)
            assert np.max(np.abs(got - want)) <= 1e-14 * max(np.max(np.abs(want)), 1e-300)

    @settings(max_examples=20, deadline=None)
    @given(PARTS, PARTS, AMPLITUDE, st.floats(0.0, 2.0 * np.pi))
    def test_translation_commutes_with_rhs(self, h_parts, xi_parts, amplitude, x0):
        shift = np.exp(-1j * sp.stored_modes(64) * x0)
        self.check(h_parts, xi_parts, amplitude, lambda c: shift * c)

    @settings(max_examples=20, deadline=None)
    @given(PARTS, PARTS, AMPLITUDE)
    def test_reflection_commutes_with_rhs(self, h_parts, xi_parts, amplitude):
        self.check(h_parts, xi_parts, amplitude, np.conj)


class TestStep:
    def test_linear_only_matches_propagator(self):
        # ε = 0: the linear system
        grid = small_grid()
        st = ev.SimState(h=sp.cosine(2, 0.1, 32), xi=sp.sine(1, 0.2, 32), t=0.0)
        out, _ = ev.step(st, ev.ModelParams(alpha=3.0, epsilon=0.0), grid, 1e-2)
        ref = linear_reference(st, 3.0, 1e-2, sp.stored_modes(32))
        assert np.max(np.abs(out.xi.coeffs - ref[0])) < 1e-12
        assert np.max(np.abs(out.h.coeffs - ref[1])) < 1e-12

    def test_epsilon_zero_step_is_the_lawson_heun_step(self, monkeypatch):
        # the ε = 0 step skips the remainder N = ∂ₜu − M·u, which is
        # round-off there; assembled from evaluate_rhs it is the same step
        grid = small_grid(32, 64)
        params = ev.ModelParams(alpha=3.0, epsilon=0.0)
        st = ev.SimState(h=sp.cosine(2, 0.1, 32) + sp.cosine(5, 0.03, 32),
                         xi=sp.sine(1, 0.2, 32), t=0.0)
        dt, modes = 1e-2, sp.stored_modes(32)
        p11, p12, p21, p22 = ev.propagator_entries(modes, 3.0, dt)

        def prop(u):
            return np.array([p11 * u[0] + p12 * u[1], p21 * u[0] + p22 * u[1]])

        def remainder(u):
            s = ev.SimState(h=sp.SpectrumField(sp.hermitian_fill(u[1])),
                            xi=sp.SpectrumField(sp.hermitian_fill(u[0])), t=0.0)
            r = ev.evaluate_rhs(s, params, grid)
            return np.array([r.xi_t.coeffs, r.h_t.coeffs]) - linear_rhs(u, modes, 3.0)

        u0 = np.array([st.xi.coeffs, st.h.coeffs])
        k1 = remainder(u0)
        assert np.max(np.abs(k1)) < 1e-15
        u_pred = prop(u0 + dt * k1)
        u1 = prop(u0) + 0.5 * dt * (prop(k1) + remainder(u_pred))
        u1[1][0] = 0.0                        # the step's mean projection
        monkeypatch.setattr(ev, "solve_phi2", None)   # the step solves nothing
        out, info = ev.step(st, params, grid, dt, record=True)
        assert info.picard_iters == 0 and info.bulk_gradient is None
        # below an ulp of the 0.2-sized coefficients
        assert np.max(np.abs(np.array([out.xi.coeffs, out.h.coeffs]) - u1)) <= 1e-17

    def test_zero_state_stays_zero(self):
        grid = small_grid()
        st = ev.SimState(h=sp.zero_field(32), xi=sp.zero_field(32), t=0.0)
        traj = ev.run(st.h, st.xi, ev.ModelParams(alpha=3.0), grid, 1e-2, 0.1)
        last = traj.states[-1]
        assert np.max(np.abs(last.h.coeffs)) == 0.0
        assert np.max(np.abs(last.xi.coeffs)) == 0.0

    def test_richardson_order(self):
        grid = small_grid()
        params = ev.ModelParams(alpha=3.0)
        h0 = sp.cosine(1, 0.02, 32) + sp.cosine(2, 0.01, 32)
        xi0 = sp.sine(1, 0.02, 32) + sp.sine(2, 0.01, 32)

        def final(dt):
            opts = ev.StepOptions(picard_tol=1e-14, picard_max_iter=30)
            traj = ev.run(h0, xi0, params, grid, dt, 0.08,
                          record_every=10 ** 6, opts=opts)
            s = traj.states[-1]
            return np.stack([s.xi.coeffs, s.h.coeffs])

        u1, u2, u3 = final(4e-3), final(2e-3), final(1e-3)
        order = np.log2(np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u3)))
        assert order >= 1.8

    def test_mean_projected(self):
        grid = small_grid()
        traj = ev.run(sp.cosine(1, 0.02, 32), sp.sine(1, 0.02, 32),
                      ev.ModelParams(alpha=3.0), grid, 1e-2, 0.3)
        assert traj.max_mean_drift < 1e-12
        assert abs(traj.states[-1].h.coeffs[0]) == 0.0

    def test_t_zero_trajectory(self):
        grid = small_grid()
        traj = ev.run(sp.cosine(1, 0.01, 32), sp.zero_field(32),
                      ev.ModelParams(alpha=1.0), grid, 1e-2, 0.0)
        assert len(traj.states) == 1

    def test_linear_run_matches_closed_form(self):
        grid = small_grid(n_modes=16, n_depth=65)
        h0 = sp.cosine(1, 0.05, 16)
        xi0 = sp.sine(1, 0.07, 16)
        traj = ev.run(h0, xi0, ev.ModelParams(alpha=3.0, epsilon=0.0), grid, 1e-3, 0.5,
                      record_every=100)
        for state in traj.states:
            ref = linear_reference(traj.states[0], 3.0, state.t,
                                   sp.stored_modes(16))
            assert np.max(np.abs(state.xi.coeffs - ref[0])) < 1e-10
            assert np.max(np.abs(state.h.coeffs - ref[1])) < 1e-10


def nan_rhs_at_call(monkeypatch, n: int) -> None:
    """evaluate_rhs whose n-th call returns ξ_t = NaN."""
    calls, rhs = [], ev.evaluate_rhs

    def patched(*args, **kwargs):
        r = rhs(*args, **kwargs)
        calls.append(1)
        return dataclasses.replace(r, xi_t=r.xi_t * np.nan) if len(calls) == n else r
    monkeypatch.setattr(ev, "evaluate_rhs", patched)


class TestNonFinite:
    @pytest.mark.parametrize("call, what", [(5, "predictor state"), (6, "new state")])
    def test_run_names_the_step(self, monkeypatch, call, what):
        # calls 5 and 6 are the third step's two right-hand sides
        nan_rhs_at_call(monkeypatch, call)
        with pytest.raises(NumericsError, match=rf"^step 3 of 5 \(t = 0.02 -> 0.03\): "
                                                rf"non-finite coefficient in the {what}$"):
            ev.run(sp.cosine(1, 0.01, 16), sp.sine(1, 0.01, 16),
                   ev.ModelParams(alpha=1.0), small_grid(16, 64), 1e-2, 0.05)


class TestPredictorStart:
    """Every φ₂ solve of a run after its first starts from a nearby solution:
    the first stage at uⁿ from the last predictor's φ₂(ũⁿ), the predictor
    from 2φ₂(uⁿ) − φ₂(uⁿ⁻¹)."""

    @staticmethod
    def decay_run(monkeypatch, t_final):
        """The decay run's data (small_two_mode, |h₀|₁ + |ξ₀|₁ = 0.01) on
        64 × 64 to t_final: (trajectory, every solve's start, sweeps)."""
        starts, sweeps = [], []
        solve, poisson = ev.solve_phi2, el.poisson_divform
        monkeypatch.setattr(ev, "solve_phi2", lambda *a, start=None, **kw:
                            starts.append(start) or solve(*a, start=start, **kw))
        monkeypatch.setattr(el, "poisson_divform", lambda *a, **kw:
                            sweeps.append(1) or poisson(*a, **kw))
        a = 0.01 / 7.0
        h0 = sp.cosine(1, a, 64) + sp.cosine(2, 0.5 * a, 64)
        xi0 = sp.sine(1, a, 64) + sp.sine(2, 0.5 * a, 64)
        traj = ev.run(h0, xi0, ev.ModelParams(alpha=3.0, mu=1.0), small_grid(64, 64),
                      1e-3, t_final, record_every=10)
        return traj, starts, len(sweeps)

    def test_every_solve_after_the_first_starts_warm(self, monkeypatch):
        traj, starts, sweeps = self.decay_run(monkeypatch, 0.01)
        assert len(starts) == traj.phi2_solves == 20
        assert starts[0] is None and all(s is not None for s in starts[1:])
        assert traj.picard_sweeps == sweeps

    def test_decay_run_sweeps_per_solve(self, monkeypatch):
        # the decay workload's 200 steps: a cold first solve of 3 sweeps, then
        # 1 per first stage and 1–2 per predictor while the fast modes decay
        traj, _, sweeps = self.decay_run(monkeypatch, 0.2)
        assert traj.phi2_solves == 400 and traj.picard_sweeps == sweeps
        assert traj.picard_sweeps <= 1.25 * traj.phi2_solves

    def test_step_extrapolates_in_place_and_hands_on_its_first_stage(self, monkeypatch):
        grid = small_grid(16, 64)
        params = ev.ModelParams(alpha=1.0)
        state = ev.SimState(sp.cosine(1, 0.05, 16), sp.sine(1, 0.05, 16), 0.0)
        _, info0 = ev.step(state, params, grid, 1e-2)
        # without prev the first stage is the cold solve at the input state (κ = 0, ε = 1)
        cur = el.solve_phi2(geo.build_geometry(state.h, grid), el.solve_phi1(state.xi, grid))
        assert all(np.array_equal(a.coeffs, b.coeffs)
                   for a, b in zip(info0.phi2, (cur.phi2, cur.dzphi2)))
        starts, sols, solve = [], [], ev.solve_phi2

        def recorded(*a, start=None, **kw):
            starts.append(start)
            sols.append(solve(*a, start=start, **kw))
            return sols[-1]

        monkeypatch.setattr(ev, "solve_phi2", recorded)
        halves = tuple(geo.StripField(grid, 0.5 * f.coeffs) for f in info0.phi2)
        prev = dataclasses.replace(info0, phi2=halves)
        _, info1 = ev.step(state, params, grid, 1e-2, prev=prev)
        assert starts == [info0.phi2_pred, halves]
        first, predictor = sols
        assert info1.phi2 == (first.phi2, first.dzphi2)
        assert info1.phi2_pred == (predictor.phi2, predictor.dzphi2)
        # the predictor's start, written over prev.phi2: (c − p) + c
        for got, c, half in zip(halves, info1.phi2, info0.phi2):
            assert np.array_equal(got.coeffs, (c.coeffs - 0.5 * half.coeffs) + c.coeffs)
        assert info1.picard_sweeps == first.picard_iters + predictor.picard_iters
        assert info1.phi2_solves == 2


class TestHermitianStability:
    def test_long_linear_only_run_conserves_mean(self):
        grid = small_grid(n_modes=8, n_depth=48)
        h0 = sp.cosine(1, 0.01, 8)
        xi0 = sp.sine(1, 0.01, 8)
        traj = ev.run(h0, xi0, ev.ModelParams(alpha=3.0, epsilon=0.0), grid, 1e-3, 10.0,
                      record_every=2000)
        assert traj.max_mean_drift <= 1e-10

    def test_nonlinear_run_mean_drift_bound(self):
        grid = small_grid(n_modes=8, n_depth=48)
        h0 = sp.cosine(1, 0.02, 8)
        xi0 = sp.sine(1, 0.02, 8)
        traj = ev.run(h0, xi0, ev.ModelParams(alpha=3.0), grid, 1e-3, 1.0,
                      record_every=200)
        assert traj.max_mean_drift <= 1e-10
        s = traj.states[-1]
        # negative modes are conjugates by storage; the mean stays real
        assert 2.0 * abs(s.h.coeffs[0].imag) <= 1e-13
        assert 2.0 * abs(s.xi.coeffs[0].imag) <= 1e-13
