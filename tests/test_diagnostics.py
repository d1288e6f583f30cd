import dataclasses

import numpy as np
import pytest

from dampedwaves import diagnostics as dg
from dampedwaves import elliptic as el
from dampedwaves import evolution as ev
from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from dampedwaves.errors import ConfigurationError, DiffeomorphismError
from oracles import (capture_first_stage_starts, check_A_deviation, coeff, resolved_rhs,
                     resolved_xi_energy_budget)


def decay_fixture_run(record_every: int, epsilon: float = 1.0):
    """The decay run's data (small_two_mode, |h₀|₁ + |ξ₀|₁ = 0.01) on 32 × 129."""
    grid = geo.StripGrid(32, depth=8.0, n_depth=129)
    params = ev.ModelParams(alpha=3.0, epsilon=epsilon, mu=1.0)
    a = 0.01 / 7.0
    h0 = sp.cosine(1, a, 32) + sp.cosine(2, 0.5 * a, 32)
    xi0 = sp.sine(1, a, 32) + sp.sine(2, 0.5 * a, 32)
    return ev.run(h0, xi0, params, grid, 2e-3, 0.4, record_every=record_every)


def synthetic_exponential_spectrum(rho, n_modes=64, max_mode=20):
    c = np.zeros(n_modes, dtype=np.complex128)
    for n in range(1, max_mode + 1):
        c[n] = np.exp(-rho * n)
        c[-n] = c[n]
    return sp.SpectrumField(c)


class TestRadius:
    def test_exact_log_linear(self):
        f = synthetic_exponential_spectrum(0.7)
        assert dg.analyticity_radius(f) == pytest.approx(0.7, abs=1e-10)

    def test_single_mode_sentinel(self):
        assert np.isnan(dg.analyticity_radius(sp.cosine(1, 1.0, 32)))

    def test_two_modes_define_the_radius(self):
        # RADIUS_MIN_POINTS = 2 stored modes: n = 1, 2 above the floor fit
        f = sp.cosine(1, 1.0, 32) + sp.cosine(2, 0.25, 32) + sp.cosine(0, 3.0, 32)
        assert dg.analyticity_radius(f) == pytest.approx(np.log(4.0), rel=1e-14)
        # n = 2 under the floor DEFAULT_NOISE_FLOOR·max = 3e-13 leaves one mode
        g = sp.cosine(1, 1.0, 32) + sp.cosine(2, 2e-13, 32) + sp.cosine(0, 3.0, 32)
        assert np.isnan(dg.analyticity_radius(g))

    def test_zero_field_sentinel(self):
        assert np.isnan(dg.analyticity_radius(sp.zero_field(32)))

    def test_noise_floor_excludes_junk(self):
        f = synthetic_exponential_spectrum(0.5, max_mode=6)
        c = sp.hermitian_fill(f.coeffs)
        c[10] = c[-10] = 1e-15   # round-off junk far below the floor
        assert dg.analyticity_radius(sp.SpectrumField(c)) == pytest.approx(0.5, abs=1e-9)

    def test_envelope_is_phase_free(self):
        h = sp.cosine(1, 1e-3, 32) + sp.cosine(2, 1e-4, 32)
        xi = sp.sine(1, 2e-3, 32) + sp.sine(2, 1e-4, 32)
        env = dg.envelope_spectrum(h, xi)
        assert env.coeffs.shape == (16,) and np.all(env.coeffs.imag == 0.0)
        e1 = abs(coeff(env, 1))
        assert e1 == pytest.approx(np.sqrt(1.0 * (1e-3) ** 2 + (0.5e-3) ** 2),
                                   rel=1e-12)


class TestDecayRate:
    def test_synthetic_exponential(self):
        t = np.linspace(0.0, 2.0, 50)
        assert dg.decay_rate(t, np.exp(-3.0 * t)) == pytest.approx(3.0, abs=1e-12)

    def test_window(self):
        t = np.linspace(0.0, 4.0, 200)
        v = np.exp(-1.0 * t) + 0.0 * t
        v[t > 2.0] = np.exp(-2.0 + -5.0 * (t[t > 2.0] - 2.0))
        assert dg.decay_rate(t, v, window=(2.2, 3.8)) == pytest.approx(5.0, rel=1e-6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigurationError):
            dg.decay_rate(np.array([0.0, 1.0]), np.array([1.0, 0.0]))

    def test_linear_single_mode_run(self):
        """k=1, α=3 linear run: fitted δ̂ → αk² = 3 within 2%."""
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        params = ev.ModelParams(alpha=3.0, epsilon=0.0, mu=0.0)
        # the first whole step past one oscillation period 2π
        dt = 2e-3
        traj = ev.run(sp.cosine(1, 1e-3, 16), sp.sine(1, 1e-3, 16), params, grid,
                      dt, np.ceil(2.0 * np.pi / dt) * dt, record_every=5)
        recs = dg.compute_records(traj)
        t = np.array([r.t for r in recs])
        lyap = np.array([r.lyapunov for r in recs])
        # fit over one full oscillation period so the envelope wobble averages out
        delta_hat = dg.decay_rate(t, lyap, window=(0.0, 2.0 * np.pi))
        assert delta_hat == pytest.approx(3.0, rel=0.02)


class TestMonotonicity:
    def test_trivial_monotone(self):
        t = np.linspace(0.0, 10.0, 30)
        rep = dg.check_lyapunov_monotone(t, np.exp(-t))
        assert rep.holds

    def test_detects_growth(self):
        t = np.linspace(0.0, 20.0, 50)
        v = np.exp(-t) + 1e-3 * (t > 15.0) * (t - 15.0)
        rep = dg.check_lyapunov_monotone(t, v, slack=1e-6)
        assert not rep.holds

    def test_transient_window_skips_early(self):
        t = np.linspace(0.0, 10.0, 60)
        v = np.exp(-t).copy()
        v[2] = v[1] * 1.5   # early bump inside the default transient
        rep = dg.check_lyapunov_monotone(t, v)
        assert rep.holds


class TestWeightedNorms:
    def test_floor_excludes_roundoff(self):
        c = np.zeros(64, dtype=np.complex128)
        c[1] = c[-1] = 0.5
        c[20] = c[-20] = 1e-18      # junk that huge weights would amplify
        f = sp.SpectrumField(c)
        val = dg.floored_wiener(f, 1.0, lam_t=2.0)
        expected = 2.0 * (1 + 1) * np.exp(2.0) * 0.5
        assert val == pytest.approx(expected, rel=1e-12)

    def test_matches_plain_norm_when_clean(self):
        from dampedwaves.norms import NormSpec, wiener_norm
        f = sp.cosine(1, 1.0, 32) + sp.cosine(3, 0.25, 32)
        assert dg.floored_wiener(f, 1.0, 0.3) == pytest.approx(
            wiener_norm(f, NormSpec(1.0, 0.3)), rel=1e-12)


class TestEnergyAndRecords:
    @pytest.fixture(scope="class")
    def traj(self, request):
        del request
        return decay_fixture_run(20)

    def test_records_schema(self, traj):
        recs = dg.compute_records(traj)
        assert len(recs) == len(traj.states)
        assert recs[0].t == 0.0
        row = recs[0].row()
        assert len(row) == len(dg.DiagRecord.FIELDS)

    def test_energy_monotone_nondecreasing(self, traj):
        recs = dg.compute_records(traj)
        e = [r.energy for r in recs]
        assert all(e[i + 1] >= e[i] - 1e-15 for i in range(len(e) - 1))

    def test_lyapunov_decays(self, traj):
        recs = dg.compute_records(traj)
        assert recs[-1].lyapunov < recs[0].lyapunov

    def test_xi_budget_structure(self, traj):
        rep = dg.check_xi_energy_budget(traj)
        assert rep.holds

    def test_frozen_state_energy_structure(self):
        """Artificially constant records: boundary part flat, bulk linear in t."""
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        params = ev.ModelParams(alpha=3.0)
        h = sp.cosine(1, 0.01, 16)
        xi = sp.sine(1, 0.01, 16)
        states = tuple(ev.SimState(h=h, xi=xi, t=float(t)) for t in (0.0, 0.5, 1.0))
        traj = ev.Trajectory(states=states, params=params, grid=grid, dt=0.5,
                             max_mean_drift=0.0, max_picard_iters=1,
                             opts=ev.StepOptions())
        recs = dg.compute_records(traj)
        b0 = recs[0].energy
        gain1 = recs[1].energy - b0
        gain2 = recs[2].energy - recs[1].energy
        assert gain1 == pytest.approx(gain2, rel=1e-9)
        assert recs[0].sobolev_h3 == recs[1].sobolev_h3


class TestXiBudget:
    """The ξ energy budget reads the remainder the stepper applied."""

    @pytest.mark.parametrize("record_every", [1, 7, 20])
    def test_equals_resolving_reference(self, record_every, monkeypatch):
        # the reference re-solves each record from its solve's start
        with monkeypatch.context() as m:
            starts = capture_first_stage_starts(m)
            traj = decay_fixture_run(record_every)
        assert starts[0] == (traj.grid, None) and len(starts) == 200
        assert dg.check_xi_energy_budget(traj) == resolved_xi_energy_budget(traj, starts)

    def test_linear_only_remainder_is_zero(self):
        # ε = 0: the linear system, whose steps apply no remainder
        traj = decay_fixture_run(20, epsilon=0.0)
        assert traj.xi_remainder[-1] is None
        assert all(isinstance(r, sp.SpectrumField) and np.all(r.coeffs == 0.0)
                   for r in traj.xi_remainder[:-1])
        rep = dg.check_xi_energy_budget(traj)
        assert rep == resolved_xi_energy_budget(traj)
        # the remainder at ε = 1, which this run never applied, is not zero
        steep = dataclasses.replace(traj, params=dataclasses.replace(traj.params,
                                                                     epsilon=1.0))
        assert rep != resolved_xi_energy_budget(steep)

    def test_hand_built_trajectory_rejected(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        st = ev.SimState(h=sp.cosine(1, 0.01, 16), xi=sp.sine(1, 0.01, 16), t=0.0)
        states = tuple(dataclasses.replace(st, t=t) for t in (0.0, 0.1, 0.2))
        traj = ev.Trajectory(states=states, params=ev.ModelParams(alpha=3.0, mu=1.0),
                             grid=grid, dt=0.1, max_mean_drift=0.0,
                             max_picard_iters=1, opts=ev.StepOptions())
        with pytest.raises(ConfigurationError, match="record 1 has no xi remainder"):
            dg.check_xi_energy_budget(traj)
        with pytest.raises(ConfigurationError, match="at least three records"):
            dg.check_xi_energy_budget(dataclasses.replace(traj, states=states[:2]))


class TestRecordSolves:
    """Records reuse the stepper's elliptic solves and honour its options."""

    grid = geo.StripGrid(16, depth=8.0, n_depth=64)
    params = ev.ModelParams(alpha=1.0)
    h0 = sp.cosine(1, 0.05, 16) + sp.cosine(2, 0.02, 16)
    xi0 = sp.sine(1, 0.05, 16)

    def counted_solves(self, monkeypatch) -> list:
        calls = []
        for site in (ev, dg):
            def counted(*args, _solve=site.solve_phi2, **kwargs):
                calls.append(1)
                return _solve(*args, **kwargs)
            monkeypatch.setattr(site, "solve_phi2", counted)
        return calls

    @pytest.mark.parametrize("n_steps, record_every", [(4, 1), (5, 2)])
    def test_one_solve_per_state(self, monkeypatch, n_steps, record_every):
        calls = self.counted_solves(monkeypatch)
        traj = ev.run(self.h0, self.xi0, self.params, self.grid, 1e-2,
                      n_steps * 1e-2, record_every=record_every)
        dg.compute_records(traj)
        assert len(calls) == 2 * n_steps + 1
        assert traj.bulk[-1] is None
        assert all(isinstance(b, float) for b in traj.bulk[:-1])

    @pytest.mark.parametrize("n_steps, record_every", [(4, 1), (5, 2)])
    def test_budget_adds_no_solve(self, monkeypatch, n_steps, record_every):
        calls = self.counted_solves(monkeypatch)
        traj = ev.run(self.h0, self.xi0, self.params, self.grid, 1e-2,
                      n_steps * 1e-2, record_every=record_every)
        dg.compute_records(traj)
        dg.check_xi_energy_budget(traj)
        assert len(calls) == 2 * n_steps + 1

    def test_reused_energy_bit_identical_to_resolve(self, monkeypatch):
        with monkeypatch.context() as m:
            starts = capture_first_stage_starts(m)
            traj = ev.run(self.h0, self.xi0, self.params, self.grid, 1e-2, 0.04,
                          record_every=1)
        reused = dg.compute_records(traj)
        # every recorded state re-solved from the start the stepper's solve had
        bulk = []
        for i in range(len(traj.states) - 1):
            sol = resolved_rhs(traj, i, starts).solution
            bulk.append(el.gradient_norm(sol.phi1, sol.phi2, sol.dzphi2))
        assert list(traj.bulk[:-1]) == bulk
        resolved = dg.compute_records(dataclasses.replace(traj, bulk=(*bulk, None)))
        assert [r.energy for r in reused] == [r.energy for r in resolved]
        # the run's first solve starts cold, as a fresh one does
        assert starts[0] == (self.grid, None) and traj.bulk[0] == dg.bulk_gradient_norm(
            traj.states[0], self.params, self.grid, traj.opts)

    def test_epsilon_zero_run_solves_nothing(self, monkeypatch):
        # ε = 0 steps by the exact propagator and the records take φ₂ = 0
        params = dataclasses.replace(self.params, epsilon=0.0)
        calls = self.counted_solves(monkeypatch)
        traj = ev.run(self.h0, self.xi0, params, self.grid, 1e-2, 0.05, record_every=2)
        assert calls == []
        assert all(b is None for b in traj.bulk)
        dg.compute_records(traj)
        assert calls == []

    def test_records_honour_run_margin(self):
        # min J = 1 - 0.33 = 0.67; xi = 0 keeps the Picard problem trivial
        st = ev.SimState(h=sp.cosine(1, 0.33, 16), xi=sp.zero_field(16), t=0.0)
        st2 = dataclasses.replace(st, t=0.1)
        traj = ev.Trajectory(states=(st, st2), params=self.params, grid=self.grid,
                             dt=0.1, max_mean_drift=0.0,
                             max_picard_iters=1, opts=ev.StepOptions(margin_min=0.7))
        with pytest.raises(DiffeomorphismError, match="margin_min = 0.7"):
            dg.compute_records(traj)
        default = dataclasses.replace(traj, opts=ev.StepOptions())
        assert len(dg.compute_records(default)) == 2

    def test_linear_only_records_flat_strip(self):
        # at ε = 0 the records take the flat strip's φ₂ = 0, which is its
        # solution bit for bit
        params = dataclasses.replace(self.params, epsilon=0.0)
        traj = ev.run(sp.cosine(1, 0.5, 16), sp.zero_field(16), params,
                      self.grid, 1e-2, 0.05, record_every=1)
        recs = dg.compute_records(traj)
        zero = geo.zero_strip(self.grid)
        flat = geo.build_geometry(sp.zero_field(16), self.grid)
        for st in traj.states:
            phi1 = geo.harmonic_extension(st.xi, self.grid)
            sol = el.solve_phi2(flat, phi1, tol=traj.opts.picard_tol)
            assert dg.bulk_gradient_norm(st, params, self.grid, traj.opts) == \
                el.gradient_norm(phi1, zero, zero) == \
                el.gradient_norm(phi1, sol.phi2, sol.dzphi2)
        assert recs[-1].energy > 0.0 and np.all(np.isfinite([r.energy for r in recs]))


class TestSmallnessMonitor:
    def test_flags_raised_not_fatal(self):
        recs = [dg.DiagRecord(t=float(i), sobolev_h3=0, sobolev_xi3=0,
                              wiener_h=v / 2, wiener_xi=v / 2, energy=0,
                              radius=0, lyapunov=v)
                for i, v in enumerate((0.1, 0.4, 0.9, 0.2))]
        flags = dg.smallness_flags(recs, cap=0.5)
        assert flags == [False, False, True, False]

    def test_mu_validation_in_records(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        params = ev.ModelParams(alpha=1.0, mu=0.9)   # mu >= alpha/2
        st = ev.SimState(h=sp.cosine(1, 1e-3, 16), xi=sp.zero_field(16), t=0.0)
        st2 = ev.SimState(h=st.h, xi=st.xi, t=0.1)
        traj = ev.Trajectory(states=(st, st2), params=params, grid=grid, dt=0.1,
                             max_mean_drift=0.0, max_picard_iters=1,
                             opts=ev.StepOptions())
        with pytest.raises(ConfigurationError, match="mu < alpha/2"):
            dg.compute_records(traj)


class TestADeviation:
    def test_bound_and_constant(self):
        b = sp.cosine(1, 0.05, 64) + sp.cosine(2, 0.02, 64)
        rep, c_emp = check_A_deviation(b, 1.0, 0.0)
        assert rep.holds
        assert 0.0 < c_emp <= 4.0

    def test_scaling_with_amplitude(self):
        cs = []
        for amp in (0.01, 0.05, 0.1):
            _, c_emp = check_A_deviation(sp.cosine(1, amp, 32), 1.0, 0.0)
            cs.append(c_emp)
        # empirical constant stays O(1) as the amplitude shrinks
        assert abs(cs[0] - cs[1]) < 0.2 and cs[2] < 3.0
