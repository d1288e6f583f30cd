import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded

from dampedwaves import elliptic as el
from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from dampedwaves.config import initial_data, parse_config
from dampedwaves.errors import ContractionError
from oracles import analytic_data, coeff, full_band_solve, signed_modes
from dampedwaves.norms import NormSpec, strip_norm
from dampedwaves.harness import (elliptic_bound_trials, random_boundary_field,
                                 manufactured_solution_errors,
                                 random_strip_field)


def manufactured_fields(grid):
    """g = (0, 2 e^{x₂} cos x₁); exact solution φ = x₂ e^{x₂} cos x₁."""
    prof = np.exp(grid.z)
    c2 = np.zeros((grid.n_modes // 2, grid.n_depth), dtype=np.complex128)
    c2[1] = prof
    exact = np.zeros_like(c2)
    exact[1] = 0.5 * grid.z * prof
    return geo.zero_strip(grid), geo.StripField(grid, c2), exact


def frontier_data(a: float, n: int) -> tuple[sp.SpectrumField, sp.SpectrumField]:
    """h = a cos x + (a/3) cos 5x and its matching sine ξ."""
    return (sp.cosine(1, a, n) + sp.cosine(5, a / 3, n),
            sp.sine(1, a, n) + sp.sine(5, a / 3, n))


def reference_sweep(bundle, phi1, phi2, dz2):
    """One Picard sweep P(φ₂) = Poisson(−Q∇(φ₁+φ₂)) written with
    values_stack and project_stack, −Q from all N/2 modes of δψ on the
    pad_size(N, 2) grid: (g₁, g₂, PoissonSolution)."""
    m = sp.pad_size(bundle.grid.n_modes, 2)
    d1, d2 = sp.values_stack([bundle.dpsi1, bundle.dpsi2], m)
    nq11, nq12, nq22 = -d2, d1, (d2 - d1 * d1) / (1.0 + d2)
    u1v, u2v = sp.values_stack([sp.dx(phi1 + phi2), sp.lam(phi1) + dz2], m)
    g1, g2 = sp.project_stack([nq11 * u1v + nq12 * u2v,
                               nq12 * u1v + nq22 * u2v], phi1)
    return g1, g2, el.poisson_divform(g1, g2)


def plain_picard(bundle, phi1, tol, max_iter):
    """φ₂ ← Poisson(−Q∇(φ₁+φ₂)) from φ₂ = 0, unmixed, in the order
    solve_phi2 runs its sweeps: (φ₂, ∂₂φ₂, increments)."""
    phi2 = dz2 = geo.zero_strip(bundle.grid)
    increments = []
    for _ in range(max_iter):
        _, _, sol = reference_sweep(bundle, phi1, phi2, dz2)
        increments.append(strip_norm(sol.phi - phi2, NormSpec(0.0, 0.0, 0)))
        phi2, dz2 = sol.phi, sol.dzphi
        if increments[-1] <= tol:
            break
    return phi2, dz2, tuple(increments)


@pytest.fixture
def workload_problem(monkeypatch):
    """(bundle, φ₁) of a benchmark workload's initial state, as its first
    right-hand side builds them."""
    monkeypatch.syspath_prepend(str(Path(el.__file__).resolve().parents[2] / "bench"))
    from workloads import WORKLOADS, config_text

    def make(name: str, seed: int = 1):
        cfg = parse_config(config_text(WORKLOADS[name], seed))
        h, xi = initial_data(cfg)
        kappa = cfg.params.kappa
        bundle = geo.build_geometry(cfg.params.epsilon * sp.mollify(h, kappa), cfg.grid,
                                    margin_min=cfg.step_options.margin_min)
        return bundle, el.solve_phi1(sp.mollify(xi, kappa), cfg.grid)
    return make


def rel_diff(a: geo.StripField, b: geo.StripField) -> float:
    return float(np.max(np.abs(a.coeffs - b.coeffs)) / np.max(np.abs(b.coeffs)))


def full(f: geo.StripField) -> np.ndarray:
    """The full N-row FFT layout of a strip field's coefficients."""
    return sp.hermitian_fill(f.coeffs)


class TestPhi1:
    def test_closed_form(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        xi = sp.cosine(1, 1.0, 16)
        phi1 = el.solve_phi1(xi, grid)
        assert np.max(np.abs(phi1.coeffs[1] - 0.5 * np.exp(grid.z))) < 1e-15
        dz = sp.lam(phi1)
        assert np.max(np.abs(dz.trace().coeffs - sp.lam(xi).coeffs)) < 1e-15

    def test_zero(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        assert np.all(el.solve_phi1(sp.zero_field(16), grid).coeffs == 0)

    def test_second_vertical_trace(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        xi = sp.cosine(2, 1.0, 16)
        d2 = sp.lam(el.solve_phi1(xi, grid), 2)
        # ∂₂²φ₁|₀ = Λ²ξ = 4 cos 2x₁
        assert np.max(np.abs(d2.trace().coeffs - 4.0 * xi.coeffs)) < 1e-14


class TestPoissonDivform:
    def test_manufactured_solution(self):
        grid = geo.StripGrid(8, depth=8.0, n_depth=512)
        g1, g2, exact = manufactured_fields(grid)
        # the forcing's tail at depth is e^{-depth} by construction
        sol = el.poisson_divform(g1, g2, tail_tol=10.0 * np.exp(-grid.depth))
        assert np.max(np.abs(sol.phi.coeffs - exact)) <= 1e-4
        # ∂₂φ|₀ = cos x₁ (quadrature + truncation-tail tolerance)
        assert coeff(sol.dz_trace, 1) == pytest.approx(0.5, abs=5e-5)

    def test_zero_forcing(self):
        grid = geo.StripGrid(8, depth=8.0, n_depth=64)
        z = geo.zero_strip(grid)
        sol = el.poisson_divform(z, z)
        assert np.all(sol.phi.coeffs == 0)

    def test_second_order_convergence(self):
        errs = manufactured_solution_errors((256, 512, 1024), depth=20.0)
        o1 = np.log2(errs[0][1] / errs[1][1])
        o2 = np.log2(errs[1][1] / errs[2][1])
        assert abs(o1 - 2.0) < 0.2 and abs(o2 - 2.0) < 0.2

    def test_top_trace_zero(self):
        grid = geo.StripGrid(16, depth=10.0, n_depth=257)
        g1 = random_strip_field(np.random.default_rng(0), grid, 5)
        g2 = random_strip_field(np.random.default_rng(1), grid, 5)
        # the default tail_tol stays below the mode-0 flux, and so below the
        # tail (1.8e-5 of max): both warn
        with pytest.warns(UserWarning, match="has not decayed"), \
                pytest.warns(UserWarning, match="net flux"):
            sol = el.poisson_divform(g1, g2)
        assert np.max(np.abs(sol.phi.coeffs[:, -1])) < 1e-13

    def test_zero_flux_flag(self):
        grid = geo.StripGrid(8, depth=8.0, n_depth=64)
        c = np.zeros((4, 64), dtype=np.complex128)
        c[0] = 1.0    # mode-0 forcing that does not decay
        with pytest.warns(UserWarning, match="has not decayed"), \
                pytest.warns(UserWarning, match="net flux"):
            sol = el.poisson_divform(geo.zero_strip(grid), geo.StripField(grid, c))
        assert sol.flux_flag

    def test_fd_bvp_oracle(self):
        """Independent 2nd-order FD two-point solver per mode agrees."""
        grid = geo.StripGrid(16, depth=12.0, n_depth=385)
        rng = np.random.default_rng(3)
        g1 = random_strip_field(rng, grid, 5)
        g2 = random_strip_field(rng, grid, 5)
        # every mode decays at least like e^{0.9 x₂}, so the tail is below
        # 10e^{-depth} of max, as elliptic_bound_trials passes it
        sol = el.poisson_divform(g1, g2, tail_tol=10.0 * np.exp(-grid.depth))
        z, dz = grid.z, grid.dz
        nz = grid.n_depth
        c1, c2, phi = full(g1), full(g2), full(sol.phi)
        worst = 0.0
        for k in (1, 2, 3, -2):
            b = (1j * k) * c1[k] + geo.fd_derivative(c2[k], dz, 1, acc=6)
            lower = np.full(nz, 1.0 / dz ** 2)
            diag = np.full(nz, -2.0 / dz ** 2 - k ** 2)
            upper = np.full(nz, 1.0 / dz ** 2)
            # bottom Neumann by ghost point, top Dirichlet
            upper_b = upper.copy()
            upper_b[1] = 2.0 / dz ** 2
            ab = np.zeros((3, nz), dtype=np.complex128)
            ab[0, 1:] = upper_b[1:]
            ab[1, :] = diag
            ab[2, :-1] = lower[:-1]
            ab[1, -1] = 1.0
            ab[2, -2] = 0.0
            rhs = b.astype(np.complex128).copy()
            rhs[-1] = 0.0
            phi_fd = solve_banded((1, 1), ab, rhs)
            worst = max(worst, float(np.max(np.abs(phi_fd - phi[k]))))
        scale = float(np.max(np.abs(sol.phi.coeffs)))
        # O(dz²) + truncation-depth tolerance
        tol = 20.0 * (dz ** 2 + np.exp(-grid.depth)) * max(scale, 1.0)
        assert worst <= tol


class TestSolvePhi2:
    def test_flat_geometry_one_iteration(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        bundle = geo.build_geometry(sp.zero_field(32), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.3, 32), grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e-12)
        assert sol.picard_iters == 1
        assert np.max(np.abs(sol.phi2.coeffs)) == 0.0

    def test_small_data_convergence(self):
        grid = geo.StripGrid(64, depth=8.0, n_depth=257)
        bundle = geo.build_geometry(sp.cosine(1, 0.05, 64), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.05, 64), grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e-12, max_iter=20)
        assert sol.picard_iters <= 20
        # geometric decay of increments
        ratios = [sol.increments[i + 1] / sol.increments[i]
                  for i in range(len(sol.increments) - 2)]
        assert max(ratios) < 0.5
        assert sol.residual <= 1e-8

    def test_residual_computed_on_read_only(self, monkeypatch):
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        bundle = geo.build_geometry(sp.cosine(1, 0.05, 32), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.05, 32), grid)
        calls = []
        laplacian = el.discrete_laplacian
        monkeypatch.setattr(el, "discrete_laplacian",
                            lambda u: calls.append(u) or laplacian(u))
        sol = el.solve_phi2(bundle, phi1, tol=1e-12)
        assert calls == []
        u1 = sp.dx(phi1 + sol.phi2)
        u2 = sp.lam(phi1) + sol.dzphi2
        grad = max(el._rms(u1), el._rms(u2))
        expected = el._rms(laplacian(sol.last_increment)) / grad
        assert sol.residual == expected
        assert len(calls) == 1

    @staticmethod
    def _count_poisson_solves(monkeypatch, h, xi, mixes):
        # the benchmark traces the sweep layer through this module global,
        # on plain Picard and on mixed solves alike
        grid = geo.StripGrid(16, depth=8.0, n_depth=64)
        bundle = geo.build_geometry(h, grid)
        phi1 = el.solve_phi1(xi, grid)
        calls = []
        poisson = el.poisson_divform

        def spy(g1, g2, *args, **kw):
            calls.append((g1, g2))
            return poisson(g1, g2, *args, **kw)

        monkeypatch.setattr(el, "poisson_divform", spy)
        sol = el.solve_phi2(bundle, phi1, tol=1e-12)
        assert sol.picard_iters > 1 and len(calls) == sol.picard_iters
        assert (sol.mixed_from is not None) == mixes
        for g in (g for pair in calls for g in pair):
            assert isinstance(g, geo.StripField) and g.coeffs.shape == (8, 64)

    def test_one_half_band_poisson_solve_per_sweep(self, monkeypatch):
        self._count_poisson_solves(monkeypatch, sp.cosine(1, 0.1, 16),
                                   sp.sine(1, 0.1, 16), mixes=False)

    def test_one_half_band_poisson_solve_per_mixed_sweep(self, monkeypatch):
        self._count_poisson_solves(monkeypatch, *frontier_data(0.2, 16), mixes=True)

    @pytest.mark.parametrize("a", [0.05, 0.2])      # plain Picard; mixed at 0.2
    def test_workspace_sweep_is_bitwise_reference_sweep(self, a):
        grid = geo.StripGrid(16, depth=8.0, n_depth=64)
        h, xi = frontier_data(a, 16)
        bundle = geo.build_geometry(h, grid)
        phi1 = el.solve_phi1(xi, grid)
        assert (el.solve_phi2(bundle, phi1).mixed_from is not None) == (a == 0.2)
        zero = geo.zero_strip(grid)
        first = el.solve_phi2(bundle, phi1, tol=np.inf)     # one sweep from 0
        for start in ((zero, zero), (first.phi2, first.dzphi2)):
            sol = el.solve_phi2(bundle, phi1, tol=np.inf, start=start)
            g1, g2, ref = reference_sweep(bundle, phi1, *start)
            assert sol.picard_iters == 1
            for got, want in ((sol.g1, g1), (sol.g2, g2), (sol.phi2, ref.phi),
                              (sol.dzphi2, ref.dzphi)):
                assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("a", [0.05, 0.2])
    def test_warm_start_agrees_with_cold_solve(self, a):
        # started from the solution at a nearby state, as the Heun predictor is
        grid = geo.StripGrid(16, depth=8.0, n_depth=64)
        h, xi = frontier_data(a, 16)
        near = el.solve_phi2(geo.build_geometry(h, grid), el.solve_phi1(xi, grid))
        bundle = geo.build_geometry(1.01 * h, grid)
        phi1 = el.solve_phi1(1.01 * xi, grid)
        tol = 1e-10
        cold = el.solve_phi2(bundle, phi1, tol=tol)
        warm = el.solve_phi2(bundle, phi1, tol=tol, start=(near.phi2, near.dzphi2))
        assert warm.picard_iters < cold.picard_iters
        assert strip_norm(warm.phi2 - cold.phi2, NormSpec(0.0, 0.0, 0)) <= 10 * tol

    def test_fd_residual_oracle(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=513)
        bundle = geo.build_geometry(sp.cosine(1, 0.05, 32), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.05, 32), grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e-13, max_iter=25)
        res, grad = el.ale_laplacian_residual(bundle, phi1, sol.phi2, sol.dzphi2)
        # independent stencil route is quadrature-limited at O(dz²)-scale
        assert res <= 5e-4 * grad

    def test_fd_residual_refines(self):
        h = sp.cosine(1, 0.05, 32)
        xi = sp.sine(1, 0.05, 32)
        rels = []
        for nz in (129, 257, 513):
            grid = geo.StripGrid(32, depth=8.0, n_depth=nz)
            bundle = geo.build_geometry(h, grid)
            phi1 = el.solve_phi1(xi, grid)
            sol = el.solve_phi2(bundle, phi1, tol=1e-13, max_iter=25)
            res, grad = el.ale_laplacian_residual(bundle, phi1, sol.phi2, sol.dzphi2)
            rels.append(res / grad)
        assert rels[2] < rels[0] / 4.0

    def test_contraction_ratio_scales_with_amplitude(self):
        """Increment ratios behave like C·amplitude for small data."""
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        ratios = []
        for amp in (0.02, 0.04, 0.08):
            bundle = geo.build_geometry(sp.cosine(1, amp, 32), grid)
            phi1 = el.solve_phi1(sp.sine(1, amp, 32), grid)
            sol = el.solve_phi2(bundle, phi1, tol=1e-13, max_iter=30)
            n = len(sol.increments)
            ratios.append((sol.increments[-1] / sol.increments[0]) ** (1.0 / (n - 1)))
        slope = np.polyfit(np.log((0.02, 0.04, 0.08)), np.log(ratios), 1)[0]
        assert slope >= 0.8   # near-linear growth of the contraction factor

    def test_contraction_error_moderate_amplitude(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        bundle = geo.build_geometry(sp.cosine(1, 0.55, 32), grid, margin_min=0.05)
        phi1 = el.solve_phi1(sp.sine(1, 0.5, 32), grid)
        with pytest.raises(ContractionError):
            el.solve_phi2(bundle, phi1, tol=1e-14, max_iter=8)


class TestAndersonMixing:
    @pytest.mark.parametrize("n, nz", [(32, 96), (64, 192)])
    @pytest.mark.parametrize("xi_kind", ["sine", "h"])
    def test_amplitude_frontier_converges(self, n, nz, xi_kind):
        # min J = 0.47: plain Picard stalls at the cap or its increments grow
        grid = geo.StripGrid(n, depth=8.0, n_depth=nz)
        h, xi = frontier_data(0.2, n)
        bundle = geo.build_geometry(h, grid)
        phi1 = el.solve_phi1(h if xi_kind == "h" else xi, grid)
        sol = el.solve_phi2(bundle, phi1)
        assert sol.mixed_from is not None and sol.picard_iters <= 25
        ref = el.solve_phi2(bundle, phi1, tol=1e-13, max_iter=40)
        assert rel_diff(sol.phi2, ref.phi2) <= 1e-7

    def test_small_amplitude_is_bitwise_plain_picard(self, workload_problem, monkeypatch):
        # the same bits as a solve that can never switch to mixing
        grid = geo.StripGrid(64, depth=8.0, n_depth=256)    # criterion 6
        crit6 = (geo.build_geometry(sp.cosine(1, 0.01, 64) + sp.cosine(2, 0.0033, 64), grid),
                 el.solve_phi1(sp.sine(1, 0.01, 64), grid), 1e-12, 20)
        decay = (*workload_problem("decay_64x192"), 1e-10, 25)
        for bundle, phi1, tol, max_iter in (crit6, decay):
            sol = el.solve_phi2(bundle, phi1, tol=tol, max_iter=max_iter)
            with monkeypatch.context() as m:
                m.setattr(el, "MIX_SWITCH_RATIO", np.inf)
                plain = el.solve_phi2(bundle, phi1, tol=tol, max_iter=max_iter)
            assert sol.mixed_from is None
            assert sol.increments == plain.increments
            assert np.array_equal(sol.phi2.coeffs, plain.phi2.coeffs)
            assert np.array_equal(sol.dzphi2.coeffs, plain.dzphi2.coeffs)

    def test_steep_mixing_is_no_less_accurate(self, workload_problem):
        bundle, phi1 = workload_problem("steep_128x384")
        sol = el.solve_phi2(bundle, phi1)
        plain, _, plain_incs = plain_picard(bundle, phi1, 1e-10, 25)
        ref, _, _ = plain_picard(bundle, phi1, 1e-14, 60)
        assert sol.mixed_from is not None and 2 < sol.mixed_from <= sol.picard_iters
        assert sol.picard_iters < len(plain_incs)
        assert rel_diff(sol.phi2, ref) <= rel_diff(plain, ref)

    def test_round_off_tolerance_stays_finite(self, workload_problem, monkeypatch):
        # near round-off the least-squares fit may turn singular; the sweep
        # then takes the plain Picard output
        bundle, phi1 = workload_problem("steep_128x384")
        forcings = []
        poisson = el.poisson_divform
        monkeypatch.setattr(el, "poisson_divform", lambda g1, g2, *a, **kw:
                            forcings.append((g1, g2)) or poisson(g1, g2, *a, **kw))
        try:
            sol = el.solve_phi2(bundle, phi1, tol=1e-15, max_iter=40)
        except ContractionError as exc:
            assert "in 40 iterations" in str(exc)
        else:
            assert np.all(np.isfinite(sol.phi2.coeffs))
            assert np.all(np.isfinite(sol.dzphi2.coeffs))
        for g1, g2 in forcings:
            assert np.all(np.isfinite(g1.coeffs)) and np.all(np.isfinite(g2.coeffs))

    def test_singular_fit_means_a_plain_sweep(self):
        w = sp.mode_multiplicity(8)[:, None]
        f = np.ones((4, 6), dtype=np.complex128)
        zero = np.zeros_like(f)
        assert el._mixing_coefficients([zero, zero], f, w) is None
        assert el._mixing_coefficients([f, f], f, w) is None
        assert el._mixing_coefficients([np.full_like(f, np.nan)], f, w) is None
        gamma = el._mixing_coefficients([f], 2 * f, w)
        assert gamma.dtype == np.float64 and gamma[0] == pytest.approx(2.0)


class TestDepthBlocks:
    @pytest.mark.parametrize("n_modes,n_depth,depth", [
        (8, 48, 8.0), (16, 64, 8.0), (64, 192, 8.0), (64, 256, 8.0),
        (128, 384, 8.0), (12, 97, 40.0), (256, 129, 40.0)])
    def test_block_map(self, n_modes, n_depth, depth):
        grid = geo.StripGrid(n_modes, depth=depth, n_depth=n_depth)
        blocks = el._depth_blocks(grid)
        assert [lo for lo, _, _ in blocks] == [0] + [hi for _, hi, _ in blocks[:-1]]
        assert blocks[-1][1] == n_depth and all(lo < hi for lo, hi, _ in blocks)
        caps = [cap for _, _, cap in blocks]
        assert caps == sorted(caps) and caps[-1] == n_modes // 2    # bottom up
        assert all(cap >= 4 for cap in caps[:-1])
        for lo, hi, cap in blocks:
            dropped = grid.modes[cap:, None] * np.abs(grid.z[lo:hi])
            assert np.all(dropped > el.ROUNDOFF_EXPONENT)
        assert el._depth_blocks(grid) is blocks

    def test_bench_grids(self):
        def rows_and_caps(n_modes, n_depth):
            return [(hi - lo, cap) for lo, hi, cap in
                    el._depth_blocks(geo.StripGrid(n_modes, depth=8.0, n_depth=n_depth))]
        assert rows_and_caps(8, 48) == [(48, 4)]
        assert rows_and_caps(16, 64) == [(64, 8)]
        assert rows_and_caps(64, 192) == [(66, 8), (63, 16), (63, 32)]
        assert rows_and_caps(128, 384) == [(132, 8), (126, 16), (63, 32), (63, 64)]

    @staticmethod
    def state(name, workload_problem):
        """(bundle, φ₁): a workload's initial state, or a = 0.2 frontier or
        random analytic data on the named grid."""
        kind, size = name.split("_")
        if kind in ("decay", "steep"):
            return workload_problem(name)
        n, nz = map(int, size.split("x"))
        grid = geo.StripGrid(n, depth=8.0, n_depth=nz)
        h, xi = frontier_data(0.2, n) if kind == "frontier" else analytic_data(n)
        return geo.build_geometry(h, grid), el.solve_phi1(xi, grid)

    STATES = ["decay_64x192", "steep_128x384", "frontier_64x192", "frontier_128x384",
              "analytic_128x384"]

    @pytest.mark.parametrize("name", STATES)
    def test_sweep_moves_only_round_off(self, name, workload_problem):
        bundle, phi1 = self.state(name, workload_problem)
        assert len(el._depth_blocks(bundle.grid)) > 1
        zero = geo.zero_strip(bundle.grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e300, max_iter=1)
        g1, g2, ref = reference_sweep(bundle, phi1, zero, zero)
        for got, want in ((sol.g1, g1), (sol.g2, g2), (sol.phi2, ref.phi),
                          (sol.dzphi2, ref.dzphi)):
            assert rel_diff(got, want) <= 1e-15

    @pytest.mark.parametrize("name", STATES)
    def test_converged_solve_moves_only_round_off(self, name, workload_problem):
        bundle, phi1 = self.state(name, workload_problem)
        sol = el.solve_phi2(bundle, phi1)
        # one block of all modes: the full-band −Q and the full-band sweep of
        # reference_sweep
        ref = full_band_solve(bundle, phi1)
        assert sol.picard_iters == ref.picard_iters
        assert sol.mixed_from == ref.mixed_from
        assert rel_diff(sol.phi2, ref.phi2) <= 1e-14
        assert rel_diff(sol.dzphi2, ref.dzphi2) <= 1e-14

    @pytest.mark.parametrize("name,bound", [("frontier_64x192", 1e-7),
                                            ("analytic_128x384", 1e-10)])
    def test_sweep_flux_resolves_q22(self, name, bound, workload_problem):
        # g₂ = −Q¹₂u₁ − Q²₂u₂ against Q from all modes on 8N points: the
        # rational Q²₂ enters the product unprojected, so its modes above a
        # block's cap still reach the kept modes
        bundle, phi1 = self.state(name, workload_problem)
        sol = el.solve_phi2(bundle, phi1, tol=np.inf)      # one sweep from 0
        d1, d2, u1, u2 = sp.values_stack([bundle.dpsi1, bundle.dpsi2, sp.dx(phi1),
                                          sp.lam(phi1)], 8 * bundle.grid.n_modes)
        want = sp.project(d1 * u1 + (d2 - d1 * d1) / (1.0 + d2) * u2, phi1)
        assert rel_diff(sol.g2, want) <= bound


class TestTraces:
    def test_flat_traces_zero(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        bundle = geo.build_geometry(sp.zero_field(32), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.2, 32), grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e-12)
        assert np.max(np.abs(sol.traces.dphi2_dz0.coeffs)) < 1e-14
        assert np.max(np.abs(sol.traces.d2phi2_dz0.coeffs)) < 1e-14
        assert np.max(np.abs(sol.traces.dphi1_dz0.coeffs -
                             sp.lam(phi1.trace()).coeffs)) < 1e-14

    def test_dual_route_second_trace(self):
        grid = geo.StripGrid(64, depth=8.0, n_depth=513)
        bundle = geo.build_geometry(sp.cosine(1, 0.05, 64), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.05, 64), grid)
        sol = el.solve_phi2(bundle, phi1, tol=1e-13)
        kernel_route = el.second_trace_kernel(sol.g1, sol.g2)
        diff = np.max(np.abs(sol.traces.d2phi2_dz0.coeffs - kernel_route.coeffs))
        scale = np.max(np.abs(sol.traces.d2phi2_dz0.coeffs))
        assert diff <= 1e-4 * max(scale, 1e-12)


def kernel_pi_derivative(which: int, j: int, l: int, k: int, y2, x2) -> np.ndarray:
    """∂^j_{x₂}∂^l_{y₂}Π_which(|k|, y₂, x₂) from the closed forms.

    Π₁ is defined for y₂ <= x₂, Π₂ for x₂ <= y₂ <= 0; both expressions below
    keep every exponent nonpositive on their domains.  y₂ and x₂ broadcast.
    """
    ak = abs(k)
    y2 = np.asarray(y2, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if which == 1:
        return 0.5 * ak ** (j + l) * (np.exp(ak * (y2 + x2)) -
                                      (-1.0) ** j * np.exp(ak * (y2 - x2)))
    if which == 2:
        return 0.5 * ak ** (j + l) * (np.exp(ak * (y2 + x2)) -
                                      (-1.0) ** l * np.exp(-ak * (y2 - x2)))
    raise ValueError("which must be 1 or 2")


class TestKernelBounds:
    @pytest.mark.parametrize("which", (1, 2))
    def test_integral_bounds(self, which):
        """sup_y ∫ |∂ʲ∂ˡΠ| dx₂ <= |k|^{j+l−1} over the kernel's domain."""
        for k in (1, 2, 4, 8):
            for j in range(0, 4):
                for l in range(0, 4 - j):
                    bound = float(k) ** (j + l - 1)
                    worst = 0.0
                    for y in np.linspace(-6.0, -1e-3, 25):
                        # Π₁ lives on y <= x₂ <= 0, Π₂ on x₂ <= y
                        xs = np.linspace(y, 0.0, 2001) if which == 1 \
                            else np.linspace(-12.0, y, 2001)
                        vals = np.abs(kernel_pi_derivative(which, j, l, k, y, xs))
                        worst = max(worst, float(np.trapezoid(vals, xs)))
                    assert worst <= bound * (1 + 1e-3)

    def test_kernel_closed_form_matches_definition(self):
        # Π₁ = e^{|k|y} sinh(|k|x), Π₂ adds sinh(|k|(y−x)); moderate k only
        k = 2
        y, x = -1.5, -0.7
        p1 = kernel_pi_derivative(1, 0, 0, k, np.array([y]), x)[0]
        assert p1 == pytest.approx(np.exp(k * y) * np.sinh(k * x), rel=1e-12)
        y2 = -0.3
        p2 = kernel_pi_derivative(2, 0, 0, k, np.array([y2]), x)[0]
        assert p2 == pytest.approx(np.exp(k * y2) * np.sinh(k * x) +
                                   np.sinh(k * (y2 - x)), rel=1e-12)


class TestSolverBounds:
    def test_prop_bounds_sample(self):
        rows = elliptic_bound_trials(seed=11, n_samples=25)
        assert all(r.holds for r in rows)


def full_band_poisson(g1, g2, tail_tol=1e-6):
    """poisson_divform over all N modes with a plain prefix loop and the four
    integrals A₁, A₂, B₁, B₂ (reference); full-layout results."""
    grid = g1.grid
    n = signed_modes(grid.n_modes).astype(float)
    absn = np.abs(n)
    dz = grid.dz
    f = np.array([full(g1), full(g2)])
    scale = np.max(np.abs(f))
    tail_defect = float(np.max(np.abs(f[:, :, 0])) / scale) if scale > 0 else 0.0
    w0, w1 = el._product_trapezoid_weights(absn * dz)
    damp = np.exp(-absn * dz)
    a = np.zeros_like(f)
    b = np.zeros_like(f)
    for j in range(1, grid.n_depth):
        a[:, :, j] = damp * a[:, :, j - 1] + dz * (w0 * f[:, :, j - 1] + w1 * f[:, :, j])
    for j in range(grid.n_depth - 2, -1, -1):
        b[:, :, j] = damp * b[:, :, j + 1] + dz * (w1 * f[:, :, j] + w0 * f[:, :, j + 1])
    j0 = a[:, :, -1][:, :, None]
    e = np.exp(absn[:, None] * grid.z[None, :])
    isg = 1j * np.sign(n)[:, None]
    phi = 0.5 * isg * (e * j0[0] - a[0] - b[0]) - 0.5 * (e * j0[1] - a[1] + b[1])
    dzphi = (f[1] + 0.5j * n[:, None] * (e * j0[0] + a[0] - b[0])
             - 0.5 * absn[:, None] * (e * j0[1] + a[1] + b[1]))
    g20 = f[1, 0]
    prim = np.concatenate([[0.0], np.cumsum(dz * (g20[1:] + g20[:-1]) / 2.0)])
    phi[0] = prim - prim[-1]
    dzphi[0] = g20
    phi[grid.n_modes // 2] = dzphi[grid.n_modes // 2] = 0.0
    flux_flag = bool(scale > 0 and abs(g20[0]) > tail_tol * scale)
    return phi, dzphi, flux_flag, tail_defect


class TestHalfBandPoisson:
    @pytest.mark.parametrize("n_modes,n_depth,depth", [
        (16, 65, 8.0), (64, 193, 8.0), (16, 65, 40.0), (64, 193, 40.0),
        (128, 385, 8.0), (256, 129, 40.0)])
    def test_matches_full_band(self, n_modes, n_depth, depth):
        grid = geo.StripGrid(n_modes, depth=depth, n_depth=n_depth)
        rng = np.random.default_rng(n_modes + n_depth)
        g1 = random_strip_field(rng, grid, n_modes // 2 - 1)
        g2 = random_strip_field(rng, grid, n_modes // 2 - 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = el.poisson_divform(g1, g2)
        phi, dzphi, flux_flag, tail_defect = full_band_poisson(g1, g2)
        for got, ref in ((sol.phi, phi), (sol.dzphi, dzphi)):
            assert got.coeffs.shape == (n_modes // 2, n_depth)
            assert np.max(np.abs(full(got) - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert sol.flux_flag == flux_flag
        assert sol.tail_defect == pytest.approx(tail_defect, rel=1e-13)

    def test_extreme_growth_and_magnitudes(self):
        # n·L = 5080, far past e^709: the scan runs in many blocks, and the
        # forcing spans 1e-300..1, so an overflow or underflow in the growth
        # and shrink tables shows as inf/nan or a mismatch
        grid = geo.StripGrid(256, depth=40.0, n_depth=129)
        rng = np.random.default_rng(7)
        shape = (grid.n_modes // 2, grid.n_depth)
        mags = 10.0 ** rng.uniform(-300.0, 0.0, (2,) + shape)
        phases = np.exp(2j * np.pi * rng.uniform(size=(2,) + shape))
        c = mags * phases
        c[:, 0] = c[:, 0].real
        g1, g2 = geo.StripField(grid, c[0]), geo.StripField(grid, c[1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", RuntimeWarning)
            sol = el.poisson_divform(g1, g2)
        phi, dzphi, _, _ = full_band_poisson(g1, g2)
        for got, ref in ((sol.phi, phi), (sol.dzphi, dzphi)):
            assert np.all(np.isfinite(got.coeffs))
            assert np.max(np.abs(full(got) - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# half-band reductions against the full-spectrum formulas on N-row copies

def full_rms(c: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(c) ** 2)))


def full_strip_norm(u, spec, acc=4) -> float:
    grid = u.grid
    c = full(u) if spec.k == 0 else geo.fd_derivative(full(u), grid.dz, spec.k, acc)
    a = np.abs(c)
    absn = np.abs(signed_modes(grid.n_modes)).astype(float)
    w = (1.0 + absn) ** spec.s * np.exp(spec.lam * absn)
    per_mode = np.trapezoid(a, dx=grid.dz, axis=1) + a[:, 0] / np.maximum(absn, 1.0)
    return float(np.sum(w * per_mode))


def full_gradient_norm(phi1, phi2, dzphi2, s=2.5) -> float:
    grid = phi1.grid
    dens = np.abs(full(sp.dx(phi1 + phi2))) ** 2 + np.abs(full(sp.lam(phi1) + dzphi2)) ** 2
    absn = np.abs(signed_modes(grid.n_modes)).astype(float)
    per_mode = np.trapezoid(dens, dx=grid.dz, axis=1) + dens[:, 0] / (2.0 * np.maximum(absn, 1.0))
    return float(np.sum((1.0 + absn) ** (2.0 * s) * per_mode))


def full_grad_rms(phi1, phi2, dzphi2) -> float:
    return max(full_rms(full(sp.dx(phi1 + phi2))), full_rms(full(sp.lam(phi1) + dzphi2)))


class TestFullSpectrumReductions:
    """Sums over the stored modes 0..N/2−1 weighted by mode_multiplicity equal
    the full-spectrum formulas on hermitian_fill-ed N-row copies."""

    GRIDS = [(8, 48), (64, 193)]

    @staticmethod
    def solved(n_modes, n_depth):
        grid = geo.StripGrid(n_modes, depth=8.0, n_depth=n_depth)
        bundle = geo.build_geometry(sp.cosine(1, 0.05, n_modes), grid)
        phi1 = el.solve_phi1(sp.sine(1, 0.05, n_modes) + sp.cosine(2, 0.02, n_modes), grid)
        return bundle, phi1, el.solve_phi2(bundle, phi1, tol=1e-13)

    @pytest.mark.parametrize("n_modes,n_depth", GRIDS)
    def test_strip_and_gradient_norms(self, n_modes, n_depth):
        from dampedwaves.norms import NormSpec, strip_norm
        grid = geo.StripGrid(n_modes, depth=8.0, n_depth=n_depth)
        rng = np.random.default_rng(n_modes + n_depth)
        u, v, w = (random_strip_field(rng, grid, n_modes // 2 - 1) for _ in range(3))
        for spec in (NormSpec(0.0, 0.0, 0), NormSpec(1.5, 0.2, 0), NormSpec(1.0, 0.0, 1),
                     NormSpec(2.0, 0.3, 1)):
            assert strip_norm(u, spec) == pytest.approx(full_strip_norm(u, spec), rel=1e-14)
        assert el.gradient_norm(u, v, w) == pytest.approx(full_gradient_norm(u, v, w),
                                                          rel=1e-14)

    @pytest.mark.parametrize("n_modes", (8, 64))
    def test_boundary_norms(self, n_modes):
        from dampedwaves.diagnostics import floored_wiener
        from dampedwaves.norms import sobolev_norm, wiener_norm
        rng = np.random.default_rng(n_modes)
        # the top mode sits below floored_wiener's 1e-13 relative floor
        f = (random_boundary_field(rng, n_modes, n_modes // 2 - 2, zero_mean=False)
             + sp.cosine(n_modes // 2 - 1, 1e-15, n_modes))
        a = np.abs(sp.hermitian_fill(f.coeffs))
        absn = np.abs(signed_modes(n_modes)).astype(float)
        for s, lam_ in ((0.0, 0.0), (1.5, 0.2), (3.0, 0.0)):
            ref = float(np.sum((1.0 + absn) ** s * np.exp(lam_ * absn) * a))
            assert wiener_norm(f, NormSpec(s, lam_)) == pytest.approx(ref, rel=1e-14)
            ref = float(np.sqrt(np.sum(((1.0 + absn ** s) * a) ** 2)))
            assert sobolev_norm(f, s) == pytest.approx(ref, rel=1e-14)
        keep = a > 1e-13 * np.max(a)
        assert np.count_nonzero(keep) == n_modes - 3
        for s, lam_t in ((1.0, 0.0), (1.0, 2.0), (2.0, 0.5)):
            ref = float(np.sum((1.0 + absn[keep]) ** s * np.exp(lam_t * absn[keep])
                               * a[keep]))
            assert floored_wiener(f, s, lam_t) == pytest.approx(ref, rel=1e-14)

    @pytest.mark.parametrize("n_modes,n_depth", GRIDS)
    def test_residuals(self, n_modes, n_depth):
        bundle, phi1, sol = self.solved(n_modes, n_depth)
        grad = full_grad_rms(phi1, sol.phi2, sol.dzphi2)
        expected = full_rms(full(el.discrete_laplacian(sol.last_increment))) / grad
        assert sol.residual == pytest.approx(expected, rel=1e-14)

        # ale_laplacian_residual's two values, recomputed on the full layout
        m = sp.pad_size(n_modes, 2)
        u1 = sp.dx(phi1 + sol.phi2)
        u2 = sp.lam(phi1) + sol.dzphi2
        q11, q12, q22, u1v, u2v = sp.values_stack(
            [bundle.q11, bundle.q12, bundle.q22, u1, u2], m)
        f1, f2 = sp.project_stack([q11 * u1v + q12 * u2v, q12 * u1v + q22 * u2v], u1)
        res = (full(el.discrete_laplacian(sol.phi2)) + full(sp.dx(f1))
               + geo.fd_derivative(full(f2), bundle.grid.dz, 1, 4))
        got_res, got_grad = el.ale_laplacian_residual(bundle, phi1, sol.phi2, sol.dzphi2)
        assert got_res == pytest.approx(float(np.max(np.abs(res[:, 2:-2]))), rel=1e-14)
        assert got_grad == pytest.approx(grad, rel=1e-14)

    @pytest.mark.parametrize("n_modes,n_depth", GRIDS)
    def test_traces_are_full_layout_real_fields(self, n_modes, n_depth):
        _, phi1, sol = self.solved(n_modes, n_depth)
        poisson = el.poisson_divform(sol.g1, sol.g2)
        for f in (phi1.trace(), sol.g1.trace(), poisson.dz_trace,
                  sol.traces.dphi2_dz0, el.second_trace_kernel(sol.g1, sol.g2)):
            assert isinstance(f, sp.SpectrumField) and f.n_modes == n_modes
            assert f.coeffs.shape == (n_modes // 2,) and f.coeffs[0].imag == 0.0
