from pathlib import Path

import numpy as np
import pytest

from dampedwaves import elliptic as el
from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from dampedwaves.config import initial_data, parse_config
from dampedwaves.errors import ConfigurationError, DiffeomorphismError
from dampedwaves.harness import random_boundary_field, random_strip_field
from oracles import analytic_data, boundary_a_minus_identity, full_band_solve


def laplacian_residual(field: geo.StripField, acc: int = 4) -> float:
    """Spectral-in-x, FD-in-z Laplacian residual (interior rows)."""
    n2 = (field.grid.modes.astype(float) ** 2)[:, None]
    res = -n2 * field.coeffs + geo.fd_derivative(field.coeffs, field.grid.dz, 2, acc)
    return float(np.max(np.abs(res[:, 2:-2])))


class TestHarmonicExtension:
    def test_single_mode_closed_form(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=129)
        h = sp.cosine(1, 0.1, 16)
        ext = geo.harmonic_extension(h, grid)
        expected = 0.05 * np.exp(grid.z)
        assert np.max(np.abs(ext.coeffs[1] - expected)) < 1e-15
        assert np.max(np.abs(ext.trace().coeffs - h.coeffs)) == 0.0

    def test_zero(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        assert np.all(geo.harmonic_extension(sp.zero_field(16), grid).coeffs == 0)

    def test_vertical_trace_is_calderon(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=129)
        h = random_boundary_field(np.random.default_rng(0), 32, 10)
        d = sp.lam(geo.harmonic_extension(h, grid))
        assert np.max(np.abs(d.trace().coeffs - sp.lam(h).coeffs)) < 1e-14

    def test_mode_count_checked_on_every_path(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=65)
        h = sp.cosine(1, 0.1, 16)
        with pytest.raises(ConfigurationError, match="mode counts differ"):
            geo.harmonic_extension(h, grid)
        with pytest.raises(ConfigurationError, match="mode counts differ"):
            geo.build_geometry(h, grid)

    def test_laplacian_residual_oracle(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=513)
        h = random_boundary_field(np.random.default_rng(1), 32, 14, decay=0.8)
        ext = geo.harmonic_extension(h, grid)
        scale = float(np.max(np.abs(ext.coeffs)))
        assert laplacian_residual(ext) <= 1e-6 * scale

    def test_mode_decay_invariant(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        h = random_boundary_field(np.random.default_rng(2), 16, 6)
        ext = geo.harmonic_extension(h, grid)
        bound = np.abs(ext.coeffs[:, -1])[:, None] * \
            np.exp(grid.modes.astype(float)[:, None] * grid.z[None, :])
        assert np.all(np.abs(ext.coeffs) <= bound * (1 + 1e-9) + 1e-300)


class TestGeometryBundle:
    def test_flat_interface(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        b = geo.build_geometry(sp.zero_field(16), grid)
        assert b.diffeo_margin == pytest.approx(1.0)
        assert np.max(np.abs(b.q11.coeffs)) == 0.0
        assert np.max(np.abs(b.q12.coeffs)) == 0.0
        assert np.max(np.abs(b.q22.coeffs)) == 0.0
        # flat: A = Id, so A·∇ψ = Id reads A²₁ = 0 and A²₂ = 1
        assert geo.identity_defect(b) < 1e-14

    def test_hand_values_at_origin(self):
        # h = 0.1 cos x₁ at (x₁, x₂) = (0, 0): J = 1.1, A²₂ = 1/1.1, A²₁ = 0
        grid = geo.StripGrid(64, depth=8.0, n_depth=129)
        b = geo.build_geometry(sp.cosine(1, 0.1, 64), grid)
        jv = 1.0 + sp.values_on_grid(b.dpsi2)       # J = 1 + δψ,₂
        a21, a22_minus_1 = (sp.values_on_grid(a)
                            for a in boundary_a_minus_identity(b.boundary))
        assert jv[0, -1] == pytest.approx(1.1, rel=1e-12)
        assert 1.0 + a22_minus_1[0] == pytest.approx(1.0 / 1.1, rel=1e-10)
        assert abs(a21[0]) < 1e-12
        assert geo.identity_defect(b) <= 1e-10

    def test_q11_is_vertical_derivative(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=65)
        h = sp.cosine(1, 0.1, 32)
        b = geo.build_geometry(h, grid)
        d2 = sp.lam(geo.harmonic_extension(h, grid))
        assert np.max(np.abs(b.q11.coeffs - d2.coeffs)) == 0.0

    def test_q_symmetric_and_zero_iff_flat(self):
        grid = geo.StripGrid(32, depth=8.0, n_depth=65)
        h = random_boundary_field(np.random.default_rng(5), 32, 6, scale=0.05)
        b = geo.build_geometry(h, grid)
        assert np.max(np.abs(b.q11.coeffs)) > 0
        assert np.max(np.abs(b.q12.coeffs)) > 0

    def test_margin_error(self, monkeypatch):
        grid = geo.StripGrid(32, depth=8.0, n_depth=65)
        # raised from the boundary alone, before any strip field is built
        monkeypatch.setattr(geo, "StripField", None)
        with pytest.raises(DiffeomorphismError, match="not a diffeomorphism"):
            geo.build_geometry(sp.cosine(1, 1.5, 32), grid)

    def test_identity_defect(self):
        grid = geo.StripGrid(64, depth=8.0, n_depth=257)
        h = sp.cosine(1, 0.08, 64) + sp.cosine(2, 0.02, 64)
        b = geo.build_geometry(h, grid)
        assert geo.identity_defect(b) <= 1e-10

    def test_margin_tracks_smallness(self):
        """diffeo_margin >= 1 − C|h|₂ with an O(1) empirical constant."""
        from dampedwaves.norms import sobolev_norm
        grid = geo.StripGrid(32, depth=8.0, n_depth=65)
        cs = []
        for amp in (0.02, 0.05, 0.07):
            h = sp.cosine(1, amp, 32)
            b = geo.build_geometry(h, grid)
            h2 = sobolev_norm(h, 2.0)
            assert h2 <= 0.1
            cs.append((1.0 - b.diffeo_margin) / h2)
        assert max(cs) <= 1.0   # logged constant: ~0.7 for single-mode data


class TestBlockedGeometry:
    """The sweep's −Q, sampled per depth block from the interface, against
    one block of every row that keeps all modes (oracles.full_band_solve)."""

    @staticmethod
    def problem(name, monkeypatch):
        """(εh^κ, ξ^κ, grid, margin_min) of a benchmark workload's initial
        state, or of random analytic data on an analytic_NxNz grid."""
        kind, size = name.rsplit("_", 1)
        if kind == "analytic":
            n, nz = map(int, size.split("x"))
            return (*analytic_data(n), geo.StripGrid(n, depth=8.0, n_depth=nz), 0.1)
        monkeypatch.syspath_prepend(str(Path(geo.__file__).resolve().parents[2] / "bench"))
        from workloads import WORKLOADS, config_text
        cfg = parse_config(config_text(WORKLOADS[name], 1))
        h, xi = initial_data(cfg)
        kappa = cfg.params.kappa
        return (cfg.params.epsilon * sp.mollify(h, kappa), sp.mollify(xi, kappa),
                cfg.grid, cfg.step_options.margin_min)

    @staticmethod
    def sweeps(h, xi, grid, margin_min=0.1):
        """One sweep from 0, blocked and in one block: (got, want)."""
        bundle = geo.build_geometry(h, grid, margin_min=margin_min)
        phi1 = el.solve_phi1(xi, grid)
        return (el.solve_phi2(bundle, phi1, tol=np.inf),
                full_band_solve(bundle, phi1, tol=np.inf))

    @staticmethod
    def fields(sol):
        return sol.g1, sol.g2, sol.phi2, sol.dzphi2

    @pytest.mark.parametrize("name", ["coarse_linear_8x48", "decay_64x192",
                                      "steep_128x384", "analytic_16x64", "analytic_32x97",
                                      "analytic_64x192", "analytic_128x384"])
    def test_bench_states_match_full_band(self, name, monkeypatch):
        b, xi, grid, margin_min = self.problem(name, monkeypatch)
        # the boundary's min J is every row's (the maximum principle)
        bundle = geo.build_geometry(b, grid, margin_min=margin_min)
        rows = sp.values_stack([bundle.dpsi2], sp.pad_size(grid.n_modes, 3))
        assert bundle.diffeo_margin == float(np.min(1.0 + rows))
        got, want = self.sweeps(b, xi, grid, margin_min)
        for g, w in zip(self.fields(got), self.fields(want)):
            assert np.max(np.abs(g.coeffs - w.coeffs)) <= 1e-15 * np.max(np.abs(w.coeffs))
        lo = el._depth_blocks(grid)[-1][0]
        for g, w in zip(self.fields(got)[:2], self.fields(want)[:2]):
            assert np.array_equal(g.coeffs[:, lo:], w.coeffs[:, lo:])

    def test_one_block_grid_is_bitwise_full_band(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=64)
        assert len(el._depth_blocks(grid)) == 1
        rng = np.random.default_rng(3)
        h, xi = (random_boundary_field(rng, 16, 7, scale=0.05) for _ in range(2))
        got, want = self.sweeps(h, xi, grid)
        assert all(np.array_equal(g.coeffs, w.coeffs)
                   for g, w in zip(self.fields(got), self.fields(want)))

    def test_top_block_forcing_is_bitwise_full_band(self):
        # the top block samples −Q and ∇φ from every mode on the full grid
        grid = geo.StripGrid(64, depth=8.0, n_depth=192)
        lo, hi, cap = el._depth_blocks(grid)[-1]
        h = sp.cosine(1, 0.1, 64) + sp.cosine(3, 0.02, 64)
        got, want = self.sweeps(h, sp.sine(1, 0.1, 64), grid)
        assert cap == 32 and hi == grid.n_depth
        for g, w in zip(self.fields(got)[:2], self.fields(want)[:2]):
            assert np.array_equal(g.coeffs[:, lo:], w.coeffs[:, lo:])
            assert not np.array_equal(g.coeffs, w.coeffs)


class TestPiola:
    def test_flat_zero(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        b = geo.build_geometry(sp.zero_field(16), grid)
        assert geo.check_piola(b) == 0.0

    def test_residual_small(self):
        grid = geo.StripGrid(64, depth=8.0, n_depth=513)
        b = geo.build_geometry(sp.cosine(1, 0.1, 64), grid)
        assert geo.check_piola(b) <= 1e-8

    def test_fourth_order_refinement(self):
        h = sp.cosine(1, 0.1, 32)
        res = []
        for nz in (65, 129, 257):
            grid = geo.StripGrid(32, depth=8.0, n_depth=nz)
            res.append(geo.check_piola(geo.build_geometry(h, grid)))
        order1 = np.log2(res[0] / res[1])
        order2 = np.log2(res[1] / res[2])
        assert order1 > 3.5 and order2 > 3.5


class TestStripFieldBasics:
    @pytest.mark.parametrize("r", [0.0, 1.0, 2.0, 2.5])
    def test_lam_trace_is_boundary_lam(self, r):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        u = random_strip_field(np.random.default_rng(4), grid, max_mode=6)
        assert np.array_equal(sp.lam(u, r).trace().coeffs, sp.lam(u.trace(), r).coeffs)

    def test_shape_validation(self):
        grid = geo.StripGrid(16, depth=8.0, n_depth=65)
        for shape in ((8, 64), (16, 65)):      # wrong depth; the full layout
            with pytest.raises(ConfigurationError):
                geo.StripField(grid, np.zeros(shape, dtype=np.complex128))

    def test_fd_derivative_accuracy(self):
        grid = geo.StripGrid(16, depth=4.0, n_depth=257)
        prof = np.sin(grid.z)
        c = np.zeros((8, 257), dtype=np.complex128)
        c[1] = prof
        f = geo.StripField(grid, c)
        d2 = f.deriv_z(2)
        assert np.max(np.abs(d2.coeffs[1] + prof)) < 1e-7

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            geo.StripGrid(7)
        with pytest.raises(ConfigurationError):
            geo.StripGrid(16, depth=-1.0)
        with pytest.raises(ConfigurationError):
            geo.StripGrid(16, n_depth=4)


def full(f: geo.StripField) -> np.ndarray:
    """The full N-row FFT layout of a strip field's coefficients."""
    return sp.hermitian_fill(f.coeffs)


class TestStripColumns:
    """A strip field is a stack of half spectra: the shared multipliers,
    arithmetic and sampling act on every depth column as on the
    SpectrumField it is the half band of."""

    GRIDS = [(8, 48), (64, 193)]
    OPS = {
        "lam0.5": lambda a, b: sp.lam(a, 0.5),
        "lam1": lambda a, b: sp.lam(a),
        "lam2": lambda a, b: sp.lam(a, 2.0),
        "dx": lambda a, b: sp.dx(a),
        "dxx": lambda a, b: sp.dxx(a),
        "mollify": lambda a, b: sp.mollify(a, 0.3),
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "scale": lambda a, b: 2.5 * a,
        "neg": lambda a, b: -a,
    }

    @staticmethod
    def pair(n_modes, n_depth):
        grid = geo.StripGrid(n_modes, depth=8.0, n_depth=n_depth)
        rng = np.random.default_rng(n_modes + n_depth)
        return [random_strip_field(rng, grid, n_modes // 2 - 1) for _ in range(2)]

    @staticmethod
    def column(f, j):
        return sp.SpectrumField(full(f)[:, j])

    @pytest.mark.parametrize("op", sorted(OPS))
    @pytest.mark.parametrize("n_modes,n_depth", GRIDS)
    def test_operation_acts_per_column(self, n_modes, n_depth, op):
        u, v = self.pair(n_modes, n_depth)
        out = self.OPS[op](u, v)
        assert isinstance(out, geo.StripField) and out.grid == u.grid
        assert out.coeffs.shape == (n_modes // 2, n_depth)
        for j in range(n_depth):
            ref = self.OPS[op](self.column(u, j), self.column(v, j))
            assert np.array_equal(out.coeffs[:, j], ref.coeffs), j

    @pytest.mark.parametrize("n_modes,n_depth", GRIDS)
    def test_sampling_acts_per_column(self, n_modes, n_depth):
        u, v = self.pair(n_modes, n_depth)
        for m in sorted({n_modes, sp.pad_size(n_modes, 2), 2 * n_modes,
                         sp.pad_size(n_modes, 4)}):
            out = sp.values_stack([u, v], m)
            assert out.shape == (2, m, n_depth)
            for j in range(n_depth):
                ref = sp.values_stack([self.column(u, j), self.column(v, j)], m)
                assert np.array_equal(out[:, :, j], ref), (m, j)


class TestHalfBand:
    """values_stack / project_stack of strip fields against the full complex
    FFT."""

    # the pad grids of degrees 2–4, the unpadded grid, and 5N/2 − 2 (m/2 odd)
    CASES = [(n, m) for n in (8, 64, 128)
             for m in sorted({n, sp.pad_size(n, 2), sp.pad_size(n, 3),
                              sp.pad_size(n, 4), 5 * n // 2 - 2})]

    @pytest.mark.parametrize("n_modes,m", CASES)
    def test_values_match_full_ifft(self, n_modes, m):
        grid = geo.StripGrid(n_modes, depth=8.0, n_depth=33)
        rng = np.random.default_rng(n_modes + m)
        fields = [random_strip_field(rng, grid, n_modes // 2 - 1) for _ in range(3)]
        out = sp.values_stack(fields, m)
        half = n_modes // 2
        ref = np.empty((3, m, grid.n_depth))
        for i, f in enumerate(fields):
            padded = np.zeros((m, grid.n_depth), dtype=np.complex128)
            padded[:half] = full(f)[:half]
            padded[m - half:] = full(f)[half:]
            ref[i] = np.real(np.fft.ifft(padded, axis=0) * m)
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(sp.values_on_grid(fields[2], m), out[2])

    @pytest.mark.parametrize("n_modes,m", CASES)
    def test_project_matches_full_fft(self, n_modes, m):
        grid = geo.StripGrid(n_modes, depth=8.0, n_depth=33)
        samples = np.random.default_rng(n_modes * m).standard_normal((2, m, grid.n_depth))
        out = sp.project_stack(samples, geo.zero_strip(grid))
        half = n_modes // 2
        for s, f in zip(samples, out):
            c = np.fft.fft(s, axis=0) / m
            ref = np.zeros((n_modes, grid.n_depth), dtype=np.complex128)
            ref[:half] = c[:half]
            ref[n_modes - half:] = c[m - half:]
            ref[half] = 0.0
            assert isinstance(f, geo.StripField) and f.grid == grid
            assert f.coeffs.shape == (half, grid.n_depth)
            assert np.max(np.abs(full(f) - ref)) <= 1e-14 * np.max(np.abs(ref))
