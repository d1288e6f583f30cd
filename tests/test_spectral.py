import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwaves import geometry as geo
from dampedwaves import spectral as sp
from dampedwaves.errors import ConfigurationError, NumericsError
from oracles import coeff, grid_points


def full_pad(coeffs, m):
    """Full-layout embedding of N coefficients into m >= N slots (reference)."""
    n = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (m,), dtype=np.complex128)
    out[..., :n // 2] = coeffs[..., :n // 2]
    out[..., m - n // 2:] = coeffs[..., n // 2:]
    return out


def full_truncate(coeffs, n):
    """Full-layout truncation of m coefficients to n modes, Nyquist zeroed
    (reference)."""
    m = coeffs.shape[-1]
    out = np.zeros(coeffs.shape[:-1] + (n,), dtype=np.complex128)
    out[..., :n // 2] = coeffs[..., :n // 2]
    out[..., n - n // 2:] = coeffs[..., m - n // 2:]
    out[..., n // 2] = 0.0
    return out


def random_layout(seed, n_modes=64, max_mode=20):
    """FFT-layout coefficients (N,) of a random real field."""
    rng = np.random.default_rng(seed)
    c = np.zeros(n_modes, dtype=np.complex128)
    for n in range(1, max_mode + 1):
        c[n] = (rng.standard_normal() + 1j * rng.standard_normal()) * np.exp(-0.3 * n)
        c[-n] = np.conj(c[n])
    c[0] = rng.standard_normal()
    return c


def random_real_field(seed, n_modes=64, max_mode=20):
    return sp.SpectrumField(random_layout(seed, n_modes, max_mode))


class TestTransform:
    def test_single_mode_identity(self):
        x = grid_points(8)
        f = sp.project(np.cos(x), sp.zero_field(8))
        assert coeff(f, 1) == pytest.approx(0.5, abs=1e-14)
        assert coeff(f, -1) == pytest.approx(0.5, abs=1e-14)
        others = [coeff(f, n) for n in (0, 2, 3, -2, -3)]
        assert np.max(np.abs(others)) < 1e-15

    def test_zero_samples(self):
        f = sp.project(np.zeros(16), sp.zero_field(16))
        assert np.all(f.coeffs == 0)

    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(64)
        # band-limit away the Nyquist mode, then the round trip is exact
        s = sp.values_on_grid(sp.project(s, sp.zero_field(64)))
        back = sp.values_on_grid(sp.project(s, sp.zero_field(64)))
        assert np.max(np.abs(back - s)) < 1e-12 * max(1.0, np.max(np.abs(s)))

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            sp.project(np.zeros(7), sp.zero_field(7))
        with pytest.raises(ConfigurationError):
            sp.project(np.zeros(2), sp.zero_field(2))


class TestMultipliers:
    def test_calderon_on_cosine(self):
        c = sp.cosine(1, 1.0, 16)
        assert np.max(np.abs(sp.lam(c).coeffs - c.coeffs)) < 1e-15

    def test_second_derivative(self):
        c = sp.cosine(1, 1.0, 16)
        assert np.max(np.abs(sp.dxx(c).coeffs + c.coeffs)) < 1e-15

    def test_half_power(self):
        c = sp.cosine(2, 1.0, 16)
        out = sp.lam(c, 0.5)
        assert np.max(np.abs(out.coeffs - np.sqrt(2.0) * c.coeffs)) < 1e-14

    def test_non_finite_symbol_rejected(self):
        c = sp.cosine(1, 1.0, 16)
        with pytest.raises(NumericsError, match="mode"):
            with np.errstate(divide="ignore"):
                sp.lam(c, -1.0)                 # 0^{-1} at mode 0

    def test_composition_equals_product_symbol(self):
        f = random_real_field(11)
        n = f.modes.astype(float)
        a = sp.lam(sp.mollify(f, 0.05))
        b = n * np.exp(-0.05 * n ** 2) * f.coeffs
        assert np.max(np.abs(a.coeffs - b)) < 1e-15 * np.max(np.abs(f.coeffs))


class TestMollify:
    def test_heat_factor_mode_one(self):
        c = sp.cosine(1, 1.0, 16)
        out = sp.mollify(c, 0.1)
        assert coeff(out, 1) == pytest.approx(np.exp(-0.1) / 2.0, rel=1e-14)

    def test_identity_at_zero(self):
        f = random_real_field(4)
        assert sp.mollify(f, 0.0) is f

    def test_mode_two(self):
        c = sp.cosine(2, 1.0, 16)
        out = sp.mollify(c, 0.5)
        assert coeff(out, 2) == pytest.approx(0.5 * np.exp(-2.0), rel=1e-14)

    def test_double_mollify(self):
        f = random_real_field(5, n_modes=32, max_mode=10)
        twice = sp.mollify(sp.mollify(f, 0.2), 0.2)
        n = f.modes.astype(float)
        expected = np.exp(-2 * 0.2 * n ** 2) * f.coeffs
        assert np.max(np.abs(twice.coeffs - expected)) < 1e-15

    def test_negative_kappa_rejected(self):
        with pytest.raises(ConfigurationError):
            sp.mollify(sp.cosine(1, 1.0, 16), -0.1)


class TestProducts:
    def test_cos_squared(self):
        c = sp.cosine(1, 1.0, 16)
        p = sp.pointwise_product(c, c)
        assert coeff(p, 0) == pytest.approx(0.5, abs=1e-14)
        assert coeff(p, 2) == pytest.approx(0.25, abs=1e-14)
        assert coeff(p, 1) == pytest.approx(0.0, abs=1e-14)

    def test_times_zero(self):
        f = random_real_field(8)
        z = sp.zero_field(64)
        assert np.all(sp.pointwise_product(f, z).coeffs == 0)

    def test_refinement_oracle(self):
        # retained modes of the dealiased product match a large-grid reference
        f64 = random_real_field(21, n_modes=64, max_mode=31)
        g64 = random_real_field(22, n_modes=64, max_mode=31)
        p64 = sp.pointwise_product(f64, g64)
        f256 = sp.SpectrumField(full_pad(sp.hermitian_fill(f64.coeffs), 256))
        g256 = sp.SpectrumField(full_pad(sp.hermitian_fill(g64.coeffs), 256))
        p256 = sp.pointwise_product(f256, g256)
        ref = full_truncate(sp.hermitian_fill(p256.coeffs), 64)
        assert np.max(np.abs(sp.hermitian_fill(p64.coeffs) - ref)) < 1e-10

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            sp.pointwise_product(sp.cosine(1, 1.0, 16), sp.cosine(1, 1.0, 32))

    def test_power_matches_repeated_product(self):
        v = random_real_field(9, n_modes=32, max_mode=6)
        p3 = sp.pointwise_power(v, 3)
        ref = sp.pointwise_product(sp.pointwise_product(v, v), v)
        # repeated dealiased products are exact here (band stays inside N/3)
        assert np.max(np.abs(p3.coeffs - ref.coeffs)) < 1e-12


class TestDealiasing:
    """pointwise_power on the pad_size(N, p) grid against the exact power."""

    @pytest.mark.parametrize("p", (2, 3, 4))
    @pytest.mark.parametrize("n_modes", (8, 10, 64))
    def test_full_band_power_is_truncated_exact_power(self, n_modes, p):
        # flat spectrum up to K = N/2 − 1, so aliasing from the top modes shows
        k = n_modes // 2 - 1
        rng = np.random.default_rng(100 * n_modes + p)
        band = (rng.standard_normal(2 * k + 1)
                + 1j * rng.standard_normal(2 * k + 1)) / np.sqrt(k)
        band = 0.5 * (band + np.conj(band[::-1]))          # modes −K..K, Hermitian
        c = np.zeros(n_modes, dtype=np.complex128)
        c[np.arange(-k, k + 1)] = band
        exact = band
        for _ in range(p - 1):
            exact = np.convolve(exact, band)               # modes −jK..jK
        ref = np.zeros(n_modes, dtype=np.complex128)
        ref[np.arange(-k, k + 1)] = exact[(p - 1) * k:(p + 1) * k + 1]
        out = sp.pointwise_power(sp.SpectrumField(c), p)
        assert np.max(np.abs(sp.hermitian_fill(out.coeffs) - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_hermitian_symmetry_preserved(self, seed):
        # stored modes 0..N/2−1 make v̂(−n) = conj v̂(n) hold by construction;
        # what is left of the Hermitian defect is the imaginary part of v̂(0)
        f = random_real_field(seed, n_modes=32, max_mode=10)
        g = random_real_field(seed + 1, n_modes=32, max_mode=10)
        scale = np.max(np.abs(f.coeffs)) + 1e-30
        assert f.coeffs.shape == (16,) and abs(f.coeffs[0].imag) < 1e-13 * scale
        for out in (sp.lam(f), sp.dx(f), sp.mollify(f, 0.3),
                    sp.pointwise_product(f, g)):
            s = np.max(np.abs(out.coeffs)) + 1e-30
            assert out.coeffs.shape == (16,)
            assert 2.0 * abs(out.coeffs[0].imag) < 1e-12 * s
            full = sp.hermitian_fill(out.coeffs)
            assert np.array_equal(sp.SpectrumField(full).coeffs, out.coeffs)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2.0, allow_nan=False))
    def test_mollify_monotone_damping(self, kappa):
        f = random_real_field(77, n_modes=32, max_mode=12)
        out = sp.mollify(f, kappa)
        assert np.all(np.abs(out.coeffs) <= np.abs(f.coeffs) + 1e-30)

    def test_nyquist_always_zero(self):
        c = np.ones(16, dtype=np.complex128)
        with pytest.raises(ConfigurationError, match="FFT layout"):
            sp.SpectrumField(c)
        c[8] = 0.0
        f = sp.SpectrumField(c)
        assert f.coeffs.shape == (8,)
        for g in (f, -f, sp.dx(f), f - f, f * -1.0):
            full = sp.hermitian_fill(g.coeffs)
            assert full[8] == 0.0 and not np.signbit(full[8].real)

    def test_arithmetic_adopts_fresh_arrays_constructors_copy(self):
        c = np.ones(16, dtype=np.complex128)
        c[8] = 0.0
        f = sp.SpectrumField(c)
        c[1] = c[-1] = 5.0
        assert f.coeffs[1] == 1.0
        for g in (-f, sp.dx(f), f - f, f * -1.0):
            assert g.coeffs is not f.coeffs and g.coeffs.flags.writeable
            assert g.coeffs.shape == (8,)
        grid = geo.StripGrid(8, n_depth=8)
        s = geo.StripField(grid, np.ones((4, 8), dtype=np.complex128))
        fresh = s.coeffs * 2.0
        assert s._like(fresh).coeffs is fresh
        assert geo.StripField(grid, fresh).coeffs is not fresh


class TestHalfBand:
    """The rfft/irfft transforms against the full complex FFT formulas."""

    # the pad grids of degrees 2–4, the unpadded grid, and 5N/2 − 2 (m/2 odd)
    CASES = [(n, m) for n in (8, 64, 128)
             for m in sorted({n, sp.pad_size(n, 2), sp.pad_size(n, 3),
                              sp.pad_size(n, 4), 5 * n // 2 - 2})]

    @pytest.mark.parametrize("n_modes,m", CASES)
    def test_values_stack_matches_full_ifft(self, n_modes, m):
        fields = [random_real_field(s, n_modes, n_modes // 2 - 1) for s in (1, 2, 3)]
        out = sp.values_stack(fields, m)
        c = np.array([sp.hermitian_fill(f.coeffs) for f in fields])
        ref = np.real(np.fft.ifft(full_pad(c, m), axis=-1) * m)
        assert out.shape == (3, m)
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(sp.values_on_grid(fields[1], m), out[1])

    @pytest.mark.parametrize("n_modes,m", CASES)
    def test_project_matches_full_fft(self, n_modes, m):
        rng = np.random.default_rng(n_modes + m)
        samples = rng.standard_normal(m)
        out = sp.project(samples, sp.zero_field(n_modes))
        ref = full_truncate(np.fft.fft(samples) / m, n_modes)
        assert isinstance(out, sp.SpectrumField)
        assert out.coeffs.shape == (n_modes // 2,) and out.coeffs[0].imag == 0.0
        full = sp.hermitian_fill(out.coeffs)
        assert np.max(np.abs(full - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_hermitian_fill_layout(self):
        half = np.array([1.0, 2 + 1j, 3 - 2j, 4j])
        full = sp.hermitian_fill(half)
        assert np.array_equal(full, [1.0, 2 + 1j, 3 - 2j, 4j, 0.0, -4j, 3 + 2j, 2 - 1j])
        columns = sp.hermitian_fill(np.array([half, 2 * half]).T)
        assert np.array_equal(columns.T, [full, 2 * full])


class TestLayout:
    """SpectrumField(full) keeps the modes 0..N/2−1 of an FFT-layout input
    and rejects any other input."""

    @pytest.mark.parametrize("n_modes,max_mode", [(8, 3), (32, 10), (64, 31)])
    def test_fill_restores_constructor_input(self, n_modes, max_mode):
        for c in (random_layout(n_modes + max_mode, n_modes, max_mode),
                  sp.hermitian_fill(sp.cosine(max_mode, 0.7, n_modes, 0.4).coeffs)):
            f = sp.SpectrumField(c)
            assert f.coeffs.shape == (n_modes // 2,) and f.n_modes == n_modes
            assert np.array_equal(sp.hermitian_fill(f.coeffs), c)

    def test_half_length_array_rejected(self):
        f = random_real_field(5, n_modes=32, max_mode=10)
        with pytest.raises(ConfigurationError, match="FFT layout"):
            sp.SpectrumField(f.coeffs)

    def test_non_hermitian_array_rejected(self):
        c = random_layout(6, n_modes=32, max_mode=10)
        c[-3] *= 1.0 + 1e-9                     # v̂(−3) no longer conj v̂(3)
        with pytest.raises(ConfigurationError, match="FFT layout"):
            sp.SpectrumField(c)
        c = random_layout(6, n_modes=32, max_mode=10)
        c[-3] += 1e-13 * np.max(np.abs(c))      # round-off is accepted
        assert np.array_equal(sp.SpectrumField(c).coeffs, c[:16])


class TestRationalSampling:
    def test_rational_evaluation(self):
        # a rational factor is sampled as degree 3 and projected back
        v = sp.cosine(1, 0.25, 64)
        out = sp.project(1.0 / (1.0 + sp.values_on_grid(v, sp.pad_size(64, 3))), v)
        x = grid_points(64)
        ref = 1.0 / (1.0 + 0.25 * np.cos(x))
        assert np.max(np.abs(sp.values_on_grid(out) - ref)) < 1e-10
