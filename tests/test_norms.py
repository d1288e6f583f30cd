import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dampedwaves import norms as nm
from dampedwaves.errors import (ConfigurationError, NumericsError,
                                SingularityError)
from dampedwaves import spectral as sp
from dampedwaves.geometry import StripField, StripGrid
from dampedwaves.harness import (composition_trials, interpolation_trials,
                                 power_rule_trials, product_rule_trials,
                                 random_boundary_field, random_strip_field,
                                 trace_trials)
from oracles import check_extension_chain, check_semigroup_multiplier, coeff


def exp_strip(grid, amplitude=1.0, mode=1):
    """u = amplitude · e^{x₂|mode|} cos(mode·x₁) as a strip field."""
    c = np.zeros((grid.n_modes // 2, grid.n_depth), dtype=np.complex128)
    c[abs(mode)] = 0.5 * amplitude * np.exp(abs(mode) * grid.z)
    return StripField(grid, c)


class TestWienerNorm:
    def test_cos_s1(self):
        assert nm.wiener_norm(sp.cosine(1, 1.0, 16), nm.NormSpec(1.0, 0.0)) == \
            pytest.approx(2.0, rel=1e-14)

    def test_cos_weighted(self):
        val = nm.wiener_norm(sp.cosine(1, 1.0, 16), nm.NormSpec(0.0, np.log(2.0)))
        assert val == pytest.approx(2.0, rel=1e-14)

    def test_hand_sum(self):
        # 0.3 cos 2x at s=2: two modes, weight (1+2)² = 9, coefficient 0.15
        val = nm.wiener_norm(sp.cosine(2, 0.3, 16), nm.NormSpec(2.0, 0.0))
        assert val == pytest.approx(2.7, rel=1e-14)

    def test_norm_axioms(self):
        rng_pairs = [(random_boundary_field(np.random.default_rng(i), 32, 10,
                                            zero_mean=False),
                      random_boundary_field(np.random.default_rng(100 + i), 32, 10,
                                            zero_mean=False))
                     for i in range(25)]
        spec = nm.NormSpec(1.5, 0.2)
        for f, g in rng_pairs:
            nf, ng = nm.wiener_norm(f, spec), nm.wiener_norm(g, spec)
            assert nm.wiener_norm(2.5 * f, spec) == pytest.approx(2.5 * nf, rel=1e-12)
            assert nm.wiener_norm(f + g, spec) <= (nf + ng) * (1 + 1e-12)

    def test_rejects_nonfinite(self):
        c = np.zeros(16, dtype=np.complex128)
        c[1] = c[-1] = np.inf
        with pytest.raises(NumericsError):
            nm.wiener_norm(sp.SpectrumField(c), nm.NormSpec())


class TestSobolevNorm:
    def test_cos_s0(self):
        assert nm.sobolev_norm(sp.cosine(1, 1.0, 16), 0.0) == \
            pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_zero(self):
        assert nm.sobolev_norm(sp.zero_field(16), 3.0) == 0.0

    def test_cos2_s3(self):
        val = nm.sobolev_norm(sp.cosine(2, 1.0, 16), 3.0)
        assert val == pytest.approx(9.0 / np.sqrt(2.0), rel=1e-14)


class TestStripNorm:
    def test_exp_profile_k0(self):
        grid = StripGrid(16, depth=8.0, n_depth=513)
        val = nm.strip_norm(exp_strip(grid), nm.NormSpec(0.0, 0.0, 0))
        assert val == pytest.approx(1.0, rel=1e-4)

    def test_zero_field(self):
        grid = StripGrid(16, depth=8.0, n_depth=65)
        z = StripField(grid, np.zeros((8, 65), dtype=np.complex128))
        assert nm.strip_norm(z, nm.NormSpec(1.0, 0.0, 1)) == 0.0

    def test_exp_profile_k1_s1(self):
        grid = StripGrid(16, depth=8.0, n_depth=513)
        val = nm.strip_norm(exp_strip(grid), nm.NormSpec(1.0, 0.0, 1))
        assert val == pytest.approx(2.0, rel=1e-4)

    def test_tail_reported(self):
        grid = StripGrid(16, depth=8.0, n_depth=257)
        _, tail = nm.strip_norm_report(exp_strip(grid), nm.NormSpec(0.0, 0.0, 0))
        assert tail == pytest.approx(np.exp(-8.0), rel=1e-2)

    @pytest.mark.parametrize("s, lam_", [(0.0, 0.0), (2.5, 0.0), (1.0, 0.3)])
    def test_cached_weights_give_the_same_bits(self, s, lam_):
        grid = StripGrid(32, depth=8.0, n_depth=65)
        u = random_strip_field(np.random.default_rng(11), grid, 15)
        n = grid.modes.astype(float)
        w = nm.mode_multiplicity(32) * ((1.0 + n) ** s * np.exp(lam_ * n))
        a = np.abs(u.coeffs)
        tail = float(np.sum(w * (a[:, 0] / np.maximum(n, 1.0))))
        want = float(np.sum(w * np.trapezoid(a, dx=grid.dz, axis=1))) + tail
        for _ in range(2):      # filling the cache, then reading it
            assert nm.strip_norm_report(u, nm.NormSpec(s, lam_, 0)) == (want, tail)
        cached = nm._strip_weights(32, s, lam_)
        assert cached is nm._strip_weights(32, s, lam_) and not cached.flags.writeable

    def test_k_needs_enough_nodes(self):
        grid = StripGrid(16, depth=8.0, n_depth=8)
        with pytest.raises(ConfigurationError):
            nm.strip_norm(exp_strip(grid), nm.NormSpec(0.0, 0.0, 3), acc=6)


class TestConstants:
    def test_small_q_is_one(self):
        assert nm.constant_k(0.5) == 1.0
        assert nm.constant_k(1.0) == 1.0

    def test_large_q(self):
        assert nm.constant_k(3.0) == 8.0

    def test_power_constant_low_range(self):
        for n in (2, 3, 5):
            assert nm.constant_K(0.0, 1.0, n) == float(n)
            assert nm.constant_K(1.0, 0.5, n) == float(n)

    def test_power_constant_geometric(self):
        # c = k_2 k_2 = 16: K = c(c^{n-1}-1)/(c-1)
        c = 16.0
        assert nm.constant_K(2.0, 2.0, 2) == pytest.approx(c)
        assert nm.constant_K(2.0, 2.0, 3) == pytest.approx(c * (c ** 2 - 1) / (c - 1))

    def test_power_constant_rejects_small_n(self):
        with pytest.raises(ConfigurationError):
            nm.constant_K(0.0, 0.0, 1)


class TestComposeG:
    def test_constant_field(self):
        v = sp.cosine(0, 0.5, 16)
        out = nm.compose_G(v)
        assert coeff(out, 0) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_zero(self):
        assert np.all(nm.compose_G(sp.zero_field(16)).coeffs == 0)

    def test_series_oracle(self):
        v = sp.cosine(1, 0.2, 64)
        direct = nm.compose_G(v)
        # truncated alternating geometric series Σ (−1)^{m+1} v^m
        acc = sp.zero_field(64)
        term = v
        for m in range(1, 40):
            acc = acc + ((-1.0) ** (m + 1)) * term
            term = sp.pointwise_product(term, v)
        assert np.max(np.abs(direct.coeffs - acc.coeffs)) < 1e-12

    def test_singularity_reported(self):
        v = sp.cosine(1, 1.2, 32)
        with pytest.raises(SingularityError):
            nm.compose_G(v)


class TestProductRule:
    def test_equality_case(self):
        c = sp.cosine(1, 1.0, 16)
        rep = nm.check_product_rule(c, c, 0.0, 0.0, 0.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-13)
        assert rep.rhs == pytest.approx(1.0, rel=1e-13)
        assert rep.holds

    def test_zero_factor(self):
        f = random_boundary_field(np.random.default_rng(0), 32, 8, zero_mean=False)
        rep = nm.check_product_rule(f, sp.zero_field(32), 1.0, 1.0, 0.3)
        assert rep.lhs == 0.0 and rep.holds

    def test_randomized(self):
        rows = product_rule_trials(seed=123, trials=150)
        assert all(r.holds for r in rows)


class TestPowerRule:
    def test_randomized(self):
        rows = power_rule_trials(seed=321, trials=150)
        assert all(r.holds for r in rows)


class TestInterpolation:
    def test_hand_case(self):
        rep = nm.check_zero_mean_interpolation(sp.cosine(1, 1.0, 16), 1.0, 0.0)
        assert rep.lhs == pytest.approx(2.0, rel=1e-13)
        assert rep.rhs == pytest.approx(4.0, rel=1e-13)
        assert rep.holds

    def test_zero_field(self):
        rep = nm.check_zero_mean_interpolation(sp.zero_field(16), 2.0, 0.0)
        assert rep.lhs == 0.0 and rep.holds

    def test_requires_zero_mean(self):
        c = sp.cosine(0, 1.0, 16)
        with pytest.raises(ConfigurationError):
            nm.check_zero_mean_interpolation(c + sp.cosine(1, 1.0, 16), 1.0, 0.0)

    def test_randomized(self):
        rows = interpolation_trials(seed=5, trials=150)
        assert all(r.holds for r in rows)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6),
           st.sampled_from([0.25, 0.5, 0.75]))
    def test_theta_interpolation_property(self, seed, theta):
        v = random_boundary_field(np.random.default_rng(seed), 32, 10,
                                  zero_mean=False)
        rep = nm.check_interpolation(v, 0.0, 2.0, theta, 0.2)
        assert rep.holds


class TestComposition:
    def test_randomized_paper_constant_has_defect(self):
        # the literal Lemma-A.2 constant fails on part of the admissible ball
        rows = composition_trials(seed=45, trials=1000)
        assert any(not r.holds for r in rows)

    def test_single_cosine_counterexample(self):
        # v = 0.1 cos x at s = 1: |G∘v|₁ exceeds |v|₁/(1−|v|₀)
        rep = nm.check_composition(sp.cosine(1, 0.1, 64), 1.0, 0.0)
        assert rep.lhs > rep.rhs

    def test_corrected_constant_randomized(self):
        rows = composition_trials(seed=45, trials=300, corrected=True)
        assert all(r.holds for r in rows)

    def test_admissibility_enforced(self):
        v = sp.cosine(1, 0.9, 32) + sp.cosine(2, 0.4, 32)
        with pytest.raises(ConfigurationError):
            nm.check_composition(v, 0.0, 0.0)


class TestTrace:
    def test_exp_profile_equality(self):
        grid = StripGrid(16, depth=8.0, n_depth=513)
        rep = nm.check_trace_inequality(exp_strip(grid), 0.0, 0.0)
        assert rep.lhs == pytest.approx(1.0, rel=1e-13)
        assert rep.rhs == pytest.approx(1.0, rel=2e-4)
        assert rep.holds

    def test_zero(self):
        grid = StripGrid(16, depth=8.0, n_depth=65)
        z = StripField(grid, np.zeros((8, 65), dtype=np.complex128))
        rep = nm.check_trace_inequality(z, 1.0, 0.2)
        assert rep.lhs == 0.0 and rep.holds

    def test_randomized(self):
        rows = trace_trials(seed=9, trials=120)
        assert all(r.holds for r in rows)


class TestSemigroupMultiplier:
    def test_exp_multiplier_all_orders(self):
        v = random_boundary_field(np.random.default_rng(2), 32, 10, zero_mean=False)
        for j in (1, 2, 3):
            for s in (0.0, 1.0):
                rep = check_semigroup_multiplier(v, s, 0.2, j=j)
                assert rep.holds
                assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_extension_chain(self):
        grid = StripGrid(32, depth=8.0, n_depth=129)
        xi = random_boundary_field(np.random.default_rng(8), 32, 10, zero_mean=False)
        for (r, s, j, i) in [(0.0, 0.0, 0, 1), (1.0, 1.0, 1, 2), (2.0, 0.0, 2, 1)]:
            rep = check_extension_chain(xi, grid, r, s, 0.1, j, i)
            assert rep.holds
