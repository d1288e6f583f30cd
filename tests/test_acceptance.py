"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` for one PASS/FAIL line per
criterion.  The composition family of criterion 4 with the literal stated
constant is a documented defect (falsified by v = 0.1*cos x at s = 1; see
check_composition_corrected) and is marked as a strict expected failure; the
corrected-constant variant is asserted green alongside it.
"""

import time

import numpy as np
import pytest

from dampedwaves import diagnostics as dg
from dampedwaves import elliptic as el
from dampedwaves import evolution as ev
from dampedwaves import geometry as geo
from dampedwaves import harness as hz
from dampedwaves import norms as nm
from dampedwaves import spectral as sp

_RESULTS = []


def _report(name, passed, detail):
    line = "ACCEPTANCE %s: %s - %s" % (name, "PASS" if passed else "FAIL", detail)
    _RESULTS.append(line)
    print("\n" + line)


@pytest.fixture(scope="session", autouse=True)
def summary():
    yield
    print("\n" + "=" * 72)
    for line in _RESULTS:
        print(line)
    print("=" * 72)


# ---------------------------------------------------------------------------
# 1. linear fidelity

def test_criterion_1_linear_fidelity():
    t0 = time.perf_counter()
    errs = hz.linear_fidelity(alpha=3.0, ks=(1, 2, 3), dt=1e-3, t_final=1.0)
    elapsed = time.perf_counter() - t0
    worst = max(errs.values())
    ok = worst <= 1e-6 and elapsed < 5.0
    _report("1 linear-fidelity", ok,
            "max rel error %.2e (tol 1e-6), runtime %.1fs (<5s)" % (worst, elapsed))
    assert worst <= 1e-6
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. manufactured elliptic solution

@pytest.mark.filterwarnings("ignore:forcing has not decayed")
def test_criterion_2_manufactured_solution():
    t0 = time.perf_counter()
    errs = dict(hz.manufactured_solution_errors((512,), depth=8.0))
    # order study on a deeper strip where the e^{-L_d} tail does not floor it
    deep = hz.manufactured_solution_errors((256, 512, 1024), depth=20.0)
    elapsed = time.perf_counter() - t0
    err512 = errs[512]
    o1 = np.log2(deep[0][1] / deep[1][1])
    o2 = np.log2(deep[1][1] / deep[2][1])
    ok = err512 <= 1e-4 and abs(o1 - 2.0) <= 0.2 and abs(o2 - 2.0) <= 0.2 \
        and elapsed < 1.0
    _report("2 manufactured-elliptic", ok,
            "err %.3e (tol 1e-4), orders %.2f/%.2f, runtime %.2fs (<1s)"
            % (err512, o1, o2, elapsed))
    assert err512 <= 1e-4
    assert abs(o1 - 2.0) <= 0.2 and abs(o2 - 2.0) <= 0.2
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# 3. solver-estimate constants on random band-limited data

def test_criterion_3_solver_bounds():
    t0 = time.perf_counter()
    rows = hz.elliptic_bound_trials(seed=7, n_samples=100)
    elapsed = time.perf_counter() - t0
    n_viol = sum(1 for r in rows if not r.holds)
    ok = n_viol == 0 and elapsed < 30.0
    _report("3 solver-bounds", ok,
            "%d samples x both estimates, %d violations, runtime %.1fs (<30s)"
            % (100, n_viol, elapsed))
    assert n_viol == 0
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# 4. norm-calculus lemma suite (1000 trials per family)

@pytest.fixture(scope="module")
def lemma_rows():
    t0 = time.perf_counter()
    rows = {
        "product": hz.product_rule_trials(42, 1000),
        "power": hz.power_rule_trials(43, 1000),
        "interpolation": hz.interpolation_trials(44, 1000),
        "composition_paper": hz.composition_trials(45, 1000),
        "composition_corrected": hz.composition_trials(45, 1000, corrected=True),
        "trace": hz.trace_trials(46, 1000),
    }
    rows["elapsed"] = time.perf_counter() - t0
    return rows


def _violations(rows):
    return sum(1 for r in rows if not r.holds)


def test_criterion_4_product_rule(lemma_rows):
    n = _violations(lemma_rows["product"])
    _report("4a product-rule", n == 0, "1000 trials, %d violations" % n)
    assert n == 0


def test_criterion_4_power_rule(lemma_rows):
    n = _violations(lemma_rows["power"])
    _report("4b power-rule", n == 0, "1000 trials, %d violations" % n)
    assert n == 0


def test_criterion_4_interpolation(lemma_rows):
    n = _violations(lemma_rows["interpolation"])
    _report("4c interpolation", n == 0, "1000 trials, %d violations" % n)
    assert n == 0


@pytest.mark.xfail(strict=True,
                   reason="stated composition constant 1/(1-k_s|v|_0) is "
                          "falsified on its own domain (e.g. v = 0.1 cos x, "
                          "s = 1); corrected-constant variant passes")
def test_criterion_4_composition_stated_constant(lemma_rows):
    n = _violations(lemma_rows["composition_paper"])
    _report("4d composition (stated constant)", n == 0,
            "1000 trials, %d violations - documented defect" % n)
    assert n == 0


def test_criterion_4_composition_corrected(lemma_rows):
    n = _violations(lemma_rows["composition_corrected"])
    _report("4d' composition (corrected constant)", n == 0,
            "1000 trials, %d violations" % n)
    assert n == 0


def test_criterion_4_trace(lemma_rows):
    n = _violations(lemma_rows["trace"])
    elapsed = lemma_rows["elapsed"]
    ok = n == 0 and elapsed < 60.0
    _report("4e trace", ok,
            "1000 trials, %d violations; whole suite %.1fs (<60s)" % (n, elapsed))
    assert n == 0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 5. geometry identities

def test_criterion_5_geometry_identities():
    grid = geo.StripGrid(64, depth=8.0, n_depth=512)
    # mode-2 content kept modest: the FD-stencil floor of the oracle grows
    # like n^6 while the identity itself is exact
    h = sp.cosine(1, 0.066, 64) + sp.cosine(2, 0.0066, 64)
    h2 = nm.sobolev_norm(h, 2.0)
    assert h2 <= 0.1
    bundle = geo.build_geometry(h, grid)
    piola = geo.check_piola(bundle)
    ident = geo.identity_defect(bundle)
    ok = piola <= 1e-8 and ident <= 1e-10
    _report("5 geometry-identities", ok,
            "|h|_2=%.3f: Piola %.2e (<=1e-8), A*grad(psi)-Id %.2e (<=1e-10)"
            % (h2, piola, ident))
    assert piola <= 1e-8
    assert ident <= 1e-10


# ---------------------------------------------------------------------------
# 6. elliptic residual in the smallness regime

def test_criterion_6_elliptic_residual():
    grid = geo.StripGrid(64, depth=8.0, n_depth=256)
    h = sp.cosine(1, 0.01, 64) + sp.cosine(2, 0.0033, 64)   # |h|_1 = 0.0299
    xi = sp.sine(1, 0.01, 64)                                # |xi|_1 = 0.02
    total = nm.wiener_norm(h, nm.NormSpec(1.0, 0.0)) + \
        nm.wiener_norm(xi, nm.NormSpec(1.0, 0.0))
    assert total <= 0.05
    bundle = geo.build_geometry(h, grid)
    phi1 = el.solve_phi1(xi, grid)
    sol = el.solve_phi2(bundle, phi1, tol=1e-12, max_iter=20)
    ok = sol.picard_iters <= 20 and sol.residual <= 1e-8
    _report("6 elliptic-residual", ok,
            "|h|_1+|xi|_1=%.3f: %d Picard iterations (<=20), "
            "relative residual %.2e (<=1e-8)" % (total, sol.picard_iters, sol.residual))
    assert sol.picard_iters <= 20
    assert sol.residual <= 1e-8


# ---------------------------------------------------------------------------
# 7 & 8. global decay run (shared fixture)

@pytest.fixture(scope="module")
def decay_run():
    n_modes = 64
    grid = geo.StripGrid(n_modes, depth=8.0, n_depth=192)
    params = ev.ModelParams(alpha=3.0, epsilon=1.0, mu=1.0)
    amp = 0.01 / 7.0          # |h0|_1 + |xi0|_1 = 0.01
    h0 = sp.cosine(1, amp, n_modes) + sp.cosine(2, 0.5 * amp, n_modes)
    xi0 = sp.sine(1, amp, n_modes) + sp.sine(2, 0.5 * amp, n_modes)
    t0 = time.perf_counter()
    traj = ev.run(h0, xi0, params, grid, 1e-3, 2.0, record_every=10)
    records = dg.compute_records(traj)
    elapsed = time.perf_counter() - t0
    return traj, records, elapsed


def test_criterion_7_global_decay(decay_run):
    traj, records, elapsed = decay_run
    times = np.array([r.t for r in records])
    lyap = np.array([r.lyapunov for r in records])
    assert lyap[0] == pytest.approx(0.01, rel=1e-9)
    # alpha = 3 damping: nonincreasing from t = 0, which covers the stated
    # "after one linear period" window (2*pi > T)
    rep = dg.check_lyapunov_monotone(times, lyap, slack=1e-6, transient=0.0)
    delta_hat = dg.decay_rate(times, lyap, window=(0.0, 2.0))
    ok = rep.holds and delta_hat > 0 and lyap[-1] <= lyap[0] and elapsed < 300.0
    _report("7 theorem-2-decay", ok,
            "monotone %s (slack 1e-6), delta-hat %.2f > 0, final/initial %.2e, "
            "runtime %.0fs (<300s)" % (rep.holds, delta_hat, lyap[-1] / lyap[0],
                                       elapsed))
    assert rep.holds
    assert delta_hat > 0
    assert lyap[-1] <= lyap[0]
    assert elapsed < 300.0


def test_criterion_8_analyticity_gain(decay_run):
    _, records, _ = decay_run
    times = np.array([r.t for r in records])
    rho = np.array([r.radius for r in records])
    window = (times >= 0.2) & (times <= 1.0)
    rho_w, t_w = rho[window], times[window]
    defined = bool(np.all(np.isfinite(rho_w)))
    nondecreasing = bool(np.all(np.diff(rho_w) >= -1e-9))
    above = bool(np.all(rho_w >= 1.0 * t_w - 0.1))
    margin = float(np.min(rho_w - (t_w - 0.1)))
    ok = defined and nondecreasing and above
    _report("8 analyticity-gain", ok,
            "rho defined on [0.2,1]: %s, nondecreasing: %s, "
            "min(rho-(mu t-0.1)) = %.2f >= 0" % (defined, nondecreasing, margin))
    assert defined and nondecreasing and above


# ---------------------------------------------------------------------------
# 9. energy control for moderate data

def test_criterion_9_energy_control():
    n_modes = 32
    grid = geo.StripGrid(n_modes, depth=8.0, n_depth=128)
    params = ev.ModelParams(alpha=3.0, epsilon=1.0)
    a = 0.035
    h0 = sp.cosine(1, 0.8 * a, n_modes) + sp.cosine(3, a, n_modes)
    xi0 = sp.sine(1, 0.8 * a, n_modes) + sp.sine(3, a, n_modes)
    e0_boundary = nm.sobolev_norm(h0, 3.0) ** 2 + nm.sobolev_norm(xi0, 3.0) ** 2
    assert 0.5 <= e0_boundary <= 2.0     # O(1) data
    traj = ev.run(h0, xi0, params, grid, 1e-3, 0.5, record_every=10)
    records = dg.compute_records(traj)
    energies = np.array([r.energy for r in records])
    times = np.array([r.t for r in records])
    e0 = energies[0]
    within = energies <= 2.0 * e0
    t_star = times[np.where(within)[0][-1]] if np.all(within) else \
        times[np.argmax(~within) - 1]
    ok = t_star > 0 and np.all(energies[times <= t_star] <= 2.0 * e0)
    _report("9 energy-control", ok,
            "E(0)=%.3f, max E(t)/E(0) = %.3f on [0, %.2f], machine-found "
            "T* = %.2f > 0" % (e0, float(np.max(energies)) / e0, times[-1], t_star))
    assert t_star > 0
    assert np.all(energies[times <= t_star] <= 2.0 * e0)
    assert t_star >= 10 * traj.dt


# ---------------------------------------------------------------------------
# 10. temporal order

def test_criterion_10_scheme_order():
    n_modes = 32
    grid = geo.StripGrid(n_modes, depth=8.0, n_depth=128)
    params = ev.ModelParams(alpha=3.0, epsilon=1.0)
    h0 = sp.cosine(1, 0.02, n_modes) + sp.cosine(2, 0.01, n_modes)
    xi0 = sp.sine(1, 0.02, n_modes) + sp.sine(2, 0.01, n_modes)

    def final(dt):
        opts = ev.StepOptions(picard_tol=1e-14, picard_max_iter=30)
        traj = ev.run(h0, xi0, params, grid, dt, 0.08, record_every=10 ** 6,
                      opts=opts)
        s = traj.states[-1]
        return np.stack([s.xi.coeffs, s.h.coeffs])

    u1, u2, u3 = final(4e-3), final(2e-3), final(1e-3)
    order = float(np.log2(np.max(np.abs(u1 - u2)) / np.max(np.abs(u2 - u3))))
    ok = order >= 1.8
    _report("10 scheme-order", ok, "observed Richardson order %.2f (>= 1.8)" % order)
    assert order >= 1.8


# ---------------------------------------------------------------------------
# 11. determinism

def test_criterion_11_determinism(tmp_path, monkeypatch):
    from dampedwaves.cli import main as cli_main
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    cfg = tmp_path / "det.ini"
    cfg.write_text("""
[model]
alpha = 3.0
mu = 1.0

[grid]
n_modes = 32
n_depth = 96

[time]
dt = 1e-3
t_final = 0.05

[initial]
preset = small_two_mode
amplitude = 0.01

[output]
record_every = 10
""")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["run", "--config", str(cfg), "--output-dir", str(out)]) == 0
        outs.append(out)
    same_series = (outs[0] / "series.csv").read_bytes() == \
        (outs[1] / "series.csv").read_bytes()
    same_snaps = (outs[0] / "snapshots.jsonl").read_bytes() == \
        (outs[1] / "snapshots.jsonl").read_bytes()
    ok = same_series and same_snaps
    _report("11 determinism", ok,
            "byte-identical outputs across repeated runs: series=%s snapshots=%s"
            % (same_series, same_snaps))
    assert same_series and same_snaps
