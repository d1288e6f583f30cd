import dataclasses
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dampedwaves import cli
from dampedwaves import config as cf
from dampedwaves import diagnostics as dg
from dampedwaves import elliptic as el
from dampedwaves import evolution as ev
from dampedwaves.errors import ConfigurationError
from dampedwaves.norms import NormSpec, wiener_norm
from oracles import capture_first_stage_starts, coeff, resolved_xi_energy_budget

MINIMAL = """
[model]
alpha = 3.0

[grid]
n_modes = 64

[time]
dt = 1e-3
t_final = 1.0

[initial]
preset = small_two_mode
amplitude = 0.01
"""


class TestParsing:
    def test_minimal_with_defaults(self):
        cfg = cf.parse_config(MINIMAL)
        assert cfg.params.alpha == 3.0
        assert cfg.params.epsilon == 1.0
        assert cfg.n_modes == 64
        assert cfg.record_every == 10
        assert cfg.step_options.picard_tol == min(1e-10, 1e-9)

    def test_mu_invariant_rejected(self):
        bad = MINIMAL.replace("alpha = 3.0", "alpha = 3.0\nmu = 2.0")
        with pytest.raises(ConfigurationError, match="mu < alpha/2"):
            cf.parse_config(bad)

    def test_odd_n_rejected(self):
        bad = MINIMAL.replace("n_modes = 64", "n_modes = 63")
        with pytest.raises(ConfigurationError, match="even"):
            cf.parse_config(bad)

    def test_unknown_key_line_anchored(self):
        bad = MINIMAL + "\n[grid]\nnodes = 12\n"
        with pytest.raises(ConfigurationError, match=r"line \d+: unknown key"):
            cf.parse_config(bad)

    def test_output_seed_rejected(self):
        # `run` draws nothing at random, so [output] has no seed key
        bad = MINIMAL + "\n[output]\nseed = 42\n"
        line = bad.splitlines().index("seed = 42") + 1
        with pytest.raises(ConfigurationError, match=rf"line {line}: unknown key"):
            cf.parse_config(bad)

    @pytest.mark.parametrize("old, new", [
        ("[initial]", "[diagnostics]\nnoise_floor_rel = 1e-13\n[initial]"),
        ("preset = small_two_mode", "preset = single_mode"),
        ("[initial]", "[numerics]\nlinear_only = true\n[initial]"),
        ("preset = small_two_mode", "preset = moderate_mix")])
    def test_removed_keys_and_presets_rejected(self, old, new):
        bad = MINIMAL.replace(old, new)
        # the first line of new that is not the header of a known section
        offending = next(text for text in new.splitlines()
                         if text.strip("[]") not in cf._SCHEMA)
        line = bad.splitlines().index(offending) + 1
        with pytest.raises(ConfigurationError, match=rf"line {line}: unknown"):
            cf.parse_config(bad)

    def test_unknown_section(self):
        with pytest.raises(ConfigurationError, match="unknown section"):
            cf.parse_config(MINIMAL + "\n[physics]\n")

    def test_bad_value_line_anchored(self):
        bad = MINIMAL.replace("dt = 1e-3", "dt = fast")
        with pytest.raises(ConfigurationError, match="line"):
            cf.parse_config(bad)

    def test_round_trip(self):
        cfg = cf.parse_config(MINIMAL)
        again = cf.parse_config(cf.config_to_text(cfg))
        assert again == cfg

    def test_explicit_modes(self):
        text = MINIMAL.replace("preset = small_two_mode",
                               "preset = explicit\nh_modes = 1:0.004, 2:0.002:1.5707963\nxi_modes = 1:0.003")
        cfg = cf.parse_config(text)
        h0, xi0 = cf.initial_data(cfg)
        assert abs(coeff(h0, 1)) == pytest.approx(0.002, rel=1e-12)
        assert abs(coeff(xi0, 1)) == pytest.approx(0.0015, rel=1e-12)

    def test_mode_zero_forbidden_for_h(self):
        text = MINIMAL.replace("preset = small_two_mode",
                               "preset = explicit\nh_modes = 0:0.004")
        cfg = cf.parse_config(text)
        with pytest.raises(ConfigurationError, match="zero mean"):
            cf.initial_data(cfg)


class TestPresets:
    def test_zero(self):
        cfg = cf.parse_config(MINIMAL.replace("small_two_mode", "zero"))
        h0, xi0 = cf.initial_data(cfg)
        assert np.all(h0.coeffs == 0) and np.all(xi0.coeffs == 0)

    def test_small_two_mode_norm_target(self):
        cfg = cf.parse_config(MINIMAL)
        h0, xi0 = cf.initial_data(cfg)
        total = wiener_norm(h0, NormSpec(1.0, 0.0)) + wiener_norm(xi0, NormSpec(1.0, 0.0))
        assert total == pytest.approx(0.01, rel=1e-12)
        assert abs(h0.coeffs[0]) == 0.0


def run_cli(*argv) -> int:
    return cli.main(list(argv))


@pytest.fixture()
def tiny_config(tmp_path: Path) -> Path:
    text = """
[model]
alpha = 3.0
mu = 1.0

[grid]
n_modes = 16
n_depth = 64

[time]
dt = 2e-3
t_final = 0.03

[initial]
preset = small_two_mode
amplitude = 0.01

[output]
record_every = 5
"""
    p = tmp_path / "run.ini"
    p.write_text(text)
    return p


class TestCli:
    def test_run_outputs(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "out"
        code = run_cli("run", "--config", str(tiny_config), "--output-dir", str(out))
        assert code == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "# dampedwaves-series-v1"
        assert series[1].split(",") == list(
            ("t", "sobolev_h3", "sobolev_xi3", "wiener_h", "wiener_xi",
             "energy", "radius", "lyapunov"))
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["failed"] == 0
        assert [c["name"] for c in verdict["checks"]] == ["mean_drift_per_step",
                                                          "smallness_cap"]
        assert verdict["summary"]["mixed_solves"] == 0
        assert verdict["summary"]["max_picard_iters"] >= 1
        assert verdict["summary"]["phi2_solves"] == 2 * 15         # two per step
        assert verdict["summary"]["picard_sweeps"] >= verdict["summary"]["phi2_solves"]
        # the relative budget margin, equal to the one solved afresh at every
        # record from the start the stepper's solve had
        cfg = cf.parse_config(tiny_config.read_text())
        with monkeypatch.context() as m:
            starts = capture_first_stage_starts(m)
            traj = ev.run(*cf.initial_data(cfg), cfg.params, cfg.grid, cfg.dt, cfg.t_final,
                          record_every=cfg.record_every, opts=cfg.step_options)
        rep = resolved_xi_energy_budget(traj, starts)
        assert verdict["summary"]["xi_budget_rel_margin"] == rep.margin / abs(rep.rhs)
        snaps = (out / "snapshots.jsonl").read_text().splitlines()
        assert len(snaps) >= 2
        first = json.loads(snaps[0])
        assert len(first["h_re"]) == 16

    def test_snapshots_are_real_field_fft_layouts(self, tiny_config, tmp_path,
                                                  monkeypatch):
        # the writer fills in the negative modes of the stored modes 0..N/2−1
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(out)) == 0
        snaps = (out / "snapshots.jsonl").read_text().splitlines()
        assert len(snaps) >= 2
        for line in snaps:
            d = json.loads(line)
            for name in ("h", "xi"):
                c = np.array(d[name + "_re"]) + 1j * np.array(d[name + "_im"])
                assert c.shape == (16,) and np.any(c != 0.0)
                assert np.array_equal(c[9:], np.conj(c[7:0:-1]))    # v̂(−n) = conj v̂(n)
                assert d[name + "_re"][8] == 0.0 and d[name + "_im"][8] == 0.0
                assert d[name + "_im"][0] == 0.0
            assert d["h_re"][0] == 0.0                          # zero-mean interface

    @pytest.mark.parametrize("t_final", ["0.0", "0.002"])
    def test_budget_margin_null_below_three_records(self, tiny_config, tmp_path,
                                                    monkeypatch, t_final):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        tiny_config.write_text(tiny_config.read_text().replace(
            "t_final = 0.03", f"t_final = {t_final}"))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(out)) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["summary"]["xi_budget_rel_margin"] is None

    def test_small_amplitude_run_never_mixes(self, tiny_config, tmp_path, monkeypatch):
        # the same bytes as a run whose φ₂ solves can never switch to mixing
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(a)) == 0
        monkeypatch.setattr(el, "MIX_SWITCH_RATIO", np.inf)
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(b)) == 0
        for name in ("series.csv", "snapshots.jsonl", "verdict.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_run_determinism(self, tiny_config, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(a)) == 0
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(b)) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()
        assert (a / "snapshots.jsonl").read_bytes() == (b / "snapshots.jsonl").read_bytes()

    def test_env_override(self, tiny_config, tmp_path, monkeypatch):
        target = tmp_path / "envdir"
        monkeypatch.setenv("DAMPEDWAVES_OUTDIR", str(target))
        assert run_cli("run", "--config", str(tiny_config)) == 0
        assert (target / "series.csv").exists()

    def test_non_finite_state_exits_3_naming_its_step(self, tiny_config, tmp_path,
                                                       monkeypatch, capsys):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        calls, rhs = [], ev.evaluate_rhs

        def nan_at_third_predictor(*args, **kwargs):
            r = rhs(*args, **kwargs)
            calls.append(1)
            return dataclasses.replace(r, xi_t=r.xi_t * np.nan) if len(calls) == 6 else r

        monkeypatch.setattr(ev, "evaluate_rhs", nan_at_third_predictor)
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(tiny_config), "--output-dir", str(out)) == 3
        assert ("run aborted: step 3 of 15 (t = 0.004 -> 0.006): non-finite "
                "coefficient in the new state") in capsys.readouterr().err

    def test_run_bad_config_exit_code(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        p = tmp_path / "bad.ini"
        p.write_text("[model]\nalpha = -1\n")
        assert run_cli("run", "--config", str(p)) == 2

    @pytest.mark.parametrize("old, new", [
        ("[initial]", "[output]\nrecord_every = 0\n[initial]"),
        ("n_depth = 48", "n_depth = 48\ndepth = -1"),
        ("n_depth = 48", "n_depth = 4"),
        ("[initial]", "[numerics]\npicard_max_iter = 0\n[initial]"),
        ("[initial]", "[output]\nsnapshot_every = -1\n[initial]"),
        ("preset = small_two_mode", "preset = explicit\nh_modes = 0:0.004"),
        ("[initial]", "[numerics]\nmargin_min = 1.0\n[initial]"),
        ("[initial]", "[numerics]\nmargin_min = 1.5\n[initial]"),
        ("[initial]", "[numerics]\nmargin_min = -0.1\n[initial]"),
    ], ids=["record_every", "depth", "n_depth", "picard_max_iter", "snapshot_every",
            "h_mode_zero", "margin_min_one", "margin_min_above_one", "margin_min_negative"])
    def test_invalid_setting_is_a_config_error(self, tmp_path, monkeypatch, capsys,
                                               old, new):
        # rejected before the run starts: exit 2 and nothing written, not a traceback
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        text = MINIMAL.replace("n_modes = 64", "n_modes = 8\nn_depth = 48") \
            .replace("t_final = 1.0", "t_final = 0.01")
        p = tmp_path / "bad.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(p), "--output-dir", str(out)) == 2
        assert "config error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("old, new", [
        ("dt = 1e-3", "dt = nan"),
        ("t_final = 0.01", "t_final = inf"),
        ("[initial]", "[numerics]\npicard_tol = abc\n[initial]"),
        ("[initial]", "[numerics]\npicard_tol = -1\n[initial]"),
        ("[initial]", "[numerics]\npicard_tol = nan\n[initial]"),
        ("alpha = 3.0", "alpha = nan"),
        ("n_depth = 48", "n_depth = 48\ndepth = inf"),
        ("[initial]", "[numerics]\nmargin_min = nan\n[initial]"),
        ("preset = small_two_mode", "preset = explicit\nh_modes = 1:inf"),
    ], ids=["dt_nan", "t_final_inf", "picard_tol_abc", "picard_tol_negative",
            "picard_tol_nan", "alpha_nan", "depth_inf", "margin_min_nan", "mode_inf"])
    def test_non_finite_or_invalid_float_is_a_config_error(self, tmp_path, monkeypatch,
                                                            capsys, old, new):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        text = MINIMAL.replace("n_modes = 64", "n_modes = 8\nn_depth = 48") \
            .replace("t_final = 1.0", "t_final = 0.01")
        assert old in text
        p = tmp_path / "bad.ini"
        p.write_text(text.replace(old, new))
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(p), "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: " in err and "Traceback" not in err
        assert not out.exists()

    def test_zero_preset_series_is_zero(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        text = """
[model]
alpha = 3.0

[grid]
n_modes = 16
n_depth = 64

[time]
dt = 1e-2
t_final = 0.05

[initial]
preset = zero
"""
        p = tmp_path / "zero.ini"
        p.write_text(text)
        out = tmp_path / "out0"
        assert run_cli("run", "--config", str(p), "--output-dir", str(out)) == 0
        rows = (out / "series.csv").read_text().splitlines()[2:]
        for row in rows:
            vals = row.split(",")
            assert float(vals[1]) == 0.0 and float(vals[7]) == 0.0

    @pytest.mark.parametrize("h_modes, margin", [("1:0.5", 0.1), ("1:0.95", 0.01)])
    def test_linear_only_run_solves_no_elliptic_problem(self, tmp_path, monkeypatch,
                                                        h_modes, margin):
        # at ε = 0 the strip is flat whatever h is: neither the stepper nor the
        # records solve anything (φ₂ = 0), so neither the Picard stall of
        # h = 0.5 at ε = 1 nor min J = 0.05 at h = 0.95 can stop the run
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        monkeypatch.setattr(ev, "solve_phi2", None)
        monkeypatch.setattr(dg, "solve_phi2", None)
        text = f"""
[model]
alpha = 3.0
epsilon = 0.0

[grid]
n_modes = 16
n_depth = 64

[time]
dt = 1e-2
t_final = 0.05

[initial]
preset = explicit
h_modes = {h_modes}

[numerics]
margin_min = {margin}

[output]
record_every = 1
"""
        p = tmp_path / "linear.ini"
        p.write_text(text)
        out = tmp_path / "lin"
        assert run_cli("run", "--config", str(p), "--output-dir", str(out)) == 0
        assert len((out / "series.csv").read_text().splitlines()) == 2 + 6

    def test_linear_validate(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "lv"
        code = run_cli("linear-validate", "--t-final", "0.05",
                       "--output-dir", str(out))
        assert code == 0
        lines = (out / "linear_validate.csv").read_text().splitlines()
        assert lines[0] == "# dampedwaves-linear-v1"
        assert len(lines) == 2 + 3

    @pytest.mark.parametrize("argv", [
        ("linear-validate", "--modes", "5"),
        ("linear-validate", "--modes", "0,1"),
        ("linear-validate", "--modes", "1,x"),
        ("linear-validate", "--dt", "0"),
        ("linear-validate", "--dt", "-0.001"),
        ("linear-validate", "--t-final", "-1"),
        ("lint-inequalities", "--trials", "0"),
        ("lint-inequalities", "--trials", "-1"),
        ("elliptic-validate", "--trials", "0"),
    ], ids=["modes_above_3", "mode_0", "modes_not_integers", "dt_zero", "dt_negative",
            "t_final_negative", "lint_trials_zero", "lint_trials_negative",
            "elliptic_trials_zero"])
    def test_invalid_validate_argument_is_a_config_error(self, tmp_path, monkeypatch,
                                                         capsys, argv):
        # exit 2 before anything runs or is written, not a traceback (exit 1 is
        # FAIL) and not a PASS over no trials
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "out"
        assert run_cli(*argv, "--output-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert "config error: " in err and "Traceback" not in err
        assert not out.exists()

    def test_lint_inequalities(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "li"
        code = run_cli("lint-inequalities", "--trials", "24", "--seed", "42",
                       "--output-dir", str(out))
        assert code == 0
        lines = (out / "inequalities.csv").read_text().splitlines()
        assert lines[1].startswith("lemma,trial,")
        fams = {ln.split(",")[0] for ln in lines[2:]}
        assert fams == {"product_rule", "power_rule", "interpolation_theta",
                        "interpolation_zero_mean", "composition",
                        "composition_corrected", "trace"}

    def test_elliptic_validate(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
        out = tmp_path / "ev"
        code = run_cli("elliptic-validate", "--trials", "6", "--seed", "3",
                       "--output-dir", str(out))
        assert code == 0
        verdict = json.loads((out / "verdict.json").read_text())
        names = {c["name"] for c in verdict["checks"]}
        assert {"manufactured_error", "manufactured_order", "solver_bounds"} <= names


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the allocator settings are glibc's")
def test_step_temporaries_stay_on_heap(tmp_path, monkeypatch):
    # 64 × 192 strip temporaries (147 KB sample arrays and larger stacks) lie
    # above glibc's default mmap threshold; unless cli.main keeps them on the
    # heap, each step can map, fault in and unmap them again (about 500
    # faults per step with mallopt skipped, against 3 with it)
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))

    def minor_faults(t_final: str) -> int:
        cfg = tmp_path / f"heap_{t_final}.ini"
        cfg.write_text(MINIMAL.replace("t_final = 1.0", f"t_final = {t_final}"))
        before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
        subprocess.run([sys.executable, "-m", "dampedwaves.cli", "run",
                        "--config", str(cfg), "--output-dir", str(tmp_path / t_final)],
                       env=env, check=True, capture_output=True, timeout=300)
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before

    steps = 50
    per_step = (minor_faults("0.05") - minor_faults("0")) / steps
    assert per_step <= 200


def test_run_does_not_import_numpy_ma(tmp_path, monkeypatch):
    # np.unique imports numpy.ma on first use, tens of ms of every run's start
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(MINIMAL.replace("n_modes = 64", "n_modes = 8\nn_depth = 48")
                   .replace("t_final = 1.0", "t_final = 0.02"))
    script = ("import sys\nfrom dampedwaves.cli import main\n"
              f"code = main(['run', '--config', {str(cfg)!r}, "
              f"'--output-dir', {str(tmp_path / 'out')!r}])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "False"]
    assert (tmp_path / "out" / "series.csv").exists()


def test_benchmark_trace_hooks_find_every_layer(tmp_path, monkeypatch):
    # bench/trace_cli.py wraps package names where they are looked up and
    # raises AttributeError on a missing one, failing every traced round
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    root = Path(cli.__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    cfg = tmp_path / "trace.ini"
    cfg.write_text(MINIMAL.replace("n_modes = 64", "n_modes = 8\nn_depth = 48")
                   .replace("t_final = 1.0", "t_final = 0.005"))
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(root / "bench" / "trace_cli.py"), "--spans", str(spans),
         "--", "run", "--config", str(cfg), "--output-dir", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    calls = json.loads(spans.read_text())["calls"]
    for layer in ("evolution.step", "evolution.evaluate_rhs",
                  "geometry.build_geometry", "elliptic.solve_phi2",
                  "elliptic.poisson_divform", "elliptic.second_trace_primary",
                  "diagnostics.compute_records", "cli.cmd_run"):
        assert calls.get(layer, 0) > 0, layer


def test_benchmark_elliptic_oracle_passes(tmp_path, monkeypatch):
    # the steep workload's elliptic check (bench/checks.py) on a small grid
    from dataclasses import replace
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    monkeypatch.syspath_prepend(str(Path(cli.__file__).resolve().parents[2] / "bench"))
    from checks import check_elliptic, load, solve_final_state
    from workloads import WORKLOADS, config_text

    wl = replace(WORKLOADS["steep_128x384"], n_modes=32, n_depth=96, steps=1)
    cfg = tmp_path / "steep.ini"
    cfg.write_text(config_text(wl, 1))
    out = tmp_path / "out"
    code = run_cli("run", "--config", str(cfg), "--output-dir", str(out))
    assert code == 0
    assert check_elliptic(*solve_final_state(load(out, code), wl)) == []


def test_verdict_summary_counts_mixed_solves(tmp_path, monkeypatch):
    # the solver counts go to a summary beside the checks, not into a check
    from dataclasses import replace
    monkeypatch.delenv("DAMPEDWAVES_OUTDIR", raising=False)
    monkeypatch.syspath_prepend(str(Path(cli.__file__).resolve().parents[2] / "bench"))
    from workloads import WORKLOADS, config_text

    wl = replace(WORKLOADS["steep_128x384"], n_modes=32, n_depth=96, steps=2)
    text = config_text(wl, 1)
    cfg_path = tmp_path / "steep.ini"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert run_cli("run", "--config", str(cfg_path), "--output-dir", str(out)) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert [c["name"] for c in verdict["checks"]] == ["mean_drift_per_step", "smallness_cap"]

    cfg = cf.parse_config(text)
    traj = ev.run(*cf.initial_data(cfg), cfg.params, cfg.grid, cfg.dt, cfg.t_final,
                  record_every=cfg.record_every, opts=cfg.step_options)
    rep = dg.check_xi_energy_budget(traj)
    assert verdict["summary"] == {"max_picard_iters": traj.max_picard_iters,
                                  "mixed_solves": traj.mixed_solves,
                                  "picard_sweeps": traj.picard_sweeps,
                                  "phi2_solves": traj.phi2_solves,
                                  "xi_budget_rel_margin": (rep.rhs - rep.lhs) / abs(rep.rhs)}
    assert traj.mixed_solves == traj.phi2_solves == 2 * wl.steps   # every solve switched
    assert traj.picard_sweeps >= 3 * traj.phi2_solves     # mixing starts at sweep 3
