"""Command-line entry points: run, linear-validate, elliptic-validate,
lint-inequalities.

All outputs are deterministic: `run` output for a fixed config, and the
`elliptic-validate` and `lint-inequalities` tables for a fixed `--seed`.
Floats are written with shortest round-trip repr, no timestamps, stable row
order.  The output
directory may be overridden with the DAMPEDWAVES_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as dg
from . import harness as hz
from .config import config_to_text, initial_data, parse_config
from .errors import (ConfigurationError, ContractionError,
                     DiffeomorphismError, NumericsError)
from .evolution import run as run_evolution
from .spectral import hermitian_fill

SERIES_SCHEMA = "dampedwaves-series-v1"
TRIALS_SCHEMA = "dampedwaves-inequalities-v1"
ELLIPTIC_SCHEMA = "dampedwaves-elliptic-v1"
LINEAR_SCHEMA = "dampedwaves-linear-v1"

# composition with the literal stated constant is a documented defect; its
# violations are reported but do not fail the lint gate unless --strict
KNOWN_DEFECT_FAMILIES = ("composition",)

# records whose Lyapunov sum exceeds this are flagged in verdict.json
ADMISSIBILITY_CAP = 0.5


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_csv(path: Path, schema: str, header: tuple[str, ...], rows) -> None:
    lines = [f"# {schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


def _outdir(requested: str) -> Path:
    override = os.environ.get("DAMPEDWAVES_OUTDIR")
    p = Path(override) if override else Path(requested)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _write_verdict(path: Path, checks: list[dict], summary: dict | None = None) -> int:
    failed = [c for c in checks if c.get("mandatory", True) and not c["passed"]]
    verdict = {"checks": checks, "failed": len(failed)}
    if summary is not None:
        verdict["summary"] = summary      # what the run did; never pass/fail
    path.write_text(json.dumps(verdict, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# run

def cmd_run(args) -> int:
    try:
        cfg = parse_config(Path(args.config).read_text())
        h0, xi0 = initial_data(cfg)
    except (OSError, ConfigurationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = _outdir(args.output_dir or cfg.directory)
    (out / "config.resolved.ini").write_text(config_to_text(cfg))

    try:
        traj = run_evolution(h0, xi0, cfg.params, cfg.grid, cfg.dt, cfg.t_final,
                             record_every=cfg.record_every, opts=cfg.step_options)
        records = dg.compute_records(traj)
    except (ContractionError, DiffeomorphismError, NumericsError) as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    write_csv(out / "series.csv", SERIES_SCHEMA, dg.DiagRecord.FIELDS,
              (r.row() for r in records))

    snap_idx = set(range(0, len(traj.states), cfg.snapshot_every)) \
        if cfg.snapshot_every else {0}
    snap_idx |= {len(traj.states) - 1}
    with (out / "snapshots.jsonl").open("w") as fh:
        for i, state in enumerate(traj.states):
            if i not in snap_idx:
                continue
            # the full FFT layout, N coefficients per field
            h, xi = hermitian_fill(state.h.coeffs), hermitian_fill(state.xi.coeffs)
            fh.write(json.dumps({
                "t": state.t,
                "h_re": h.real.tolist(), "h_im": h.imag.tolist(),
                "xi_re": xi.real.tolist(), "xi_im": xi.imag.tolist(),
            }) + "\n")

    flags = dg.smallness_flags(records, ADMISSIBILITY_CAP)
    checks = [
        {"name": "mean_drift_per_step", "passed": traj.max_mean_drift <= 1e-12,
         "value": traj.max_mean_drift, "mandatory": True},
        {"name": "smallness_cap", "passed": not any(flags),
         "value": int(sum(flags)), "mandatory": False},
    ]
    # how close the run came to breaking the ξ estimate: (rhs − lhs)/|rhs|
    budget = dg.check_xi_energy_budget(traj) if len(traj.states) >= 3 else None
    rel_margin = (budget.margin / abs(budget.rhs)
                  if budget is not None and budget.rhs != 0.0 else None)
    summary = {"max_picard_iters": traj.max_picard_iters,
               "mixed_solves": traj.mixed_solves, "xi_budget_rel_margin": rel_margin}
    code = _write_verdict(out / "verdict.json", checks, summary)
    print(f"wrote {out}/series.csv ({len(records)} records); "
          f"verdict: {'PASS' if code == 0 else 'FAIL'}")
    return code


# ---------------------------------------------------------------------------
# linear-validate

def cmd_linear_validate(args) -> int:
    ks = tuple(int(k) for k in args.modes.split(","))
    errs = hz.linear_fidelity(args.alpha, ks, args.dt, args.t_final)
    out = _outdir(args.output_dir)
    rows = [(k, args.alpha, args.dt, args.t_final, errs[k],
             errs[k] <= args.tolerance) for k in ks]
    write_csv(out / "linear_validate.csv", LINEAR_SCHEMA,
              ("mode", "alpha", "dt", "t_final", "max_rel_error", "passed"), rows)
    worst = max(errs.values())
    checks = [{"name": f"mode_{k}", "passed": errs[k] <= args.tolerance,
               "value": errs[k], "mandatory": True} for k in ks]
    code = _write_verdict(out / "verdict.json", checks)
    print(f"linear-validate: worst relative error {worst:.3e} "
          f"(tolerance {args.tolerance:g}) -> {'PASS' if code == 0 else 'FAIL'}")
    return code


# ---------------------------------------------------------------------------
# elliptic-validate

def cmd_elliptic_validate(args) -> int:
    out = _outdir(args.output_dir)
    rows = []
    man = hz.manufactured_solution_errors((128, 256, 512))
    for nz, err in man:
        rows.append(("manufactured", 0, 0.0, 0.0, 0.0, nz, err, 1e-4, 1.0,
                     1e-4 - err, err <= 1e-4))
    orders = hz.manufactured_solution_errors((256, 512, 1024), depth=20.0)
    order = float(np.log2(orders[0][1] / orders[1][1]))
    rows.append(("manufactured_order", 0, 0.0, 0.0, 0.0, orders[1][0], order,
                 2.0, 1.0, order - 2.0, abs(order - 2.0) <= 0.3))
    bound_rows = hz.elliptic_bound_trials(args.seed, args.trials)
    rows.extend(r.row() for r in bound_rows)
    write_csv(out / "elliptic_validate.csv", ELLIPTIC_SCHEMA,
              hz.TrialRow.HEADER, rows)
    n_viol = sum(1 for r in bound_rows if not r.holds)
    checks = [
        {"name": "manufactured_error", "passed": man[-1][1] <= 1e-4,
         "value": man[-1][1], "mandatory": True},
        {"name": "manufactured_order", "passed": abs(order - 2.0) <= 0.3,
         "value": order, "mandatory": True},
        {"name": "solver_bounds", "passed": n_viol == 0, "value": n_viol,
         "mandatory": True},
    ]
    code = _write_verdict(out / "verdict.json", checks)
    print(f"elliptic-validate: manufactured err {man[-1][1]:.3e}, order {order:.2f}, "
          f"{n_viol} bound violations -> {'PASS' if code == 0 else 'FAIL'}")
    return code


# ---------------------------------------------------------------------------
# lint-inequalities

def cmd_lint_inequalities(args) -> int:
    out = _outdir(args.output_dir)
    rows = hz.lemma_suite(args.seed, args.trials)
    write_csv(out / "inequalities.csv", TRIALS_SCHEMA, hz.TrialRow.HEADER,
              (r.row() for r in rows))
    by_family: dict[str, int] = {}
    for r in rows:
        if not r.holds:
            by_family[r.lemma] = by_family.get(r.lemma, 0) + 1
    checks = []
    families = sorted({r.lemma for r in rows})
    for fam in families:
        n_viol = by_family.get(fam, 0)
        mandatory = args.strict or fam not in KNOWN_DEFECT_FAMILIES
        checks.append({"name": fam, "passed": n_viol == 0, "value": n_viol,
                       "mandatory": mandatory})
        if n_viol and not mandatory:
            print(f"note: {n_viol} violation(s) in known-defect family "
                  f"{fam!r} (stated composition constant; see docs)")
    code = _write_verdict(out / "verdict.json", checks)
    total = sum(by_family.values())
    print(f"lint-inequalities: {len(rows)} trials, {total} violations "
          f"-> {'PASS' if code == 0 else 'FAIL'}")
    return code


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="dampedwaves",
                                 description="viscous gravity-wave simulator and test bench")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="advance a configured simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--output-dir", default=None)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("linear-validate",
                       help="compare against the closed-form linear propagator")
    p.add_argument("--alpha", type=float, default=3.0)
    p.add_argument("--modes", default="1,2,3")
    p.add_argument("--t-final", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_linear_validate)

    p = sub.add_parser("elliptic-validate",
                       help="manufactured solution and solver-bound ensembles")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_elliptic_validate)

    p = sub.add_parser("lint-inequalities",
                       help="randomized trials of the norm-calculus lemmas")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--strict", action="store_true",
                   help="fail on known-defect families too")
    p.add_argument("--output-dir", default="out")
    p.set_defaults(func=cmd_lint_inequalities)
    return ap


# glibc mallopt parameters and the values main sets.  At 64 × 192 a strip's
# samples on the degree-2 grid (96 × 192 reals) take 147 KB and the sample
# stacks several times that, above glibc's default 128 KiB mmap threshold
# (which glibc raises only once it sees such blocks freed).  So without these
# settings whether a step's temporaries are mmapped and faulted in afresh, and
# whether freed heap tops go back to the kernel, depends on incidental
# allocation order: up to about 3,500 minor page faults per step.  Both
# settings are needed to keep the temporaries on a heap reused from step to
# step.
_M_TRIM_THRESHOLD, _TRIM_BYTES = -1, 1 << 30
_M_MMAP_THRESHOLD, _MMAP_BYTES = -3, 32 << 20     # glibc's maximum on 64-bit


def _keep_temporaries_on_heap() -> None:
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:                  # not glibc: leave the allocator alone
        return
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    libc.mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)
    libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)


def main(argv=None) -> int:
    _keep_temporaries_on_heap()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
