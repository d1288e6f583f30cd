"""Shows that every check in bench/checks.py passes right outputs and
rejects wrong ones.

    python3 bench/selftest.py

For each workload it runs one short command through the CLI (the workload's
grid, model and data, fewer steps), requires every check to pass on those
outputs, then hands each check deliberately wrong copies and requires it to
reject every one.  Prints one line per case; exits 1 if any case goes the
wrong way.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys

import numpy as np

import run                                       # sets up paths and the child env
from checks import (check_command, check_decay_rate, check_elliptic,
                    check_initial, check_linear_propagator, check_lyapunov_monotone,
                    check_run_length, check_same_bytes, check_structure,
                    check_verdict, check_wiener, load, solve_final_state)
from workloads import WORKLOADS, config_text

SEED = 7
SHORT = {"coarse_linear_8x48": dict(steps=100, record_every=25),
         "decay_64x192": dict(steps=30),
         "steep_128x384": dict(steps=1)}


def short_run(name: str):
    wl = dataclasses.replace(WORKLOADS[name], **SHORT[name])
    work = run.RUNS / "selftest" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.ini"
    config.write_text(config_text(wl, SEED))
    c = run.run_command(config, work / "out")
    return wl, load(c.outdir, c.exit_code)


def with_coeff(out, snap: int, field: str, j: int, delta: complex, hermitian=True):
    """One snapshot coefficient moved by delta (and its mirror, by default)."""
    snaps = list(out.snapshots)
    c = getattr(snaps[snap], field).copy()
    c[j] += delta
    if hermitian and j != 0:
        c[-j] += np.conj(delta)
    snaps[snap] = dataclasses.replace(snaps[snap], **{field: c})
    return dataclasses.replace(out, snapshots=tuple(snaps))


def with_value(out, column: str, row: int, value: float):
    series = out.series.copy()
    series[row, out.columns.index(column)] = value
    return dataclasses.replace(out, series=series)


def scale(out) -> float:
    return float(np.max(np.abs(out.snapshots[-1].h)))


# Each case generator yields (check name, check, a right input, [(what is
# wrong, a wrong input), ...]).

def cases_common(wl, out):
    drift = {**out.verdict, "checks": [dict(c, value=2e-12) if c["name"] == "mean_drift_per_step"
                                       else c for c in out.verdict["checks"]]}
    flipped = bytearray(out.raw["series.csv"])
    flipped[-3] = ord("1") if flipped[-3] != ord("1") else ord("2")
    yield "verdict", check_verdict, out, [
        ("exit code 3", dataclasses.replace(out, exit_code=3)),
        ("a failed verdict check", dataclasses.replace(out, verdict={**out.verdict, "failed": 1})),
        ("mean drift 2e-12", dataclasses.replace(out, verdict=drift)),
    ]
    yield "run_length", lambda o: check_run_length(o, wl), out, [
        ("last record missing", dataclasses.replace(out, series=out.series[:-1])),
        ("last snapshot missing", dataclasses.replace(out, snapshots=out.snapshots[:-1])),
    ]
    yield "structure", check_structure, out, [
        ("h(1) moved by 1e-6 without its mirror",
         with_coeff(out, -1, "h", 1, 1e-6 * scale(out), hermitian=False)),
        ("mean of h 1e-20", with_coeff(out, -1, "h", 0, 1e-20)),
        ("Nyquist entry of xi 1e-20",
         with_coeff(out, -1, "xi", wl.n_modes // 2, 1e-20, hermitian=False)),
    ]
    yield "initial", lambda o: check_initial(o, wl, SEED), out, [
        ("first snapshot h(2) moved by 1e-6",
         with_coeff(out, 0, "h", 2, 1e-6 * scale(out))),
        ("first Lyapunov value raised by 1e-9",
         with_value(out, "lyapunov", 0, out.column("lyapunov")[0] * (1 + 1e-9))),
    ]
    yield "deterministic", lambda o: check_same_bytes(o, out), out, [
        ("one digit of series.csv changed",
         dataclasses.replace(out, raw={**out.raw, "series.csv": bytes(flipped)})),
    ]


def cases_coarse(wl, out):
    # the bound is 1e-6 of the whole state; the perturbation is ten times that
    yield "linear_propagator", lambda o: check_linear_propagator(o, wl, SEED), out, [
        ("last snapshot xi(1) moved by 1e-5", with_coeff(out, -1, "xi", 1, 1e-5 * scale(out))),
        ("last snapshot h(3) moved by 1e-5 i",
         with_coeff(out, -1, "h", 3, 1e-5j * scale(out))),
    ]


def cases_decay(wl, out):
    lyap = out.column("lyapunov")
    yield "lyapunov_monotone", check_lyapunov_monotone, out, [
        ("Lyapunov value 2 raised above value 1",
         with_value(out, "lyapunov", 2, lyap[1] * (1 + 1e-5))),
    ]
    rising = dataclasses.replace(out, series=out.series.copy())
    rising.series[:, out.columns.index("lyapunov")] = lyap[::-1]
    yield "decay_rate", check_decay_rate, out, [("Lyapunov series reversed", rising)]
    yield "wiener", lambda o: check_wiener(o, wl), out, [
        ("snapshot h(1) moved by 1e-6", with_coeff(out, 1, "h", 1, 1e-6 * scale(out))),
        ("wiener_xi raised by 1e-9",
         with_value(out, "wiener_xi", 1, out.column("wiener_xi")[1] * (1 + 1e-9))),
        ("lyapunov one ulp above wiener_h + wiener_xi",
         with_value(out, "lyapunov", 1, np.nextafter(lyap[1], np.inf))),
    ]


def cases_steep(wl, out):
    bundle, phi1, sol = solve_final_state(out, wl)
    traces = sol.traces
    yield "elliptic", lambda s: check_elliptic(bundle, phi1, s), sol, [
        ("Picard correction halved",
         dataclasses.replace(sol, phi2=sol.phi2 * 0.5, dzphi2=sol.dzphi2 * 0.5)),
        ("second trace off by 1e-3", dataclasses.replace(
            sol, traces=dataclasses.replace(
                traces, d2phi2_dz0=traces.d2phi2_dz0 * (1 + 1e-3)))),
    ]


SPECIFIC = {"coarse_linear_8x48": cases_coarse, "decay_64x192": cases_decay,
            "steep_128x384": cases_steep}


def main() -> int:
    bad = 0
    for name in WORKLOADS:
        wl, out = short_run(name)
        errs = check_command(out, wl, SEED, ref=out)
        print(f"{name}: all checks on the program's outputs: "
              f"{'pass' if not errs else 'FAIL ' + '; '.join(errs)}")
        bad += bool(errs)
        for check_name, check, right, wrongs in [*cases_common(wl, out),
                                                 *SPECIFIC[name](wl, out)]:
            if check(right):
                print(f"  {check_name}: FAILS on the right output: {check(right)}")
                bad += 1
            for label, wrong in wrongs:
                errs = check(wrong)
                print(f"  {check_name} / {label}: "
                      f"{'rejected: ' + errs[0] if errs else 'NOT REJECTED'}")
                bad += not errs
    print("selftest:", "PASS" if not bad else f"FAIL ({bad} cases)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
