"""The dampedwaves benchmark: one workload, timed end to end or layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from `src/`, not
installed.  The seed makes the workload's `run` config (bench/workloads.py).
Set-up runs that config once with t_final = 0, timed from this process's
start.  Then whole rounds of one `dampedwaves run` command each are run one
after another until S seconds have passed (at least two, so that every run
checks that outputs repeat byte for byte).  With --trace 1 the rounds
alternate between the plain CLI and bench/trace_cli.py.  A fixed reference
computation timed before every round and at the end gives the machine's
current speed, and all reported times are scaled to a nominal speed (see
reference_s).  Every command's outputs are checked afterwards
(bench/checks.py).  The last line of standard output is a JSON object with
`correct`, `attempted`, `failed` and `metrics`; a command that exits nonzero
or fails a check counts as failed.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse                                  # noqa: E402
import json                                      # noqa: E402
import os                                        # noqa: E402
import shutil                                    # noqa: E402
import statistics                                # noqa: E402
import subprocess                                # noqa: E402
import sys                                       # noqa: E402
import threading                                 # noqa: E402
from dataclasses import dataclass                # noqa: E402
from pathlib import Path                         # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]   # the checks use the package's oracles

from workloads import WORKLOADS, Workload, config_text  # noqa: E402

MIN_ROUNDS = 2
DEADLINE_S = 170.0        # the whole run, set-up and checks included
# Times are reported at the machine speed at which reference_s() takes this
# long; see reference_s.
REFERENCE_NOMINAL_S = 0.5

ONE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "DAMPEDWAVES_OUTDIR"}
CHILD_ENV.update(ONE_THREAD, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


@dataclass(frozen=True)
class Command:
    outdir: Path
    wall_s: float
    exit_code: int
    max_rss_kb: int
    spans: Path | None = None


def run_command(config: Path, outdir: Path, spans: Path | None = None) -> Command:
    """One `dampedwaves run`, plain or under the tracer, with its wall time
    and the peak resident set of that child alone."""
    cli = ["-m", "dampedwaves.cli"] if spans is None else \
        [str(BENCH / "trace_cli.py"), "--spans", str(spans), "--"]
    argv = [sys.executable, *cli, "run", "--config", str(config),
            "--output-dir", str(outdir)]
    budget = DEADLINE_S - (time.perf_counter() - T0)
    with open(outdir.with_suffix(".log"), "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV,
                                stdin=subprocess.DEVNULL, stdout=log,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(budget, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(outdir, wall, proc.returncode, usage.ru_maxrss, spans)


def reference_s() -> float:
    """Wall time of a fixed computation of the program's three kinds of work:
    small-array FFTs and arithmetic, the interpreter alone, and a depth-prefix
    recursion over strip-sized arrays, about 0.15 s each.

    On a shared virtual machine the speed drifts as a whole (by up to 1.75x
    between periods of minutes on the 2-core KVM guest the benchmark was
    tuned on).  This computation, timed between the rounds, follows that
    drift; every reported time is scaled by
    REFERENCE_NOMINAL_S / (the median of the run's samples), so that two
    runs made apart in time compare the program and not the machine's load.
    The speed also flickers by about 5 % within a second, so each sample is
    long enough (about 0.45 s) to average over that.
    """
    import numpy as np
    small = np.full((64, 192), 1.0 + 0.5j)
    big = np.full((2, 128, 384), 0.5 + 0.25j)
    damp = np.full(128, 0.99)
    t0 = time.perf_counter()
    for _ in range(1200):
        b = np.fft.ifft(small, axis=0)
        small = np.fft.fft(b.real * 0.5 + small.imag * 0.5j, axis=0) * (1.0 / 64)
    s = 0.0
    for k in range(3_600_000):
        s += k * 0.5
    for _ in range(90):
        inc = 0.3 * big[:, :, :-1] + 0.2 * big[:, :, 1:]
        acc = np.zeros((2, 128), dtype=complex)
        for m in range(383):
            acc = damp * acc + inc[:, :, m]
    return time.perf_counter() - t0


def median(xs) -> float:
    return float(statistics.median(xs))


def end_to_end(wl: Workload, setup_s: float, plain: list[Command], scale: float) -> dict:
    wall = median(c.wall_s for c in plain) * scale
    setup_s *= scale
    return {
        "wall_s": (wall, "s"),
        "steps_per_s": (wl.steps / (wall - setup_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (median(c.max_rss_kb for c in plain) / 1024.0, "MB"),
    }


def per_layer(plain: list[Command], traced: list[Command], scale: float,
              reference: float) -> dict:
    """Per-layer figures of the traced commands (medians of times; counts
    are exact and repeat) and the tracing overhead."""
    reports = [json.loads(c.spans.read_text()) for c in traced]

    def med(f) -> float:
        return median(f(r, c) for r, c in zip(reports, traced))

    def self_s(layer):
        return med(lambda r, c: r["self_s"].get(layer, 0.0)) * scale

    def calls(layer):
        return med(lambda r, c: r["calls"].get(layer, 0))

    def count(name):
        return med(lambda r, c: r["counts"].get(name, 0))

    steps = calls("evolution.step")
    sweeps = calls("elliptic.poisson_divform")
    solves = calls("elliptic.solve_phi2")
    plain_wall = median(c.wall_s for c in plain) * scale
    traced_wall = median(c.wall_s for c in traced) * scale
    return {
        "machine.reference_s": (reference, "s"),
        "evolution.steps": (steps, "count"),
        "spectral.fft_calls_per_step": (count("spectral.fft_calls_in_step") / steps, "count"),
        "spectral.fftfreq_calls_per_step":
            (count("spectral.fftfreq_calls_in_step") / steps, "count"),
        "spectral.fft_self_s": (self_s("spectral.fft"), "s"),
        "evolution.step_self_s": (self_s("evolution.step"), "s"),
        "evolution.evaluate_rhs_self_s": (self_s("evolution.evaluate_rhs"), "s"),
        "evolution.rhs_evals_per_step": (calls("evolution.evaluate_rhs") / steps, "count"),
        "geometry.build_geometry_self_s": (self_s("geometry.build_geometry"), "s"),
        "geometry.build_geometry_calls": (calls("geometry.build_geometry"), "count"),
        "elliptic.poisson_divform_self_s": (self_s("elliptic.poisson_divform"), "s"),
        "elliptic.picard_sweeps": (sweeps, "count"),
        "elliptic.sweeps_per_solve": (sweeps / solves, "ratio"),
        "elliptic.solve_phi2_self_s": (self_s("elliptic.solve_phi2"), "s"),
        "elliptic.solve_phi2_calls": (solves, "count"),
        "elliptic.second_trace_primary_self_s": (self_s("elliptic.second_trace_primary"), "s"),
        "elliptic.duplicate_solves": (count("elliptic.duplicate_solves"), "count"),
        "elliptic.poisson_io_bytes_per_sweep":
            (count("elliptic.poisson_io_bytes") / sweeps, "bytes"),
        "diagnostics.compute_records_self_s": (self_s("diagnostics.compute_records"), "s"),
        "diagnostics.solves_per_record":
            (count("diagnostics.solve_phi2_calls") / count("diagnostics.records"), "ratio"),
        "cli.write_self_s": (self_s("cli.cmd_run"), "s"),
        "cli.bytes_written":
            (med(lambda r, c: sum(f.stat().st_size for f in c.outdir.iterdir())), "bytes"),
        "config.parse_config_self_s": (self_s("config.parse_config"), "s"),
        "setup.import_s": (med(lambda r, c: r["import_s"]) * scale, "s"),
        "trace.overhead_s": (traced_wall - plain_wall, "s"),
        "trace.overhead_pct": (100.0 * (traced_wall - plain_wall) / plain_wall, "%"),
    }


def check_all(wl: Workload, seed: int, commands: list[Command]) -> list[list[str]]:
    """Failure messages of each command; the first one is the byte-for-byte
    reference for the rest."""
    from checks import check_command, load

    results, first = [], None
    for c in commands:
        try:
            out = load(c.outdir, c.exit_code)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            results.append([f"outputs unreadable (exit code {c.exit_code}): {exc}"])
            continue
        results.append(check_command(out, wl, seed, first))
        if first is None:
            first = out
    return results


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    os.environ.update(ONE_THREAD)                 # before this process loads numpy
    if not (ROOT / "src" / "dampedwaves" / "cli.py").is_file():
        print(f"no dampedwaves sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = RUNS / wl.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "run.ini"
    config.write_text(config_text(wl, args.seed))
    zero = work / "zero.ini"
    zero.write_text(config_text(wl, args.seed, t_final=0.0))

    first = run_command(zero, work / "setup")
    setup_s = time.perf_counter() - T0
    if first.exit_code != 0:
        print(f"set-up command failed with exit code {first.exit_code}; "
              f"see {first.outdir.with_suffix('.log')}", file=sys.stderr)
        return 1

    reference_s()                                 # warm-up, not counted
    refs: list[float] = []
    commands: list[Command] = []
    start = time.perf_counter()
    while len(commands) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        if commands and time.perf_counter() - T0 + 2 * commands[-1].wall_s > DEADLINE_S:
            break
        i = len(commands)
        refs.append(reference_s())
        traced = args.trace == 1 and i % 2 == 1
        c = run_command(config, work / f"round{i}",
                        spans=work / f"round{i}.spans.json" if traced else None)
        commands.append(c)
        print(f"round {i}: {'traced' if traced else 'plain'} {c.wall_s:.3f} s, "
              f"exit code {c.exit_code}, peak RSS {c.max_rss_kb / 1024:.1f} MB, "
              f"reference {refs[-1]:.4f} s", flush=True)

    refs.append(reference_s())
    reference = median(refs)
    scale = REFERENCE_NOMINAL_S / reference
    print(f"reference computation: median {reference:.4f} s over {len(refs)} samples, "
          f"times scaled by {scale:.4f}")
    failures = check_all(wl, args.seed, commands)
    for i, errs in enumerate(failures):
        for e in errs:
            print(f"round {i}: FAILED {e}")
    failed = sum(1 for errs in failures if errs)
    ok = [c for c, errs in zip(commands, failures) if not errs]
    plain = [c for c in ok if c.spans is None]
    traced = [c for c in ok if c.spans is not None]
    if not plain or (args.trace == 1 and not traced):
        metrics = {}
    elif args.trace == 1:
        metrics = per_layer(plain, traced, scale, reference)
    else:
        metrics = end_to_end(wl, setup_s, plain, scale)
    result = {"correct": failed == 0, "attempted": len(commands), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
