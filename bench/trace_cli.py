"""Run one `dampedwaves` CLI command with per-layer spans.

    python bench/trace_cli.py --spans OUT.json -- run --config C.ini --output-dir D

The program is not changed: each layer's public function is wrapped where
the calling module looks it up (names are bound at import, so wrapping the
defining module alone would miss them), and `np.fft` is replaced by a traced
copy only inside `spectral` and `geometry`.  A span's self time is its wall
time minus that of the spans it encloses.  Spans are folded into per-layer
sums in memory and written to OUT.json when the command ends; the exit code
is the command's own.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()
import dampedwaves.cli as cli                    # noqa: E402  (timed import)
_IMPORT_S = time.perf_counter() - _T_IMPORT

import argparse                                  # noqa: E402
import json                                      # noqa: E402
import sys                                       # noqa: E402
import types                                     # noqa: E402
from collections import Counter, defaultdict     # noqa: E402

import numpy as np                               # noqa: E402

from dampedwaves import diagnostics, elliptic, evolution, geometry, spectral  # noqa: E402


class Tracer:
    """Per-layer self and total time and call counts, plus named event counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.open: Counter[str] = Counter()      # spans of each layer now open
        self._stack: list[list[float]] = []      # child time of each open span

    def wrap(self, layer: str, fn, after=None):
        """fn inside a span of `layer`; after(args, kwargs, result) runs once
        the span is closed."""
        stack, self_s, total_s = self._stack, self.self_s, self.total_s
        calls, opened = self.calls, self.open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            opened[layer] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                opened[layer] -= 1
                stack.pop()
                self_s[layer] += dur - frame[0]
                total_s[layer] += dur
                calls[layer] += 1
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def count_in_step(self, name: str, fn):
        """fn unchanged, counting its calls overall and inside `step`."""
        counts, opened = self.counts, self.open

        def counted(*args, **kwargs):
            counts[name] += 1
            if opened["evolution.step"]:
                counts[name + "_in_step"] += 1
            return fn(*args, **kwargs)

        return counted

    def report(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls), "counts": dict(self.counts)}


def _traced_numpy(tr: Tracer) -> types.ModuleType:
    """A copy of the numpy namespace whose fft functions are traced."""
    fft = types.ModuleType("numpy.fft")
    fft.__dict__.update(np.fft.__dict__)
    fft_span = tr.wrap("spectral.fft", tr.count_in_step("spectral.fft_calls", np.fft.fft))
    ifft_span = tr.wrap("spectral.fft", tr.count_in_step("spectral.fft_calls", np.fft.ifft))
    fft.fft, fft.ifft = fft_span, ifft_span
    fft.fftfreq = tr.count_in_step("spectral.fftfreq_calls", np.fft.fftfreq)
    npx = types.ModuleType("numpy")
    npx.__dict__.update(np.__dict__)
    npx.fft = fft
    return npx


def install(tr: Tracer) -> None:
    """Wrap every traced name at the module that looks it up."""
    seen_solves: set[bytes] = set()

    def solve_key(args, kwargs) -> bytes:
        # φ₁ is the harmonic extension of its trace, so (boundary, ξ, options)
        # identifies the elliptic problem
        bundle, phi1 = args[0], args[1]
        return (bundle.boundary.coeffs.tobytes() + phi1.trace().coeffs.tobytes()
                + repr(sorted(kwargs.items())).encode())

    def after_solve(site: str):
        def after(args, kwargs, result):
            key = solve_key(args, kwargs)
            if key in seen_solves:
                tr.counts["elliptic.duplicate_solves"] += 1
            seen_solves.add(key)
            tr.counts[f"{site}.solve_phi2_calls"] += 1
        return after

    def after_poisson(args, kwargs, result):
        g1, g2 = args[0], args[1]
        tr.counts["elliptic.poisson_io_bytes"] += (
            g1.coeffs.nbytes + g2.coeffs.nbytes
            + result.phi.coeffs.nbytes + result.dzphi.coeffs.nbytes)

    def after_records(args, kwargs, result):
        tr.counts["diagnostics.records"] += len(result)

    npx = _traced_numpy(tr)
    spectral.np = npx
    geometry.np = npx

    for site in (evolution, diagnostics):
        name = site.__name__.rsplit(".", 1)[-1]
        site.build_geometry = tr.wrap("geometry.build_geometry", site.build_geometry)
        site.solve_phi2 = tr.wrap("elliptic.solve_phi2", site.solve_phi2,
                                  after=after_solve(name))
    evolution.step = tr.wrap("evolution.step", evolution.step)
    evolution.evaluate_rhs = tr.wrap("evolution.evaluate_rhs", evolution.evaluate_rhs)
    elliptic.poisson_divform = tr.wrap("elliptic.poisson_divform",
                                       elliptic.poisson_divform, after=after_poisson)
    elliptic.second_trace_primary = tr.wrap("elliptic.second_trace_primary",
                                            elliptic.second_trace_primary)
    diagnostics.compute_records = tr.wrap("diagnostics.compute_records",
                                          diagnostics.compute_records, after=after_records)
    cli.parse_config = tr.wrap("config.parse_config", cli.parse_config)
    cli.initial_data = tr.wrap("config.initial_data", cli.initial_data)
    cli.run_evolution = tr.wrap("evolution.run", cli.run_evolution)
    # what cmd_run does itself is reading the config text and formatting and
    # writing the outputs
    cli.cmd_run = tr.wrap("cli.cmd_run", cli.cmd_run)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="where to write the span sums")
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="the dampedwaves arguments, after --")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    tr = Tracer()
    install(tr)
    t0 = time.perf_counter()
    code = cli.main(command)
    total = time.perf_counter() - t0
    out = tr.report()
    out.update(import_s=_IMPORT_S, command_s=total, exit_code=code)
    with open(args.spans, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
