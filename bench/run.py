"""Benchmark of sqitest: end-to-end metrics per workload, or per-layer metrics.

    python3 bench/run.py --workload curve-tail --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout; sqitest is imported from ./src.
With ``--trace 0`` it reports setup_s, wall_s and peak_rss_mb; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics of ``tracing.PER_LAYER`` (medians over traced rounds)
and the tracing overhead.  The last line of standard output is one JSON
object; progress, raw timings and check failures go to standard error.

Times are rescaled to the speed of the reference machine: a fixed
calibration kernel is timed before and after every timed span, and the
span is multiplied by CALIBRATION_REFERENCE_S over the mean of those two
calibration times.  On a shared two-CPU virtual machine the speed of all
code drifts by up to 25 % over stretches of ten seconds or more, which a
20-second run cannot average out; the rescaled times cancel that drift.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the dense kernels here are small, and on a shared
# two-CPU machine a second thread made round times slower and less steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
MIN_ROUNDS = 3
WORKLOAD_NAMES = ("curve-tail", "curve-mc", "lattice-n2", "oracle")
# Median time of calibrate() on the reference machine (see README.md).
CALIBRATION_REFERENCE_S = 0.035


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, BLAS and special-function work."""
    import numpy as np
    from scipy.special import betainc

    a = np.linspace(-1.0, 1.0, 120 * 120).reshape(120, 120)
    x = np.linspace(0.01, 0.99, 25000)
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(40):
        a @ a
    betainc(3.5, 0.5, x)
    betainc(10.5, 0.5, x)
    return time.perf_counter() - start


class Gauge:
    """Rescales timed spans to the reference machine's speed."""

    def __init__(self):
        self.last = calibrate()

    def rescale(self, seconds: float) -> float:
        """Call right after the span: calibrates again and rescales by the mean."""
        before, self.last = self.last, calibrate()
        return seconds * CALIBRATION_REFERENCE_S / (0.5 * (before + self.last))


def setup_code() -> str:
    """Imports a CLI user pays for: sqitest and every scipy module it imports.

    The scipy modules are read from the package source, so a submodule that
    a function imports lazily is counted as soon as any code path needs it.
    """
    pattern = re.compile(r"^\s*(?:from|import)\s+(scipy(?:\.\w+)*)", re.M)
    mods = sorted({m for path in (SRC / "sqitest").glob("*.py")
                   for m in pattern.findall(path.read_text())})
    return "\n".join(["import sqitest"] + [f"import {m}" for m in mods])


class SetupTimer:
    """Wall time of fresh interpreters that load sqitest and its scipy modules.

    Samples are taken between workload rounds rather than back to back, so
    that their median is not set by one slow stretch of a shared machine.
    """

    def __init__(self, gauge: Gauge):
        self.gauge = gauge
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", setup_code()]
        self.raw, self.times = [], []
        self._spawn()  # warm-up: compiles bytecode, fills the file cache

    def _spawn(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        return time.perf_counter() - start

    def sample(self):
        if len(self.times) < SETUP_RUNS:
            self.raw.append(self._spawn())
            self.times.append(self.gauge.rescale(self.raw[-1]))

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.sample()
        return statistics.median(self.times)


def run_round(workload):
    """Run every operation once; returns (wall seconds, outputs, failures)."""
    outputs, failures = {}, []
    start = time.perf_counter()
    for op in workload.operations:
        try:
            outputs[op.label] = op.run()
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
    return time.perf_counter() - start, outputs, failures


def write_trace(name: str, seed: int, spans: list, layers: dict):
    """Spans of the first traced round (JSON lines) and the per-layer table."""
    with open(OUT / f"spans-{name}-{seed}.jsonl", "w") as fh:
        for i, (label, start, end, parent, rnd) in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": label, "start": start, "end": end,
                                 "parent": parent, "round": rnd}) + "\n")
    with open(OUT / f"layers-{name}-{seed}.json", "w") as fh:
        json.dump(layers, fh, indent=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sqitest" / "__init__.py").is_file():
        print(f"error: no sqitest sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    OUT.mkdir(exist_ok=True)
    gauge = Gauge()
    setup = None if args.trace else SetupTimer(gauge)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    tracer = tracing.Tracer() if args.trace else None

    raw = {False: [], True: []}  # round wall times, untraced / traced
    scaled = {False: [], True: []}
    layer_rounds, problems, first_spans = [], [], None
    attempted = failed = rounds = 0
    busy = 0.0  # seconds in rounds, checks and calibration; setup samples excluded
    while True:
        start = time.perf_counter()
        traced = tracer is not None and rounds % 2 == 1
        if traced:
            tracer.round = rounds
            with tracer.installed():
                wall, outputs, failures = run_round(workload)
            metrics, spans = tracer.take_round()
            layer_rounds.append(metrics)
            first_spans = spans if first_spans is None else first_spans
        else:
            wall, outputs, failures = run_round(workload)
        raw[traced].append(wall)
        scaled[traced].append(gauge.rescale(wall))
        rounds += 1
        attempted += len(workload.operations)
        failed += len(failures)
        if rounds == 1:
            for f in failures:
                print(f"failed operation: {f}", file=sys.stderr)
        problems += workload.check(outputs)
        busy += time.perf_counter() - start
        if setup is not None:
            setup.sample()
        if rounds >= MIN_ROUNDS and busy + busy / rounds > args.seconds:
            break
    for path in workload.files:
        path.unlink(missing_ok=True)

    for p in dict.fromkeys(problems):
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(raw[False])} untraced and "
          f"{len(raw[True])} traced rounds; untraced round wall times (raw) "
          f"{[round(w, 3) for w in raw[False]]} s", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": setup.median(), "unit": "s"},
            "wall_s": {"value": statistics.median(scaled[False]), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
        print(f"raw medians: setup {statistics.median(setup.raw):.4f} s, "
              f"wall {statistics.median(raw[False]):.4f} s", file=sys.stderr)
    else:
        overhead = statistics.median(scaled[True]) - statistics.median(scaled[False])
        metrics = tracing.per_layer(layer_rounds, overhead)
        write_trace(args.workload, args.seed, first_spans, metrics)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
