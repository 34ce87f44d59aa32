"""The four benchmark workloads: inputs from a seed, operations, checks.

A workload is a list of operations that make up one round, and a check
that compares a round's outputs with ``reference``.  Every round runs the
same operations on the same inputs, so a run's share of failed operations
does not depend on how many rounds fit in it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import reference as ref
import sqitest.cli as cli
import sqitest.fock as fock
import sqitest.hypotests as ht

ALPHA = 0.05
PRESETS = ("zero", "L-real-theta", "L-imag-theta")
ORACLE_REFERENCE = Path(__file__).with_name("oracle_reference.json")


class OperationFailed(Exception):
    """An operation that returned an error instead of a result."""


@dataclass
class Operation:
    label: str
    run: Callable[[], object]


@dataclass
class Workload:
    operations: list
    check: Callable[[dict], list]  # outputs by label (failures absent) -> problems
    files: list = field(default_factory=list)


def curve(argv: list, out: Path) -> Callable[[], Path]:
    """A ``sqitest curve`` call made in-process, as the console script makes it."""
    def run():
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["curve", *argv, "--out", str(out)])
        if code != 0:
            raise OperationFailed(f"sqitest curve exited {code}: {err.getvalue().strip()}")
        return out
    return run


def read_csv(path: Path) -> dict:
    """Columns of a curve CSV by name ('#' header lines skipped)."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]], ndmin=2)
    return {n: table[:, i] for i, n in enumerate(names)}


def close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want) + atol))


def curve_problems(cols: dict, grid: np.ndarray, copies: int) -> list:
    """Checks shared by both curve workloads: grid, HH columns, level, monotonicity."""
    problems = []
    if not close(cols["theta"], grid, 1e-15, 1e-15):
        problems.append("theta column differs from the requested grid")
    for label, r in ref.PRESET_SQUEEZE.items():
        beta = cols[f"beta_hh_{label}"]
        if not close(beta, ref.hh_beta(grid, r, 0.0, copies, ALPHA), 1e-7, 1e-300):
            problems.append(f"beta_hh_{label} differs from scipy's noncentral F")
        if np.any(np.diff(beta) > 0):
            problems.append(f"beta_hh_{label} increases with theta")
        if grid[0] == 0.0 and not close(beta[0], 1.0 - ALPHA, 0.0, 1e-9):
            problems.append(f"beta_hh_{label} at theta = 0 is not 1 - alpha")
    return problems


class SameBytes:
    """Remembers the first round's file bytes and flags any later difference."""

    def __init__(self):
        self.first = {}

    def __call__(self, path: Path) -> list:
        data = path.read_bytes()
        if self.first.setdefault(path.name, data) != data:
            return [f"{path.name}: rerun with the same seed is not byte-identical"]
        return []


def curve_tail(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """The headline comparison, m=1, n=3, N=0, theta from 0 past the crossing near 31."""
    rng = np.random.default_rng(seed)
    theta_max = 40.0 + 0.5 * rng.random()
    steps = 9 if tiny else 241
    grid = np.linspace(0.0, theta_max, steps)
    out = out_dir / f"curve-tail-{seed}.csv"
    argv = ["--m", "1", "--n", "3", "--N", "0", "--alpha", str(ALPHA),
            "--theta-min", "0", "--theta-max", repr(theta_max),
            "--theta-steps", str(steps), *[a for p in PRESETS for a in ("--eta", p)],
            "--reps", "0", "--seed", str(seed)]
    same = SameBytes()

    def check(outputs):
        if "curve" not in outputs:
            return []
        cols = read_csv(outputs["curve"])
        problems = curve_problems(cols, grid, 3)
        if not close(cols["beta_si"], ref.si_beta_pure_n3(grid, ALPHA), 1e-9):
            problems.append("beta_si differs from the n = 3 closed form")
        if np.any(np.diff(cols["beta_si"]) > 0):
            problems.append("beta_si increases with theta")
        return problems + same(outputs["curve"])

    return Workload([Operation("curve", curve(argv, out))], check, [out])


def curve_mc(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Seeded heterodyne Monte Carlo next to the analytic HH columns.

    Four copies, not three: at n = 3 one replicate in a few million has an
    exactly singular 2x2 sample covariance, which makes the whole estimate
    (and the CLI call) fail on some seeds only.
    """
    reps = 2000 if tiny else 300_000
    grid = np.linspace(0.0, 3.0, 3)
    out = out_dir / f"curve-mc-{seed}.csv"
    argv = ["--m", "1", "--n", "4", "--N", "0", "--alpha", str(ALPHA),
            "--theta-min", "0", "--theta-max", "3", "--theta-steps", str(len(grid)),
            *[a for p in PRESETS for a in ("--eta", p)],
            "--reps", str(reps), "--seed", str(seed)]
    same = SameBytes()
    points = len(grid) * len(ref.PRESET_SQUEEZE)

    def check(outputs):
        if "curve" not in outputs:
            return []
        cols = read_csv(outputs["curve"])
        problems = curve_problems(cols, grid, 4)
        for label, r in ref.PRESET_SQUEEZE.items():
            want = ref.hh_beta(grid, r, 0.0, 4, ALPHA)
            got = cols[f"beta_hh_{label}_mc"]
            for t, p, q in zip(grid, want, got):
                lo, hi = ref.binomial_band(p, reps, points)
                if not lo <= q <= hi:
                    problems.append(f"{label}_mc at theta {t:g} = {q:.6f} outside "
                                    f"[{lo:.6f}, {hi:.6f}] around {p:.6f}")
            sd = np.sqrt(np.maximum(got * (1.0 - got), 1e-12) / reps)
            if not close(cols[f"beta_hh_{label}_stderr"], sd, 1e-12):
                problems.append(f"{label}_stderr is not the binomial standard error")
        return problems + same(outputs["curve"])

    return Workload([Operation("curve", curve(argv, out))], check, [out])


def lattice_n2(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """Two-copy SI error through the count-difference lattice law, plus one CLI call.

    The CLI call (n = 2, N = 0.5) exits 2 at present: ``run_curve`` always
    builds the Hotelling spec, which rejects n <= 2m.  It is counted as a
    failed operation; if it succeeds its beta_si column is checked.
    """
    rng = np.random.default_rng(seed)
    mixtures = (0.0, 0.3) if tiny else (0.0, 0.3, 1.0, 2.0)
    grid = np.linspace(0.0, 3.0 * (1.0 + 0.02 * rng.random()), 3 if tiny else 9)
    cases = [(m, N, t) for m in (1, 2) for N in mixtures for t in grid]
    ops = [Operation(f"n2:{m}:{N}:{t!r}", lambda m=m, N=N, t=t: ht.si_type2_n2(t, m, N, ALPHA))
           for m, N, t in cases]
    out = out_dir / f"lattice-n2-{seed}.csv"
    cli_grid = np.linspace(0.0, 3.0, 7)
    argv = ["--m", "1", "--n", "2", "--N", "0.5", "--alpha", str(ALPHA),
            "--theta-min", "0", "--theta-max", "3", "--theta-steps", str(len(cli_grid)),
            "--reps", "0", "--seed", str(seed)]
    ops.append(Operation("curve", curve(argv, out)))
    want = {}

    def expected(m, N, t):
        if (m, N, t) not in want:
            want[m, N, t] = (ref.si_beta_pure_n2(t, ALPHA) if N == 0.0
                             else ref.si_beta_n2(t, m, N, ALPHA))
        return want[m, N, t]

    def check(outputs):
        problems = []
        for m, N, t in cases:
            got = outputs.get(f"n2:{m}:{N}:{t!r}")
            if got is not None and not close(got, expected(m, N, t), 0.0, 1e-9):
                problems.append(f"si_type2_n2(m={m}, N={N}, theta={t:g}) = {got!r}, "
                                f"reference {expected(m, N, t)!r}")
        for m in (1, 2):
            for N in mixtures:
                betas = [outputs.get(f"n2:{m}:{N}:{t!r}", np.nan) for t in grid]
                if np.any(np.diff(betas) > 1e-15):
                    problems.append(f"si_type2_n2(m={m}, N={N}) increases with theta")
        if "curve" in outputs:
            got = read_csv(outputs["curve"])["beta_si"]
            if not close(got, [expected(1, 0.5, t) for t in cli_grid], 0.0, 1e-9):
                problems.append("curve --n 2 beta_si differs from the lattice reference")
        return problems

    return Workload(ops, check, [out])


def oracle(seed: int, out_dir: Path, tiny: bool = False) -> Workload:
    """si_type2_fock on the pure vector route and the three dense mixed routes."""
    rng = np.random.default_rng(seed)
    stored = json.loads(ORACLE_REFERENCE.read_text())
    u = rng.random(3)
    # (label, theta, mixture, config, reference, tolerance); the tolerance
    # covers the truncation at the chosen cutoff.
    routes = []
    t = 0.4 + 0.1 * u[0]
    routes.append(("pure-n3", t, 0.0, fock.FockConfig(1, 3, 8 if tiny else 12),
                   float(ref.si_beta_pure_n3(t, ALPHA)), 1e-8))
    t = 0.4 + 0.1 * u[1]
    routes.append(("dense-n2-m1", t, 0.5, fock.FockConfig(1, 2, 14 if tiny else 24),
                   ref.si_beta_n2(t, 1, 0.5, ALPHA), 1e-5 if tiny else 1e-7))
    t = 0.2 + 0.05 * u[2]
    routes.append(("dense-n2-m2", [t, 0.0], 0.05, fock.FockConfig(2, 2, 4 if tiny else 5),
                   ref.si_beta_n2(t, 2, 0.05, ALPHA), 1e-4 if tiny else 1e-5))
    mixed = stored["mixed-n3"]
    routes.append(("mixed-n3", mixed["theta"], mixed["mixture"],
                   fock.FockConfig(1, 3, 7 if tiny else mixed["bench_cutoff"]),
                   mixed["beta"], 1e-5 if tiny else 1e-6))
    ops = [Operation(label, lambda t=t, N=N, c=c: fock.si_type2_fock(t, N, ALPHA, c))
           for label, t, N, c, _, _ in routes]

    def check(outputs):
        return [f"{label}: si_type2_fock = {outputs[label]!r}, reference {want!r}"
                for label, _, _, _, want, tol in routes
                if label in outputs and not close(outputs[label], want, 0.0, tol)]

    return Workload(ops, check)


WORKLOADS = {"curve-tail": curve_tail, "curve-mc": curve_mc,
             "lattice-n2": lattice_n2, "oracle": oracle}
