"""Batch experiment driver: error-curve sweeps and verification suites.

Everything printed or written here is produced by library calls that carry
their own tests; this module only arranges grids, random streams and files.
"""

from __future__ import annotations

import os
import shlex
from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from . import fock
from . import hypotests as ht
from .phase_space import SqueezeParam, _parse_kv_text, rng_stream, whitened_signal

# eta preset -> (column label, s of A = 0 and S = s I, orientation of theta)
ETA_PRESETS = {"zero": ("eta0", 0.0, 1.0), "L-real-theta": ("etaL_real", 1.0, 1.0),
               "L-imag-theta": ("etaL_imag", 1.0, 1.0j)}

# Keys of a config file, each also a ``sqitest curve`` flag (with - for _),
# in the order of the CSV header: key -> (ExperimentConfig field, cast, help).
CONFIG_KEYS = {
    "m": ("modes", int, "mode count"),
    "n": ("copies", int, "copy count"),
    "N": ("mixture", float, "thermal mixture parameter"),
    "alpha": ("alpha", float, "test level"),
    "theta_min": ("theta_min", float, "smallest displacement norm"),
    "theta_max": ("theta_max", float, "largest displacement norm"),
    "theta_steps": ("theta_steps", int, "number of grid points"),
    "eta": ("etas", shlex.split, f"squeezing entry: preset {tuple(ETA_PRESETS)} or a "
                                 "parameter file; repeatable"),
    "reps": ("reps", int, "Monte Carlo replicates, shared by every point (0 = analytic only)"),
    "seed": ("seed", int, "base random seed"),
    "out": ("out", str, "output CSV path"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and output description for one error-curve sweep."""

    modes: int = 1
    copies: int = 3
    mixture: float = 0.0
    alpha: float = 0.05
    theta_min: float = 0.0
    theta_max: float = 3.0
    theta_steps: int = 31
    etas: tuple = tuple(ETA_PRESETS)
    reps: int = 0
    seed: int = 0
    out: str = "error_curve.csv"

    def __post_init__(self):
        for key in ("theta_min", "theta_max"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite")
        if not 0.0 <= self.mixture < np.inf:
            raise ValueError("N must be finite and >= 0")
        if self.theta_steps < 1:
            raise ValueError("theta grid needs at least one point")
        if self.theta_steps > 1 and self.theta_max <= self.theta_min:
            raise ValueError("theta_max must exceed theta_min")
        if self.reps < 0:
            raise ValueError("reps must be >= 0 (0 = analytic only)")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        object.__setattr__(self, "etas", tuple(self.etas))

    @property
    def theta_grid(self) -> np.ndarray:
        return np.linspace(self.theta_min, self.theta_max, self.theta_steps)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kv = _parse_kv_text(text, CONFIG_KEYS)
        return cls(**{name: cast(kv[key]) for key, (name, cast, _) in CONFIG_KEYS.items()
                      if key in kv})


def _resolve_eta(entry: str, modes: int):
    """Map an eta preset name or file path to (label, SqueezeParam, orientation)."""
    if entry in ETA_PRESETS:
        label, s, orient = ETA_PRESETS[entry]
        return label, SqueezeParam(modes, np.zeros((modes, modes)),
                                   s * np.eye(modes, dtype=complex)), orient
    if os.path.exists(entry):
        with open(entry) as fh:
            eta = SqueezeParam.from_text(fh.read())
        if eta.modes != modes:
            raise ValueError(f"eta file {entry} has {eta.modes} modes, expected {modes}")
        label = os.path.splitext(os.path.basename(entry))[0]
        return f"eta_{label}", eta, 1.0
    raise ValueError(f"unknown eta preset or missing file: {entry!r}")


def run_curve(config: ExperimentConfig) -> str:
    """Write the error-curve CSV for the configured sweep; returns the path.

    Columns: theta, beta_si, then one beta_hh_<label> per eta entry, whose
    labels must differ (plus _mc and _stderr columns when reps > 0).  The
    whitened signals of every (eta entry, theta) form one stack, which
    takes one analytic call and, when reps > 0, one Monte Carlo call.  Every
    Monte Carlo point is a shift of the same replicates from
    ``rng_stream(seed)``, so reruns are byte-identical, and the points are
    not independent of each other.
    """
    grid = config.theta_grid
    columns = {"theta": grid}
    notes = []
    spec = ht.TestSpec(config.modes, config.copies, config.mixture, config.alpha)

    try:
        columns["beta_si"] = ht.si_type2(grid, spec)
    except ht.NoRouteError as err:
        columns["beta_si"] = np.full(grid.shape, np.nan)
        notes.append(f"beta_si not evaluated: {err}")

    run_hh = config.copies > 2 * config.modes
    if not run_hh:
        notes.append("beta_hh not evaluated: the Hotelling test needs more than "
                     "2m copies")
    suffixes = ("", "_mc", "_stderr") if config.reps > 0 else ("",)
    signals = {}  # column label -> whitened signals of the grid
    for entry in config.etas:
        label, eta, orient = _resolve_eta(entry, config.modes)
        if f"beta_hh_{label}" in columns:
            raise ValueError(f"eta entries repeat the column label {label!r}")
        for suffix in suffixes:
            columns[f"beta_hh_{label}{suffix}"] = np.full(grid.shape, np.nan)
        if run_hh:
            thetas = orient * np.outer(grid, np.eye(config.modes, 1))
            signals[label] = whitened_signal(thetas, eta, config.mixture)
    if signals:
        stack = np.stack(list(signals.values()))
        for label, beta_hh in zip(signals, ht.hh_type2_analytic(stack, spec)):
            columns[f"beta_hh_{label}"] = beta_hh
        if config.reps > 0:
            est = ht.hh_type2_montecarlo(stack, spec, config.reps, rng_stream(config.seed))
            for label, value, stderr in zip(signals, est.value, est.stderr):
                columns[f"beta_hh_{label}_mc"] = value
                columns[f"beta_hh_{label}_stderr"] = stderr

    header = []
    for key, (name, cast, _) in CONFIG_KEYS.items():
        value = getattr(config, name)
        if cast is float:
            value = f"{value:.17g}"
        elif cast is shlex.split:
            value = shlex.join(value)
        if key != "out":
            header.append(f"# {key} = {value}")
    header += [f"# note: {n}" for n in notes]
    with open(config.out, "w") as fh:
        np.savetxt(fh, np.column_stack(list(columns.values())), fmt="%.17g",
                   delimiter=",", header="\n".join(header + [",".join(columns)]), comments="")
    return config.out


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    """A suite's checks, one (status, name, residual, tol, note) row each."""

    suite: str
    checks: list = field(default_factory=list)

    def add(self, name, residual, tol, note=""):
        status = "PASS" if residual <= tol else "FAIL"
        self.checks.append((status, name, float(residual), tol, note))

    @property
    def failures(self) -> int:
        return sum(1 for status, *_ in self.checks if status == "FAIL")

    def format(self) -> str:
        lines = [f"verification suite: {self.suite}"]
        for status, name, residual, tol, note in self.checks:
            note = f"  ({note})" if note else ""
            lines.append(f"[{status}] {name:40s} residual={residual:.3e} tol={tol:.1e}{note}")
        lines.append(f"{len(self.checks) - self.failures} passed, "
                     f"{self.failures} failed")
        return "\n".join(lines)


def _verify_fock(report: VerifyReport):
    rng = rng_stream(20240917)

    cfg = fock.FockConfig(1, 2, 12)
    a = fock.annihilation(12)
    comm = a @ a.conj().T - a.conj().T @ a
    report.add("ccr_interior_block", np.max(np.abs(comm[:11, :11] - np.eye(11))), 1e-12)

    D = fock.displacement(0.8 + 0.3j, 40)
    report.add("displacement_unitary", np.max(np.abs(D.conj().T @ D - np.eye(40))), 1e-8)

    # invariance of the beamsplitter generator under squeezing (generator level)
    worst = 0.0
    v = fock.beamsplitter_generator(cfg, 1, 2).toarray()
    for _ in range(5):
        A = rng.standard_normal((1, 1)) * 1j
        S = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        gen = fock.squeeze_generator(SqueezeParam(1, A, S), cfg).toarray()
        worst = max(worst, float(np.max(np.abs(gen @ v - v @ gen))))
    report.add("squeeze_invariance_commutator", worst, 1e-8)

    cfg3 = fock.FockConfig(1, 3, 25)
    psi = fock.coherent_product_vector(cfg3, np.full((1, 3), 0.3))
    rpsi = fock.apply_pooling_rotation(cfg3, psi)
    target = fock.coherent_product_vector(cfg3, [[0.0, 0.0, np.sqrt(3) * 0.3]])
    overlap = abs(np.vdot(target, rpsi)) ** 2
    report.add("pooling_rotation_transport", np.sqrt(max(0.0, 1.0 - overlap)), 1e-6)

    cfg8 = fock.FockConfig(1, 2, 8)
    W = fock.rotation_average_projector(cfg8)
    K0 = fock.spectral_projection(fock.rotation_defect_observable(cfg8), 0.0)
    report.add("kernel_projector_match", np.max(np.abs(W - K0)), 1e-6)

    for n, d in ((2, 25), (3, 10)):
        cfgn = fock.FockConfig(1, n, d)
        W = fock.rotation_average_projector(cfgn)
        worst = 0.0
        for r in (0.3, 0.5):
            vec = fock.coherent_product_vector(cfgn, np.full((1, n), r))
            got = float(np.real(vec.conj() @ (W @ vec)))
            want = ht.si_type2(r, ht.TestSpec(1, n, 0.0, 0.0))  # alpha = 0 accepts range(W)
            worst = max(worst, abs(got - want))
        report.add(f"rotation_average_inner_n{n}", worst, 1e-5)

    worst = 0.0
    for n in (2, 3):
        cfgn = fock.FockConfig(1, n, 24)
        spec = ht.TestSpec(1, n, 0.0, 0.05)
        got = fock.si_type2_fock(0.5, 0.0, 0.05, cfgn)
        worst = max(worst, abs(got - ht.si_type2_closed(0.5, spec)))
    report.add("si_error_fock_vs_closed", worst, 1e-4)

    cfg40 = fock.FockConfig(1, 2, 40)
    got = fock.si_type2_fock(0.5, 0.5, 0.05, cfg40)
    want = ht.si_type2_n2(0.5, 1, 0.5, 0.05)
    report.add("si_error_fock_vs_lattice", abs(got - want), 1e-4)

    got = fock.si_type2_fock(0.3, 0.3, 0.05, fock.FockConfig(1, 3, 20))
    want = ht.si_type2_branching(0.3, ht.TestSpec(1, 3, 0.3, 0.05))
    report.add("si_error_fock_vs_branching", abs(got - want), 1e-8)


def _verify_distributions(report: VerifyReport):
    worst = 0.0
    for (m, s, N) in [(1, 0.5, 0.5), (2, 1.0, 1.0), (1, 1.0, 0.0), (2, 0.5, 0.5)]:
        comp = dist.count_difference_distribution(m, s, N)
        inv = dist.invert_integer_cf(
            lambda r: dist.count_difference_cf(m, s, N, r), comp.hi + 8)
        worst = max(worst, dist.total_variation(comp, inv))
    report.add("count_difference_cf_vs_compound", worst, 1e-8)

    nb = dist.photon_number_law(2, 0.0, 0.4)
    inv = dist.invert_integer_cf(lambda r: dist.photon_number_cf(2, 0.0, 0.4, r), nb.hi + 8)
    report.add("neg_binomial_cf_roundtrip", dist.total_variation(nb, inv), 1e-10)

    y = dist.count_difference_distribution(1, 0.8, 0.0)
    worst = max(abs(y.prob(k) - dist.skellam_pmf(k, 0.64)) for k in range(-5, 6))
    report.add("skellam_series_oracle", worst, 1e-12)

    # Gauss-Legendre in t on f = (t/(1-t))^2: the Jacobian 2t/(1-t)^3 makes
    # the nu = 1 tail smooth in t
    t, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * (t + 1.0)
    f, w = (t / (1.0 - t)) ** 2, w * t / (1.0 - t) ** 3
    worst = 0.0
    for (mu, nu, lam) in [(2, 1, 0.0), (2, 1, 5.0), (4, 3, 2.0)]:
        p = dist.NoncentralFParams(mu, nu, lam)
        val = w @ [dist.noncentral_f_pdf(fi, p) for fi in f]
        worst = max(worst, abs(val - 1.0))
    report.add("noncentral_f_normalization", worst, 1e-8)

    c = dist.critical_point(0.05, 2, 1)
    p0 = dist.NoncentralFParams(2, 1, 0.0)
    report.add("critical_point_roundtrip",
               abs((1.0 - dist.noncentral_f_cdf(c, p0)) - 0.05), 1e-9)

    lams = dist.NoncentralFParams(2, 1, np.array([0.0, 1.0, 5.0]))
    ok = all(np.all(np.diff(dist.noncentral_f_cdf(c, lams)) < 0) for c in (0.5, 2.0, 10.0))
    report.add("noncentrality_stochastic_ordering", 0.0 if ok else 1.0, 0.5)


def _verify_tests(report: VerifyReport):
    spec3 = ht.TestSpec(1, 3, 0.0, 0.05)
    eta0 = SqueezeParam.zero(1)

    mc = ht.hh_type2_montecarlo(whitened_signal(np.array([[0.0], [0.5]]), eta0, 0.0), spec3,
                                50000, rng_stream(5))
    report.add("hh_null_calibration", abs(mc.value[0] - 0.95), 4 * mc.stderr[0],
               note="Monte Carlo, 4 sigma band")
    an = ht.hh_type2_analytic(whitened_signal(0.5, eta0, 0.0), spec3)
    report.add("hh_mc_vs_analytic", abs(mc.value[1] - an), 4 * mc.stderr[1],
               note="Monte Carlo, 4 sigma band")

    slope = ht.si_small_theta_slope(spec3)
    report.add("si_small_theta_slope", abs(slope / (0.95 * 3) - 1.0), 5e-3)

    betas = {r: ht.hh_type2_analytic(whitened_signal(0.5, SqueezeParam.axis_family(r), 0.0),
                                     spec3)
             for r in (1.0, 0.5, 0.1, 1e-3)}
    report.add("hh_eta_dependence", 1e-3 / max(abs(betas[1.0] - betas[0.1]), 1e-300),
               1.0, note="beta must vary with the squeezing family")
    report.add("hh_sup_attains_trivial", abs(betas[1e-3] - 0.95), 1e-4)

    res = ht.crossing_check(0.05, np.linspace(0.05, 40.0, 160))
    report.add("error_curve_crossing", 0.0 if res.found_both else 1.0, 0.5,
               note=f"witnesses {res.theta_small}, {res.theta_large}")

    spec_half = ht.TestSpec(1, 3, 0.0, 0.5)
    thetas = np.array([2.0, 3.0, 4.0])
    ratios = (ht.hh_type2_analytic(whitened_signal(thetas[:, None], eta0, 0.0), spec_half)
              / ht.si_type2_closed(thetas, spec_half))
    ok = bool(np.all(np.diff(ratios) < 0))
    report.add("tail_ratio_decreasing", 0.0 if ok else 1.0, 0.5,
               note="alpha = 0.5 puts the grid inside the tail regime")


# suite name -> its batteries, in report order; "all" runs every one
SUITES = {"fock": (_verify_fock,), "distributions": (_verify_distributions,),
          "tests": (_verify_tests,)}
SUITES["all"] = sum(SUITES.values(), ())


def run_verify(suite: str) -> VerifyReport:
    """Run a named cross-check battery; returns a report with PASS/FAIL lines."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    report = VerifyReport(suite)
    for fn in SUITES[suite]:
        fn(report)
    return report
