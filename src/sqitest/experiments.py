"""Batch experiment driver: error-curve sweeps and verification suites.

Everything printed or written here is produced by library calls that carry
their own tests; this module only arranges grids, seeds and files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import beta

from . import distributions as dist
from . import fock
from . import hypotests as ht
from .phase_space import SqueezeParam, _parse_kv_text

ETA_PRESETS = ("zero", "L-real-theta", "L-imag-theta")

# Scalar keys of a config file, each also a ``sqitest curve`` flag (with -
# for _): key -> (ExperimentConfig field, cast, help).  The eta entries are
# a list and are read apart.
CONFIG_KEYS = {
    "m": ("modes", int, "mode count"),
    "n": ("copies", int, "copy count"),
    "N": ("mixture", float, "thermal mixture parameter"),
    "alpha": ("alpha", float, "test level"),
    "theta_min": ("theta_min", float, "smallest displacement norm"),
    "theta_max": ("theta_max", float, "largest displacement norm"),
    "theta_steps": ("theta_steps", int, "number of grid points"),
    "reps": ("reps", int, "Monte Carlo replicates per point (0 = analytic only)"),
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
    etas: tuple = ETA_PRESETS
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
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie strictly inside (0, 1)")
        object.__setattr__(self, "etas", tuple(self.etas))

    @property
    def theta_grid(self) -> np.ndarray:
        if self.theta_steps == 1:
            return np.array([self.theta_min])
        return np.linspace(self.theta_min, self.theta_max, self.theta_steps)

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        kv = _parse_kv_text(text, (*CONFIG_KEYS, "eta"))
        kwargs = {name: cast(kv[key]) for key, (name, cast, _) in CONFIG_KEYS.items()
                  if key in kv}
        if "eta" in kv:
            kwargs["etas"] = tuple(kv["eta"].split())
        return cls(**kwargs)


def _resolve_eta(entry: str, modes: int):
    """Map an eta preset name or file path to (label, SqueezeParam, orientation)."""
    if entry == "zero":
        return "eta0", SqueezeParam.zero(modes), 1.0
    if entry == "L-real-theta":
        return "etaL_real", SqueezeParam(modes, np.zeros((modes, modes)),
                                         np.eye(modes, dtype=complex)), 1.0
    if entry == "L-imag-theta":
        return "etaL_imag", SqueezeParam(modes, np.zeros((modes, modes)),
                                         np.eye(modes, dtype=complex)), 1.0j
    if os.path.exists(entry):
        with open(entry) as fh:
            eta = SqueezeParam.from_text(fh.read())
        if eta.modes != modes:
            raise ValueError(f"eta file {entry} has {eta.modes} modes, expected {modes}")
        label = os.path.splitext(os.path.basename(entry))[0]
        return f"eta_{label}", eta, 1.0
    raise ValueError(f"unknown eta preset or missing file: {entry!r}")


def _beta_si_column(config: ExperimentConfig, grid: np.ndarray):
    spec = ht.TestSpec(config.modes, config.copies, config.mixture, config.alpha, "si")
    if config.mixture == 0.0:
        return ht.si_type2_closed(grid, spec), None
    if config.copies == 2:
        return ht.si_type2_n2(grid, config.modes, config.mixture, config.alpha), None
    note = ("beta_si not evaluated: no closed form for mixture > 0 with more than "
            "two copies; use the truncated-space oracle directly")
    return np.full(grid.shape, np.nan), note


def run_curve(config: ExperimentConfig) -> str:
    """Write the error-curve CSV for the configured sweep; returns the path.

    Columns: theta, beta_si, then one beta_hh_<label> per eta entry (plus
    _mc and _stderr columns when reps > 0).  Reruns with the same config
    and seed are byte-identical.
    """
    grid = config.theta_grid
    columns = {"theta": grid}
    notes = []

    beta_si, note = _beta_si_column(config, grid)
    columns["beta_si"] = beta_si
    if note:
        notes.append(note)

    spec_hh = None
    if config.copies > 2 * config.modes:
        spec_hh = ht.TestSpec(config.modes, config.copies, config.mixture,
                              config.alpha, "hh")
    else:
        notes.append("beta_hh not evaluated: the Hotelling test needs more than "
                     "2m copies")
    for stream, entry in enumerate(config.etas):
        label, eta, orient = _resolve_eta(entry, config.modes)
        if spec_hh is None:
            suffixes = ("", "_mc", "_stderr") if config.reps > 0 else ("",)
            for suffix in suffixes:
                columns[f"beta_hh_{label}{suffix}"] = np.full(grid.shape, np.nan)
            continue
        thetas = orient * np.outer(grid, np.eye(config.modes, 1))
        columns[f"beta_hh_{label}"] = ht.hh_type2_analytic(thetas, eta, spec_hh)
        if config.reps > 0:
            mcs = [ht.hh_type2_montecarlo(theta, eta, spec_hh, config.reps,
                                          seed=config.seed + 1000003 * stream + 7919 * i)
                   for i, theta in enumerate(thetas)]
            columns[f"beta_hh_{label}_mc"] = np.array([e.value for e in mcs])
            columns[f"beta_hh_{label}_stderr"] = np.array([e.stderr for e in mcs])

    header = [
        f"# m = {config.modes}", f"# n = {config.copies}",
        f"# N = {config.mixture:.17g}", f"# alpha = {config.alpha:.17g}",
        f"# theta_min = {config.theta_min:.17g}",
        f"# theta_max = {config.theta_max:.17g}",
        f"# theta_steps = {config.theta_steps}",
        f"# eta = {' '.join(config.etas)}",
        f"# reps = {config.reps}", f"# seed = {config.seed}",
    ]
    header += [f"# note: {n}" for n in notes]
    names = list(columns)
    lines = header + [",".join(names)]
    for row in zip(*(columns[n] for n in names)):
        lines.append(",".join(f"{x:.17g}" for x in row))
    with open(config.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return config.out


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    status: str  # PASS | FAIL
    residual: float
    tol: float
    note: str = ""

    def format(self) -> str:
        note = f"  ({self.note})" if self.note else ""
        return (f"[{self.status}] {self.name:40s} residual={self.residual:.3e} "
                f"tol={self.tol:.1e}{note}")


@dataclass
class VerifyReport:
    suite: str
    checks: list = field(default_factory=list)

    def add(self, name, residual, tol, note=""):
        status = "PASS" if residual <= tol else "FAIL"
        self.checks.append(CheckResult(name, status, float(residual), tol, note))

    @property
    def failures(self) -> int:
        return sum(1 for c in self.checks if c.status == "FAIL")

    def format(self) -> str:
        lines = [f"verification suite: {self.suite}"]
        lines += [c.format() for c in self.checks]
        lines.append(f"{len(self.checks) - self.failures} passed, "
                     f"{self.failures} failed")
        return "\n".join(lines)


def _verify_fock(report: VerifyReport):
    rng = np.random.default_rng(20240917)

    cfg = fock.FockConfig(1, 2, 12)
    a = fock.annihilation(12)
    comm = a @ a.conj().T - a.conj().T @ a
    report.add("ccr_interior_block", np.max(np.abs(comm[:11, :11] - np.eye(11))), 1e-12)

    D = fock.displacement(0.8 + 0.3j, 40)
    report.add("displacement_unitary", D.unitarity_defect(), 1e-8)

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
    report.add("kernel_projector_match", np.max(np.abs(W.entries - K0.entries)), 1e-6)

    for n, d in ((2, 25), (3, 10)):
        cfgn = fock.FockConfig(1, n, d)
        W = fock.rotation_average_projector(cfgn)
        worst = 0.0
        for r in (0.3, 0.5):
            vec = fock.coherent_product_vector(cfgn, np.full((1, n), r))
            got = float(np.real(vec.conj() @ (W.entries @ vec)))
            z = n * r ** 2
            want = dist.exp_cos_integral_scaled(z, n) / beta((n - 1) / 2, 0.5)
            worst = max(worst, abs(got - want))
        report.add(f"rotation_average_inner_n{n}", worst, 1e-5)

    worst = 0.0
    for n in (2, 3):
        cfgn = fock.FockConfig(1, n, 24)
        spec = ht.TestSpec(1, n, 0.0, 0.05, "si")
        got = fock.si_type2_fock(0.5, 0.0, 0.05, cfgn)
        worst = max(worst, abs(got - ht.si_type2_closed(0.5, spec)))
    report.add("si_error_fock_vs_closed", worst, 1e-4)

    cfg40 = fock.FockConfig(1, 2, 40)
    got = fock.si_type2_fock(0.5, 0.5, 0.05, cfg40)
    want = ht.si_type2_n2(0.5, 1, 0.5, 0.05)
    report.add("si_error_fock_vs_lattice", abs(got - want), 1e-4)


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
    spec3 = ht.TestSpec(1, 3, 0.0, 0.05, "hh")
    eta0 = SqueezeParam.zero(1)

    mc = ht.hh_type2_montecarlo(0.0, eta0, spec3, 50000, seed=5)
    report.add("hh_null_calibration", abs(mc.value - 0.95), 4 * mc.stderr,
               note="Monte Carlo, 4 sigma band")

    mc = ht.hh_type2_montecarlo(0.5, eta0, spec3, 50000, seed=6)
    an = ht.hh_type2_analytic(0.5, eta0, spec3)
    report.add("hh_mc_vs_analytic", abs(mc.value - an), 4 * mc.stderr,
               note="Monte Carlo, 4 sigma band")

    slope = ht.si_small_theta_slope(ht.TestSpec(1, 3, 0.0, 0.05, "si"))
    report.add("si_small_theta_slope", abs(slope / (0.95 * 3) - 1.0), 5e-3)

    betas = {r: ht.hh_type2_analytic(0.5, SqueezeParam.axis_family(r), spec3)
             for r in (1.0, 0.5, 0.1, 1e-3)}
    report.add("hh_eta_dependence", 1e-3 / max(abs(betas[1.0] - betas[0.1]), 1e-300),
               1.0, note="beta must vary with the squeezing family")
    report.add("hh_sup_attains_trivial", abs(betas[1e-3] - 0.95), 1e-4)

    res = ht.crossing_check(0.05, np.linspace(0.05, 40.0, 160))
    report.add("error_curve_crossing", 0.0 if res.found_both else 1.0, 0.5,
               note=f"witnesses {res.theta_small}, {res.theta_large}")

    spec_r = ht.TestSpec(1, 3, 0.0, 0.5, "hh")
    spec_s = ht.TestSpec(1, 3, 0.0, 0.5, "si")
    thetas = np.array([2.0, 3.0, 4.0])
    ratios = (ht.hh_type2_analytic(thetas[:, None], eta0, spec_r)
              / ht.si_type2_closed(thetas, spec_s))
    ok = bool(np.all(np.diff(ratios) < 0))
    report.add("tail_ratio_decreasing", 0.0 if ok else 1.0, 0.5,
               note="alpha = 0.5 puts the grid inside the tail regime")


def run_verify(suite: str) -> VerifyReport:
    """Run a named cross-check battery; returns a report with PASS/FAIL lines."""
    suites = {
        "fock": _verify_fock,
        "distributions": _verify_distributions,
        "tests": _verify_tests,
    }
    if suite not in tuple(suites) + ("all",):
        raise ValueError(f"unknown suite {suite!r}; choose from "
                         f"{', '.join(tuple(suites) + ('all',))}")
    report = VerifyReport(suite)
    for fn in suites.values() if suite == "all" else [suites[suite]]:
        fn(report)
    return report
