"""The two displacement tests as decision rules and error-probability maps.

HH: Hotelling's T-squared on heterodyne outcomes.  The scaled statistic
F = (nu / (mu (n-1))) T^2 with mu = 2m, nu = n - 2m follows a noncentral F
law with noncentrality lambda = n * kappa(theta, eta, N), so its type II
error is the noncentral F cdf at the level-alpha critical point.  Every
analytic error map returns the shape of its displacement input (a numpy
float for one); an HH stack takes one kappa and one cdf call.  A seeded
Monte Carlo route simulates the whole chain instead, on whitened draws:
T^2 does not change under x -> L^{-1} x.

SI: the squeezing-invariant test.  For a pure alternative (mixture 0) the
type II error has the closed form

    beta = (1-alpha) e^{-n s^2} / B((n-1)/2, 1/2)
           * int_0^pi e^{n s^2 cos phi} sin^{n-2} phi dphi,   s = |theta|,

independent of the squeezing.  For two copies and any mixture the test
reduces to the square of the integer count-difference statistic, evaluated
through its lattice law and the randomized threshold test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import beta

from . import distributions as dist
from .distributions import NoncentralFParams
from .phase_space import GaussianSpec, SqueezeParam, kappa, moments, rng_stream

# Replicates per block of the Monte Carlo route.
_MC_CHUNK = 2 ** 15
# Halving theta sequence of the small-theta slope extrapolation.
_SLOPE_THETAS = (1e-2, 5e-3, 2.5e-3)


@dataclass(frozen=True)
class TestSpec:
    """Problem dimensions and level for one of the two tests."""

    __test__ = False  # not a pytest case despite the name

    modes: int
    copies: int
    mixture: float
    alpha: float
    kind: str = "si"  # "hh" | "si"

    def __post_init__(self):
        if self.kind not in ("hh", "si"):
            raise ValueError("kind must be 'hh' or 'si'")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.mixture < 0:
            raise ValueError("mixture must be >= 0")
        if self.kind == "hh" and self.copies <= 2 * self.modes:
            raise ValueError(
                "the Hotelling test needs more than 2m copies "
                "(sample covariance is singular otherwise)"
            )
        if self.kind == "hh" and self.alpha in (0.0, 1.0):
            raise ValueError(
                "the Hotelling test needs alpha strictly inside (0, 1): its "
                "critical point is infinite at 0 and degenerate at 1"
            )
        if self.kind == "si" and self.copies < 2:
            raise ValueError("the invariant test needs at least two copies")

    @property
    def mu_dof(self) -> int:
        return 2 * self.modes

    @property
    def nu_dof(self) -> int:
        return self.copies - 2 * self.modes

    @cached_property
    def critical_point(self) -> float:
        """Level-alpha critical point of the central F(mu, nu) law, solved once."""
        return dist.critical_point(self.alpha, self.mu_dof, self.nu_dof)


class SingularCovarianceError(ValueError):
    """Raised when the sample covariance of the supplied data is singular."""


def hotelling_F(samples: np.ndarray) -> float:
    """Scaled Hotelling statistic (nu / (mu (n-1))) * n xbar' Sbar^{-1} xbar.

    ``samples`` is an (n, 2m) array of heterodyne outcomes; the sample
    covariance uses divisor n - 1.  The samples are centred before the
    shared kernel reads their moments.
    """
    samples = np.asarray(samples, dtype=float)
    n, p = samples.shape
    if p % 2 != 0:
        raise ValueError("sample dimension must be even (2m)")
    m = p // 2
    if n <= 2 * m:
        raise ValueError("need more than 2m samples")
    xbar = samples.mean(axis=0)
    t2 = float(_hotelling_t2((samples - xbar)[None], xbar)[0])
    if t2 == np.inf:
        raise SingularCovarianceError("sample covariance is singular")
    mu, nu = 2 * m, n - 2 * m
    return (nu / (mu * (n - 1))) * t2


def _hotelling_t2(z: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """T^2 = n xbar' S^{-1} xbar of the replicates z[r] + shift, for an (R, n, p) block z.

    S is the sample covariance with divisor n - 1.  Adding ``shift`` to
    every copy moves xbar but not S, so S is read from z alone, from its
    uncentred moments sum_k z_ki z_kj - n zbar_i zbar_j: one strided
    product per entry on the R-long columns z[:, :, i], which keeps its
    bits while z's mean is small next to its spread (callers pass centred
    or whitened draws).  Python loops run only over the small p: an
    unpivoted Cholesky factor S = L L' and the forward solve L y = xbar give
    T^2 = n |y|^2.  S is positive semidefinite, so no pivoting is needed.
    A pivot that is not positive makes y, and so T^2, non-finite; such a
    replicate reads +inf, the limit of the form when xbar leaves the range
    of a singular S, so it counts as a rejection.
    """
    _, n, p = z.shape
    cols = [z[:, :, i] for i in range(p)]
    zbar = [c.sum(axis=1) / n for c in cols]
    L = [[None] * p for _ in range(p)]
    y = []
    with np.errstate(all="ignore"):
        for j in range(p):
            for i in range(j, p):
                s = ((np.einsum("rk,rk->r", cols[i], cols[j]) - n * zbar[i] * zbar[j])
                     / (n - 1) - sum(L[i][k] * L[j][k] for k in range(j)))
                if i == j:
                    L[j][j] = np.sqrt(s)
                else:
                    L[i][j] = s / L[j][j]
            xbar = zbar[j] + shift[..., j]
            y.append((xbar - sum(L[j][k] * y[k] for k in range(j))) / L[j][j])
        t2 = n * sum(v * v for v in y)
    t2[~np.isfinite(t2)] = np.inf
    return t2


def hh_type2_analytic(theta, eta: SqueezeParam, spec: TestSpec):
    """Type II error of the Hotelling test: noncentral F cdf at the critical point.

    ``theta`` has shape (..., m), as in ``kappa``, and the output has shape
    (...), from one ``kappa`` and one cdf call.
    """
    if spec.kind != "hh":
        raise ValueError("spec.kind must be 'hh'")
    lam = spec.copies * kappa(theta, eta, spec.mixture)
    return dist.noncentral_f_cdf(spec.critical_point,
                                 NoncentralFParams(spec.mu_dof, spec.nu_dof, lam))


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float
    stderr: float
    reps: int


def hh_type2_montecarlo(theta, eta: SqueezeParam, spec: TestSpec, reps: int,
                        seed: int = 0) -> MonteCarloEstimate:
    """Acceptance frequency of the Hotelling test over simulated heterodyne data.

    Deterministic under a fixed seed.  Replicates are drawn in order from
    the single stream (seed,) and reduced in blocks of _MC_CHUNK, so memory
    stays bounded and the estimate does not depend on the block size.  T^2
    is unchanged by x -> L^{-1} x, so with sigma = L L' the outcomes
    mu + L z of ``heterodyne_sample`` are evaluated whitened, as z + delta
    with delta = L^{-1} mu: the same standard normal draws z, and no
    per-chunk transform.
    """
    if spec.kind != "hh":
        raise ValueError("spec.kind must be 'hh'")
    if reps < 1:
        raise ValueError("reps must be >= 1")
    mom = moments(GaussianSpec(spec.modes, np.atleast_1d(np.asarray(theta, dtype=complex)),
                               eta, spec.mixture))
    # sigma >= I/4; LinAlgError (a ValueError) once rounding breaks that, |S| >= 18
    delta = np.linalg.solve(np.linalg.cholesky(mom.sigma), mom.mu)
    n, p = spec.copies, 2 * spec.modes
    rng = rng_stream(seed)
    accepted = 0
    for start in range(0, reps, _MC_CHUNK):
        size = min(_MC_CHUNK, reps - start)
        z = rng.standard_normal((size * n, p)).reshape(size, n, p)
        f = (spec.nu_dof / (spec.mu_dof * (n - 1))) * _hotelling_t2(z, delta)
        accepted += int(np.count_nonzero(f <= spec.critical_point))
    accept = accepted / reps
    stderr = float(np.sqrt(max(accept * (1.0 - accept), 1e-12) / reps))
    return MonteCarloEstimate(accept, stderr, reps)


def si_type2_closed(theta_norm, spec: TestSpec):
    """Closed-form type II error of the invariant test for a pure state."""
    if spec.mixture != 0.0:
        raise ValueError("closed form available only for mixture 0")
    n = spec.copies
    theta = np.asarray(theta_norm, dtype=float)
    # theta^2 by Python's float power (libm pow), which keeps the curves' CSV
    # bytes: numpy's square differs from it in the last bit for about 1 theta in 800
    z = n * np.array([t ** 2 for t in theta.ravel().tolist()]).reshape(theta.shape)
    scaled = dist.exp_cos_integral_scaled(z, n)
    return (1.0 - spec.alpha) * scaled / beta((n - 1) / 2.0, 0.5)


def si_type2_n2(theta_norm, modes: int, mixture: float, alpha: float):
    """Type II error of the two-copy invariant test via the lattice law.

    The observable is the square of the count-difference statistic Y, so
    thresholding it is thresholding |Y|: the randomized threshold test is
    set on the null law of |Y|, built once per call, and evaluated on the
    displaced one at each entry of ``theta_norm``.
    """
    def abs_law(theta):
        law = dist.count_difference_distribution(modes, theta, mixture)
        return dist.lattice_law(np.abs(law.support), law.pmf)

    theta = np.asarray(theta_norm, dtype=float)
    null = abs_law(0.0)
    out = [dist.randomized_acceptance(null, abs_law(t), alpha) for t in theta.ravel()]
    return np.array(out, dtype=float).reshape(theta.shape)[()]


def si_small_theta_slope(spec: TestSpec) -> float:
    """Quadratic coefficient of 1 - alpha - beta at theta -> 0, extrapolated.

    Richardson extrapolation in theta^2 over the halving sequence _SLOPE_THETAS;
    the closed form gives (1 - alpha) * n exactly in the limit.
    """
    if spec.mixture != 0.0:
        raise ValueError("slope extraction implemented for mixture 0")
    t = np.array(_SLOPE_THETAS)
    g = (1.0 - spec.alpha - si_type2_closed(t, spec)) / t ** 2
    # remainder is O(theta^2) and theta halves, so the ratio in theta^2 is 4
    for _ in range(len(_SLOPE_THETAS) - 1):
        g = (4.0 * g[1:] - g[:-1]) / 3.0
    return float(g[0])


@dataclass(frozen=True)
class CrossingResult:
    """Witnesses of the error-curve crossing, with the scanned curve."""

    theta_small: float | None
    theta_large: float | None
    theta_grid: np.ndarray = field(repr=False)
    beta_si: np.ndarray = field(repr=False)
    beta_hh: np.ndarray = field(repr=False)

    @property
    def found_both(self) -> bool:
        return self.theta_small is not None and self.theta_large is not None


def crossing_check(alpha: float, theta_grid) -> CrossingResult:
    """Scan for the two orderings of the error curves (one mode, three copies).

    Small displacements favor the invariant test (beta_si < beta_hh); the
    Hotelling curve eventually undercuts it because its tail decays
    exponentially in theta^2 while the invariant test's decays like
    theta^{-2}.  At alpha = 0.05 the second crossing sits near theta = 31,
    so grids must extend that far; missing witnesses are reported as None,
    never fabricated.
    """
    grid = np.asarray(theta_grid, dtype=float)
    spec_si = TestSpec(1, 3, 0.0, alpha, "si")
    spec_hh = TestSpec(1, 3, 0.0, alpha, "hh")
    eta0 = SqueezeParam.zero(1)
    beta_si = si_type2_closed(grid, spec_si)
    beta_hh = hh_type2_analytic(grid[:, None], eta0, spec_hh)
    small = large = None
    margin = 1e-12
    for t, bs, bh in zip(grid, beta_si, beta_hh):
        if t <= 0:
            continue
        if small is None and bs < bh - margin:
            small = float(t)
        if large is None and bs > bh + margin:
            large = float(t)
    return CrossingResult(small, large, grid, beta_si, beta_hh)
