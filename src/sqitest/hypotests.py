"""The two displacement tests as decision rules and error-probability maps.

HH: Hotelling's T-squared on heterodyne outcomes.  The scaled statistic
F = (nu / (mu (n-1))) T^2 with mu = 2m, nu = n - 2m follows a noncentral F
law with noncentrality lambda = n * kappa(theta, eta, N), so its type II
error is the noncentral F cdf at the level-alpha critical point.  Both HH
routes take the whitened signal sigma^{-1/2} mu of ``whitened_signal``,
whose squared norm is kappa: T^2 does not change under x -> sigma^{-1/2} x.
The analytic route makes one cdf call for a whole stack of signals; a Monte
Carlo route draws T^2 from its sufficient statistics instead, the mean and
the Bartlett factor of the Wishart sample covariance, at a cost free of n.
Every analytic error map returns the shape of its displacement input (a
numpy float for one).

SI: the squeezing-invariant test.  For a pure alternative (mixture 0) the
type II error has the closed form

    beta = (1-alpha) e^{-n s^2} / B((n-1)/2, 1/2)
           * int_0^pi e^{n s^2 cos phi} sin^{n-2} phi dphi,   s = |theta|,
         = (1-alpha) M((n-1)/2, n-1, -2 n s^2),

with M Kummer's function, independent of the squeezing.  For two copies and
any mixture the test reduces to the square of the integer count-difference
statistic, evaluated through its lattice law and the randomized threshold
test.  For one mode, any n and any mixture, the labels of the branching
O(n) > O(n-1) of the observable commute with every n-fold squeezing
((Sp(2, R), O(n)) Howe duality), and its law is a sum over small
tridiagonal blocks.  ``si_type2`` is the one place that picks among these
three routes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_triangular
from scipy.special import beta, xlogy

from . import distributions as dist
from .distributions import NoncentralFParams
from .phase_space import SqueezeParam, whitened_signal

# Replicates per block of the Monte Carlo route.
_MC_CHUNK = 2 ** 13
# Halving theta sequence of the small-theta slope extrapolation.
_SLOPE_THETAS = (1e-2, 5e-3, 2.5e-3)
# Largest total photon count the branching route tabulates: its cost grows
# like the cube of it (2.3 s at 180, n = 10, on one core of a two-vCPU VM).
_BRANCHING_KMAX = 256


@dataclass(frozen=True)
class TestSpec:
    """The problem both tests answer: m modes, n copies, mixture N, level alpha.

    Both tests need integers m >= 1 and n >= 2, alpha in [0, 1] and a
    finite N >= 0; the Hotelling routes check the rest when they read
    ``critical_point``.
    """

    __test__ = False  # not a pytest case despite the name

    modes: int
    copies: int
    mixture: float
    alpha: float

    def __post_init__(self):
        try:
            for size in (self.modes, self.copies):
                operator.index(size)
        except TypeError:
            raise ValueError("modes and copies must be integers") from None
        if self.modes < 1:
            raise ValueError("modes must be >= 1")
        if self.copies < 2:
            raise ValueError("both tests need at least two copies")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.mixture < np.inf:
            raise ValueError("mixture must be finite and >= 0")

    @property
    def mu_dof(self) -> int:
        return 2 * self.modes

    @property
    def nu_dof(self) -> int:
        return self.copies - 2 * self.modes

    @cached_property
    def critical_point(self) -> float:
        """Level-alpha critical point of the central F(mu, nu) law, solved once.

        Every Hotelling route reads it first, so it raises ValueError for
        n <= 2m and, in ``dist.critical_point``, for alpha outside (0, 1).
        """
        if self.copies <= 2 * self.modes:
            raise ValueError("the Hotelling test needs more than 2m copies "
                             "(sample covariance is singular otherwise)")
        return dist.critical_point(self.alpha, self.mu_dof, self.nu_dof)


class SingularCovarianceError(ValueError):
    """Raised when the sample covariance of the supplied data is singular."""


class NoRouteError(ValueError):
    """Raised where no route computes the invariant test's type II error."""


def hotelling_F(samples: np.ndarray) -> float:
    """Scaled Hotelling statistic (nu / (mu (n-1))) * n xbar' Sbar^{-1} xbar.

    ``samples`` is an (n, 2m) array of heterodyne outcomes; the sample
    covariance uses divisor n - 1.  With the centred samples = Q R,
    (n - 1) Sbar = R' R, so T^2 = n (n - 1) |R^{-T} xbar|^2: the QR meets
    the condition number of the centred samples, the square root of that of
    Sbar, so strongly squeezed outcomes keep their small direction.  A zero
    on R's diagonal raises ``SingularCovarianceError``.  Samples that are
    not all finite raise a ValueError that is not a
    ``SingularCovarianceError``.  Exactly collinear samples that are not
    identical leave rounding on R's diagonal, not a zero, and give a finite
    F: [[1, 2], [2, 4], [3, 6]] gives 86.8 and [[1, 2], [2, 4], [4, 8],
    [0.5, 1]] 6.71.  No rank rule relative to R's largest entry can reject
    them without also rejecting raw outcomes squeezed at r = 20, whose two
    columns are parallel to below machine epsilon.
    """
    samples = np.asarray(samples, dtype=float)
    n, p = samples.shape
    if p % 2 != 0:
        raise ValueError("sample dimension must be even (2m)")
    m = p // 2
    if n <= 2 * m:
        raise ValueError("need more than 2m samples")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    xbar = samples.mean(axis=0)
    R = np.linalg.qr(samples - xbar, mode="r")
    if not np.all(np.diag(R)):
        raise SingularCovarianceError("sample covariance is singular")
    t2 = n * (n - 1) * float(np.sum(solve_triangular(R, xbar, trans="T") ** 2))
    mu, nu = 2 * m, n - 2 * m
    return (nu / (mu * (n - 1))) * t2


def _bartlett_t2(normals: np.ndarray, chi2: np.ndarray, n: int):
    """T^2(shift) of replicates drawn as sufficient statistics, one per row.

    Row r of ``normals`` is g ~ N(0, I_p), then the entries of a lower
    triangular A below its diagonal, row by row; row r of ``chi2`` is the
    squares of A's diagonal, chi^2 with n - 1, ..., n - p degrees of
    freedom.  Then g is sqrt(n) xbar and A A' is (n - 1) S, Wishart with
    n - 1 degrees of freedom (Bartlett), of n standard normal copies.  A
    shift moves xbar but not S, so T^2 = (n - 1) |A^{-1}(g + sqrt(n) shift)|^2,
    one forward solve per shift in loops over the small p.  A zero pivot
    makes T^2 inf or nan, which fails every test ``<= c``: a rejection.
    """
    p = chi2.shape[1]
    cols = np.ascontiguousarray(normals.T)
    below = [cols[p + j * (j - 1) // 2:p + j * (j + 1) // 2] for j in range(p)]
    pivots = np.sqrt(np.ascontiguousarray(chi2.T))

    def t2(shift):
        y = []
        with np.errstate(all="ignore"):
            for j in range(p):
                r = cols[j] + np.sqrt(n) * shift[j]
                for a, v in zip(below[j], y):
                    r -= a * v
                y.append(r / pivots[j])
            return (n - 1) * sum(v * v for v in y)

    return t2


def _checked_signal(signal, spec: TestSpec) -> np.ndarray:
    """``signal`` as a float array, checked finite and of shape (..., 2m).

    It is read as a whitened signal sigma^{-1/2} mu at ``spec.mixture``.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.shape[-1:] != (spec.mu_dof,) or not np.all(np.isfinite(signal)):
        raise ValueError(f"signal must be finite, of shape (..., {spec.mu_dof})")
    return signal


def hh_type2_analytic(signal, spec: TestSpec):
    """Type II error of the Hotelling test at each whitened signal (..., 2m).

    The noncentral F cdf at the critical point, lambda = n |signal|^2, from
    one cdf call for the whole stack; the output has shape (...).
    """
    c = spec.critical_point
    lam = spec.copies * np.sum(_checked_signal(signal, spec) ** 2, axis=-1)
    return dist.noncentral_f_cdf(c, NoncentralFParams(spec.mu_dof, spec.nu_dof, lam))


@dataclass(frozen=True)
class MonteCarloEstimate:
    value: float | np.ndarray
    stderr: float | np.ndarray
    reps: int


def hh_type2_montecarlo(signal, spec: TestSpec, reps: int,
                        rng: np.random.Generator) -> MonteCarloEstimate:
    """Acceptance frequency of the Hotelling test at each whitened signal (..., 2m).

    T^2 is unchanged by x -> sigma^{-1/2} x and reads the n copies only
    through (xbar, S), so each replicate draws these (``_bartlett_t2``):
    2m + m(2m - 1) normals and 2m chi-squares at any n, from two child
    streams of ``rng`` (``rng.spawn``; rng's own state does not move),
    row-major per replicate, in blocks of _MC_CHUNK: memory stays bounded
    and the estimate does not depend on the block size.  Every signal
    shifts the same ``reps`` replicates, so each entry of the estimate (...)
    equals the call with that signal alone on a fresh copy of the stream,
    and the entries are not independent of each other.
    """
    c = spec.critical_point
    signal = _checked_signal(signal, spec)
    if reps < 1:
        raise ValueError("reps must be >= 1")
    n, p = spec.copies, spec.mu_dof
    scale = spec.nu_dof / (spec.mu_dof * (n - 1))
    normal_rng, chi2_rng = rng.spawn(2)
    accepted = np.zeros(signal.shape[:-1], dtype=np.int64)
    for start in range(0, reps, _MC_CHUNK):
        size = min(_MC_CHUNK, reps - start)
        t2 = _bartlett_t2(normal_rng.standard_normal((size, p * (p + 1) // 2)),
                          chi2_rng.chisquare(n - 1 - np.arange(p), (size, p)), n)
        for i in np.ndindex(accepted.shape):
            accepted[i] += np.count_nonzero(scale * t2(signal[i]) <= c)
    accept = accepted / reps
    stderr = np.sqrt(np.maximum(accept * (1.0 - accept), 1e-12) / reps)
    return MonteCarloEstimate(accept[()], stderr[()], reps)


def _scaled_squares(theta_norm, scale: int):
    """scale * theta^2 over the array theta_norm, each entry checked finite."""
    with np.errstate(over="ignore"):
        z = scale * np.square(np.asarray(theta_norm, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ValueError(f"theta must be finite, with {scale} * theta^2 in the float range")
    return z


def si_type2_closed(theta_norm, spec: TestSpec):
    """Closed-form type II error of the invariant test for a pure state.

    (1-alpha) M((n-1)/2, n-1, -2 n s^2) with s = |theta|, which is
    (1-alpha) E[e^{-2 n s^2 B}] for B ~ Beta((n-1)/2, (n-1)/2) (DLMF 13.4.1):
    as n grows with h^2 = n s^2 fixed, B -> 1/2 and beta -> (1-alpha) e^{-h^2}.
    """
    if spec.mixture != 0.0:
        raise ValueError("closed form available only for mixture 0")
    n = spec.copies
    scaled = dist.exp_cos_integral_scaled(_scaled_squares(theta_norm, n), n)
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
    _scaled_squares(theta, 1)
    null = abs_law(0.0)
    out = [dist.randomized_acceptance(null, abs_law(t), alpha) for t in theta.ravel()]
    return np.array(out, dtype=float).reshape(theta.shape)[()]


def _log_harmonic_dims(top: int, k: int) -> np.ndarray:
    """Logs of the dimensions of the harmonic polynomials of degree 0..top in k variables.

    C(l+k-1, k-1) - C(l+k-3, k-1), formed in exact integers: as floats they
    overflow at large k (7.5e337 at k = 4999, l = 180).  For k = 1 the
    dimension is 1 at l <= 1 and 0 (log -inf) from then on.
    """
    dims = (math.comb(l + k - 1, k - 1) - (math.comb(l + k - 3, k - 1) if l >= 2 else 0)
            for l in range(top + 1))
    return np.array([math.log(d) if d else -np.inf for d in dims])


def si_type2_branching(theta_norm, spec: TestSpec):
    """Type II error of the one-mode invariant test at any n and mixture N.

    After the pooling rotation the alternative is thermal on copies 1..n-1
    and displaced, with squared amplitude n |theta|^2, on copy n.  The
    observable is the O(n) Casimir minus that of the O(n-1) fixing copy n,
    D = l(l+n-2) - l'(l'+n-3) on the labels (l, l') of that branching.  D
    keeps the total photon count K, so inside one K only the photon law of
    copy n enters, P_b = ``photon_number_law(1, n |theta|^2/(N+1), p)`` with
    p = N/(N+1).  On the basis |x'|^{2a} h x_n^b of a (K, l') block, h
    harmonic of degree l' in the other n-1 copies and b = K - l' - 2a, D is
    the symmetric tridiagonal matrix of diagonal K(K+n-2) - l'(l'+n-3) -
    (c_a + e_a) and off-diagonal -sqrt(c_a e_{a-1}), c_a = 2a(2a+2l'+n-3),
    e_a = b(b-1); its eigenvector of rank j has l = l' + (K-l' mod 2) + 2j.
    The state is diagonal on that basis, with weight (1-p)^(n-1) p^(K-b) P_b,
    and each block repeats dimH(l', n-1) times.  The null needs no block:
    its joint law is (1-p)^n p^l / (1-p^2) dimH(l', n-1) for l' <= l, cut at
    the ``hi`` L of ``photon_number_law(n, 0, p)``, and since D >= l every
    null atom up to L is exact.

    Each block is solved once per call, for K up to the largest K_max, the
    ``hi`` of ``photon_number_law(n, n |theta|^2/(N+1), p)``.  Every theta
    sums the blocks up to its own K_max in the same order, with elementwise
    products and sums, so each entry of a stack equals the call with that
    theta alone bit for bit, at any BLAS thread count.  The weights are
    formed in logarithms, since dimH passes the float range at large n.  A
    K_max past _BRANCHING_KMAX, or that law's mean, read first, raises
    NoRouteError.
    """
    if spec.modes != 1:
        raise NoRouteError("no route for m >= 2 modes with n >= 3 copies and a mixture: "
                           "the branching law is worked out for one mode only")
    n, N = spec.copies, spec.mixture
    p = N / (N + 1.0)
    theta = np.asarray(theta_norm, dtype=float)
    rates = _scaled_squares(theta, n).ravel() / (N + 1.0)
    too_far = NoRouteError(f"the branching route tabulates total photon counts up to "
                           f"{_BRANCHING_KMAX}, and n = {n}, N = {N:g} with theta up to "
                           f"{np.max(theta, initial=0.0):g} needs more")
    if (n * p + np.max(rates, initial=0.0)) / (1.0 - p) > _BRANCHING_KMAX:
        raise too_far
    kmax = np.array([dist.photon_number_law(n, r, p).hi for r in rates], dtype=np.intp)
    top = int(np.max(kmax, initial=0))
    if top > _BRANCHING_KMAX:
        raise too_far
    copy_n = [dist.photon_number_law(1, r, p) for r in rates]
    P = np.zeros((len(rates), max([top] + [law.hi for law in copy_n]) + 1))
    for row, law in zip(P, copy_n):
        row[law.lo:law.hi + 1] = law.pmf

    null_top = dist.photon_number_law(n, 0.0, p).hi
    log_dims = _log_harmonic_dims(max(top, null_top), n - 1)
    # the labels (l, l') with l' <= l, l-major: those with l <= k come first
    label_l, label_lp = np.tril_indices(max(top, null_top) + 1)
    # the test reads D only through its order, so the laws sit on the rank of
    # D among the labels' values: a span of O(K_max^2) atoms, not n K_max
    rank = np.unique(label_l * (label_l + n - 2) - label_lp * (label_lp + n - 3),
                     return_inverse=True)[1]

    def labels_to(k):
        return (k + 1) * (k + 2) // 2

    size = labels_to(null_top)
    null = dist.lattice_law(rank[:size], np.exp(
        n * np.log1p(-p) + xlogy(label_l[:size], p) + log_dims[label_lp[:size]]) / (1.0 - p * p))

    alt = np.zeros((len(rates), labels_to(top)))
    for K in range(top + 1):
        rows = np.flatnonzero(kmax >= K)
        for lp in np.flatnonzero(log_dims[:K + 1] > -np.inf):
            a = np.arange((K - lp) // 2 + 1)
            b = K - lp - 2 * a
            c, e = 2 * a * (2 * a + 2 * lp + n - 3), b * (b - 1)
            U = eigh_tridiagonal(K * (K + n - 2) - lp * (lp + n - 3) - (c + e),
                                 -np.sqrt(c[1:] * e[:-1]))[1]
            # copies 1..n-1: their thermal law times the block's multiplicity
            w = (np.exp((n - 1) * np.log1p(-p) + xlogy(K - b, p) + log_dims[lp])
                 * P[np.ix_(rows, b)])
            l = lp + (K - lp) % 2 + 2 * a
            alt[rows[:, None], l * (l + 1) // 2 + lp] += (w[:, :, None] * U ** 2).sum(axis=1)

    out = [dist.randomized_acceptance(
        null, dist.lattice_law(rank[:labels_to(k)], row[:labels_to(k)]), spec.alpha)
        for row, k in zip(alt, kmax)]
    return np.array(out, dtype=float).reshape(theta.shape)[()]


def si_type2(theta_norm, spec: TestSpec):
    """Type II error of the invariant test, from the route that covers ``spec``.

    The closed form at mixture 0, else the lattice law at n = 2, else the
    branching law, which raises NoRouteError past one mode (m >= 2 modes
    with n >= 3 copies and a mixture) or past its cost cap.  The shape rule
    of the routes holds.
    """
    if spec.mixture == 0.0:
        return si_type2_closed(theta_norm, spec)
    if spec.copies == 2:
        return si_type2_n2(theta_norm, spec.modes, spec.mixture, spec.alpha)
    return si_type2_branching(theta_norm, spec)


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

    Both curves come from one ``TestSpec(1, 3, 0, alpha)`` at eta = 0, so
    alpha must lie inside (0, 1).  Small displacements favor the invariant
    test (beta_si < beta_hh); the Hotelling curve eventually undercuts it
    because its tail decays exponentially in theta^2 while the invariant
    test's decays like theta^{-2}.  At alpha = 0.05 the second crossing sits
    near theta = 31, so grids must extend that far; missing witnesses are
    reported as None, never fabricated.
    """
    grid = np.asarray(theta_grid, dtype=float)
    spec = TestSpec(1, 3, 0.0, alpha)
    beta_si = si_type2_closed(grid, spec)
    signal = whitened_signal(grid[:, None], SqueezeParam.zero(1), 0.0)
    beta_hh = hh_type2_analytic(signal, spec)
    margin = 1e-12
    hits = [grid[(grid > 0) & mask]
            for mask in (beta_si < beta_hh - margin, beta_si > beta_hh + margin)]
    small, large = (float(h[0]) if h.size else None for h in hits)
    return CrossingResult(small, large, grid, beta_si, beta_hh)
