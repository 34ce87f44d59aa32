"""Special distributions for the two displacement tests.

Continuous side: the noncentral F density/cdf as a Poisson-weighted beta
series, and the level-alpha critical point of the central F distribution
from the inverse incomplete beta function.  Density and cdf share one
Poisson-mixture engine that takes an array of noncentralities and returns
its shape.  Each series gives the engine only its lambda-free factors, which
are tabled once per group of summation windows, and the k where they peak;
each lambda adds only its Poisson weights over its own window, and the
engine bounds the terms outside it from those two.

Discrete side: the lattice law of the photon count-difference statistic
observed on two copies of a displaced thermal state, X - X' for two
independent photon counts of one copy, each the negative binomial NB_m(p),
p = N/(N+1), convolved with a Polya-Aeppli law (a compound Poisson law of
rate s^2/(N+1) with geometric jumps, s the displacement norm).  That photon
law comes from one recurrence of positive terms (``photon_number_law``); its
characteristic function phi is its pgf on the unit circle
(``photon_number_cf``), and that of X - X' is |phi|^2.
Both routes are implemented and cross-checked; plain Fourier inversion on
the integer lattice serves as the bridge.  Integer spectra of the Fock oracle
are read as lattice laws too (``lattice_law``), and both invariant-test
routes end in the one randomized level test, ``randomized_acceptance``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import (beta, betainc, betaincc, betainccinv, betaincinv, gammaln,
                           hyp0f1, ive, pdtr, pdtrc)

# Poisson-mixture series (noncentral F): the bound on the dropped terms,
# relative to the running total, at which a side stops.
_TAIL_STOP = 1e-17
# Largest temporary of that series, in entries: the atoms of one group of
# windows and the k-span of its tables.
_GROUP_CAP = 2 ** 13
# Incomplete-beta anchors of the noncentral F cdf's table: one per this
# many atoms, the rest by a downward recurrence.
_ANCHOR_STEP = 512
# Grid doublings tried by the characteristic-function inversion, and the
# largest change between two successive grids at which it has settled.
_CF_DOUBLINGS = 12
_CF_TOL = 1e-10
# Largest -log f(0) of a photon-number law built in one recurrence: f(0)
# stays normal.
_LOG_F0_SPLIT = 500.0
# Mass at which a photon-number law's upper tail is cut.
_LAW_TOL = 1e-14
# Largest mass the CF inversion may leave beyond its support bound.
_MASS_TOL = 1e-8
# Largest distance from an integer at which a spectral value is read as it.
LATTICE_TOL = 1e-8
# A cumulative null mass within this of 1 - alpha is an exact hit of the level.
_EXACT_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Raised when a refinement loop ends without meeting its tolerance."""


# ---------------------------------------------------------------------------
# integer-lattice distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegerDistribution:
    """Finite-support pmf on a contiguous integer range, with tail bookkeeping.

    ``pmf[k]`` is the probability of ``lo + k``; ``tail_mass`` is the
    probability mass lost to truncation, so sum(pmf) + tail_mass == 1.
    """

    lo: int
    pmf: np.ndarray
    tail_mass: float = 0.0

    def __post_init__(self):
        pmf = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", pmf)
        if np.any(pmf < -1e-15):
            raise ValueError("pmf entries must be nonnegative")
        total = pmf.sum() + self.tail_mass
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"pmf plus tail mass must be 1, got {total!r}")

    @property
    def hi(self) -> int:
        return self.lo + len(self.pmf) - 1

    @property
    def support(self) -> np.ndarray:
        return np.arange(self.lo, self.hi + 1)

    def prob(self, y: int) -> float:
        if y < self.lo or y > self.hi:
            return 0.0
        return float(self.pmf[y - self.lo])

    def cdf(self, y: float) -> float:
        if y < self.lo:
            return 0.0
        k = min(int(np.floor(y)) - self.lo, len(self.pmf) - 1)
        # summed in order, so it equals np.cumsum of the pmf bit for bit
        return float(np.cumsum(self.pmf[: k + 1])[-1])

    def mean(self) -> float:
        return float(self.support @ self.pmf)

    def cf(self, r) -> np.ndarray:
        """Characteristic function sum_y pmf(y) e^{iry} (vectorized in r)."""
        r = np.atleast_1d(np.asarray(r, dtype=float))
        out = np.exp(1j * np.outer(r, self.support)) @ self.pmf
        return out if out.size > 1 else out[0]


def photon_number_law(modes: float, rate: float, p: float) -> IntegerDistribution:
    """NB(modes, p) convolved with the Polya-Aeppli law of rate ``rate``.

    The photon count of ``modes`` thermal modes of p = N/(N+1), displaced by
    total squared norm s^2 with rate = s^2/(N+1).  Its pgf G(z) =
    (1-p)^m (1-pz)^(-m) exp(rate ((1-p) z / (1-pz) - 1)) obeys
    G'/G = m p / (1-pz) + rate (1-p) / (1-pz)^2, so from
    f(0) = (1-p)^m e^{-rate}

        (x+1) f(x+1) = m p A(x) + rate (1-p) B(x),
        A(x) = f(x) + p A(x-1),   B(x) = f(x) + p (A(x-1) + B(x-1)),

    with A(x) = sum_j p^j f(x-j) and B(x) = sum_j (j+1) p^j f(x-j).  At rate
    0 this is the negative binomial, at p = 0 the Poisson law.  Every term
    is positive, so no step cancels: the three-term form of the same ODE,
    (1-pz)^2 G' = (m p (1-pz) + rate (1-p)) G, drifts by about 2e-17 x^2
    relative.  Past the mean the ratio of successive terms tends to p, so
    the mass from atom x on is f(x) / (1 - R), R = max(f(x)/f(x-1), p); the
    pmf is cut at the first such x where that is below _LAW_TOL, and that
    mass is the tail.  A running total cannot place the cut: at N = 1000
    its rounding stops it with 1e-11 of mass still ahead.  Where -log f(0)
    passes _LOG_F0_SPLIT, so that f(0) would underflow, the law is the
    convolution of equal parts of shape m/parts and rate rate/parts.
    """
    if modes < 0 or rate < 0 or not 0.0 <= p < 1.0:
        raise ValueError("need modes >= 0, rate >= 0 and p in [0, 1)")
    neg_log_f0 = rate - modes * np.log1p(-p)
    parts = max(1, int(np.ceil(neg_log_f0 / _LOG_F0_SPLIT)))
    m, lam, cut = modes / parts, rate / parts, _LAW_TOL / parts
    mean = (m * p + lam) / (1 - p)
    f = float(np.exp(-neg_log_f0 / parts))
    pmf, x, a, b = [f], 0, 0.0, 0.0
    while True:
        a, b = f + p * a, f + p * (a + b)
        prev, f, x = f, (m * p * a + lam * (1 - p) * b) / (x + 1), x + 1
        ratio = max(f / prev, p)
        if x > mean and ratio < 1.0 and f < cut * (1.0 - ratio):
            break
        pmf.append(f)
    one = out = np.array(pmf)
    for _ in range(parts - 1):
        out = np.convolve(out, one)
    tail = parts * f / (1.0 - ratio)
    return IntegerDistribution(0, out * (1.0 - tail) / out.sum(), tail)


def count_difference_distribution(modes: int, displacement_norm: float,
                                  mixture: float) -> IntegerDistribution:
    """Lattice law of the count-difference statistic on two copies.

    Y = X - X' for two independent photon counts X, X' of one m-mode
    displaced thermal copy, each ``photon_number_law(m, s^2/(N+1), p)`` with
    p = N/(N+1).  The wings below _LAW_TOL / 4 on either side are cut into
    ``tail_mass`` with the two photon laws' own cut.  Exactly symmetric
    about 0.
    """
    if mixture < 0:
        raise ValueError("mixture must be >= 0")
    if modes < 1:
        raise ValueError("modes must be >= 1")
    N = float(mixture)
    x = photon_number_law(modes, float(displacement_norm) ** 2 / (N + 1.0), N / (N + 1.0))
    tail = min(1.0, 2.0 * x.tail_mass)
    pmf = np.convolve(x.pmf, x.pmf[::-1])
    pmf = pmf * (1.0 - tail) / pmf.sum()
    # enforce exact symmetry (the construction is symmetric; float error is not)
    pmf = 0.5 * (pmf + pmf[::-1])
    cum = np.cumsum(pmf)
    cut = int(np.searchsorted(cum, _LAW_TOL / 4.0))
    trimmed = float(cum[cut - 1] + pmf[len(pmf) - cut:].sum()) if cut else 0.0
    return IntegerDistribution(cut - x.hi, pmf[cut: len(pmf) - cut], tail + trimmed)


def photon_number_cf(modes: float, rate: float, p: float, r) -> np.ndarray:
    """Characteristic function of ``photon_number_law(modes, rate, p)``.

    Its pgf (1-p)^m (1-pz)^(-m) exp(rate (z-1)/(1-pz)) at z = e^{ir}; the
    output has the shape of r.
    """
    z = np.exp(1j * np.asarray(r, dtype=float))
    return ((1.0 - p) / (1.0 - p * z)) ** modes * np.exp(rate * (z - 1.0) / (1.0 - p * z))


def count_difference_cf(modes: int, displacement_norm: float, mixture: float,
                        r) -> np.ndarray:
    """Characteristic function |phi(r)|^2 of X - X', phi that of one photon count."""
    N = float(mixture)
    rate = float(displacement_norm) ** 2 / (N + 1.0)
    return np.abs(photon_number_cf(modes, rate, N / (N + 1.0), r)) ** 2


def skellam_pmf(y: int, lam: float) -> float:
    """P(P1 - P2 = y) = e^{-2 lam} I_|y|(2 lam), P1, P2 ~ Poisson(lam) independent.

    The scaled Bessel function ``ive``; kept independent of the convolution
    construction so it can serve as its oracle.
    """
    return float(ive(abs(int(y)), 2.0 * lam))


def invert_integer_cf(cf, support_bound: int) -> IntegerDistribution:
    """Recover an integer-lattice pmf from its characteristic function.

    pmf(y) = (1/2pi) int_{-pi}^{pi} cf(r) e^{-iry} dr, trapezoid rule on a
    uniform grid with doubling until two successive grids agree to _CF_TOL;
    raises ConvergenceError if they never do within _CF_DOUBLINGS grids.
    Raises ValueError if mass beyond ``support_bound`` exceeds _MASS_TOL.
    """
    ys = np.arange(-support_bound, support_bound + 1)
    sign = 1.0 - 2.0 * (ys % 2)
    prev = None
    K = max(64, 4 * support_bound + 4)
    for _ in range(_CF_DOUBLINGS):
        r = -np.pi + 2.0 * np.pi * np.arange(K) / K
        vals = np.asarray(cf(r), dtype=complex)
        # e^{-i y r_j} = (-1)^y e^{-2 pi i y j / K}; K > 2S + 1 keeps y mod K distinct
        pmf = sign * np.fft.fft(vals)[ys % K].real / K
        if prev is not None and np.max(np.abs(pmf - prev)) < _CF_TOL:
            break
        prev = pmf
        K *= 2
    else:
        raise ConvergenceError(
            f"cf inversion did not settle to {_CF_TOL:g} in {_CF_DOUBLINGS} grids")
    pmf = np.clip(pmf, 0.0, None)
    missing = 1.0 - pmf.sum()
    if missing > _MASS_TOL:
        raise ValueError(
            f"support bound {support_bound} too small: unassigned mass {missing:.3e}"
        )
    return IntegerDistribution(-support_bound, pmf, max(0.0, missing))


def lattice_law(values, masses) -> IntegerDistribution:
    """Law of an observable with integer spectrum ``values`` and state masses ``masses``.

    The masses at each integer are added; ``tail_mass`` is 1 - sum(masses),
    the state's truncation loss.  Raises ValueError if a value lies more than
    LATTICE_TOL from an integer, so no spectrum is ever rounded silently.
    """
    values = np.asarray(values, dtype=float)
    ints = np.rint(values)
    off = float(np.max(np.abs(values - ints)))
    if off > LATTICE_TOL:
        raise ValueError(f"spectrum is not integer: a value lies {off:.3e} from the lattice")
    lo = int(ints.min())
    pmf = np.bincount((ints - lo).astype(np.intp), weights=masses)
    return IntegerDistribution(lo, pmf, 1.0 - float(np.sum(masses)))


def randomized_acceptance(null: IntegerDistribution, alt: IntegerDistribution,
                          alpha: float) -> float:
    """Acceptance probability under ``alt`` of the level-alpha randomized threshold test.

    The test accepts every outcome below t, and t itself with probability w:
    t is the smallest outcome with F_null(t) >= 1 - alpha, and w solves
    (1-w) F_null(t-1) + w F_null(t) = 1 - alpha, so 0 < w <= 1.  A
    cumulative null mass within _EXACT_TOL of 1 - alpha is an exact hit,
    which accepts up to t with no randomization.  Returns
    (1-w) F_alt(t-1) + w F_alt(t); raises ValueError if the null law's mass
    never reaches 1 - alpha.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    target = 1.0 - alpha
    cum = np.cumsum(null.pmf)
    k = int(np.searchsorted(cum, target - _EXACT_TOL))
    if k == len(cum):
        raise ValueError(
            "truncated null law carries too little mass to reach the level "
            f"(have {cum[-1]:.12f}, need {target:.12f})")
    t = null.lo + k
    if abs(cum[k] - target) <= _EXACT_TOL:
        return alt.cdf(t)
    prev = cum[k - 1] if k else 0.0
    w = (target - prev) / (cum[k] - prev)
    return (1.0 - w) * alt.cdf(t - 1) + w * alt.cdf(t)


def total_variation(a: IntegerDistribution, b: IntegerDistribution) -> float:
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    pa = np.zeros(hi - lo + 1)
    pb = np.zeros(hi - lo + 1)
    pa[a.lo - lo: a.lo - lo + len(a.pmf)] = a.pmf
    pb[b.lo - lo: b.lo - lo + len(b.pmf)] = b.pmf
    return 0.5 * float(np.abs(pa - pb).sum() + a.tail_mass + b.tail_mass)


# ---------------------------------------------------------------------------
# noncentral F distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoncentralFParams:
    """Degrees of freedom (mu, nu) and noncentrality lambda >= 0.

    lambda is a float or an array of them; the density and cdf then return
    a float or an array of lambda's shape.
    """

    mu_dof: int
    nu_dof: int
    noncentrality: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.mu_dof < 1 or self.nu_dof < 1:
            raise ValueError("degrees of freedom must be >= 1")
        lam = np.asarray(self.noncentrality, dtype=float)
        if not np.all((lam >= 0.0) & (lam < np.inf)):
            raise ValueError("noncentrality must be finite and >= 0")


def _stirling_remainder(z):
    """log Gamma(z) - (z - 1/2) log z + z - log sqrt(2 pi), for arrays z > 0.

    Four terms of its asymptotic series (DLMF 5.11.1) from z = 16 on, where
    the difference itself would cancel; the difference below.  Both are
    good to about 1e-14 absolute.
    """
    z = np.asarray(z, dtype=float)
    big = np.maximum(z, 16.0)
    r = 1.0 / (big * big)
    out = (1.0 / 12 - r * (1.0 / 360 - r * (1.0 / 1260 - r / 1680))) / big
    if np.any(z < 16.0):
        small = np.minimum(z, 16.0)
        direct = (gammaln(small) - (small - 0.5) * np.log(small) + small
                  - 0.5 * np.log(2.0 * np.pi))
        out = np.where(z < 16.0, direct, out)
    return out


def _log_beta_density(z, b: float, log_x: float, log_1mx: float):
    """log[x^z (1-x)^b / B(z, b)] for z, b > 0, without cancellation at large z.

    log Gamma(z + b) - log Gamma(z) is taken from Stirling's form, since the
    difference of two gammaln values near 1e6 loses 1e-9.
    """
    z = np.asarray(z, dtype=float)
    log_gamma_ratio = ((z - 0.5) * np.log1p(b / z) + b * np.log(z + b) - b
                       + _stirling_remainder(z + b) - _stirling_remainder(z))
    return log_gamma_ratio - gammaln(b) + z * log_x + b * log_1mx


def _sum_windows(half, lo, hi, table):
    """Sum w_k(h) t_k over k in [lo, hi) for each window (h, lo, hi).

    w_k(h) is the Poisson(h) pmf and ``table(k0, k1)`` gives the
    lambda-free factors t_k on [k0, k1).  Returns each window's sum and
    t_k at its first and at its last k.  Windows are cut into chunks of at
    most _GROUP_CAP atoms, and the chunks, in order of their first k, into
    groups whose atoms and k-span both stay within _GROUP_CAP, so no
    temporary is larger.  Per group, t_k and the k-only part
    c_k = -log sqrt(2 pi k) - (Stirling remainder of k) are built once over
    its span, and every atom adds one deviance in the saddle-point form

        log w_k(h) = c_k - [k log1p((k - h)/h) - (k - h)],   log w_0(h) = -h,

    where no two large terms cancel: within five standard deviations of
    h = 5e5 it is good to about 4e-13 absolute, where k log(h) - log k!
    loses about 1e-9.  The atoms of a group form one flat ragged array,
    summed per chunk by ``np.add.reduceat``.
    """
    count = -(-(hi - lo) // _GROUP_CAP)
    owner = np.repeat(np.arange(len(lo)), count)
    head = np.cumsum(count) - count
    c_lo = lo[owner] + _GROUP_CAP * (np.arange(owner.size) - head[owner])
    c_hi = np.minimum(c_lo + _GROUP_CAP, hi[owner])
    sums, t_first, t_last = (np.empty(owner.size) for _ in range(3))
    order = np.argsort(c_lo, kind="stable")
    start = 0
    while start < order.size:
        k0, atoms, k1 = c_lo[order[start]], 0, 0
        stop = start
        while stop < order.size:
            j = order[stop]
            if atoms + c_hi[j] - c_lo[j] > _GROUP_CAP or c_hi[j] - k0 > _GROUP_CAP:
                break
            atoms, k1, stop = atoms + c_hi[j] - c_lo[j], max(k1, c_hi[j]), stop + 1
        group, start = order[start:stop], stop
        t = table(k0, k1)
        ks = np.maximum(np.arange(k0, k1, dtype=float), 1.0)
        c = -0.5 * np.log(2.0 * np.pi * ks) - _stirling_remainder(ks)
        size = c_hi[group] - c_lo[group]
        offset = np.cumsum(size) - size
        at = np.arange(atoms) + np.repeat(c_lo[group] - k0 - offset, size)
        k, h = ks[at], np.repeat(half[owner[group]], size)
        with np.errstate(over="ignore"):  # a subnormal h: deviance inf, weight 0
            deviance = k * np.log1p((k - h) / h) - (k - h)
        log_w = np.where(at + k0 == 0, -h, c[at] - deviance)
        sums[group] = np.add.reduceat(np.exp(log_w) * t[at], offset)
        t_first[group], t_last[group] = t[at[offset]], t[at[offset + size - 1]]
    return np.add.reduceat(sums, head), t_first[head], t_last[head + count - 1]


def _poisson_mixture(half, table, peak: int):
    """sum_k w_k(h) t_k for each Poisson mean h > 0 of the 1-D array ``half``.

    ``table(k0, k1)`` gives the lambda-free factors t_k >= 0 on [k0, k1),
    which rise up to k = ``peak`` and fall after it.  Every h sums one
    window of k around its mode floor(h), first [mode - B, mode + B) with
    B = 64 + 10 sqrt(h).  The terms below a window that starts at lo > 0
    add up to at most pdtr(lo - 1, h) times t_lo (lo <= peak) or t_peak,
    those above one that ends at hi - 1 to at most pdtrc(hi - 1, h) times
    t_{hi-1} (hi - 1 >= peak) or t_peak.  Each side whose bound exceeds
    _TAIL_STOP of the running total is widened by B, for those h alone,
    until k = 0 or its bound is at most that; there is no cap.
    """
    mode = np.floor(half).astype(np.int64)
    block = 64 + np.floor(10.0 * np.sqrt(half)).astype(np.int64)
    lo, hi = np.maximum(mode - block, 0), mode + block
    total, t_lo, t_hi = _sum_windows(half, lo, hi, table)
    t_peak = table(peak, peak + 1)[0]
    down, up = lo > 0, np.ones(half.shape, dtype=bool)
    while True:
        b, a = np.flatnonzero(down), np.flatnonzero(up)
        below = pdtr(lo[b] - 1, half[b]) * np.where(lo[b] <= peak, t_lo[b], t_peak)
        above = pdtrc(hi[a] - 1, half[a]) * np.where(hi[a] - 1 >= peak, t_hi[a], t_peak)
        down[b], up[a] = below > _TAIL_STOP * total[b], above > _TAIL_STOP * total[a]
        b, a = np.flatnonzero(down), np.flatnonzero(up)
        if not b.size + a.size:
            return total
        new_lo = np.maximum(lo[b] - block[b], 0)
        sums, edge_first, edge_last = _sum_windows(
            np.concatenate([half[b], half[a]]), np.concatenate([new_lo, hi[a]]),
            np.concatenate([lo[b], hi[a] + block[a]]), table)
        total[b] += sums[:b.size]
        total[a] += sums[b.size:]
        lo[b], t_lo[b], down[b] = new_lo, edge_first[:b.size], new_lo > 0
        hi[a] += block[a]
        t_hi[a] = edge_last[b.size:]


def _mixture_at(lam, table, peak: int):
    """The series at every noncentrality of ``lam``, in its shape.

    At lambda = 0 the series is its k = 0 term alone.  A 0-d ``lam`` gives
    a numpy float.
    """
    lam = np.asarray(lam, dtype=float)
    half = lam.ravel() / 2.0
    pos = half > 0.0
    out = np.empty(half.shape)
    if not pos.all():
        out[~pos] = table(0, 1)[0]
    if pos.any():
        out[pos] = _poisson_mixture(half[pos], table, peak)
    return out.reshape(lam.shape)[()]


def _beta_argument(mu: int, nu: int, f: float):
    """x = mu f / (mu f + nu), y = 1 - x, log x and log y, with x and y each
    formed directly, so neither loses its bits, and log x through the smaller."""
    x, y = mu * f / (mu * f + nu), nu / (mu * f + nu)
    return x, y, (np.log(x) if x <= y else np.log1p(-y)), np.log(y)


def noncentral_f_pdf(f: float, params: NoncentralFParams):
    """Density sum_k w_k x^{k+mu/2} (1-x)^{nu/2} / (B(k+mu/2, nu/2) f).

    Here x = mu f / (mu f + nu) and w_k is the Poisson(lambda/2) pmf.  The
    factor t_k after w_k has ratio t_{k+1}/t_k = x (k + a + b)/(k + a),
    a = mu/2, b = nu/2, which is at least 1 while k + a <= b x/(1 - x) =
    b mu f / nu, so t_k peaks at k* = max(0, floor(b mu f / nu - a) + 1)
    (see ``_poisson_mixture``).  The output has the shape of lambda.
    """
    if f <= 0:
        raise ValueError("f must be positive")
    mu, nu, lam = params.mu_dof, params.nu_dof, params.noncentrality
    if mu * f == np.inf:  # x would be inf/inf; the density vanishes there
        return np.zeros(np.shape(lam))[()]
    a, b = mu / 2.0, nu / 2.0
    _, _, log_x, log_1mx = _beta_argument(mu, nu, f)
    log_f = np.log(f)

    def table(k0, k1):  # k0 + a in float: the peak of a huge f is past the int64 range
        z = np.arange(k1 - k0) + (k0 + a)
        return np.exp(_log_beta_density(z, b, log_x, log_1mx) - log_f)

    return _mixture_at(lam, table, int(max(np.floor(mu * f / nu * b - a) + 1.0, 0.0)))


def noncentral_f_cdf(c: float, params: NoncentralFParams):
    """P(F <= c) = sum_k w_k I_x(k + mu/2, nu/2), x = mu c / (mu c + nu).

    w_k is the Poisson(lambda/2) pmf and I_x the regularized incomplete
    beta function, which falls as k grows, so its table peaks at k = 0 (see
    ``_poisson_mixture``).  Over a table's span, one incomplete-beta call
    at each top of _ANCHOR_STEP atoms gives I_x there, and I_x(z, b) =
    I_x(z + 1, b) + x^z (1-x)^b / (z B(z, b)) (DLMF 8.17.20) adds positive
    terms downward from it.  Where x > 1/2, I_x(z, b) is taken as the
    complement I^c_y(b, z) of y = 1 - x = nu / (mu c + nu), so 1 - x keeps
    its bits when c is large.  The output has the shape of lambda.
    """
    mu, nu, lam = params.mu_dof, params.nu_dof, params.noncentrality
    if c <= 0 or mu * c == np.inf:  # at mu c = inf, x would be inf/inf
        return np.full(np.shape(lam), float(c > 0))[()]
    a, b = mu / 2.0, nu / 2.0
    x, y, log_x, log_1mx = _beta_argument(mu, nu, c)

    def ibeta(z):  # I_x(z, b), evaluated through the smaller of x and y
        return betainc(z, b, x) if x <= y else betaincc(b, z, y)

    def table(k0, k1):  # I_x(k + a, b) on [k0, k1)
        z = np.arange(k0, k1) + a
        if z.size == 1:  # its own anchor, as at lambda = 0 and at the peak
            return ibeta(z)
        steps = np.exp(_log_beta_density(z, b, log_x, log_1mx) - np.log(z))
        pad = -z.size % _ANCHOR_STEP
        steps = np.concatenate([np.zeros(pad), steps]).reshape(-1, _ANCHOR_STEP)
        steps[:, -1] = 0.0  # each row's top is its anchor
        anchors = ibeta(z[_ANCHOR_STEP - 1 - pad::_ANCHOR_STEP])
        rows = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1] + anchors[:, None]
        return rows.ravel()[pad:]

    return np.minimum(_mixture_at(lam, table, 0), 1.0)


def critical_point(alpha: float, mu: int, nu: int) -> float:
    """The c with P(central F > c) = alpha, in closed form.

    P(F > c) = I_y(nu/2, mu/2) with y = nu / (mu c + nu), so y is the inverse
    regularized incomplete beta function at alpha and c = nu (1 - y) / (mu y),
    with 1 - y taken from the complementary inverse of I_{1-y}(mu/2, nu/2)
    = 1 - alpha.  No step forms 1 - alpha, so small alpha keeps its bits.
    alpha in (0, 1) strictly: alpha = 0 has no finite critical point (the
    resulting acceptance rule is trivial) and alpha = 1 degenerates to 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie strictly between 0 and 1")
    y = betaincinv(nu / 2.0, mu / 2.0, alpha)
    if not y > np.finfo(float).tiny:  # scipy clamps a y below the normal range
        raise ValueError(f"the level-{alpha:g} critical point of F({mu}, {nu}) "
                         "exceeds the float range")
    c = float(nu * betainccinv(mu / 2.0, nu / 2.0, alpha) / (mu * y))
    if abs(noncentral_f_cdf(c, NoncentralFParams(mu, nu, 0.0)) - (1.0 - alpha)) > 1e-10:
        raise ValueError(f"the critical point of F({mu}, {nu}) misses level {alpha:g}")
    return c


def exp_cos_integral_scaled(z, n: int):
    """e^{-|z|} int_0^pi e^{z cos phi} sin^{n-2} phi dphi, overflow-free.

    The integral is even in z and equals sqrt(pi) Gamma(nu + 1/2)
    (2/|z|)^nu I_nu(|z|) with nu = (n-2)/2 (DLMF 10.32.2), so the scaled
    value is that expression with the exponentially scaled Bessel function
    ive, evaluated in logarithms.  Where ive underflows (z = 0, or |z|
    small against nu) the series form B((n-1)/2, 1/2) e^{-|z|}
    0F1(; nu + 1; z^2/4) takes over; it is evaluated only there, since
    scipy's 0F1 breaks down at large z.  The output has the shape of z.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    x = np.abs(np.asarray(z, dtype=float))
    nu = (n - 2) / 2.0
    bessel = ive(nu, x)
    low = (x == 0.0) | (bessel < np.finfo(float).tiny)
    xl, xh = x[low], x[~low]
    out = np.empty(x.shape)
    series = np.exp(-xl) * hyp0f1(nu + 1.0, xl * xl / 4.0)
    out[low] = beta((n - 1) / 2.0, 0.5) * series
    out[~low] = np.exp(0.5 * np.log(np.pi) + gammaln(nu + 0.5)
                       + nu * np.log(2.0 / xh) + np.log(bessel[~low]))
    return out[()]
