"""Special distributions for the two displacement tests.

Continuous side: the noncentral F cdf as a Poisson-weighted incomplete
beta series, and the level-alpha critical point of the central F
distribution from the inverse incomplete beta function.  The cdf runs on a
Poisson-mixture engine that takes an array of noncentralities and returns
its shape.  The series gives the engine only its lambda-free factors, each
a function of k alone and falling in k, and a bound C x^k on them.  The
engine tables them in rows of k on a fixed grid, each k at most once per
pass over the summation windows; each lambda adds only its Poisson weights
over its own window, in rows of atoms on the same grid, and the engine
bounds the terms above it from those factors and the terms below it from
the Poisson weights' generating function.

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
from scipy.special import (beta, betainc, betaincc, betainccinv, betaincinv, gamma,
                           gammaln, hyp1f1, ive, pdtr, pdtrc)

# Poisson-mixture series (noncentral F): the bound on the dropped terms,
# relative to the running total, at which a side stops.
_TAIL_STOP = 1e-17
# Largest temporary of that series, in entries: the slots of one group of
# rows of atoms and the k-span of its table cache.
_GROUP_CAP = 2 ** 15
# Rows of that table cache, in k (_GROUP_CAP is a multiple of it).  The
# noncentral F cdf anchors its incomplete beta at each row's top, k = -1
# (mod this), and fills the row by a downward recurrence.
_ANCHOR_STEP = 512
# Width of the rows of atoms that cover the summation windows, in k
# (_ANCHOR_STEP is a multiple of it).
_ROW = 64
# Largest -log of a Poisson tail a window is widened for: e^-1500 times any
# float is 0.
_MAX_LOG_P = 1500.0
# Grid doublings tried by the characteristic-function inversion, and the
# largest change between two successive grids at which it has settled.
_CF_DOUBLINGS = 12
_CF_TOL = 1e-10
# Log of the factor by which a photon-number law's recurrence is rescaled:
# its first term starts at most this far below 1, and a term past its
# exponential is scaled down by it, so every term stays normal.
_LOG_RESCALE = 500.0
# Atom count at which a photon-number law is refused: its count-difference
# law convolves it with itself, in time quadratic in the count.
_MAX_ATOMS = 2 ** 17
# Mass at which a photon-number law's upper tail is cut.
_LAW_TOL = 1e-14
# Largest mass the CF inversion may leave beyond its support bound.
_MASS_TOL = 1e-8
# Largest distance from an integer at which a spectral value is read as it.
LATTICE_TOL = 1e-8
# A cumulative null mass within this of 1 - alpha is an exact hit of the level.
_EXACT_TOL = 1e-12
# |z| from which M(a, 2a, -2|z|) is the leading term of its large-argument
# expansion, in units of max(1, a|1-a|); the next term is a(1-a)/(2|z|) of it.
_KUMMER_FAR = 0.5e17


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
        if not abs(total - 1.0) <= 1e-12:
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
        """Characteristic function sum_y pmf(y) e^{iry}, in the shape of r."""
        r = np.asarray(r, dtype=float)
        return (np.exp(1j * np.multiply.outer(r, self.support)) @ self.pmf)[()]


def _check_photon_args(modes: float, rate: float, p: float) -> None:
    if not (modes >= 0 and rate >= 0 and 0.0 <= p < 1.0):  # NaN fails this too
        raise ValueError("need modes >= 0, rate >= 0 and p in [0, 1)")


def _count_difference_args(modes: int, s: float, mixture: float) -> tuple[float, float]:
    """(rate, p) of each photon count of the count-difference statistic."""
    if mixture < 0:
        raise ValueError("mixture must be >= 0")
    if modes < 1:
        raise ValueError("modes must be >= 1")
    N = float(mixture)
    return float(s) ** 2 / (N + 1.0), N / (N + 1.0)


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
    its rounding stops it with 1e-11 of mass still ahead.  The normalised
    atoms from 0 whose cumulative mass stays below _LAW_TOL join the tail
    too, so the law starts at lo >= 0 and holds only its core: at
    (1, 6e4, 1/3) 6 494 atoms from 86 781 on, not 93 275 from 0.  Where
    -log f(0) passes _LOG_RESCALE, so that f(0) could underflow, the
    recurrence runs on the terms times e^shift, shift = -log f(0) -
    _LOG_RESCALE; up to the mean it divides them by e^_LOG_RESCALE, and
    lowers shift by as much, whenever one passes e^_LOG_RESCALE, so every
    term stays normal.  The upper cut and its tail read the terms at that
    scale.  A law whose mean or
    cut reaches _MAX_ATOMS raises ValueError.
    """
    _check_photon_args(modes, rate, p)
    neg_log_f0 = rate - modes * np.log1p(-p)
    mean = (modes * p + rate) / (1 - p)
    too_many = f"photon-number law of mean {mean:.6g} needs more than {_MAX_ATOMS} atoms"
    if not mean < _MAX_ATOMS:
        raise ValueError(too_many)
    shift = max(0.0, neg_log_f0 - _LOG_RESCALE)
    big = float(np.exp(_LOG_RESCALE))
    f = float(np.exp(-min(neg_log_f0, _LOG_RESCALE)))
    pmf, x, a, b, rescaled_at = [f], 0, 0.0, 0.0, []
    # up to the mean: no cut, and every term stays below e^_LOG_RESCALE
    while x + 1 <= mean:
        a, b = f + p * a, f + p * (a + b)
        f, x = (modes * p * a + rate * (1 - p) * b) / (x + 1), x + 1
        if f > big:
            f, a, b, shift = f / big, a / big, b / big, shift - _LOG_RESCALE
            rescaled_at.append(len(pmf))
        pmf.append(f)
    # past the mean: cut where the bound on the rest falls below _LAW_TOL
    scale = float(np.exp(shift))
    cut = _LAW_TOL * scale
    while True:
        a, b = f + p * a, f + p * (a + b)
        prev, f, x = f, (modes * p * a + rate * (1 - p) * b) / (x + 1), x + 1
        ratio = max(f / prev, p)
        if ratio < 1.0 and f < cut * (1.0 - ratio):
            break
        if x >= _MAX_ATOMS:
            raise ValueError(too_many)
        pmf.append(f)
    out = np.array(pmf)
    for i in rescaled_at:
        out[:i] /= big
    tail = f / (1.0 - ratio) / scale
    pmf = out * (1.0 - tail) / out.sum()
    lo = int(np.searchsorted(np.cumsum(pmf), _LAW_TOL))
    return IntegerDistribution(lo, pmf[lo:], tail + float(pmf[:lo].sum()))


def count_difference_distribution(modes: int, displacement_norm: float,
                                  mixture: float) -> IntegerDistribution:
    """Lattice law of the count-difference statistic on two copies.

    Y = X - X' for two independent photon counts X, X' of one m-mode
    displaced thermal copy, each ``photon_number_law(m, s^2/(N+1), p)`` with
    p = N/(N+1): the self-convolution of that law's core, whose two cuts
    are the only truncation, so ``tail_mass`` is twice the photon law's.
    Exactly symmetric about 0.
    """
    x = photon_number_law(modes, *_count_difference_args(modes, displacement_norm, mixture))
    tail = min(1.0, 2.0 * x.tail_mass)
    pmf = np.convolve(x.pmf, x.pmf[::-1])
    pmf = pmf * (1.0 - tail) / pmf.sum()
    # enforce exact symmetry (the construction is symmetric; float error is not)
    pmf = 0.5 * (pmf + pmf[::-1])
    return IntegerDistribution(x.lo - x.hi, pmf, tail)


def photon_number_cf(modes: float, rate: float, p: float, r) -> np.ndarray:
    """Characteristic function of ``photon_number_law(modes, rate, p)``.

    Its pgf (1-p)^m (1-pz)^(-m) exp(rate (z-1)/(1-pz)) at z = e^{ir}; the
    output has the shape of r.  Its arguments are checked as the law's are.
    """
    _check_photon_args(modes, rate, p)
    z = np.exp(1j * np.asarray(r, dtype=float))
    return ((1.0 - p) / (1.0 - p * z)) ** modes * np.exp(rate * (z - 1.0) / (1.0 - p * z))


def count_difference_cf(modes: int, displacement_norm: float, mixture: float,
                        r) -> np.ndarray:
    """Characteristic function |phi(r)|^2 of X - X', phi that of one photon count."""
    rate, p = _count_difference_args(modes, displacement_norm, mixture)
    return np.abs(photon_number_cf(modes, rate, p, r)) ** 2


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
    # clipping drops each atom's negative noise but keeps its positive noise
    pmf /= max(1.0, pmf.sum())
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

    lambda is a float or an array of them; the cdf then returns a float or
    an array of lambda's shape.
    """

    mu_dof: int
    nu_dof: int
    noncentrality: float | np.ndarray = 0.0

    def __post_init__(self):
        if self.mu_dof < 1 or self.nu_dof < 1:
            raise ValueError("degrees of freedom must be >= 1")
        lam = np.asarray(self.noncentrality, dtype=float)
        # from lambda/2 = 2^53 on, consecutive Poisson indices k are not distinct floats
        if not np.all((lam >= 0.0) & (lam < 2.0 ** 54)):
            raise ValueError("noncentrality must be finite, >= 0 and below 2^54 (lambda/2 < 2^53)")


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
    lambda-free factors t_k on [k0, k1), called with k1 a multiple of
    _ANCHOR_STEP.  Returns each window's sum and t_k at its last k.  Every
    window is covered by rows of _ROW k on the absolute grid of k, with h
    broadcast over each row; a row's slots outside its window are computed
    but left out of its sum (``np.add.reduceat``), and each window adds its
    row sums in order, so no window's sum depends on another's.  The rows,
    in order of k, go in groups of at most _GROUP_CAP slots whose table rows
    span at most _GROUP_CAP k.  t_k and the k-only part c_k = -log sqrt(2 pi
    k) - (Stirling remainder of k) are kept in one cache that slides up with
    the groups: k below a group are dropped, and the rows of _ANCHOR_STEP k
    above the cache are built when a group first reaches them, so each k is
    tabled at most once per call.
    Every slot adds one deviance in the saddle-point form

        log w_k(h) = c_k - [k log1p((k - h)/h) - (k - h)],   log w_0(h) = -h,

    where no two large terms cancel: within five standard deviations of
    h = 5e5 it is good to about 4e-13 absolute, where k log(h) - log k!
    loses about 1e-9.
    """
    first = lo // _ROW
    count = (hi - 1) // _ROW - first + 1
    owner = np.repeat(np.arange(len(lo)), count)
    head = np.cumsum(count) - count
    row = first[owner] + np.arange(owner.size) - head[owner]
    order = np.argsort(row, kind="stable")
    owner, row = owner[order], row[order]
    # each row's slots in its window, [lo, hi) less the row's first k, in [0, _ROW]
    lo_off = np.clip(lo[owner] - row * _ROW, 0, _ROW)
    hi_off = np.clip(hi[owner] - row * _ROW, 0, _ROW)
    row_sums, t_last = np.empty(order.size), np.empty(len(lo))
    cols = np.arange(_ROW, dtype=float)
    per_row, most = _ANCHOR_STEP // _ROW, min(_GROUP_CAP // _ROW, order.size)
    # work rows of the groups; one slot past the last, as reduceat's last segment end
    k_buf, d_buf = np.empty((most, _ROW)), np.empty((most, _ROW))
    w_flat = np.zeros(most * _ROW + 1)
    base = end = start = 0
    t = c = np.empty(0)
    while start < order.size:
        k0 = row[start] * _ROW
        # rows whose table row ends within _GROUP_CAP of k0
        stop = min(int(np.searchsorted(row, (k0 + _GROUP_CAP) // _ANCHOR_STEP * per_row)),
                   start + most)
        k1 = -(-(row[stop - 1] + 1) // per_row) * _ANCHOR_STEP
        if k1 > end:  # keep the cache from k0 on and build the rows past it
            new = max(end, k0)
            ks = np.maximum(np.arange(new, k1, dtype=float), 1.0)
            t = np.concatenate([t[k0 - base:], table(new, k1)])
            c = np.concatenate([c[k0 - base:],
                                -0.5 * np.log(2.0 * np.pi * ks) - _stirling_remainder(ks)])
            base, end = k0, k1
        n, rows, who = stop - start, row[start:stop], owner[start:stop]
        at = rows - base // _ROW
        h = half[who][:, None]
        k = np.add((rows * _ROW).astype(float)[:, None], cols, out=k_buf[:n])
        zero = rows == 0  # the k = 0 atoms
        k[zero, 0] = 1.0
        w = w_flat[:n * _ROW].reshape(n, _ROW)
        with np.errstate(over="ignore"):  # a subnormal h: deviance inf, weight 0
            d = np.subtract(k, h, out=d_buf[:n])
            deviance = np.divide(d, h, out=w)
            np.log1p(deviance, out=deviance)
            deviance *= k
            deviance -= d
        log_w = np.take(c.reshape(-1, _ROW), at, axis=0, out=d)
        log_w -= deviance
        log_w[zero, 0] = -h[zero, 0]
        np.exp(log_w, out=w)
        t_rows = np.take(t.reshape(-1, _ROW), at, axis=0, out=k)
        w *= t_rows
        # each row's sum over its window's slots: the even segments
        edges = np.arange(0, n * _ROW, _ROW)
        cut = np.column_stack([edges + lo_off[start:stop], edges + hi_off[start:stop]])
        row_sums[start:stop] = np.add.reduceat(w_flat[:n * _ROW + 1], cut.ravel())[::2]
        tail = np.flatnonzero(hi_off[start:stop] + rows * _ROW == hi[who])
        t_last[who[tail]] = t_rows[tail, hi_off[start + tail] - 1]
        start = stop
    sums = np.empty(order.size)
    sums[order] = row_sums
    return np.add.reduceat(sums, head), t_last


def _poisson_edges(mean, log_p):
    """Window edges lo, hi around ``mean`` with P(K < lo) and P(K >= hi) below p.

    K is Poisson(mean) and L = -log p.  From P(K <= mean - s) <=
    exp(-s^2 / (2 mean)) and P(K >= mean + s) <= exp(-s^2 / (2 (mean + s/3)))
    (Chernoff bounds), lo = floor(mean - sqrt(2 mean L)), clipped at 0, and
    hi = ceil(mean + s) with s^2 = 2 L (mean + s/3).  L is taken in [0,
    _MAX_LOG_P]: p = 0 asks for a tail below the float range.
    """
    L = np.clip(-log_p, 0.0, _MAX_LOG_P)
    lo = np.floor(mean - np.sqrt(2.0 * mean * L)).astype(np.int64)
    hi = np.ceil(mean + L / 3.0 + np.sqrt(L * L / 9.0 + 2.0 * mean * L)).astype(np.int64)
    return np.maximum(lo, 0), hi


def _poisson_mixture(half, table, x: float, y: float, log_scale):
    """sum_k w_k(h) t_k for each Poisson mean h > 0 of the 1-D array ``half``.

    ``table(k0, k1)`` gives the lambda-free factors t_k >= 0 on [k0, k1),
    which fall as k grows.  It is asked for rows that end at a multiple of
    _ANCHOR_STEP, and must give each t_k as a function of k alone; then the
    sum for one h does not depend on the other h of the call, bit for bit.
    t_k <= C x^k for every k < lo, with x + y = 1 and log C =
    ``log_scale(lo)``.  Each h has a first window [lo, hi)
    (``_poisson_edges``) whose Poisson tails are below _TAIL_STOP, the lower
    one also below (2 pi h)^{-1/4}, the root of the mode's Poisson mass: a
    falling table weighs the terms below the mode more, and one pass then
    most often meets both bounds.  Since sum_k w_k(h) x^k = e^{-h y}
    sum_k w_k(h x), the whole series is at most C (e^{-h y} + x^hi) <=
    2 C e^{-h y} with C at lo = hi + 1 (hi >= h and -log x >= y); an h where
    that lies below the normal float range gets 0 with no window summed.
    The terms below a window that starts at lo > 0 add up to at most
    C e^{-h y} pdtr(lo - 1, h x), those above one that ends at hi - 1 to at
    most pdtrc(hi - 1, h) t_{hi-1}.  Each side whose bound exceeds
    _TAIL_STOP of the running total is widened, for those h alone, to where
    the Poisson tail in its bound is below what the total allows (by at
    least _ROW k), until k = 0 or the bound is met; there is no cap.
    """
    lo = _poisson_edges(half, np.log(_TAIL_STOP) - 0.25 * np.log(2.0 * np.pi * half))[0]
    hi = _poisson_edges(half, np.log(_TAIL_STOP))[1]
    # 0, with no window summed, where the whole-series bound is below the normal range
    up = np.log(2.0) + log_scale(hi + 1) - half * y >= np.log(np.finfo(float).tiny)
    total, t_hi = np.zeros(half.shape), np.zeros(half.shape)
    if up.any():
        total[up], t_hi[up] = _sum_windows(half[up], lo[up], hi[up], table)
    down = up & (lo > 0)
    while True:
        b, a = np.flatnonzero(down), np.flatnonzero(up)
        log_c = log_scale(lo[b]) - half[b] * y
        with np.errstate(divide="ignore"):  # in logs, C e^{-h y} neither overflows nor underflows
            log_t_hi = np.log(t_hi[a])
            log_below = np.log(pdtr(lo[b] - 1, half[b] * x)) + log_c
            log_above = np.log(pdtrc(hi[a] - 1, half[a])) + log_t_hi
        room = _TAIL_STOP * total  # a bound that underflows meets a total of 0
        with np.errstate(over="ignore"):  # an inf bound exceeds every room, as it should
            down[b], up[a] = np.exp(log_below) > room[b], np.exp(log_above) > room[a]
        keep_b, keep_a = down[b], up[a]
        b, a = b[keep_b], a[keep_a]
        if not b.size + a.size:
            return total
        with np.errstate(divide="ignore"):
            log_room = np.log(room)
        new_lo = _poisson_edges(half[b] * x, log_room[b] - log_c[keep_b])[0]
        new_lo = np.maximum(np.minimum(new_lo, lo[b] - _ROW), 0)
        new_hi = np.maximum(_poisson_edges(half[a], log_room[a] - log_t_hi[keep_a])[1],
                            hi[a] + _ROW)
        sums, edge_last = _sum_windows(
            np.concatenate([half[b], half[a]]), np.concatenate([new_lo, hi[a]]),
            np.concatenate([lo[b], new_hi]), table)
        total[b] += sums[:b.size]
        total[a] += sums[b.size:]
        lo[b], down[b] = new_lo, new_lo > 0
        hi[a], t_hi[a] = new_hi, edge_last[b.size:]


def noncentral_f_cdf(c: float, params: NoncentralFParams):
    """P(F <= c) = sum_k w_k I_x(k + mu/2, nu/2), x = mu c / (mu c + nu).

    w_k is the Poisson(lambda/2) pmf and I_x the regularized incomplete
    beta function, which falls as k grows (see ``_poisson_mixture``).  The
    table comes in rows of _ANCHOR_STEP k, each ending at a multiple of it
    (the first may start mid-row).  One incomplete-beta call at each row's
    top gives I_x there, and I_x(z, b) = I_x(z + 1, b) + x^z (1-x)^b /
    (z B(z, b)) (DLMF 8.17.20) adds positive terms downward from it, so
    each entry depends on k alone.  Where
    x > 1/2, I_x(z, b) is taken as the complement I^c_y(b, z) of
    y = 1 - x = nu / (mu c + nu), so 1 - x keeps its bits when c is large.
    Over the integral I_x(z, b) B(z, b) = int_0^x u^{z-1} (1-u)^{b-1} du,
    (1-u)^{b-1} is at most (1-x)^{b-1} for b <= 1 and at most 1 for b > 1,
    and Gamma(z + b) / Gamma(z) is at most z^b for b <= 1 (Wendel) and
    (z + b)^b always.  So for every k < lo, I_x(k + a, b) is at most
    x^{k+a} (1-x)^{b-1} a^{b-1} / Gamma(b) for b <= 1, and
    x^{k+a} (lo + a + b)^b / (a Gamma(b)) for b > 1.  At lambda = 0 the
    series is I_x(a, b) alone.  The output has the shape of lambda.
    """
    if np.isnan(c):
        raise ValueError("c must not be NaN")
    mu, nu, lam = params.mu_dof, params.nu_dof, params.noncentrality
    if c <= 0 or mu * c == np.inf:  # at mu c = inf, x would be inf/inf
        return np.full(np.shape(lam), float(c > 0))[()]
    a, b = mu / 2.0, nu / 2.0
    # x and y = 1 - x each formed directly, so neither loses its bits
    x, y = mu * c / (mu * c + nu), nu / (mu * c + nu)
    log_x, log_1mx = (np.log(x) if x <= y else np.log1p(-y)), np.log(y)

    def ibeta(z):  # I_x(z, b), evaluated through the smaller of x and y
        return betainc(z, b, x) if x <= y else betaincc(b, z, y)

    def table(k0, k1):  # I_x(k + a, b) on [k0, k1)
        z = np.arange(k0, k1) + a
        steps = np.exp(_log_beta_density(z, b, log_x, log_1mx) - np.log(z))
        pad = k0 % _ANCHOR_STEP  # k1 is a row top
        steps = np.concatenate([np.zeros(pad), steps]).reshape(-1, _ANCHOR_STEP)
        steps[:, -1] = 0.0  # each row's top is its anchor
        anchors = ibeta(z[_ANCHOR_STEP - 1 - pad::_ANCHOR_STEP])
        rows = np.cumsum(steps[:, ::-1], axis=1)[:, ::-1] + anchors[:, None]
        return rows.ravel()[pad:]

    def log_scale(lo):
        if b <= 1.0:
            return np.full(lo.shape, a * log_x + (b - 1.0) * (log_1mx + np.log(a)) - gammaln(b))
        return a * log_x + b * np.log(lo + a + b) - np.log(a) - gammaln(b)

    half = np.asarray(lam, dtype=float) / 2.0
    out = np.full(half.shape, ibeta(a))  # at lambda = 0 the series is its k = 0 term
    pos = half > 0.0
    out[pos] = _poisson_mixture(half[pos], table, x, y, log_scale)
    return np.minimum(out, 1.0)


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

    The integral is even in z, and the scaled value is B(a, 1/2) M(a, 2a,
    -2|z|) with a = (n-1)/2 and M Kummer's function (DLMF 10.32.2 with
    section 13.6, and Kummer's transformation in 13.2): one ``hyp1f1`` call.
    From |z| = _KUMMER_FAR max(1, a|1-a|) on, where scipy's ``hyp1f1``
    drifts, M is the leading term Gamma(2a)/Gamma(a) (2|z|)^{-a} of its
    large-argument expansion (DLMF 13.7), whose next term is below 1e-17 of
    it there.  z must be finite; the output has its shape.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    x = np.abs(np.asarray(z, dtype=float))
    if not np.all(np.isfinite(x)):
        raise ValueError("z must be finite")
    a = (n - 1) / 2.0
    far = x >= _KUMMER_FAR * max(1.0, a * abs(1.0 - a))
    scale, gamma_2a = beta(a, 0.5), gamma(2.0 * a)
    out = np.empty(x.shape)
    out[~far] = scale * hyp1f1(a, 2.0 * a, -2.0 * x[~far])
    if np.isinf(gamma_2a):  # from n = 172 on, where every far value is 0
        out[far] = 0.0
    else:
        # (2|z|)^-a = f^-a 2^(-p/2) with |z| = f 2^e and p = 2a(e + 1): 2|z|
        # overflows from 8.99e307, and an exp of the whole log loses 1e-13
        f, e = np.frexp(x[far])
        p = (n - 1) * (e + 1)
        out[far] = np.ldexp(scale * gamma_2a / gamma(a) * f ** -a
                            * np.where(p % 2, np.sqrt(0.5), 1.0), -(p // 2))
    return out[()]
