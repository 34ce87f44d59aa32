"""Reference values computed apart from sqitest.

Nothing here imports the package under test.  Each function is a second
route to a number the program prints: scipy's own noncentral F, the closed
forms of the squeezing-invariant error at n = 2 and n = 3, and the
count-difference lattice law recovered by FFT from its characteristic
function.
"""

from __future__ import annotations

import numpy as np
from scipy import special, stats

# Squeeze factor r of G_eta along the displacement for each eta preset:
# the presets use S = I, so G = diag(e, 1/e) and a real (imaginary)
# displacement sees r = e (r = 1/e).
PRESET_SQUEEZE = {"eta0": 1.0, "etaL_real": np.e, "etaL_imag": np.exp(-1.0)}


def hh_beta(theta, r: float, mixture: float, copies: int, alpha: float) -> np.ndarray:
    """One-mode Hotelling type II error: scipy's noncentral F cdf at the F quantile.

    lambda = n * 4 r^2 theta^2 / ((2N+1) r^2 + 1) is the heterodyne
    signal-to-noise form of one mode squeezed by r along the displacement;
    the degrees of freedom are (2, n - 2).
    """
    theta = np.asarray(theta, dtype=float)
    mu, nu = 2, copies - 2
    crit = stats.f.ppf(1.0 - alpha, mu, nu)
    lam = copies * 4.0 * r * r * theta ** 2 / ((2.0 * mixture + 1.0) * r * r + 1.0)
    return stats.ncf.cdf(crit, mu, nu, lam)


def si_beta_pure_n3(theta, alpha: float) -> np.ndarray:
    """(1 - alpha) (1 - e^{-2z}) / (2z) with z = 3 theta^2; 1 - alpha at z = 0."""
    z = 3.0 * np.asarray(theta, dtype=float) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        ratio = np.where(z > 0, -np.expm1(-2.0 * z) / (2.0 * np.where(z > 0, z, 1.0)), 1.0)
    return (1.0 - alpha) * ratio


def si_beta_pure_n2(theta, alpha: float) -> np.ndarray:
    """(1 - alpha) e^{-2 theta^2} I_0(2 theta^2): P(Skellam(theta^2) = 0)."""
    return (1.0 - alpha) * special.ive(0, 2.0 * np.asarray(theta, dtype=float) ** 2)


def count_difference_pmf(modes: int, theta: float, mixture: float,
                         tail: float = 1e-17) -> tuple[np.ndarray, np.ndarray]:
    """Lattice law of the two-copy count difference by FFT of its cf.

    cf(r) = [g(r) g(-r)]^m psi(r) psi(-r), g(r) = 1/(N+1-N e^{ir}),
    psi(r) = exp[g(r)(e^{ir}-1) theta^2].  The grid doubles until the mass
    in the outer half of the period is below ``tail``, so aliasing is
    negligible.  Returns (values, pmf) on -M/2 .. M/2-1.
    """
    N, s2 = float(mixture), float(theta) ** 2
    M = 256
    while True:
        r = 2.0 * np.pi * np.arange(M) / M
        e = np.exp(1j * r)
        g, gm = 1.0 / (N + 1.0 - N * e), 1.0 / (N + 1.0 - N * e.conj())
        cf = (g * gm) ** modes * np.exp(s2 * (g * (e - 1.0) + gm * (e.conj() - 1.0)))
        pmf = np.fft.fft(cf).real / M
        ys = np.fft.fftfreq(M, 1.0 / M).astype(int)
        outer = np.abs(ys) >= M // 4
        if pmf[outer].sum() < tail or M >= 1 << 20:
            order = np.argsort(ys)
            return ys[order], np.clip(pmf[order], 0.0, None)
        M *= 2


def _squared_law(values: np.ndarray, pmf: np.ndarray) -> np.ndarray:
    """Masses of Y^2 at 0, 1, 4, 9, ... (index j holds P(|Y| = j))."""
    J = int(np.abs(values).max()) + 1
    masses = np.zeros(J)
    np.add.at(masses, np.abs(values), pmf)
    return masses


def si_beta_n2(theta: float, modes: int, mixture: float, alpha: float,
               exact_tol: float = 1e-12) -> float:
    """Two-copy invariant test error from the FFT lattice law.

    The randomized level equation 1 - alpha = (1-w) F0(s) + w F0(t) is
    solved on the null law of Y^2 and applied to the displaced law.
    """
    c0 = np.cumsum(_squared_law(*count_difference_pmf(modes, 0.0, mixture)))
    q1 = _squared_law(*count_difference_pmf(modes, theta, mixture))
    c1 = np.cumsum(np.pad(q1, (0, max(0, len(c0) - len(q1)))))
    target = 1.0 - alpha
    t = int(np.argmax(c0 >= target - exact_tol))
    if abs(c0[t] - target) <= exact_tol:
        return float(c1[t])
    f0s = c0[t - 1] if t > 0 else 0.0
    f1s = c1[t - 1] if t > 0 else 0.0
    w = (target - f0s) / (c0[t] - f0s)
    return float((1.0 - w) * f1s + w * c1[t])


def binomial_band(p: float, reps: int, points: int, miss: float = 1e-7
                  ) -> tuple[float, float]:
    """Acceptance-frequency band for a correct sampler.

    Exact binomial quantiles at two-sided level miss / points, so that the
    chance that any of ``points`` correct estimates falls outside its band
    is below ``miss``.
    """
    eps = miss / (2.0 * points)
    lo = stats.binom.ppf(eps, reps, p)
    hi = stats.binom.isf(eps, reps, p)
    return float(lo) / reps, float(hi) / reps
