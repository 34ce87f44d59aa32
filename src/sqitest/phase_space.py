"""Classical phase-space layer for displaced, squeezed thermal bosonic states.

A state of m modes is parameterized by a complex displacement vector
``theta``, a squeezing parameter ``eta = (A, S)`` with A anti-hermitian and
S symmetric, and a thermal mixture value ``N >= 0``.  Heterodyne detection
of one copy yields a 2m-dimensional normal outcome with

    mean       mu    = G_eta @ (Re theta; Im theta)
    covariance sigma = (2N+1)/4 * G_eta @ G_eta.T + I/4

where ``G_eta`` is the real symplectic-like matrix built from the blocks of
eta.  This module provides those moments, the characteristic function of
the outcome law, a reproducible heterodyne sampler, and the signal-to-noise
quadratic form ``kappa = mu.T sigma^{-1} mu``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

# Tolerances for eta validation: small defects are repaired silently-ish
# (with a warning), anything worse is a hard error.
_REPAIR_TOL = 1e-9
_STRICT_TOL = 1e-12


def format_complex(z: complex) -> str:
    """Render a complex number as ``re+imi`` (e.g. ``1.5-0.25i``)."""
    z = complex(z)
    return f"{z.real:.17g}{z.imag:+.17g}i"


def parse_complex(token: str) -> complex:
    """Parse ``re+imi`` tokens; bare reals are accepted too."""
    token = token.strip()
    if token.endswith("i") or token.endswith("j"):
        return complex(token[:-1].replace("i", "j") + "j")
    return complex(float(token))


def _parse_kv_text(text: str, keys) -> dict:
    """Parse ``key = value`` lines; '#' starts a comment.

    Raises ValueError for a key not in ``keys`` and for a repeated key.
    """
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"unknown config key {key!r}; known keys: {' '.join(keys)}")
        if key in out:
            raise ValueError(f"duplicate config key {key!r}")
        out[key] = val
    return out


@dataclass(frozen=True)
class SqueezeParam:
    """Squeezing parameter: anti-hermitian block A and symmetric block S.

    The full parameter matrix is the 2m x 2m block matrix
    ``[[A, S], [conj(S), conj(A)]]``.
    """

    modes: int
    A: np.ndarray = field(repr=False)
    S: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = self.modes
        if m < 1:
            raise ValueError("modes must be >= 1")
        A = np.asarray(self.A, dtype=complex).reshape(m, m)
        S = np.asarray(self.S, dtype=complex).reshape(m, m)
        defect_a = np.max(np.abs(A + A.conj().T)) if m else 0.0
        defect_s = np.max(np.abs(S - S.T)) if m else 0.0
        if defect_a > _REPAIR_TOL or defect_s > _REPAIR_TOL:
            raise ValueError(
                f"malformed squeeze parameter: anti-hermiticity defect {defect_a:.3e}, "
                f"symmetry defect {defect_s:.3e}"
            )
        if defect_a > _STRICT_TOL or defect_s > _STRICT_TOL:
            warnings.warn(
                "squeeze parameter symmetrized (defect below repair tolerance)",
                stacklevel=2,
            )
        A = 0.5 * (A - A.conj().T)
        S = 0.5 * (S + S.T)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "S", S)

    @classmethod
    def zero(cls, modes: int = 1) -> "SqueezeParam":
        z = np.zeros((modes, modes), dtype=complex)
        return cls(modes, z, z)

    @classmethod
    def axis_family(cls, r: float, modes: int = 1) -> "SqueezeParam":
        """A = 0, S = log(r) * I: squeezes one quadrature by r, the other by 1/r."""
        if r <= 0:
            raise ValueError("r must be positive")
        return cls(
            modes,
            np.zeros((modes, modes), dtype=complex),
            np.log(r) * np.eye(modes, dtype=complex),
        )

    @cached_property
    def G(self) -> np.ndarray:
        """Real 2m x 2m matrix exp([[ReA+ReS, -ImA+ImS], [ImA+ImS, ReA-ReS]]).

        Computed once per squeeze parameter and read-only.
        """
        from scipy.linalg import expm

        ra, ia = self.A.real, self.A.imag
        rs, is_ = self.S.real, self.S.imag
        G = expm(np.block([[ra + rs, -ia + is_], [ia + is_, ra - rs]]))
        G.setflags(write=False)
        return G

    def to_text(self) -> str:
        rows = [f"m = {self.modes}"]
        for name, mat in (("A", self.A), ("S", self.S)):
            toks = " ".join(format_complex(z) for z in mat.ravel())
            rows.append(f"{name} = {toks}")
        return "\n".join(rows) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "SqueezeParam":
        keys = ("m", "A", "S")
        kv = _parse_kv_text(text, keys)
        missing = [key for key in keys if key not in kv]
        if missing:
            raise ValueError(f"squeeze parameter text lacks {' and '.join(missing)}")
        m = int(kv["m"])
        A = np.array([parse_complex(t) for t in kv["A"].split()]).reshape(m, m)
        S = np.array([parse_complex(t) for t in kv["S"].split()]).reshape(m, m)
        return cls(m, A, S)


@dataclass(frozen=True)
class GaussianSpec:
    """One copy of a displaced, squeezed thermal state."""

    modes: int
    theta: np.ndarray = field(repr=False)
    eta: SqueezeParam
    mixture: float = 0.0

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=complex)).reshape(self.modes)
        object.__setattr__(self, "theta", theta)
        if self.eta.modes != self.modes:
            raise ValueError("eta mode count does not match")
        if self.mixture < 0:
            raise ValueError("mixture must be >= 0")


@dataclass(frozen=True)
class PhaseSpaceMoments:
    """Mean vector and covariance of the heterodyne outcome distribution.

    Both checks allow a defect of 1e-12 times max(1, max |sigma|), because
    the entries of sigma grow like e^{2|S|} under squeezing.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        tol = _STRICT_TOL * max(1.0, np.max(np.abs(self.sigma)))
        sym = np.max(np.abs(self.sigma - self.sigma.T))
        if sym > tol:
            raise ValueError(f"sigma not symmetric (defect {sym:.3e})")
        dim = self.sigma.shape[0]
        floor = np.linalg.eigvalsh(self.sigma - np.eye(dim) / 4.0).min()
        if floor < -tol:
            raise ValueError("sigma - I/4 must be positive definite")


def real_parts(theta) -> np.ndarray:
    """Stack (Re theta; Im theta) into a real 2m-vector."""
    theta = np.atleast_1d(np.asarray(theta, dtype=complex))
    return np.concatenate([theta.real, theta.imag])


def moments(spec: GaussianSpec) -> PhaseSpaceMoments:
    """Heterodyne outcome mean and covariance of one copy."""
    G = spec.eta.G
    mu = G @ real_parts(spec.theta)
    sigma = (2.0 * spec.mixture + 1.0) / 4.0 * (G @ G.T) + np.eye(2 * spec.modes) / 4.0
    return PhaseSpaceMoments(mu, 0.5 * (sigma + sigma.T))


def fourier_wigner(spec: GaussianSpec, u, v) -> complex:
    """Characteristic function Tr[rho exp(-i w.r)] at w = (u; v).

    Equals exp(-w.T (sigma - I/4) w - i sqrt(2) w.T mu) with (mu, sigma) the
    heterodyne moments of ``moments``.
    """
    w = np.concatenate([np.atleast_1d(np.asarray(u, float)),
                        np.atleast_1d(np.asarray(v, float))])
    mom = moments(spec)
    quad = w @ (mom.sigma - np.eye(w.size) / 4.0) @ w
    return complex(np.exp(-quad - 1j * np.sqrt(2.0) * (w @ mom.mu)))


def rng_stream(seed, *path) -> np.random.Generator:
    """Counter-based generator for the stream (seed, *path).

    Streams are split by seeding a Philox engine with the integer tuple
    (seed, *path); distinct tuples give statistically independent streams,
    so experiments and replicates can be drawn in parallel reproducibly.
    """
    entries = (int(seed),) + tuple(int(p) for p in path)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entries)))


def heterodyne_sample(spec: GaussianSpec, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. heterodyne outcomes from ``rng``, shape (count, 2m).

    Deterministic for a fixed stream (see ``rng_stream``).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    mom = moments(spec)
    # sigma >= I/4; LinAlgError (a ValueError) once rounding breaks that, |S| >= 18
    L = np.linalg.cholesky(mom.sigma)
    z = rng.standard_normal((count, 2 * spec.modes))
    return mom.mu + z @ L.T


def kappa(theta, eta: SqueezeParam, mixture: float):
    """Signal-to-noise quadratic form mu.T sigma^{-1} mu (both from eta).

    ``theta`` has shape (..., m), one displacement per row (a scalar is one
    displacement of one mode), and the output has shape (...): a 0-d
    numpy float for one displacement.  sigma is formed and solved once for
    the whole stack, with mu = (Re theta; Im theta) G^T row by row.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=complex))
    if theta.shape[-1] != eta.modes:
        raise ValueError(f"theta must have shape (..., {eta.modes})")
    rows = theta.reshape(-1, eta.modes)
    sigma = moments(GaussianSpec(eta.modes, np.zeros(eta.modes), eta, mixture)).sigma
    mu = np.concatenate([rows.real, rows.imag], axis=1) @ eta.G.T
    out = np.einsum("ij,ji->i", mu, np.linalg.solve(sigma, mu.T))
    return out.reshape(theta.shape[:-1])[()]


def pooling_rotation_matrix(n: int) -> np.ndarray:
    """Orthogonal n x n matrix R with R @ ones(n) = sqrt(n) e_n.

    The Helmert matrix with its first row, ones(n)/sqrt(n), moved last; row
    k < n is (1, ..., 1, -k, 0, ..., 0)/sqrt(k(k+1)).  It pools the common
    signal of n copies into the last.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    from scipy.linalg import helmert
    return np.roll(helmert(n, full=True), -1, axis=0)
