"""Classical phase-space layer for displaced, squeezed thermal bosonic states.

A state of m modes is parameterized by a complex displacement vector
``theta``, a squeezing parameter ``eta = (A, S)`` with A anti-hermitian and
S symmetric, and a thermal mixture value ``N >= 0``.  Heterodyne detection
of one copy yields a 2m-dimensional normal outcome with

    mean       mu    = G_eta @ (Re theta; Im theta)
    covariance sigma = (2N+1)/4 * G_eta @ G_eta.T + I/4

where ``G_eta`` is the real symplectic matrix built from the blocks of eta.
One SVD of G_eta (``_singular_frame``, which also checks the inputs, for one
theta or a stack) makes both diagonal scalings in one frame.  ``moments``,
the heterodyne sampler mu + sigma^{1/2} z (one theta) and the whitened mean
sigma^{-1/2} mu read from it; the last is the input of both Hotelling
routes, and its squared norm is ``kappa = mu.T sigma^{-1} mu``.
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
        if not np.all(np.isfinite([A, S])):  # NaN would pass every defect comparison
            raise ValueError("squeeze parameter entries must be finite")
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

    def __getstate__(self):
        """Copy and pickle without the cached G: a copy rebuilds it read-only."""
        return {k: v for k, v in self.__dict__.items() if k != "G"}

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


def _singular_frame(theta, eta: SqueezeParam, mixture: float):
    """(y, s, d, U): G = U diag(s) V', y = V'(Re theta; Im theta); checks as ``moments``.

    G is symplectic, so its m smallest singular values are the reciprocals
    of the m largest, which keep the digits expm loses in the small ones.
    mu = U (s y) and sigma = U diag(d) U', d = ((2N+1) s^2 + 1)/4 >= 1/4.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=complex))
    if theta.shape[-1] != eta.modes:
        raise ValueError(f"theta must have shape (..., {eta.modes})")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta must be finite")
    if not 0.0 <= mixture < np.inf:
        raise ValueError("mixture must be finite and >= 0")
    U, s, Vt = np.linalg.svd(eta.G)
    s[eta.modes:] = 1.0 / s[eta.modes - 1::-1]
    y = (Vt @ np.concatenate([theta.real, theta.imag], axis=-1)[..., None])[..., 0]
    return y, s, ((2.0 * mixture + 1.0) * s * s + 1.0) / 4.0, U


def moments(theta, eta: SqueezeParam, mixture: float):
    """Heterodyne outcome mean mu, shape (..., 2m), and covariance sigma, (2m, 2m).

    ``theta`` (..., m) must be finite, a scalar being one displacement of one
    mode, and 0 <= N < inf; both come from one SVD of G (``_singular_frame``).
    """
    y, s, d, U = _singular_frame(theta, eta, mixture)
    sigma = (U * d) @ U.T
    return (U @ (s * y)[..., None])[..., 0], 0.5 * (sigma + sigma.T)


def rng_stream(seed, *path) -> np.random.Generator:
    """Counter-based generator for the stream (seed, *path).

    A Philox engine seeded by SeedSequence(seed, spawn_key=path); entropy
    (seed, *path) would be zero-padded, making (seed,) and (seed, 0) one
    stream.  Distinct tuples give independent, reproducible streams.
    """
    seq = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))


def heterodyne_sample(theta, eta: SqueezeParam, mixture: float, count: int,
                      rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. heterodyne outcomes of one theta from ``rng``, shape (count, 2m).

    mu + sigma^{1/2} z for standard normals z, deterministic for a fixed
    stream (see ``rng_stream``).
    """
    if np.ndim(theta) > 1:
        raise ValueError("heterodyne_sample takes one theta, not a stack")
    if count < 1:
        raise ValueError("count must be >= 1")
    y, s, d, U = _singular_frame(theta, eta, mixture)
    z = rng.standard_normal((count, 2 * eta.modes))
    return (s * y + np.sqrt(d) * (z @ U)) @ U.T


def whitened_signal(theta, eta: SqueezeParam, mixture: float) -> np.ndarray:
    """Whitened heterodyne mean sigma^{-1/2} mu (symmetric root), of shape (..., 2m).

    ``theta`` follows ``moments``; U diag(s / sqrt(d)) y in the singular frame.
    """
    y, s, d, U = _singular_frame(theta, eta, mixture)
    return (U @ (s * y / np.sqrt(d))[..., None])[..., 0]


def kappa(theta, eta: SqueezeParam, mixture: float):
    """|whitened_signal|^2 = mu' sigma^{-1} mu, of shape (...): a numpy float for one theta."""
    return np.sum(whitened_signal(theta, eta, mixture) ** 2, axis=-1)[()]


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
