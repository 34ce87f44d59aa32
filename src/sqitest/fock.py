"""Truncated Fock-space oracle for m modes x n copies.

Everything here is brute force on a dense or sparse cutoff basis.
Operators are built literally from annihilation matrices; unitaries are
matrix exponentials of explicitly constructed quadratic generators.  The
point of this module is to be an independent check for every closed form
in the package, so nothing clever is assumed: no identity is used that the
truncated matrices do not satisfy themselves.

Index conventions: copy indices j, k run 1..n and mode indices i run 1..m
(matching the tensor order copy 1 modes, copy 2 modes, ...); flattened
slot s = (j-1)*m + (i-1) is the position in the tensor product, first
factor most significant.  This copy-major order is written only in
``_slot_values`` (an m x n displacement matrix to per-slot values) and in
the Kronecker products that lift copy-space and mode-space matrices to
slot matrices: B (x) I_m for copy mixing, I_n (x) A and I_n (x) S for
squeezing.

Generators: every quadratic generator is one call of
``_quadratic_generator(config, H, K)``, the form
sum H[s,t] a*_s a_t + K[s,t]/2 a*_s a*_t - conj(K[s,t])/2 a_s a_t over slot
pairs, built from the slot lowering matrices of one occupation table.

Basis: the occupation tuples whose per-mode photon totals over the n
copies are all <= d-1, in lexicographic order (vacuum first);
``occupations`` lists the C(d-1+n, n)^m of them, and the budget caps that
count.  Lowering never leaves the basis and raising is clipped, so each
quadratic generator is the exact one compressed to the basis.  The
copy-mixing generators keep every per-mode total, so the basis is a sum of
whole photon sectors (one per tuple of totals) on which the group laws,
the Casimir identities and the commutation with squeezing hold exactly,
and every defect spectrum is integer.  States report their truncation
loss (1 - trace).

``si_type2_fock`` works sector by sector, with one route for pure and
mixed states alike: the blocks of the sparse Casimir form of the defect
observable (``casimir_defect``, no exponential) are cut out with a check
that no entry couples two sectors, each block is eigendecomposed once, and
each product state enters only through its sector blocks, formed from its
single-mode factors.  The dense whole-space operators, among them the
exponential-built ``rotation_defect_observable``, stay as the references
the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from math import comb

import numpy as np
from scipy import sparse
from scipy.linalg import expm, eigh
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln, xlogy

from . import distributions as dist
from .phase_space import SqueezeParam, pooling_rotation_matrix

_HERM_TOL = 1e-10
# Largest basis dimension; the box d^(m*n) the basis lies in must also keep
# its codes in int64.
_BUDGET = 2 ** 20
# Largest dimension of a dense whole-space operator or state.
_DENSE_LIMIT = 4096


class BudgetExceeded(ValueError):
    """Raised when the basis exceeds _BUDGET or a dense build exceeds _DENSE_LIMIT."""


@dataclass(frozen=True)
class FockConfig:
    """Mode count, copy count and per-mode cutoff of a truncated space."""

    modes: int
    copies: int
    cutoff: int

    def __post_init__(self):
        if self.modes < 1 or self.copies < 1:
            raise ValueError("modes and copies must be >= 1")
        if self.cutoff < 2:
            raise ValueError("cutoff must be >= 2")
        if self.dim > _BUDGET or self.cutoff ** self.slots >= 2 ** 63:
            raise BudgetExceeded(f"basis of {self.dim} states (box {self.cutoff}^"
                                 f"{self.slots}) exceeds the budget of {_BUDGET} "
                                 f"states or of int64 box codes")

    @property
    def slots(self) -> int:
        return self.modes * self.copies

    @property
    def dim(self) -> int:
        return comb(self.cutoff - 1 + self.copies, self.copies) ** self.modes


@dataclass(frozen=True)
class TruncatedOperator:
    config: FockConfig
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.config.dim, self.config.dim):
            raise ValueError("entry matrix side must equal the configured dimension")
        object.__setattr__(self, "entries", entries)

    def unitarity_defect(self) -> float:
        g = self.entries.conj().T @ self.entries - np.eye(self.config.dim)
        return float(np.max(np.abs(g)))


@dataclass(frozen=True)
class TruncatedState:
    config: FockConfig
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.config.dim, self.config.dim):
            raise ValueError("entry matrix side must equal the configured dimension")
        _check_hermitian(entries, "density matrix")
        object.__setattr__(self, "entries", entries)

    @property
    def trunc_loss(self) -> float:
        """Probability mass lost to the cutoff: 1 - trace."""
        return float(1.0 - np.real(np.trace(self.entries)))


def _check_hermitian(entries: np.ndarray, what: str):
    defect = float(np.max(np.abs(entries - entries.conj().T)))
    if defect > _HERM_TOL:
        raise ValueError(f"{what} must be hermitian (defect {defect:.3e})")


def _require_dense(config: FockConfig):
    if config.dim > _DENSE_LIMIT:
        raise BudgetExceeded(
            f"dense construction at dimension {config.dim} exceeds the "
            f"dense limit {_DENSE_LIMIT}; use the vector/sparse interfaces"
        )


# ---------------------------------------------------------------------------
# occupation bookkeeping
# ---------------------------------------------------------------------------

def occupations(config: FockConfig) -> np.ndarray:
    """(dim, slots) table of the basis: per-slot occupations, one row per state.

    Rows are the occupation tuples whose per-mode totals over the copies
    are all <= cutoff - 1, in lexicographic order.  Built slot by slot:
    each row is extended by every occupation its mode's running total
    leaves room for, which keeps the order.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    for s in range(config.slots):
        room = config.cutoff - rows[:, s % config.modes::config.modes].sum(axis=1)
        start = np.repeat(np.cumsum(room) - room, room)
        rows = np.column_stack([np.repeat(rows, room, axis=0),
                                np.arange(room.sum()) - start])
    return rows


def interior_mask(config: FockConfig, margin: int) -> np.ndarray:
    """Basis states with every occupation <= cutoff - 1 - margin."""
    return occupations(config).max(axis=1) <= config.cutoff - 1 - margin


def photon_sectors(config: FockConfig) -> list:
    """Basis indices grouped by the tuple of per-mode photon totals.

    The total of mode i is the sum of its occupations over the copies.
    Sectors come in lexicographic order of their totals, indices ascending
    within each.
    """
    occ = occupations(config).reshape(config.dim, config.copies, config.modes)
    key = np.ravel_multi_index(occ.sum(axis=1).T, (config.cutoff,) * config.modes)
    order = np.argsort(key, kind="stable")
    return np.split(order, np.nonzero(np.diff(key[order]))[0] + 1)


def sector_blocks(op, sectors: list) -> list:
    """Sparse diagonal blocks op[idx, idx], one per sector of a partition.

    Raises ValueError if a nonzero entry of ``op`` couples two sectors, so
    the blocks are exact restrictions of ``op`` and never an approximation.
    """
    label = np.empty(op.shape[0], dtype=np.intp)
    for s, idx in enumerate(sectors):
        label[idx] = s
    coo = sparse.coo_matrix(op)
    nonzero = coo.data != 0
    if np.any(label[coo.row[nonzero]] != label[coo.col[nonzero]]):
        raise ValueError("operator couples different photon sectors (not passive)")
    op = sparse.csr_matrix(op)
    return [op[idx][:, idx] for idx in sectors]


# ---------------------------------------------------------------------------
# elementary operators and states
# ---------------------------------------------------------------------------

def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix: (k, k+1) entry sqrt(k+1)."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)


def coherent_vector(theta: complex, cutoff: int) -> np.ndarray:
    """Cutoff expansion e^{-|theta|^2/2} sum_k theta^k/sqrt(k!) over k < cutoff."""
    k = np.arange(cutoff)
    r2 = abs(theta) ** 2
    return np.exp(0.5 * (xlogy(k, r2) - r2 - gammaln(k + 1.0)) + 1j * k * np.angle(theta))


def _slot_values(config: FockConfig, Z) -> np.ndarray:
    """Per-slot values in copy-major order: Z[i, j] for mode i of copy j.

    ``Z`` may also be an m-vector (the same column for every copy) or a
    scalar (the same value in every slot).
    """
    Z = np.asarray(Z, dtype=complex)
    if Z.ndim < 2:
        Z = np.broadcast_to(Z.reshape(-1, 1), (config.modes, config.copies))
    return Z.reshape(config.modes, config.copies).T.ravel()


def coherent_product_vector(config: FockConfig, Z) -> np.ndarray:
    """Product coherent vector for the displacements Z (as in ``_slot_values``)."""
    vecs = [coherent_vector(z, config.cutoff) for z in _slot_values(config, Z)]
    return _product_entries(vecs, occupations(config))


def displacement(theta: complex, cutoff: int) -> TruncatedOperator:
    """exp(theta a* - conj(theta) a) at the cutoff; exactly unitary there."""
    a = annihilation(cutoff)
    gen = theta * a.conj().T - np.conj(theta) * a
    return TruncatedOperator(FockConfig(1, 1, cutoff), expm(gen))


def thermal_coherent_state(theta: complex, mixture: float, cutoff: int) -> TruncatedState:
    """Displaced thermal single-mode state at the cutoff.

    The thermal occupation law is geometric, (1/(N+1)) (N/(N+1))^k, truncated.
    """
    if mixture < 0:
        raise ValueError("mixture must be >= 0")
    occupation = (1.0 / (mixture + 1.0)) * (mixture / (mixture + 1.0)) ** np.arange(cutoff)
    diag = np.diag(occupation).astype(complex)
    if theta == 0:
        rho = diag
    else:
        D = displacement(theta, cutoff).entries
        rho = D @ diag @ D.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return TruncatedState(FockConfig(1, 1, cutoff), rho)


def _slot_factors(config: FockConfig, Z, mixture: float) -> list:
    """Single-mode displaced thermal states in slot order (``Z`` as in ``_slot_values``)."""
    return [thermal_coherent_state(z, mixture, config.cutoff).entries
            for z in _slot_values(config, Z)]


def product_state(config: FockConfig, Z, mixture: float) -> TruncatedState:
    """Tensor product of displaced thermal states (``Z`` as in ``_slot_values``)."""
    _require_dense(config)
    return TruncatedState(config, _product_entries(_slot_factors(config, Z, mixture),
                                                   occupations(config)))


def _product_entries(factors: list, occ: np.ndarray) -> np.ndarray:
    """Tensor product of per-slot vectors or matrices on the basis rows ``occ``.

    Entry (a, b) of a matrix product is prod_s factors[s][occ[a, s], occ[b, s]].
    """
    return reduce(np.multiply, [f[np.ix_(*[o] * f.ndim)] for f, o in zip(factors, occ.T)])


# ---------------------------------------------------------------------------
# quadratic generators
# ---------------------------------------------------------------------------

def _quadratic_generator(config: FockConfig, H, K=None) -> sparse.csr_matrix:
    """sum H[s,t] a*_s a_t + K[s,t]/2 a*_s a*_t - conj(K[s,t])/2 a_s a_t over slots.

    H and K are (mn x mn) slot matrices; only their nonzero entries are
    summed.  The lowering matrix a_s sends each basis row with a photon in
    slot s to the row with one fewer, found by its box code.
    """
    occ = occupations(config)
    code = np.ravel_multi_index(occ.T, (config.cutoff,) * config.slots)
    low = []
    for s in range(config.slots):
        src = np.nonzero(occ[:, s])[0]
        dst = np.searchsorted(code, code[src] - config.cutoff ** (config.slots - 1 - s))
        low.append(sparse.csr_matrix((np.sqrt(occ[src, s]).astype(complex), (dst, src)),
                                     shape=(config.dim, config.dim)))
    terms = [(H[s, t], low[s].T, low[t]) for s, t in zip(*np.nonzero(H))]
    if K is not None:
        for s, t in zip(*np.nonzero(K)):
            terms += [(0.5 * K[s, t], low[s].T, low[t].T),
                      (-0.5 * np.conj(K[s, t]), low[s], low[t])]
    out = sparse.csr_matrix((config.dim, config.dim), dtype=complex)
    for c, L, R in terms:
        out = out + c * (L @ R)
    return out.tocsr()


def copy_mixing_generator(config: FockConfig, B) -> sparse.csr_matrix:
    """sum_i sum_{j,k} B[j,k] a*_{i,j} a_{i,k} for anti-hermitian B."""
    B = np.asarray(B, dtype=complex).reshape(config.copies, config.copies)
    if np.max(np.abs(B + B.conj().T)) > 1e-9:
        raise ValueError("B must be anti-hermitian")
    return _quadratic_generator(config, np.kron(B, np.eye(config.modes)))


def beamsplitter_generator(config: FockConfig, j: int, k: int) -> sparse.csr_matrix:
    """Anti-hermitian a*_k a_j - a*_j a_k summed over modes; zero when j = k.

    exp(t * generator) is a beamsplitter mixing copies j and k.
    """
    for idx in (j, k):
        if not 1 <= idx <= config.copies:
            raise ValueError(f"copy index {idx} out of range 1..{config.copies}")
    B = np.zeros((config.copies, config.copies))
    if j != k:
        B[j - 1, k - 1], B[k - 1, j - 1] = -1.0, 1.0
    return copy_mixing_generator(config, B)


def squeeze_generator(eta: SqueezeParam, config: FockConfig) -> sparse.csr_matrix:
    """Quadratic generator whose exponential is the n-fold squeeze product.

    Per copy: sum_{i,i'} A a*_i a_{i'} + S/2 a*_i a*_{i'} - conj(S)/2 a_i a_{i'}.
    """
    if eta.modes != config.modes:
        raise ValueError("eta mode count does not match the configuration")
    I_n = np.eye(config.copies)
    return _quadratic_generator(config, np.kron(I_n, eta.A), np.kron(I_n, eta.S))


def squeeze(eta: SqueezeParam, config: FockConfig) -> TruncatedOperator:
    """n-fold tensor power of the squeeze unitary, as exp of the summed generator."""
    _require_dense(config)
    gen = squeeze_generator(eta, config).toarray()
    return TruncatedOperator(config, expm(gen))


# ---------------------------------------------------------------------------
# pooling rotation and the invariance-defect observable
# ---------------------------------------------------------------------------

def apply_pooling_rotation(config: FockConfig, psi: np.ndarray) -> np.ndarray:
    """Apply R = R_{n-1} ... R_1, R_k = exp(arctan(sqrt k) * bs_{k,k+1}), to a vector.

    Pools the common displacement of the n copies into the last copy:
    R |theta>^{(x)n} = |0>^{(x)(n-1)} (x) |sqrt(n) theta>, up to the
    truncation loss.  Uses sparse exponentials, so it runs past the dense
    limit; ``psi`` may also be a matrix, whose columns are rotated.
    """
    if config.copies < 2:
        raise ValueError("pooling rotation needs at least two copies")
    out = np.asarray(psi, dtype=complex)
    for k in range(1, config.copies):
        gen = np.arctan(np.sqrt(k)) * beamsplitter_generator(config, k, k + 1)
        out = expm_multiply(gen.tocsc(), out)
    return out


def rotation_defect_observable(config: FockConfig) -> TruncatedOperator:
    """Positive observable sum_k (bs_{k,n} R)^* (bs_{k,n} R), R the pooling rotation.

    Vanishes exactly on states invariant under simultaneous rotation of the
    copy index, so its kernel is the mode-wise rotation-invariant subspace.
    R is the dense matrix of ``apply_pooling_rotation``, built from
    exponentials of the beamsplitter generators, so this stays the
    independent reference for ``casimir_defect``, which it equals on the
    whole basis.
    """
    if config.copies < 2:
        raise ValueError("needs at least two copies")
    _require_dense(config)
    n = config.copies
    R = apply_pooling_rotation(config, np.eye(config.dim, dtype=complex))
    T = np.zeros_like(R)
    for k in range(1, n):
        B = beamsplitter_generator(config, k, n) @ R
        T += B.conj().T @ B
    return TruncatedOperator(config, 0.5 * (T + T.conj().T))


def casimir_defect(config: FockConfig) -> sparse.csr_matrix:
    """The rotation-defect observable as a sparse real form sum_k G_k^* G_k.

    G_k = copy_mixing_generator(v_k u^T - u v_k^T), with u = (1,...,1)/sqrt(n)
    and v_1..v_{n-1} the first rows of the classical pooling rotation, an
    orthonormal basis of u-perp.  Since R maps the copy plane (k, n) to the
    plane (v_k, u), R^* bs_{k,n} R = G_k, and every photon sector of the
    basis is whole, so this equals ``rotation_defect_observable`` with no
    exponential.  The sum does not depend on the basis of u-perp: it is the
    O(n) Casimir minus that of the O(n-1) fixing u, so its spectrum is
    integer.
    """
    if config.copies < 2:
        raise ValueError("needs at least two copies")
    n = config.copies
    u = np.full(n, 1.0 / np.sqrt(n))
    out = sparse.csr_matrix((config.dim, config.dim), dtype=complex)
    for v in pooling_rotation_matrix(n)[:-1]:
        G = copy_mixing_generator(config, np.outer(v, u) - np.outer(u, v))
        out = out + G.conj().T @ G
    return out.real.tocsr()


# ---------------------------------------------------------------------------
# spectral projections and lattice laws
# ---------------------------------------------------------------------------

def spectral_projection(op: TruncatedOperator, threshold: float) -> TruncatedOperator:
    """Projection onto eigenspaces of a hermitian operator with value <= threshold.

    Eigenvalues up to dist.LATTICE_TOL above the threshold are kept, so a
    threshold at a degenerate value keeps its whole eigenspace.
    """
    _check_hermitian(op.entries, "spectral projection input")
    vals, vecs = eigh(op.entries)
    keep = vals <= threshold + dist.LATTICE_TOL
    P = vecs[:, keep] @ vecs[:, keep].conj().T
    return TruncatedOperator(op.config, P)


def spectral_measure(state: TruncatedState, obs: TruncatedOperator) -> dist.IntegerDistribution:
    """Law of the outcome when ``obs``, whose spectrum is integer, is measured on ``state``.

    Its tail mass is the state's truncation loss; raises ValueError if an
    eigenvalue of ``obs`` is off the integer lattice (see ``dist.lattice_law``).
    """
    _check_hermitian(obs.entries, "observable")
    vals, vecs = eigh(obs.entries)
    return dist.lattice_law(vals, _eigvec_masses(state.entries, vecs))


def _eigvec_masses(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Tr[rho |v><v|] for each column v of ``vecs``."""
    return np.real(np.sum(vecs.conj() * (rho @ vecs), axis=0))


def defect_spectral_measures(config: FockConfig, displacements: list,
                             mixture: float) -> list:
    """Lattice laws of ``casimir_defect`` on product states, one per Z.

    Equals ``spectral_measure(product_state(config, Z, mixture), T)`` for
    each Z in ``displacements``, T the dense ``casimir_defect``, but works
    one photon sector at a time: T's sector block is real symmetric, and a
    product state's block rho[idx, idx] is the entrywise product over slots
    of its single-mode factors, so no whole-space matrix is built.  Real
    eigenvectors see only the real part of rho.  Sectors where every
    state's block is zero are skipped.
    """
    if config.copies < 2:
        raise ValueError("needs at least two copies")
    sectors = photon_sectors(config)
    occ = occupations(config)
    factors = [_slot_factors(config, Z, mixture) for Z in displacements]
    vals, masses = [], []
    for idx, T in zip(sectors, sector_blocks(casimir_defect(config), sectors)):
        blocks = [_product_entries(fs, occ[idx]) for fs in factors]
        # a (positive) block is zero when its diagonal is
        if not any(rho.diagonal().any() for rho in blocks):
            continue
        lam, vecs = eigh(T.toarray(), driver="evd")
        vals.append(lam)
        masses.append([_eigvec_masses(rho.real, vecs) for rho in blocks])
    vals = np.concatenate(vals)
    return [dist.lattice_law(vals, np.concatenate(per_state)) for per_state in zip(*masses)]


# ---------------------------------------------------------------------------
# rotation averaging (Haar average over simultaneous copy rotations)
# ---------------------------------------------------------------------------

def rotation_average_projector(config: FockConfig) -> TruncatedOperator:
    """Quadrature average of exp(bs-rotations) over the copy-rotation group.

    n = 2 averages exp(t bs_{1,2}) over t in [0, 2pi) with a 512-angle
    trapezoid rule; n = 3 uses the Euler product R12(a) R23(b) R12(c) with
    the sin(b) Haar weight and 64 Gauss-Legendre nodes in b.  The generator
    spectra are integers below 512 on every photon sector of the basis, so
    the trapezoid average is exact and the Gauss-Legendre one exact to
    rounding: the result is the projection onto the kernel of the
    rotation-defect observable.
    """
    if config.copies not in (2, 3):
        raise ValueError("rotation averaging implemented for 2 or 3 copies")
    _require_dense(config)

    h12 = (-1j) * beamsplitter_generator(config, 1, 2).toarray()
    _check_hermitian(h12, "beamsplitter generator")
    lam12, v12 = eigh(h12)
    t = 2.0 * np.pi * np.arange(512) / 512
    W = (v12 * np.exp(1j * np.outer(lam12, t)).mean(axis=1)) @ v12.conj().T
    if config.copies == 3:
        x, w = np.polynomial.legendre.leggauss(64)
        beta = 0.5 * np.pi * (x + 1.0)
        weights = w * (np.pi / 2.0) * np.sin(beta) / 2.0  # Haar: sin(beta)/2 on [0, pi]
        lam23, v23 = eigh((-1j) * beamsplitter_generator(config, 2, 3).toarray())
        M23 = (v23 * (np.exp(1j * np.outer(lam23, beta)) @ weights)) @ v23.conj().T
        W = W @ M23 @ W
    return TruncatedOperator(config, W)


# ---------------------------------------------------------------------------
# the invariant test's error probability
# ---------------------------------------------------------------------------

def si_type2_fock(theta, mixture: float, alpha: float, config: FockConfig) -> float:
    """Acceptance probability of the invariant test on a displaced alternative.

    Both laws of the rotation-defect observable, under the null state and
    under the displaced one, come from ``defect_spectral_measures``; the
    level-alpha randomized threshold test set on the null law is evaluated
    on the displaced one (``dist.randomized_acceptance``).  At mixture 0 the
    null is the vacuum, which the observable annihilates, so the test
    accepts the kernel with probability 1 - alpha (with certainty at
    alpha = 0).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if config.copies < 2:
        raise ValueError("the invariant test needs at least two copies")
    theta = np.atleast_1d(np.asarray(theta, dtype=complex)).reshape(config.modes)
    null_law, alt_law = defect_spectral_measures(
        config, [np.zeros(config.modes), theta], mixture)
    return dist.randomized_acceptance(null_law, alt_law, alpha)
