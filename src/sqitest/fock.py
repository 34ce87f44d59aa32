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
pairs, whose entries (``_quadratic_entries``) are found by box-code lookup
in one occupation table.

Basis: the occupation tuples whose per-mode photon totals over the n
copies are all <= d-1, in lexicographic order (vacuum first);
``FockConfig.occupations`` lists the C(d-1+n, n)^m of them, once per
configuration, and the budget caps that count.  Lowering never leaves the
basis and raising is clipped, so each quadratic generator is the exact one
compressed to the basis.  The copy-mixing generators keep every per-mode
total, so the basis is a sum of whole photon sectors (one per tuple of
totals) on which the group laws, the Casimir identities and the
commutation with squeezing hold exactly, and every defect spectrum is
integer.  The truncation loss (1 - trace) of a state is the
``tail_mass`` of its ``spectral_measure``.

``si_type2_fock`` works sector by sector, with one route for pure and
mixed states alike: each block of the Casimir form of the defect
observable (``defect_blocks``, no exponential) is built by ``gram_blocks``
straight from the entries of passive generators as a small dense real
matrix, with a check that no entry couples two sectors, and is
eigendecomposed once by ``eigh``.  The thermal null is a constant on each
sector, read from its photon totals, so only the displaced state forms
dense sector blocks.  The dense whole-space operators, among them the
exponential-built ``rotation_defect_observable``, stay as the references
the tests compare against.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from math import comb

import numpy as np
from numpy.linalg import eigh
from scipy import sparse
from scipy.linalg import expm
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
        try:
            for size in (self.modes, self.copies, self.cutoff):
                operator.index(size)
        except TypeError:
            raise ValueError("modes, copies and cutoff must be integers") from None
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

    @cached_property
    def occupations(self) -> np.ndarray:
        """(dim, slots) table of the basis: per-slot occupations, one row per state.

        Rows are the occupation tuples whose per-mode totals over the copies
        are all <= cutoff - 1, in lexicographic order.  Built slot by slot:
        each row is extended by every occupation its mode's running total
        leaves room for, which keeps the order.  Built once, read-only.
        """
        rows = np.zeros((1, 0), dtype=np.intp)
        for s in range(self.slots):
            room = self.cutoff - rows[:, s % self.modes::self.modes].sum(axis=1)
            start = np.repeat(np.cumsum(room) - room, room)
            rows = np.column_stack([np.repeat(rows, room, axis=0),
                                    np.arange(room.sum()) - start])
        rows.setflags(write=False)
        return rows

    def __getstate__(self):
        """Copy and pickle without the cached table: a copy rebuilds it read-only."""
        return {k: v for k, v in self.__dict__.items() if k != "occupations"}


def _check_hermitian(entries: np.ndarray, what: str):
    """ValueError unless ``entries`` is hermitian to _HERM_TOL and finite (NaN fails)."""
    with np.errstate(invalid="ignore"):
        defect = float(np.max(np.abs(entries - entries.conj().T)))
    if not defect <= _HERM_TOL:
        raise ValueError(f"{what} must be hermitian (defect {defect:.3e})")


def _require_dense(config: FockConfig):
    if config.dim > _DENSE_LIMIT:
        raise BudgetExceeded(
            f"dense construction at dimension {config.dim} exceeds the "
            f"dense limit {_DENSE_LIMIT}; si_type2_fock works sector by sector "
            f"and needs no dense build"
        )


# ---------------------------------------------------------------------------
# photon sectors
# ---------------------------------------------------------------------------

def photon_sectors(config: FockConfig) -> list:
    """Basis indices grouped by the tuple of per-mode photon totals.

    The total of mode i is the sum of its occupations over the copies.
    Sectors come in lexicographic order of their totals, indices ascending
    within each.
    """
    totals = config.occupations.reshape(config.dim, config.copies, config.modes).sum(axis=1)
    key = np.ravel_multi_index(totals.T, (config.cutoff,) * config.modes)
    order = np.argsort(key, kind="stable")
    return np.split(order, np.nonzero(np.diff(key[order]))[0] + 1)


# ---------------------------------------------------------------------------
# elementary operators and states
# ---------------------------------------------------------------------------

def annihilation(cutoff: int) -> np.ndarray:
    """Single-mode lowering matrix: (k, k+1) entry sqrt(k+1)."""
    if cutoff < 2:
        raise ValueError("cutoff must be >= 2")
    return np.diag(np.sqrt(np.arange(1.0, cutoff)), 1).astype(complex)


def _squared_amplitude(theta: complex) -> float:
    """|theta|^2, or ValueError unless it is finite.

    A NaN would otherwise pass silently into every amplitude and every law
    built from them.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        r2 = np.abs(np.complex128(theta)) ** 2
    if not np.isfinite(r2):
        raise ValueError(f"displacement must be finite with finite |theta|^2, got {theta!r}")
    return float(r2)


def coherent_vector(theta: complex, cutoff: int) -> np.ndarray:
    """Cutoff expansion e^{-|theta|^2/2} sum_k theta^k/sqrt(k!) over k < cutoff."""
    k = np.arange(cutoff)
    r2 = _squared_amplitude(theta)
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
    return _product_entries(vecs, config.occupations)


def displacement(theta: complex, cutoff: int) -> np.ndarray:
    """exp(theta a* - conj(theta) a) at the cutoff; exactly unitary there.

    Raises ValueError for a non-finite theta and where the exponential
    overflows (|theta| past about 1e19).
    """
    _squared_amplitude(theta)
    a = annihilation(cutoff)
    with np.errstate(over="ignore", invalid="ignore"):
        U = expm(theta * a.conj().T - np.conj(theta) * a)
    if not np.all(np.isfinite(U)):
        raise ValueError(f"displacement exponential overflows at theta = {theta!r}")
    return U


def thermal_coherent_state(theta: complex, mixture: float, cutoff: int) -> np.ndarray:
    """Displaced thermal single-mode state at the cutoff.

    The thermal occupation law is geometric, (1/(N+1)) (N/(N+1))^k, truncated.
    """
    D = displacement(theta, cutoff)
    rho = D @ np.diag(_thermal_occupation(mixture, cutoff)) @ D.conj().T
    return 0.5 * (rho + rho.conj().T)


def _thermal_occupation(mixture: float, cutoff: int) -> np.ndarray:
    """Geometric occupation law (1/(N+1)) (N/(N+1))^k over k < cutoff."""
    if not 0.0 <= mixture < np.inf:
        raise ValueError("mixture must be finite and >= 0")
    return (1.0 / (mixture + 1.0)) * (mixture / (mixture + 1.0)) ** np.arange(cutoff)


def _slot_factors(config: FockConfig, Z, mixture: float) -> list:
    """Single-mode displaced thermal states in slot order (``Z`` as in ``_slot_values``).

    One state is built per distinct slot value and shared by its slots.
    """
    values, slot_value = np.unique(_slot_values(config, Z), return_inverse=True)
    states = [thermal_coherent_state(z, mixture, config.cutoff) for z in values]
    return [states[i] for i in slot_value]


def product_state(config: FockConfig, Z, mixture: float) -> np.ndarray:
    """Tensor product of displaced thermal states (``Z`` as in ``_slot_values``)."""
    _require_dense(config)
    return _product_entries(_slot_factors(config, Z, mixture), config.occupations)


def _product_entries(factors: list, occ: np.ndarray) -> np.ndarray:
    """Tensor product of per-slot vectors or matrices on the basis rows ``occ``.

    Entry (a, b) of a matrix product is prod_s factors[s][occ[a, s], occ[b, s]],
    multiplied into one array in slot order, one gathered factor at a time.
    """
    out = np.ones((len(occ),) * factors[0].ndim, dtype=np.result_type(*factors))
    for f, o in zip(factors, occ.T):
        out *= f[o[:, None], o] if f.ndim == 2 else f[o]
    return out


# ---------------------------------------------------------------------------
# quadratic generators
# ---------------------------------------------------------------------------

def _quadratic_entries(config: FockConfig, H, K=None) -> tuple:
    """COO triples (dst, src, val) of the form built by ``_quadratic_generator``.

    Each term a*_s a_t, a*_s a*_t or a_s a_t moves a basis row by one photon
    in slot t, then one in slot s; the target row is found by its box code,
    code + place[s] - place[t] for a*_s a_t.  A target off the basis is
    dropped: the basis is closed downward, so a clipped intermediate means a
    clipped result, and this is the exact form compressed to the basis.
    Occupations are checked to stay within 0..cutoff-1 first, so no code
    carries into another slot's digit.
    """
    d, occ = config.cutoff, config.occupations
    place = d ** np.arange(config.slots - 1, -1, -1)
    code = occ @ place
    # (coefficient, slot s, its step, slot t, its step) for c x_s x_t
    terms = [(H[s, t], s, 1, t, -1) for s, t in zip(*np.nonzero(H))]
    if K is not None:
        for s, t in zip(*np.nonzero(K)):
            terms += [(0.5 * K[s, t], s, 1, t, 1), (-0.5 * np.conj(K[s, t]), s, -1, t, -1)]
    entries = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0))]
    for c, s, ds, t, dt in terms:
        n_t = occ[:, t]                          # slot t before its step
        n_s = occ[:, s] + (dt if s == t else 0)  # slot s before its step
        ok = (n_t + dt >= 0) & (n_t + dt < d) & (n_s + ds >= 0) & (n_s + ds < d)
        rows = np.nonzero(ok)[0]
        target = code[rows] + ds * place[s] + dt * place[t]
        hit = np.minimum(np.searchsorted(code, target), config.dim - 1)
        found = code[hit] == target
        # a lowering step weighs sqrt(n) and a raising step sqrt(n + 1)
        amp = np.sqrt(np.maximum(n_t, n_t + dt) * np.maximum(n_s, n_s + ds))
        entries.append((hit[found], rows[found], c * amp[rows[found]]))
    return tuple(np.concatenate(x) for x in zip(*entries))


def _quadratic_generator(config: FockConfig, H, K=None) -> sparse.csr_matrix:
    """sum H[s,t] a*_s a_t + K[s,t]/2 a*_s a*_t - conj(K[s,t])/2 a_s a_t over slots.

    H and K are (mn x mn) slot matrices; only their nonzero entries are
    summed, from the entries of ``_quadratic_entries``.
    """
    dst, src, val = _quadratic_entries(config, H, K)
    return sparse.csr_matrix((val.astype(complex), (dst, src)), shape=(config.dim, config.dim))


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


def squeeze(eta: SqueezeParam, config: FockConfig) -> np.ndarray:
    """n-fold tensor power of the squeeze unitary, as exp of the summed generator."""
    _require_dense(config)
    return expm(squeeze_generator(eta, config).toarray())


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


def rotation_defect_observable(config: FockConfig) -> np.ndarray:
    """Positive observable sum_k (bs_{k,n} R)^* (bs_{k,n} R), R the pooling rotation.

    Vanishes exactly on states invariant under simultaneous rotation of the
    copy index, so its kernel is the mode-wise rotation-invariant subspace.
    R is the dense matrix of ``apply_pooling_rotation``, built from
    exponentials of the beamsplitter generators, so this stays the
    independent reference for ``defect_blocks``: it is zero between
    photon sectors and equals their blocks within each.
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
    return 0.5 * (T + T.conj().T)


def gram_blocks(config: FockConfig, generators: list) -> tuple:
    """Photon sectors, and a builder of the dense block of sum_k G_k^* G_k on each.

    ``generators`` lists passive slot matrices H_k, G_k the
    ``_quadratic_generator`` of the k-th.  Returns ``(sectors, block)``
    with ``sectors`` as in ``photon_sectors`` and ``block(s)`` the
    true-size dense block on sector s, built when called from the entries
    of the G_k there: (G_k^* G_k)[j, l] sums conj(G_k[i, j]) G_k[i, l] over
    the pairs of entries that share a row i, so the cost follows the
    entries, not the cube of the block size.  Raises ValueError if an entry
    of some G_k couples two sectors, so the blocks are exact restrictions
    and never an approximation.
    """
    sectors = photon_sectors(config)
    label = np.empty(config.dim, dtype=np.intp)
    where = np.empty(config.dim, dtype=np.intp)
    for s, idx in enumerate(sectors):
        label[idx] = s
        where[idx] = np.arange(len(idx))
    keys, cols, vals = [], [], []
    for k, H in enumerate(generators):
        dst, src, val = _quadratic_entries(config, H)
        if np.any(label[dst] != label[src]):
            raise ValueError("operator couples different photon sectors (not passive)")
        keys.append(label[src] * (len(generators) * config.dim) + k * config.dim + dst)
        cols.append(where[src])
        vals.append(val)
    # entries sorted by sector, then by row (generator k, basis row dst)
    keys = np.concatenate(keys)
    order = np.argsort(keys, kind="stable")
    keys, cols, vals = keys[order], np.concatenate(cols)[order], np.concatenate(vals)[order]
    bounds = np.searchsorted(keys, np.arange(len(sectors) + 1) * (len(generators) * config.dim))
    # each entry pairs with the `width` entries of its row, from `first` on;
    # the pairs are numbered entry by entry, from `start` on
    _, first, row, width = np.unique(keys, return_index=True, return_inverse=True,
                                     return_counts=True)
    first, width = first[row], width[row]
    start = np.concatenate([[0], np.cumsum(width)])
    offset, conj_vals = first - start[:-1], vals.conj()

    def block(s: int) -> np.ndarray:
        lo, hi = bounds[s], bounds[s + 1]
        a = np.repeat(np.arange(lo, hi), width[lo:hi])
        b = offset[a] + np.arange(start[lo], start[hi])
        size = len(sectors[s])
        at, products = cols[a] * size + cols[b], conj_vals[a] * vals[b]
        T = np.zeros(size * size, dtype=vals.dtype)
        # bincount adds in entry order, as a sequential sum would
        T.real = np.bincount(at, products.real, size * size)
        if np.iscomplexobj(T):
            T.imag = np.bincount(at, products.imag, size * size)
        return T.reshape(size, size)

    return sectors, block


def defect_blocks(config: FockConfig) -> tuple:
    """``gram_blocks`` of the rotation-defect observable: the form sum_k G_k^* G_k.

    G_k = copy_mixing_generator(v_k u^T - u v_k^T), with u = (1,...,1)/sqrt(n)
    and v_1..v_{n-1} the first rows of the classical pooling rotation, an
    orthonormal basis of u-perp.  R maps the copy plane (k, n) to the plane
    (v_k, u), so R^* bs_{k,n} R = G_k, and every photon sector is whole, so
    these are the blocks of ``rotation_defect_observable``, built with no
    exponential.  The sum is the O(n) Casimir minus that of the O(n-1)
    fixing u, so its spectrum is integer.  Each block is real symmetric.
    """
    if config.copies < 2:
        raise ValueError("needs at least two copies")
    n = config.copies
    u = np.full(n, 1.0 / np.sqrt(n))
    planes = [np.outer(v, u) - np.outer(u, v) for v in pooling_rotation_matrix(n)[:-1]]
    return gram_blocks(config, [np.kron(B, np.eye(config.modes)) for B in planes])


# ---------------------------------------------------------------------------
# spectral projections and lattice laws
# ---------------------------------------------------------------------------

def spectral_projection(op: np.ndarray, threshold: float) -> np.ndarray:
    """Projection onto eigenspaces of a hermitian operator with value <= threshold.

    Eigenvalues up to dist.LATTICE_TOL above the threshold are kept, so a
    threshold at a degenerate value keeps its whole eigenspace.
    """
    _check_hermitian(op, "spectral projection input")
    vals, vecs = eigh(op)
    keep = vals <= threshold + dist.LATTICE_TOL
    return vecs[:, keep] @ vecs[:, keep].conj().T


def spectral_measure(rho: np.ndarray, obs: np.ndarray) -> dist.IntegerDistribution:
    """Law of the outcome when ``obs``, whose spectrum is integer, is measured on ``rho``.

    Its tail mass is the state's truncation loss, 1 - trace.  Raises
    ValueError unless both matrices are hermitian and finite, or if an
    eigenvalue of ``obs`` is off the integer lattice (see ``dist.lattice_law``).
    """
    _check_hermitian(rho, "density matrix")
    _check_hermitian(obs, "observable")
    vals, vecs = eigh(obs)
    return dist.lattice_law(vals, _eigvec_masses(rho, vecs))


def _eigvec_masses(rho: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """Tr[rho |v><v|] for each column v of ``vecs``."""
    return np.real(np.sum(vecs.conj() * (rho @ vecs), axis=0))


def defect_spectral_measures(config: FockConfig, Z, mixture: float) -> tuple:
    """Lattice laws ``(null, alt)`` of the defect observable on two product states.

    The null is the thermal product state and the alternative the displaced
    one (``Z`` as in ``_slot_values``); each law equals ``spectral_measure``
    of that ``product_state`` and ``rotation_defect_observable``, but is
    built one photon sector at a time, and no whole-space matrix is formed.
    The defect's sector block comes straight from ``defect_blocks`` as a
    small dense real symmetric matrix and is eigendecomposed once, by
    ``eigh``.  The thermal null is c_s times the identity there, c_s the
    product over slots of the geometric occupation law, read off the
    sector's photon totals, so every eigenvector carries null mass c_s.
    Only the displaced state forms its dense block rho[idx, idx], the
    entrywise product over slots of its single-mode factors, whose real
    part gives the masses.  Sectors where c_s and rho's diagonal are both
    zero are skipped before the defect's block is built.
    """
    thermal = _thermal_occupation(mixture, config.cutoff)
    factors = _slot_factors(config, Z, mixture)
    occ = config.occupations
    sectors, block = defect_blocks(config)
    vals, null, alt = [], [], []
    for s, idx in enumerate(sectors):
        c = np.prod(thermal[occ[idx[0]]])
        rho = _product_entries(factors, occ[idx])
        # a (positive) block is zero when its diagonal is
        if c == 0.0 and not rho.diagonal().any():
            continue
        lam, vecs = eigh(block(s))
        vals.append(lam)
        null.append(np.full(len(idx), c))
        alt.append(_eigvec_masses(rho.real, vecs))
    vals = np.concatenate(vals)
    return (dist.lattice_law(vals, np.concatenate(null)),
            dist.lattice_law(vals, np.concatenate(alt)))


# ---------------------------------------------------------------------------
# rotation averaging (Haar average over simultaneous copy rotations)
# ---------------------------------------------------------------------------

def rotation_average_projector(config: FockConfig) -> np.ndarray:
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
    return W


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
    null_law, alt_law = defect_spectral_measures(config, theta, mixture)
    return dist.randomized_acceptance(null_law, alt_law, alpha)
