import copy
import math
import pickle
from math import comb

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply
from scipy.special import beta

from sqitest import distributions as dist
from sqitest import fock
from sqitest import hypotests as ht
from sqitest.fock import (
    BudgetExceeded,
    FockConfig,
    annihilation,
    apply_pooling_rotation,
    beamsplitter_generator,
    coherent_product_vector,
    coherent_vector,
    copy_mixing_generator,
    defect_blocks,
    defect_spectral_measures,
    displacement,
    gram_blocks,
    photon_sectors,
    product_state,
    rotation_average_projector,
    rotation_defect_observable,
    si_type2_fock,
    spectral_measure,
    spectral_projection,
    squeeze,
    squeeze_generator,
    thermal_coherent_state,
)
from sqitest.phase_space import SqueezeParam


# i (photon number of copy 1 - photon number of copy 2) as a copy-mixing matrix
PHASE_DIFFERENCE = np.diag([1j, -1j])

# displacements whose amplitudes are not finite numbers: |1e200|^2 overflows
NON_FINITE = [np.nan, np.inf, complex(0, np.nan), 1e200]


def random_eta(rng, m=1, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    s = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    A = 0.5 * (a - a.conj().T)
    S = 0.5 * (s + s.T)
    norm = max(np.linalg.norm(A), np.linalg.norm(S), 1.0)
    return SqueezeParam(m, A * scale / norm, S * scale / norm)


class TestConfig:
    def test_rejects_tiny_cutoff(self):
        with pytest.raises(ValueError):
            FockConfig(1, 1, 1)

    @pytest.mark.parametrize("shape", [(1, 2.5, 5), (1.0, 2, 5), (1, 2, 5.0)])
    def test_sizes_must_be_integers(self, shape):
        # (1, 2.5, 5) raised a TypeError from math.comb, and (1.0, 2, 5)
        # built with a dim of 15.0
        with pytest.raises(ValueError, match="modes, copies and cutoff must be integers"):
            FockConfig(*shape)

    def test_numpy_integer_sizes_accepted(self):
        assert FockConfig(*np.array([1, 2, 5])).dim == FockConfig(1, 2, 5).dim == 15

    def test_budget_enforced(self):
        with pytest.raises(BudgetExceeded):
            FockConfig(2, 3, 20)  # 1540^2 = 2 371 600 basis states > 2^20

    @pytest.mark.parametrize("shape", [(1, 6, 12), (2, 3, 11)])
    def test_budget_counts_basis_states_not_the_box(self, shape):
        # boxes of 12^6 and 11^6 exceed 2^20; their bases (12 376 and
        # 81 796 states) do not
        assert FockConfig(*shape).dim <= 2 ** 20

    def test_occupation_table_is_read_only(self):
        occ = FockConfig(1, 2, 4).occupations
        with pytest.raises(ValueError, match="read-only"):
            occ[0, 0] = 1

    def test_built_table_leaves_equality_and_hash(self):
        built, fresh = FockConfig(1, 3, 5), FockConfig(1, 3, 5)
        built.occupations
        assert built == fresh and hash(built) == hash(fresh)
        assert built != FockConfig(1, 3, 6)

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))],
                             ids=["deepcopy", "pickle"])
    def test_copies_rebuild_the_table_read_only(self, clone):
        cfg = FockConfig(1, 3, 12)
        size = len(pickle.dumps(cfg))
        cfg.occupations
        assert len(pickle.dumps(cfg)) == size  # the table is not carried along
        twin = clone(cfg)
        assert twin == cfg and not twin.occupations.flags.writeable
        np.testing.assert_array_equal(twin.occupations, cfg.occupations)

    @pytest.mark.parametrize("shape", [(1, 3, 6), (2, 2, 4), (2, 3, 3)])
    def test_basis_is_whole_photon_sectors(self, shape):
        # per-mode totals <= d-1: C(d-1+n, n) states per mode, vacuum first,
        # and a sector of totals K holds prod_i C(K_i+n-1, n-1) states
        m, n, d = shape
        cfg = FockConfig(*shape)
        occ = cfg.occupations
        assert cfg.dim == comb(d - 1 + n, n) ** m == len(occ)
        assert not occ[0].any()
        for idx in photon_sectors(cfg):
            totals = occ[idx[0]].reshape(n, m).sum(axis=0)
            assert len(idx) == math.prod(comb(K + n - 1, n - 1) for K in totals)

    def test_generators_match_kron_forms(self):
        # slot 0 is the most significant tensor factor, and the pair terms
        # carry S/2 on both orders of each slot pair
        d = 4
        a = annihilation(d)
        one = np.eye(d)
        low = [np.kron(a, one), np.kron(one, a)]
        rise = [x.T for x in low]
        A = np.array([[0.3j, 0.5 - 0.2j], [-0.5 - 0.2j, -0.1j]])
        S = np.array([[0.2, 0.4 + 0.1j], [0.4 + 0.1j, -0.3j]])
        # n = 1: the basis is the whole box
        got = squeeze_generator(SqueezeParam(2, A, S), FockConfig(2, 1, d)).toarray()
        want = sum(A[i, k] * rise[i] @ low[k] + 0.5 * S[i, k] * rise[i] @ rise[k]
                   - 0.5 * np.conj(S[i, k]) * low[i] @ low[k]
                   for i in range(2) for k in range(2))
        assert np.max(np.abs(got - want)) < 1e-14
        # (1, 2, d): copy mixing keeps the total, so it is the box form on
        # the basis rows
        cfg = FockConfig(1, 2, d)
        occ = cfg.occupations
        rows = occ[:, 0] * d + occ[:, 1]
        got = copy_mixing_generator(cfg, A).toarray()
        want = sum(A[j, k] * rise[j] @ low[k] for j in range(2) for k in range(2))
        assert np.max(np.abs(got - want[np.ix_(rows, rows)])) < 1e-14


class TestAnnihilation:
    def test_two_level(self):
        assert np.array_equal(annihilation(2), np.array([[0, 1], [0, 0]], dtype=complex))

    def test_matrix_elements(self):
        a = annihilation(3)
        assert a[1, 2] == pytest.approx(np.sqrt(2))

    def test_ccr_below_cutoff_edge(self):
        d = 9
        a = annihilation(d)
        comm = a @ a.conj().T - a.conj().T @ a
        assert np.max(np.abs(comm[: d - 1, : d - 1] - np.eye(d - 1))) < 1e-14

    def test_rejects_cutoff_below_two(self):
        with pytest.raises(ValueError):
            annihilation(1)


class TestCoherentVector:
    def test_vacuum(self):
        for theta in (0, 0.0, 0j):
            for d in (2, 6, 200):
                v = coherent_vector(theta, d)
                assert v.dtype == complex and np.array_equal(v, np.eye(d)[0])

    def test_inner_product_formula(self):
        d = 40
        for a, b in [(0.5, 0.2 + 0.3j), (1.0j, -0.7), (0.9, 0.9)]:
            got = np.vdot(coherent_vector(a, d), coherent_vector(b, d))
            want = np.exp(-abs(a) ** 2 / 2 - abs(b) ** 2 / 2 + np.conj(a) * b)
            assert abs(got - want) < 1e-12

    def test_tail_mass_poisson_bound(self):
        v = coherent_vector(1.0, 40)
        assert 1.0 - np.real(v.conj() @ v) < 1e-12

    def test_eigenrelation(self):
        d, th = 50, 0.6 + 0.2j
        v = coherent_vector(th, d)
        resid = annihilation(d) @ v - th * v
        assert np.max(np.abs(resid[: d - 1])) < 1e-12

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_non_finite_displacement_rejected(self, theta):
        with pytest.raises(ValueError):
            coherent_vector(theta, 6)


class TestThermalCoherentState:
    def test_thermal_diagonal(self):
        rho = thermal_coherent_state(0.0, 1.0, 12)
        want = 0.5 * 0.5 ** np.arange(12)
        assert np.allclose(np.diag(rho).real, want)

    def test_vacuum_projector(self):
        rho = thermal_coherent_state(0.0, 0.0, 6)
        want = np.zeros((6, 6))
        want[0, 0] = 1.0
        assert np.allclose(rho, want)

    def test_pure_case_is_coherent_projector(self):
        v = coherent_vector(0.4 - 0.2j, 30)
        rho = thermal_coherent_state(0.4 - 0.2j, 0.0, 30)
        assert np.max(np.abs(rho - np.outer(v, v.conj()))) < 1e-12

    def test_truncation_loss_small(self):
        rho = thermal_coherent_state(0.5, 0.3, 40)
        assert 1.0 - np.real(np.trace(rho)) < 1e-8
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_negative_mixture_rejected(self):
        with pytest.raises(ValueError):
            thermal_coherent_state(0.1, -0.5, 8)

    @pytest.mark.parametrize("mixture", [np.nan, np.inf])
    def test_mixture_must_be_finite(self, mixture):
        with pytest.raises(ValueError):
            thermal_coherent_state(0.1, mixture, 4)

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_non_finite_displacement_rejected(self, theta):
        with pytest.raises(ValueError):
            thermal_coherent_state(theta, 0.1, 6)


class TestDisplacement:
    def test_zero_is_identity(self):
        assert np.allclose(displacement(0.0, 8), np.eye(8))

    def test_generates_coherent_vector(self):
        for th in (0.3, 1.0, 0.5 - 0.5j):
            D = displacement(th, 40)
            assert np.max(np.abs(D[:, 0] - coherent_vector(th, 40))) < 1e-8

    def test_group_inverse(self):
        D = displacement(0.7, 30)
        Dm = displacement(-0.7, 30)
        assert np.max(np.abs(D @ Dm - np.eye(30))) < 1e-8

    def test_exactly_unitary_at_cutoff(self):
        D = displacement(0.8 + 0.1j, 25)
        assert np.max(np.abs(D.conj().T @ D - np.eye(25))) < 1e-12

    @pytest.mark.parametrize("theta", [*NON_FINITE, 1e20])
    def test_non_finite_or_overflowing_displacement_rejected(self, theta):
        # past |theta| of about 1e19 the exponential itself overflows
        with pytest.raises(ValueError):
            displacement(theta, 6)


class TestSqueeze:
    def test_zero_eta_identity(self):
        cfg = FockConfig(1, 2, 6)
        S = squeeze(SqueezeParam.zero(1), cfg)
        assert np.allclose(S, np.eye(cfg.dim))

    def test_vacuum_overlap_series(self):
        # single-mode squeezed vacuum: |<0|S|0>|^2 -> 1/cosh(r)
        r = 0.8
        eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r]]))
        got = abs(squeeze(eta, FockConfig(1, 1, 50))[0, 0]) ** 2
        assert got == pytest.approx(1.0 / np.cosh(r), abs=1e-10)

    def test_unitary(self):
        rng = np.random.default_rng(21)
        cfg = FockConfig(1, 2, 10)
        S = squeeze(random_eta(rng), cfg)
        assert np.max(np.abs(S.conj().T @ S - np.eye(cfg.dim))) < 1e-10

    @pytest.mark.parametrize("shape", [(1, 2, 12), (2, 2, 4), (2, 3, 3)])
    def test_generator_commutes_with_beamsplitter(self, shape):
        # the invariance the SI test rests on, at the generator level: the
        # copy-mixing generator keeps the per-mode totals, so no path leaves
        # the basis and the commutator vanishes on the whole space
        rng = np.random.default_rng(22)
        cfg = FockConfig(*shape)
        v = beamsplitter_generator(cfg, 1, 2).toarray()
        for _ in range(5):
            gen = squeeze_generator(random_eta(rng, m=cfg.modes, scale=0.8), cfg).toarray()
            assert np.max(np.abs(gen @ v - v @ gen)) < 1e-8

    def test_state_level_invariance_of_kernel_expectation(self):
        # squeezing the state does not move the rotation-average expectation;
        # unlike the unitary conjugation identity this survives truncation
        # because the states keep negligible mass at the cutoff edge
        rng = np.random.default_rng(25)
        cfg = FockConfig(1, 2, 24)
        W = rotation_average_projector(cfg)
        psi = coherent_product_vector(cfg, np.full((1, 2), 0.3))
        base = float(np.real(psi.conj() @ W @ psi))
        for _ in range(3):
            moved = squeeze(random_eta(rng, scale=0.4), cfg) @ psi
            got = float(np.real(moved.conj() @ W @ moved))
            assert abs(got - base) < 1e-9

    def test_malformed_eta_rejected(self):
        cfg = FockConfig(2, 1, 4)
        with pytest.raises(ValueError):
            squeeze(SqueezeParam.zero(1), cfg)  # mode count mismatch


class TestGenerators:
    def test_beamsplitter_zero_when_equal_indices(self):
        cfg = FockConfig(1, 2, 5)
        assert beamsplitter_generator(cfg, 1, 1).nnz == 0

    def test_beamsplitter_kills_vacuum(self):
        cfg = FockConfig(2, 2, 4)
        v = beamsplitter_generator(cfg, 1, 2)
        e0 = np.zeros(cfg.dim)
        e0[0] = 1.0
        assert np.max(np.abs(v @ e0)) == 0.0

    def test_beamsplitter_antihermitian(self):
        cfg = FockConfig(1, 3, 5)
        v = beamsplitter_generator(cfg, 1, 3).toarray()
        assert np.max(np.abs(v + v.conj().T)) < 1e-14

    def test_index_validation(self):
        cfg = FockConfig(1, 2, 4)
        with pytest.raises(ValueError):
            beamsplitter_generator(cfg, 0, 1)
        with pytest.raises(ValueError):
            beamsplitter_generator(cfg, 1, 3)

    def test_phase_difference_small_case(self):
        cfg = FockConfig(1, 2, 2)
        got = copy_mixing_generator(cfg, PHASE_DIFFERENCE).toarray()
        want = np.diag([0.0, -1j, 1j])
        assert np.allclose(got, want)

    def test_phase_difference_spectrum(self):
        cfg = FockConfig(1, 2, 4)
        occ = cfg.occupations
        want = 1j * (occ[:, 0] - occ[:, 1])
        got = np.diag(copy_mixing_generator(cfg, PHASE_DIFFERENCE).toarray())
        assert np.allclose(got, want)

    def test_beamsplitter_unitarily_equivalent_to_phase_difference(self):
        # conjugation by the pi/4 beamsplitter and pi/4 phase rotation turns
        # the copy-mixing generator into the photon-number difference
        cfg = FockConfig(1, 2, 10)
        v = beamsplitter_generator(cfg, 1, 2)
        dgen = copy_mixing_generator(cfg, PHASE_DIFFERENCE)
        U = expm((np.pi / 4) * v.toarray())
        V = expm((np.pi / 4) * dgen.toarray())
        got = U.conj().T @ V.conj().T @ v.toarray() @ V @ U
        assert np.max(np.abs(got - dgen.toarray())) < 1e-8

    def test_coherent_transport(self):
        # exp(u_A) exp(v_B) |Z> = |e^A Z e^{-conj(B)}> up to truncation loss
        rng = np.random.default_rng(23)
        cfg = FockConfig(2, 2, 10)
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        A = 0.25 * (a - a.conj().T)
        B = 0.25 * (b - b.conj().T)
        Z = 0.3 * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        psi = coherent_product_vector(cfg, Z)
        moved = expm_multiply(copy_mixing_generator(cfg, B).tocsc(), psi)
        moved = expm_multiply(squeeze_generator(SqueezeParam(2, A, 0 * A), cfg).tocsc(), moved)
        target_Z = expm(A) @ Z @ expm(-B.conj())
        target = coherent_product_vector(cfg, target_Z)
        eps = max(1.0 - np.linalg.norm(psi) ** 2, 1.0 - np.linalg.norm(target) ** 2)
        fidelity = abs(np.vdot(target, moved)) ** 2
        assert fidelity > 1.0 - 10.0 * max(eps, 1e-12)


class TestPoolingRotation:
    def test_needs_two_copies(self):
        with pytest.raises(ValueError):
            apply_pooling_rotation(FockConfig(1, 1, 4), np.ones(4))

    def test_unitary(self):
        # the rotation applied to every basis vector is the whole matrix
        cfg = FockConfig(1, 2, 12)
        R = apply_pooling_rotation(cfg, np.eye(cfg.dim))
        assert np.max(np.abs(R.conj().T @ R - np.eye(cfg.dim))) < 1e-10

    def test_two_copy_transport(self):
        cfg = FockConfig(1, 2, 25)
        psi = coherent_product_vector(cfg, np.full((1, 2), 0.4))
        target = coherent_product_vector(cfg, [[0.0, np.sqrt(2) * 0.4]])
        assert np.max(np.abs(apply_pooling_rotation(cfg, psi) - target)) < 1e-10

    def test_three_copy_transport_trace_distance(self):
        cfg = FockConfig(1, 3, 25)
        psi = coherent_product_vector(cfg, np.full((1, 3), 0.3))
        rpsi = apply_pooling_rotation(cfg, psi)
        target = coherent_product_vector(cfg, [[0.0, 0.0, np.sqrt(3) * 0.3]])
        overlap = abs(np.vdot(target, rpsi)) ** 2
        assert np.sqrt(max(0.0, 1.0 - overlap)) < 1e-6

    def test_vacuum_invariant(self):
        cfg = FockConfig(1, 3, 8)
        e0 = np.zeros(cfg.dim)
        e0[0] = 1.0
        assert np.max(np.abs(apply_pooling_rotation(cfg, e0) - e0)) < 1e-12


class TestRotationDefectObservable:
    def test_two_copy_form(self):
        # with two copies the pooling rotation commutes with the generator,
        # so the observable is just v v*
        cfg = FockConfig(1, 2, 8)
        T = rotation_defect_observable(cfg)
        v = beamsplitter_generator(cfg, 1, 2)
        want = (v @ (-v)).toarray()
        assert np.max(np.abs(T - want)) < 1e-10

    def test_positive_semidefinite(self):
        cfg = FockConfig(1, 3, 6)
        T = rotation_defect_observable(cfg)
        assert np.max(np.abs(T - T.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(T).min() > -1e-8

    def test_kernel_dimension_counts_invariants(self):
        # the two-copy problem has one invariant state per even total photon
        # number: ceil(d / 2) of them below the cutoff
        cfg = FockConfig(1, 2, 6)
        vals = np.linalg.eigvalsh(rotation_defect_observable(cfg))
        assert int(np.sum(vals < 1e-8)) == 3


class TestPhotonSectors:
    @pytest.mark.parametrize("shape", [(1, 3, 4), (2, 2, 3)])
    def test_sectors_partition_by_mode_totals(self, shape):
        cfg = FockConfig(*shape)
        sectors = photon_sectors(cfg)
        assert np.array_equal(np.sort(np.concatenate(sectors)), np.arange(cfg.dim))
        occ = cfg.occupations.reshape(cfg.dim, cfg.copies, cfg.modes)
        totals = occ.sum(axis=1)
        for idx in sectors:
            assert (totals[idx] == totals[idx[0]]).all()
        assert len({tuple(totals[idx[0]]) for idx in sectors}) == len(sectors)

    def test_passive_generator_blocks_reassemble(self):
        cfg = FockConfig(2, 2, 3)
        B = np.array([[0.0, -1.0], [1.0, 0.0]])
        sectors, block = gram_blocks(cfg, [np.kron(B, np.eye(2))])
        v = beamsplitter_generator(cfg, 1, 2).toarray()
        whole = np.zeros((cfg.dim, cfg.dim))
        for s, idx in enumerate(sectors):
            whole[np.ix_(idx, idx)] = block(s)
        assert np.max(np.abs(whole - v.conj().T @ v)) < 1e-14

    def test_complex_generator_blocks_reassemble(self):
        # complex entries: the real and imaginary parts are summed apart
        cfg = FockConfig(1, 2, 5)
        B = PHASE_DIFFERENCE + np.array([[0.0, -0.7 + 0.2j], [0.7 + 0.2j, 0.0]])
        sectors, block = gram_blocks(cfg, [B])
        v = copy_mixing_generator(cfg, B).toarray()
        whole = np.zeros((cfg.dim, cfg.dim), dtype=complex)
        for s, idx in enumerate(sectors):
            assert block(s).dtype == complex
            whole[np.ix_(idx, idx)] = block(s)
        assert np.max(np.abs(whole - v.conj().T @ v)) < 1e-14

    def test_block_without_entries_is_a_real_zero(self):
        # no generator entry lands on the vacuum, yet its block keeps the
        # entries' real type
        sectors, block = defect_blocks(FockConfig(1, 3, 4))
        assert block(0).dtype == np.float64
        assert np.array_equal(block(0), np.zeros((1, 1)))

    def test_block_extraction_rejects_mode_mixing(self):
        # swapping the two modes within each copy moves photons between the
        # per-mode totals, so its entries leave their sector
        cfg = FockConfig(2, 2, 3)
        with pytest.raises(ValueError, match="couples different photon sectors"):
            gram_blocks(cfg, [np.kron(np.eye(2), [[0, 1], [1, 0]])])

    @pytest.mark.parametrize("shape", [(1, 2, 8), (1, 3, 6), (1, 4, 4), (2, 2, 4), (2, 3, 3)])
    def test_defect_blocks_match_exponential_reference(self, shape):
        # the blocks need no exponential; every photon sector of the basis
        # is complete, so the reference is zero between sectors and equals
        # the blocks within each
        cfg = FockConfig(*shape)
        T = rotation_defect_observable(cfg)
        sectors, block = defect_blocks(cfg)
        for s, idx in enumerate(sectors):
            assert np.max(np.abs(block(s) - T[np.ix_(idx, idx)])) < 1e-12
            T[np.ix_(idx, idx)] = 0.0
        assert np.max(np.abs(T)) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 3, 6), (2, 2, 4), (1, 2, 8), (1, 4, 4), (2, 3, 3)])
    def test_blocked_defect_measure_matches_dense(self, shape):
        # the null law is read off the sector totals, the displaced one from
        # its sector blocks; both must match the dense whole-space route
        cfg = FockConfig(*shape)
        T = rotation_defect_observable(cfg)
        z = 0.3 * np.exp(0.5j * np.arange(cfg.modes))
        for mixture in (0.0, 0.3, 2.0):
            laws = defect_spectral_measures(cfg, z, mixture)
            for Z, got in zip([np.zeros(cfg.modes), z], laws):
                want = spectral_measure(product_state(cfg, Z, mixture), T)
                assert (got.lo, got.hi) == (want.lo, want.hi)
                assert np.max(np.abs(got.pmf - want.pmf)) < 1e-12
                assert abs(got.tail_mass - want.tail_mass) < 1e-12

    @pytest.mark.parametrize("shape", [(1, 3, 8), (2, 2, 4)])
    def test_defect_spectrum_is_integer(self, shape):
        # every sector is whole, so the Casimir spectrum is integer there,
        # and the lattice laws are built without the off-lattice error
        cfg = FockConfig(*shape)
        sectors, block = defect_blocks(cfg)
        for s in range(len(sectors)):
            vals = np.linalg.eigvalsh(block(s))
            assert np.max(np.abs(vals - np.rint(vals))) < 1e-9
        z = 0.3 * np.exp(0.5j * np.arange(cfg.modes))
        assert len(defect_spectral_measures(cfg, z, 0.4)) == 2


class TestSpectralProjection:
    def test_negative_threshold_gives_zero(self):
        cfg = FockConfig(1, 2, 6)
        T = rotation_defect_observable(cfg)
        P = spectral_projection(T, -1.0)
        assert np.max(np.abs(P)) < 1e-12

    def test_full_threshold_gives_identity(self):
        cfg = FockConfig(1, 2, 6)
        T = rotation_defect_observable(cfg)
        top = float(np.linalg.eigvalsh(T).max())
        P = spectral_projection(T, top + 1.0)
        assert np.allclose(P, np.eye(cfg.dim))

    def test_idempotent_hermitian_nested(self):
        cfg = FockConfig(1, 2, 8)
        T = rotation_defect_observable(cfg)
        Ps = spectral_projection(T, 0.5)
        Pt = spectral_projection(T, 4.5)
        for P in (Ps, Pt):
            assert np.max(np.abs(P - P.conj().T)) < 1e-8
            assert np.max(np.abs(P @ P - P)) < 1e-8
        assert np.max(np.abs(Ps @ Pt - Ps)) < 1e-8

    def test_rejects_non_hermitian(self):
        op = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            spectral_projection(op, 0.0)

    def test_kernel_matches_rotation_average(self):
        cfg = FockConfig(1, 2, 8)
        K0 = spectral_projection(rotation_defect_observable(cfg), 0.0)
        W = rotation_average_projector(cfg)
        assert np.max(np.abs(K0 - W)) < 1e-6


class TestRotationAverage:
    def test_idempotent(self):
        for n, d in ((2, 10), (3, 6)):
            W = rotation_average_projector(FockConfig(1, n, d))
            assert np.max(np.abs(W @ W - W)) < 1e-6

    def test_commutes_with_defect_observable(self):
        cfg = FockConfig(1, 2, 10)
        W = rotation_average_projector(cfg)
        T = rotation_defect_observable(cfg)
        assert np.max(np.abs(W @ T - T @ W)) < 1e-6

    @pytest.mark.parametrize("n,d", [(2, 25), (3, 10)])
    def test_coherent_expectation_matches_closed_form(self, n, d):
        cfg = FockConfig(1, n, d)
        W = rotation_average_projector(cfg)
        for r in (0.3, 0.5):
            vec = coherent_product_vector(cfg, np.full((1, n), r))
            got = float(np.real(vec.conj() @ (W @ vec)))
            z = n * r * r
            want = dist.exp_cos_integral_scaled(z, n) / beta(
                (n - 1) / 2.0, 0.5)
            assert abs(got - want) < 1e-5

    def test_unsupported_copy_count(self):
        with pytest.raises(ValueError):
            rotation_average_projector(FockConfig(1, 4, 3))


class TestSpectralMeasure:
    def test_vacuum_number_operator(self):
        num = np.diag(np.arange(8, dtype=complex))
        rho = thermal_coherent_state(0.0, 0.0, 8)
        sm = spectral_measure(rho, num)
        assert sm.lo + np.argmax(sm.pmf) == 0
        assert max(sm.pmf) == pytest.approx(1.0)

    def test_coherent_number_statistics_poisson(self):
        num = np.diag(np.arange(40, dtype=complex))
        th = 0.9
        rho = thermal_coherent_state(th, 0.0, 40)
        sm = spectral_measure(rho, num)
        assert (sm.lo, sm.hi) == (0, 39)
        lam = th * th
        want = np.exp(-lam) * lam ** sm.support / [math.factorial(int(k)) for k in sm.support]
        assert np.max(np.abs(sm.pmf - want)) < 1e-12
        assert sm.tail_mass == pytest.approx(1.0 - np.real(np.trace(rho)), abs=1e-12)

    def test_weights_sum_to_trace(self):
        cfg = FockConfig(1, 2, 10)
        obs = (-1j) * beamsplitter_generator(cfg, 1, 2).toarray()
        rho = product_state(cfg, 0.4, 0.3)
        sm = spectral_measure(rho, obs)
        assert sm.tail_mass == pytest.approx(1.0 - np.real(np.trace(rho)), abs=1e-10)

    def test_count_difference_skellam(self):
        cfg = FockConfig(1, 2, 30)
        obs = (-1j) * beamsplitter_generator(cfg, 1, 2).toarray()
        th = 0.5
        rho = product_state(cfg, th, 0.0)
        sm = spectral_measure(rho, obs)
        for v in range(-4, 5):
            assert sm.prob(v) == pytest.approx(dist.skellam_pmf(v, th * th), abs=1e-9)
        assert sm.tail_mass == pytest.approx(1.0 - np.real(np.trace(rho)), abs=1e-12)

    def test_phase_difference_route_to_lattice_law(self):
        # the diagonal photon-difference observable on the rotated product
        # state draws from the same law as the copy-mixing observable
        cfg = FockConfig(1, 2, 30)
        obs = (-1j) * copy_mixing_generator(cfg, PHASE_DIFFERENCE).toarray()
        th, N = 0.6, 0.5
        rho = product_state(cfg, np.exp(1j * np.pi / 4) * th, N)
        sm = spectral_measure(rho, obs)
        law = dist.count_difference_distribution(1, th, N)
        worst = max(abs(law.prob(int(v)) - sm.prob(int(v))) for v in sm.support)
        assert worst < 1e-8

    def test_characteristic_function_bridge(self):
        # Tr[rho_{0,N} x rho_{sqrt2 th,N} exp(r bs)] equals the lattice cf
        cfg = FockConfig(1, 2, 40)
        h = (-1j) * beamsplitter_generator(cfg, 1, 2).toarray()
        vals, vecs = np.linalg.eigh(h)
        rs = np.linspace(-3.0, 3.0, 7)
        for th, N in [(0.5, 0.0), (1.0, 1.0), (0.8, 0.5)]:
            rho = product_state(cfg, [[0.0, np.sqrt(2) * th]], N)
            diag = np.real(np.sum(vecs.conj() * (rho @ vecs), axis=0))
            got = np.array([np.sum(diag * np.exp(1j * r * vals)) for r in rs])
            want = dist.count_difference_cf(1, th, N, rs)
            assert np.max(np.abs(got - want)) < 1e-5

    def test_rejects_non_hermitian_observable(self):
        obs = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            spectral_measure(thermal_coherent_state(0, 0, 3), obs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite_entries(self, bad):
        # eigh does not check finiteness; the hermitian check fails a NaN
        # defect, so neither a state nor an observable with such an entry
        # gets through to a law of NaN masses
        entries = np.diag([0.5, 0.5, 0.0]).astype(complex)
        entries[2, 2] = bad
        with pytest.raises(ValueError, match="must be hermitian"):
            spectral_measure(entries, np.diag(np.arange(3.0)))
        with pytest.raises(ValueError, match="must be hermitian"):
            spectral_measure(thermal_coherent_state(0, 0, 3), entries)
        with pytest.raises(ValueError, match="must be hermitian"):
            spectral_projection(entries, 0.5)


SMALL_CONFIG = FockConfig(1, 2, 4)
DENSE_REFERENCES = {
    "displacement": lambda: displacement(0.3, 6),
    "thermal_coherent_state": lambda: thermal_coherent_state(0.3, 0.5, 6),
    "product_state": lambda: product_state(SMALL_CONFIG, 0.3, 0.5),
    "squeeze": lambda: squeeze(SqueezeParam.zero(1), SMALL_CONFIG),
    "rotation_defect_observable": lambda: rotation_defect_observable(SMALL_CONFIG),
    "spectral_projection": lambda: spectral_projection(np.diag(np.arange(4.0)), 1.0),
    "rotation_average_projector": lambda: rotation_average_projector(SMALL_CONFIG),
}


@pytest.mark.parametrize("name", DENSE_REFERENCES)
def test_dense_reference_is_a_plain_square_array(name):
    out = DENSE_REFERENCES[name]()
    assert type(out) is np.ndarray
    assert out.ndim == 2 and out.shape[0] == out.shape[1]


class TestSiErrorProbability:
    def test_null_gives_level_pure(self):
        cfg = FockConfig(1, 2, 20)
        assert si_type2_fock(0.0, 0.0, 0.05, cfg) == pytest.approx(0.95, abs=1e-8)

    def test_null_gives_level_mixed(self):
        cfg = FockConfig(1, 2, 25)
        assert si_type2_fock(0.0, 0.5, 0.05, cfg) == pytest.approx(0.95, abs=1e-8)

    def test_level_zero_is_nontrivial_for_pure_states(self):
        cfg = FockConfig(1, 2, 25)
        beta = si_type2_fock(0.6, 0.0, 0.0, cfg)
        assert beta < 1.0 - 1e-3

    def test_alpha_validation(self):
        cfg = FockConfig(1, 2, 6)
        with pytest.raises(ValueError):
            si_type2_fock(0.1, 0.0, 1.5, cfg)

    @pytest.mark.parametrize("mixture", [np.nan, np.inf])
    def test_mixture_must_be_finite(self, mixture):
        with pytest.raises(ValueError):
            si_type2_fock(0.3, mixture, 0.05, FockConfig(1, 2, 10))

    @pytest.mark.parametrize("theta", NON_FINITE)
    def test_non_finite_displacement_rejected(self, theta):
        with pytest.raises(ValueError):
            si_type2_fock(theta, 0.1, 0.05, FockConfig(1, 2, 6))

    @pytest.mark.parametrize("theta, mixture, shape, want", [
        (0.45, 0.0, (1, 3, 12), 0.5498975196875725),
        (0.45, 0.5, (1, 2, 24), 0.9122860199951556),
        ([0.22, 0.0], 0.05, (2, 2, 5), 0.9256846711912758),
        (0.3, 0.1, (1, 3, 9), 0.8498358226355789),
    ])
    def test_oracle_values_pinned(self, theta, mixture, shape, want):
        # the four bench oracle routes; the truncation at each cutoff is part
        # of these values, so they are matched to rounding
        assert abs(si_type2_fock(theta, mixture, 0.05, FockConfig(*shape)) - want) < 1e-13

    def test_one_single_mode_state_per_distinct_displacement(self, monkeypatch):
        # three copies of two modes: the two values of theta; the thermal
        # null is read off the sector totals and builds no state
        calls = []

        def counting(theta, mixture, cutoff):
            calls.append(theta)
            return thermal_coherent_state(theta, mixture, cutoff)

        monkeypatch.setattr(fock, "thermal_coherent_state", counting)
        si_type2_fock([0.3, 0.1j], 0.1, 0.05, FockConfig(2, 3, 3))
        assert sorted(calls, key=abs) == [0.1j, 0.3]

    @pytest.mark.parametrize("theta, shape", [(0.3, (1, 3, 9)), ([0.22, 0.0], (2, 2, 5))])
    def test_one_occupation_table_per_configuration(self, theta, shape):
        # the table is built on first read and every later read shares it
        cfg = FockConfig(*shape)
        occ = cfg.occupations
        assert cfg.occupations is occ
        si_type2_fock(theta, 0.1, 0.05, cfg)
        assert cfg.occupations is occ

    @pytest.mark.parametrize("theta, mixture, shape, sectors", [
        (0.45, 0.0, (1, 3, 12), 12),
        (0.45, 0.5, (1, 2, 24), 24),
    ])
    def test_one_eigh_per_reached_sector(self, monkeypatch, theta, mixture, shape, sectors):
        # a work count, not a timing: the displaced state reaches every
        # sector, and each reached sector is eigendecomposed once
        calls, sector_eigh = [], fock.eigh

        def counting(a):
            calls.append(a.shape)
            return sector_eigh(a)

        monkeypatch.setattr(fock, "eigh", counting)
        cfg = FockConfig(*shape)
        si_type2_fock(theta, mixture, 0.05, cfg)
        assert len(calls) == sectors
        assert sum(rows for rows, _ in calls) == cfg.dim

    def test_vanishing_mixture_lands_on_pure(self):
        # the mixture -> 0 limit: a vanishing mixture must land on the
        # pure-state answer, whose null is exactly the vacuum
        cfg = FockConfig(1, 2, 20)
        pure = si_type2_fock(0.4, 0.0, 0.05, cfg)
        mixed = si_type2_fock(0.4, 1e-12, 0.05, cfg)
        assert abs(pure - mixed) < 1e-9

    def test_pure_error_does_not_depend_on_modes(self):
        # si_type2_closed reads only the displacement norm, never m
        theta = np.array([0.3, 0.2j])
        got = si_type2_fock(theta, 0.0, 0.05, FockConfig(2, 3, 5))
        want = ht.si_type2_closed(float(np.linalg.norm(theta)),
                                  ht.TestSpec(2, 3, 0.0, 0.05))
        assert abs(got - want) < 1e-6

    def test_three_copy_mixture_calibrated_and_monotone(self):
        # no closed form exists here; the spectral route must still be
        # calibrated at the null and strictly reject displaced alternatives
        cfg = FockConfig(1, 3, 8)
        assert si_type2_fock(0.0, 0.5, 0.05, cfg) == pytest.approx(0.95, abs=1e-6)
        betas = [si_type2_fock(th, 0.5, 0.05, cfg) for th in (0.3, 0.6, 0.9)]
        assert all(b < 0.95 for b in betas)
        assert betas[0] > betas[1] > betas[2]

    def test_level_zero_with_mixture_exhausts_mass(self):
        # alpha = 0 needs an infinite acceptance threshold once the null law
        # has unbounded support; the truncated solve reports it
        cfg = FockConfig(1, 2, 20)
        with pytest.raises(ValueError):
            si_type2_fock(0.3, 0.5, 0.0, cfg)

