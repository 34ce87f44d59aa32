import numpy as np
import pytest

from sqitest.hypotests import TestSpec, hh_type2_analytic
from sqitest.phase_space import (
    GaussianSpec,
    PhaseSpaceMoments,
    SqueezeParam,
    format_complex,
    fourier_wigner,
    heterodyne_sample,
    kappa,
    moments,
    parse_complex,
    pooling_rotation_matrix,
    rng_stream,
)


def random_eta(rng, m=1, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    s = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    A = 0.5 * (a - a.conj().T)
    S = 0.5 * (s + s.T)
    norm = max(np.linalg.norm(A), np.linalg.norm(S), 1.0)
    return SqueezeParam(m, A * scale / norm, S * scale / norm)


class TestSqueezeParam:
    def test_rejects_asymmetric_blocks(self):
        with pytest.raises(ValueError):
            SqueezeParam(1, np.array([[1.0]]), np.array([[0.0]]))  # A not anti-herm

    def test_repairs_tiny_defects_with_warning(self):
        A = np.array([[1e-10 + 0.5j]])  # real part breaks anti-hermiticity slightly
        with pytest.warns(UserWarning):
            eta = SqueezeParam(1, A, np.array([[0.3]]))
        assert abs(eta.A[0, 0] + np.conj(eta.A[0, 0])) < 1e-15

    def test_text_round_trip(self):
        rng = np.random.default_rng(3)
        eta = random_eta(rng, m=2)
        back = SqueezeParam.from_text(eta.to_text())
        assert np.allclose(back.A, eta.A)
        assert np.allclose(back.S, eta.S)

    def test_complex_token_round_trip(self):
        for z in (0.25 - 1.5j, 1.0, -2.75 + 0j, 3e-7 + 2e-9j):
            assert parse_complex(format_complex(z)) == complex(z)


class TestGaussianSpec:
    def test_negative_mixture_rejected(self):
        with pytest.raises(ValueError):
            GaussianSpec(1, np.array([0.1]), SqueezeParam.zero(1), -0.1)


class TestGMatrix:
    def test_zero_eta_gives_identity(self):
        assert np.allclose(SqueezeParam.zero(2).G, np.eye(4))

    def test_single_mode_real_squeeze(self):
        # A = 0, S = 1: generator diag(1, -1), so G = diag(e, 1/e)
        eta = SqueezeParam(1, np.zeros((1, 1)), np.ones((1, 1)))
        assert np.allclose(eta.G, np.diag([np.e, 1.0 / np.e]))

    def test_computed_once_per_squeeze_parameter(self):
        eta = SqueezeParam.axis_family(1.5)
        assert eta.G is eta.G
        assert not eta.G.flags.writeable

    def test_determinant_one(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = rng.integers(1, 3)
            G = random_eta(rng, m).G
            assert abs(np.linalg.det(G) - 1.0) < 1e-10


class TestMoments:
    def test_zero_displacement(self):
        spec = GaussianSpec(1, np.array([0.0]), SqueezeParam.zero(1), 0.5)
        assert np.allclose(moments(spec).mu, 0.0)

    def test_vacuum_covariance(self):
        spec = GaussianSpec(1, np.array([0.2]), SqueezeParam.zero(1), 0.0)
        assert np.allclose(moments(spec).sigma, np.eye(2) / 2)

    def test_unit_mixture_covariance(self):
        spec = GaussianSpec(1, np.array([0.2]), SqueezeParam.zero(1), 1.0)
        assert np.allclose(moments(spec).sigma, np.eye(2))

    def test_sigma_dominates_quarter_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            spec = GaussianSpec(1, np.array([0.1]), random_eta(rng, 1, 1.5),
                                float(rng.uniform(0, 2)))
            gap = np.linalg.eigvalsh(moments(spec).sigma - np.eye(2) / 4).min()
            assert gap > 0

    def test_moments_validation(self):
        with pytest.raises(ValueError):
            PhaseSpaceMoments(np.zeros(2), np.array([[1.0, 0.2], [0.1, 1.0]]))


class TestFourierWigner:
    def test_normalized_at_origin(self):
        spec = GaussianSpec(1, np.array([0.3 + 0.2j]), SqueezeParam.zero(1), 0.4)
        assert fourier_wigner(spec, 0.0, 0.0) == pytest.approx(1.0)

    def test_vacuum_form(self):
        spec = GaussianSpec(1, np.array([0.0]), SqueezeParam.zero(1), 0.0)
        for u, v in [(0.5, -0.2), (1.0, 1.0)]:
            want = np.exp(-(u * u + v * v) / 4.0)
            assert fourier_wigner(spec, u, v) == pytest.approx(want)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        spec = GaussianSpec(1, np.array([0.4 - 0.1j]), random_eta(rng, 1, 0.5), 0.3)
        for u, v in [(0.7, 0.1), (-0.2, 1.3)]:
            assert fourier_wigner(spec, -u, -v) == pytest.approx(
                np.conj(fourier_wigner(spec, u, v)))

    def test_matches_truncated_space_trace(self):
        # Tr[rho exp(-i(u q + v p))] computed literally at cutoff 40
        from scipy.linalg import expm
        from sqitest import fock

        rng = np.random.default_rng(13)
        d = 40
        a = fock.annihilation(d)
        q = (a + a.conj().T) / np.sqrt(2)
        p = -1j * (a - a.conj().T) / np.sqrt(2)
        cfg = fock.FockConfig(1, 1, d)
        for theta, N in [(0.6, 0.0), (0.3 - 0.4j, 0.5)]:
            eta = random_eta(rng, 1, 0.5)
            S = fock.squeeze(eta, cfg).entries
            rho = S @ fock.thermal_coherent_state(theta, N, d).entries @ S.conj().T
            spec = GaussianSpec(1, np.array([theta]), eta, N)
            for u, v in [(0.4, -0.3), (0.8, 0.5)]:
                got = np.trace(rho @ expm(-1j * (u * q + v * p)))
                want = fourier_wigner(spec, u, v)
                assert abs(got - want) < 1e-5


class TestHeterodyneSampling:
    def test_law_of_large_numbers(self):
        spec = GaussianSpec(1, np.array([0.5 + 0.2j]), SqueezeParam.zero(1), 0.0)
        draws = heterodyne_sample(spec, 10 ** 6, rng=rng_stream(42))
        mom = moments(spec)
        sd = np.sqrt(np.diag(mom.sigma))
        assert np.all(np.abs(draws.mean(axis=0) - mom.mu) < 5 * sd / 1000.0)

    def test_sample_covariance(self):
        spec = GaussianSpec(1, np.array([0.0]), SqueezeParam.zero(1), 0.0)
        draws = heterodyne_sample(spec, 10 ** 6, rng=rng_stream(1))
        cov = np.cov(draws.T)
        mom = moments(spec)
        rel = np.linalg.norm(cov - mom.sigma) / np.linalg.norm(mom.sigma)
        assert rel < 0.01

    def test_fixed_seed_reproduces(self):
        spec = GaussianSpec(1, np.array([0.1]), SqueezeParam.zero(1), 0.3)
        a = heterodyne_sample(spec, 100, rng=rng_stream(7))
        b = heterodyne_sample(spec, 100, rng=rng_stream(7))
        assert a.tobytes() == b.tobytes()

    def test_streams_are_split(self):
        spec = GaussianSpec(1, np.array([0.1]), SqueezeParam.zero(1), 0.0)
        a = heterodyne_sample(spec, 50, rng=rng_stream(7, 0))
        b = heterodyne_sample(spec, 50, rng=rng_stream(7, 1))
        assert not np.allclose(a, b)

    def test_count_validation(self):
        spec = GaussianSpec(1, np.array([0.1]), SqueezeParam.zero(1), 0.0)
        with pytest.raises(ValueError):
            heterodyne_sample(spec, 0, rng=rng_stream(0))


class TestKappa:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("N", [0.0, 0.5])
    def test_stack_equals_per_row_calls(self, m, N):
        from tests.test_distributions import assert_shape_rule

        rng = np.random.default_rng(10 * m + int(2 * N))
        eta = random_eta(rng, m, scale=1.5)
        stack = 3.0 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        stack[2] = 0.0
        # the BLAS kernels behind the product and the solve depend on the
        # stack's height, so a row of a stack need not match its own call bit for bit
        assert_shape_rule(lambda theta: kappa(theta, eta, N), stack, rtol=1e-15)
        spec = TestSpec(m, 2 * m + 3, N, 0.05, "hh")
        assert_shape_rule(lambda theta: hh_type2_analytic(theta, eta, spec), 0.3 * stack,
                          rtol=1e-14)

    def test_stack_of_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            kappa(np.zeros((3, 2)), SqueezeParam.zero(1), 0.0)

    def test_axis_family_closed_form(self):
        for r in (0.3, 1.0, 2.5):
            for N in (0.0, 0.5, 2.0):
                theta = np.array([0.7])
                want = 4 * r * r * 0.49 / ((2 * N + 1) * r * r + 1)
                got = kappa(theta, SqueezeParam.axis_family(r), N)
                assert got == pytest.approx(want, abs=1e-12)

    def test_no_squeezing_pure(self):
        theta = np.array([0.3 + 0.4j, 0.1])
        got = kappa(theta, SqueezeParam.zero(2), 0.0)
        assert got == pytest.approx(2 * np.linalg.norm(theta) ** 2)

    def test_zero_displacement(self):
        assert kappa(np.array([0.0]), SqueezeParam.axis_family(2.0), 0.5) == 0.0

    def test_phase_covariance_of_axis_family(self):
        # rotating theta by a phase and conjugating eta accordingly keeps kappa
        r, th, N = 1.7, 0.6, 0.4
        want = 4 * r * r * th * th / ((2 * N + 1) * r * r + 1)
        for phi in (0.3, 1.1, 2.0):
            eta = SqueezeParam(1, np.zeros((1, 1)),
                               np.array([[np.log(r) * np.exp(2j * phi)]]))
            got = kappa(np.array([th * np.exp(1j * phi)]), eta, N)
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("r", [10.5, 12.0, 15.0])
    @pytest.mark.parametrize("phi", [0.0, 0.52, 1.57, 2.62])
    def test_strong_squeezing_closed_form(self, r, phi):
        # S = r e^{i phi}: G = U diag(e^r, e^-r) U^T with U the rotation by
        # phi/2, so kappa is diagonal in y = U^T (Re theta, Im theta)
        theta = 0.7 - 0.4j
        eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r * np.exp(1j * phi)]]))
        U = np.array([[np.cos(phi / 2), -np.sin(phi / 2)],
                      [np.sin(phi / 2), np.cos(phi / 2)]])
        y = U.T @ np.array([theta.real, theta.imag])
        for N in (0.0, 0.3, 2.0):
            c = (2 * N + 1) / 4
            want = y[0] ** 2 / (c + np.exp(-2 * r) / 4) + y[1] ** 2 / (c + np.exp(2 * r) / 4)
            assert kappa(theta, eta, N) == pytest.approx(want, rel=1e-12, abs=0.0)
            spec = GaussianSpec(1, theta, eta, N)
            moments(spec)
            assert heterodyne_sample(spec, 4, rng_stream(0)).shape == (4, 2)


class TestPoolingRotationMatrix:
    def test_two_copies_explicit(self):
        R = pooling_rotation_matrix(2)
        assert np.allclose(R, np.array([[1, -1], [1, 1]]) / np.sqrt(2))

    def test_pools_constant_vector(self):
        for n in range(2, 9):
            R = pooling_rotation_matrix(n)
            want = np.zeros(n)
            want[-1] = np.sqrt(n)
            assert np.max(np.abs(R @ np.ones(n) - want)) < 1e-12

    def test_orthogonal(self):
        for n in range(2, 9):
            R = pooling_rotation_matrix(n)
            assert np.max(np.abs(R.T @ R - np.eye(n))) < 1e-12

    def test_needs_two_copies(self):
        with pytest.raises(ValueError):
            pooling_rotation_matrix(1)

    def test_equals_plane_rotation_product(self):
        # reference: R_{n-1} ... R_1, R_k the rotation by arctan(sqrt k) in
        # the (k, k+1) plane, signs included
        for n in range(2, 11):
            want = np.eye(n)
            for k in range(1, n):
                t = np.arctan(np.sqrt(k))
                Rk = np.eye(n)
                Rk[k - 1, k - 1] = Rk[k, k] = np.cos(t)
                Rk[k - 1, k], Rk[k, k - 1] = -np.sin(t), np.sin(t)
                want = Rk @ want
            assert np.max(np.abs(pooling_rotation_matrix(n) - want)) < 1e-15
