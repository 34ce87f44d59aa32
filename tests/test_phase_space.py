import copy
import pickle

import numpy as np
import pytest

from sqitest.hypotests import TestSpec, hh_type2_analytic, hh_type2_montecarlo
from sqitest.phase_space import (
    SqueezeParam,
    format_complex,
    heterodyne_sample,
    kappa,
    moments,
    parse_complex,
    pooling_rotation_matrix,
    rng_stream,
    whitened_signal,
)


def fourier_wigner(theta, eta, mixture, u, v) -> complex:
    """Characteristic function Tr[rho exp(-i w.r)] at w = (u; v), for one theta.

    exp(-w'(sigma - I/4) w - i sqrt(2) w'mu), with (mu, sigma) the heterodyne
    moments of ``moments``.
    """
    w = np.concatenate([np.atleast_1d(u), np.atleast_1d(v)]).astype(float)
    mu, sigma = moments(theta, eta, mixture)
    quad = w @ (sigma - np.eye(w.size) / 4.0) @ w
    return complex(np.exp(-quad - 1j * np.sqrt(2.0) * (w @ mu)))


def sigma_power(sigma, power):
    """sigma^power for a symmetric positive definite sigma, from its eigh."""
    w, Q = np.linalg.eigh(sigma)
    return (Q * w ** power) @ Q.T


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

    @pytest.mark.parametrize("clone", [copy.deepcopy, lambda e: pickle.loads(pickle.dumps(e))],
                             ids=["deepcopy", "pickle"])
    def test_copies_rebuild_G_read_only(self, clone):
        eta = random_eta(np.random.default_rng(5), m=2)
        size = len(pickle.dumps(eta))
        eta.G
        assert len(pickle.dumps(eta)) == size  # G is not carried along
        twin = clone(eta)
        assert twin.modes == eta.modes
        for name in ("A", "S", "G"):
            np.testing.assert_array_equal(getattr(twin, name), getattr(eta, name))
        assert not twin.G.flags.writeable

    def test_complex_token_round_trip(self):
        for z in (0.25 - 1.5j, 1.0, -2.75 + 0j, 3e-7 + 2e-9j):
            assert parse_complex(format_complex(z)) == complex(z)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize("block", ["A", "S"])
    def test_non_finite_entries_rejected(self, bad, block):
        # NaN fails every defect comparison, so it used to build and give NaN moments
        blocks = {"A": np.zeros((2, 2), dtype=complex), "S": np.zeros((2, 2), dtype=complex)}
        blocks[block][1, 1] = bad
        with pytest.raises(ValueError, match="entries must be finite"):
            SqueezeParam(2, blocks["A"], blocks["S"])


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
        mu, _ = moments(0.0, SqueezeParam.zero(1), 0.5)
        assert np.allclose(mu, 0.0)

    def test_vacuum_covariance(self):
        _, sigma = moments(0.2, SqueezeParam.zero(1), 0.0)
        assert np.allclose(sigma, np.eye(2) / 2)

    def test_unit_mixture_covariance(self):
        _, sigma = moments(0.2, SqueezeParam.zero(1), 1.0)
        assert np.allclose(sigma, np.eye(2))

    def test_sigma_dominates_quarter_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            _, sigma = moments(0.1, random_eta(rng, 1, 1.5), float(rng.uniform(0, 2)))
            assert np.linalg.eigvalsh(sigma - np.eye(2) / 4).min() > 0

    def test_negative_mixture_rejected(self):
        with pytest.raises(ValueError, match="mixture must be finite and >= 0"):
            moments(0.1, SqueezeParam.zero(1), -0.1)

    @pytest.mark.parametrize("theta", [np.zeros(2), np.zeros((3, 2)), np.nan, [0.1, np.inf]])
    def test_theta_of_wrong_width_or_not_finite_rejected(self, theta):
        with pytest.raises(ValueError, match="theta must"):
            moments(theta, SqueezeParam.zero(1), 0.0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_shape_rule_and_per_row_calls(self, m):
        # theta (..., m) gives mu (..., 2m), row by row, and one sigma (2m, 2m)
        rng = np.random.default_rng(60 + m)
        eta = random_eta(rng, m, scale=1.5)
        stack = 3.0 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        mu, sigma = moments(stack, eta, 0.4)
        grid_mu, grid_sigma = moments(stack.reshape(2, 3, m), eta, 0.4)
        assert mu.shape == (6, 2 * m) and grid_mu.shape == (2, 3, 2 * m)
        np.testing.assert_array_equal(grid_mu.reshape(6, 2 * m), mu)
        for theta, row in zip(stack, mu):
            one_mu, one_sigma = moments(theta, eta, 0.4)
            assert one_mu.shape == (2 * m,)
            np.testing.assert_array_equal(one_mu, row)
            np.testing.assert_array_equal(sigma, one_sigma)
            np.testing.assert_array_equal(grid_sigma, one_sigma)
        assert one_sigma.shape == (2 * m, 2 * m)
        np.testing.assert_array_equal(one_sigma, one_sigma.T)
        if m == 1:
            assert moments(0.3 - 0.2j, eta, 0.4)[0].shape == (2,)


class TestFourierWigner:
    # the outcome characteristic function built from ``moments``
    def test_vacuum_form(self):
        for u, v in [(0.5, -0.2), (1.0, 1.0)]:
            want = np.exp(-(u * u + v * v) / 4.0)
            assert fourier_wigner(0.0, SqueezeParam.zero(1), 0.0, u, v) == pytest.approx(want)

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(9)
        eta = random_eta(rng, 1, 0.5)
        for u, v in [(0.7, 0.1), (-0.2, 1.3)]:
            assert fourier_wigner(0.4 - 0.1j, eta, 0.3, -u, -v) == pytest.approx(
                np.conj(fourier_wigner(0.4 - 0.1j, eta, 0.3, u, v)))

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
            S = fock.squeeze(eta, cfg)
            rho = S @ fock.thermal_coherent_state(theta, N, d) @ S.conj().T
            for u, v in [(0.4, -0.3), (0.8, 0.5)]:
                got = np.trace(rho @ expm(-1j * (u * q + v * p)))
                want = fourier_wigner(theta, eta, N, u, v)
                assert abs(got - want) < 1e-5


class TestHeterodyneSampling:
    def test_law_of_large_numbers(self):
        eta = SqueezeParam.zero(1)
        draws = heterodyne_sample(0.5 + 0.2j, eta, 0.0, 10 ** 6, rng=rng_stream(42))
        mu, sigma = moments(0.5 + 0.2j, eta, 0.0)
        sd = np.sqrt(np.diag(sigma))
        assert np.all(np.abs(draws.mean(axis=0) - mu) < 5 * sd / 1000.0)

    def test_sample_covariance(self):
        eta = SqueezeParam.zero(1)
        draws = heterodyne_sample(0.0, eta, 0.0, 10 ** 6, rng=rng_stream(1))
        cov = np.cov(draws.T)
        _, sigma = moments(0.0, eta, 0.0)
        rel = np.linalg.norm(cov - sigma) / np.linalg.norm(sigma)
        assert rel < 0.01

    @pytest.mark.parametrize("m", [1, 2])
    def test_draws_are_moments_plus_root_shift(self, m):
        # mu + z sigma^{1/2}, the symmetric root, with z the standard normals of the same stream
        rng = np.random.default_rng(70 + m)
        eta = random_eta(rng, m, scale=1.5)
        theta = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        mu, sigma = moments(theta, eta, 0.6)
        z = rng_stream(9).standard_normal((40, 2 * m))
        want = mu + z @ sigma_power(sigma, 0.5)
        got = heterodyne_sample(theta, eta, 0.6, 40, rng_stream(9))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))

    def test_fixed_seed_reproduces(self):
        eta = SqueezeParam.zero(1)
        a = heterodyne_sample(0.1, eta, 0.3, 100, rng=rng_stream(7))
        b = heterodyne_sample(0.1, eta, 0.3, 100, rng=rng_stream(7))
        assert a.tobytes() == b.tobytes()

    def test_streams_are_split(self):
        eta = SqueezeParam.zero(1)
        a = heterodyne_sample(0.1, eta, 0.0, 50, rng=rng_stream(7, 0))
        b = heterodyne_sample(0.1, eta, 0.0, 50, rng=rng_stream(7, 1))
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("short,long", [((5,), (5, 0)), ((5, 1), (5, 1, 0))])
    def test_trailing_zero_gives_a_new_stream(self, short, long):
        a = rng_stream(*short).standard_normal(8)
        b = rng_stream(*long).standard_normal(8)
        assert not np.any(a == b)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            heterodyne_sample(0.1, SqueezeParam.zero(1), 0.0, 0, rng=rng_stream(0))

    def test_stack_rejected(self):
        rng = rng_stream(0)
        with pytest.raises(ValueError, match="one theta"):
            heterodyne_sample(np.zeros((2, 1)), SqueezeParam.zero(1), 0.0, 4, rng)
        assert rng.random() == rng_stream(0).random()  # raised before its first draw


class TestKappa:
    @pytest.mark.parametrize("mixture", [np.nan, np.inf])
    def test_mixture_must_be_finite(self, mixture):
        with pytest.raises(ValueError):
            kappa(0.3, SqueezeParam.zero(1), mixture)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("N", [0.0, 0.5])
    def test_stack_equals_per_row_calls(self, m, N):
        from tests.test_distributions import assert_shape_rule

        rng = np.random.default_rng(10 * m + int(2 * N))
        eta = random_eta(rng, m, scale=1.5)
        stack = 3.0 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        stack[2] = 0.0
        # the BLAS kernels behind the products depend on the
        # stack's height, so a row of a stack need not match its own call bit for bit
        assert_shape_rule(lambda theta: kappa(theta, eta, N), stack, rtol=1e-15)
        spec = TestSpec(m, 2 * m + 3, N, 0.05)
        assert_shape_rule(lambda theta: hh_type2_analytic(whitened_signal(theta, eta, N), spec),
                          0.3 * stack, rtol=1e-14)

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

    @pytest.mark.parametrize("r", [10.5, 12.0, 15.0, 18.0, 20.0, 25.0])
    @pytest.mark.parametrize("phi", [0.0, 0.52, 1.57, 2.62])
    def test_strong_squeezing_closed_form(self, r, phi):
        # S = r e^{i phi}: G = U diag(e^r, e^-r) U^T with U the rotation by
        # phi/2, so kappa is diagonal in y = U^T (Re theta, Im theta); the
        # second theta lies along the squeezed direction U[:, 1], where expm
        # loses G's small singular value
        eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r * np.exp(1j * phi)]]))
        U = np.array([[np.cos(phi / 2), -np.sin(phi / 2)],
                      [np.sin(phi / 2), np.cos(phi / 2)]])
        for theta, rel in ((0.7 - 0.4j, 1e-12), (0.7 * (U[0, 1] + 1j * U[1, 1]), 1e-9)):
            y = U.T @ np.array([theta.real, theta.imag])
            for N in (0.0, 0.3, 2.0):
                c = (2 * N + 1) / 4
                want = (y[0] ** 2 / (c + np.exp(-2 * r) / 4)
                        + y[1] ** 2 / (c + np.exp(2 * r) / 4))
                assert kappa(theta, eta, N) == pytest.approx(want, rel=rel, abs=0.0)
                moments(theta, eta, N)
                assert heterodyne_sample(theta, eta, N, 4, rng_stream(0)).shape == (4, 2)

    def test_strong_squeezing_draws_and_montecarlo(self):
        # r = 20, N = 0.3: sigma = U diag((1.6 e^{2r} + 1)/4, (1.6 e^{-2r} + 1)/4) U^T
        r, phi, N = 20.0, 1.57, 0.3
        eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r * np.exp(1j * phi)]]))
        U = np.array([[np.cos(phi / 2), -np.sin(phi / 2)],
                      [np.sin(phi / 2), np.cos(phi / 2)]])
        draws = heterodyne_sample(0.0, eta, N, 40000, rng_stream(5)) @ U
        var = draws.var(axis=0) / ((1.6 * np.exp([2 * r, -2 * r]) + 1) / 4)
        assert np.all(np.abs(var - 1.0) < 4 * np.sqrt(2 / 40000))
        # theta = 0 accepts with probability 1 - alpha at any squeezing
        spec = TestSpec(1, 4, N, 0.05)
        mc = hh_type2_montecarlo(whitened_signal(0.0, eta, N), spec, 40000, rng_stream(3))
        assert abs(mc.value - 0.95) < 4 * mc.stderr


class TestWhitenedSignal:
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("N", [0.0, 0.5])
    def test_shape_rule_and_per_copy_moments(self, m, N):
        # theta (..., m) gives (..., 2m); each row is sigma^{-1/2} mu of
        # that theta's own moments
        rng = np.random.default_rng(20 + 10 * m + int(2 * N))
        eta = random_eta(rng, m, scale=1.5)
        stack = 3.0 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        flat = whitened_signal(stack, eta, N)
        grid = whitened_signal(stack.reshape(2, 3, m), eta, N)
        assert flat.shape == (6, 2 * m) and grid.shape == (2, 3, 2 * m)
        np.testing.assert_array_equal(grid.reshape(6, 2 * m), flat)
        for theta, row in zip(stack, flat):
            one = whitened_signal(theta, eta, N)
            assert one.shape == (2 * m,)
            mu, sigma = moments(theta, eta, N)
            want = sigma_power(sigma, -0.5) @ mu
            scale = np.max(np.abs(want))
            np.testing.assert_allclose(one, row, rtol=0.0, atol=1e-15 * scale)
            np.testing.assert_allclose(one, want, rtol=0.0, atol=1e-14 * scale)
        assert whitened_signal(0.3, SqueezeParam.zero(1), N).shape == (2,)

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("N", [0.0, 0.5])
    def test_kappa_is_its_squared_norm(self, m, N):
        rng = np.random.default_rng(40 + 10 * m + int(2 * N))
        eta = random_eta(rng, m, scale=1.5)
        stack = 3.0 * (rng.standard_normal((6, m)) + 1j * rng.standard_normal((6, m)))
        stack[2] = 0.0
        want = np.linalg.norm(whitened_signal(stack, eta, N), axis=-1) ** 2
        np.testing.assert_allclose(kappa(stack, eta, N), want, rtol=1e-15, atol=0.0)


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
