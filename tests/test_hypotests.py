import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import helmert
from scipy.special import beta

from sqitest import distributions as dist
from sqitest import hypotests as ht
from sqitest.fock import FockConfig, si_type2_fock
from sqitest.hypotests import (
    NoRouteError,
    SingularCovarianceError,
    TestSpec,
    _MC_CHUNK,
    _bartlett_t2,
    crossing_check,
    hh_type2_analytic,
    hh_type2_montecarlo,
    hotelling_F,
    si_small_theta_slope,
    si_type2,
    si_type2_branching,
    si_type2_closed,
    si_type2_n2,
)
from sqitest.phase_space import (
    SqueezeParam,
    heterodyne_sample,
    kappa,
    rng_stream,
    whitened_signal,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def bartlett_data(normals, chi2, n, shift):
    """The (R, n, p) data sets whose sufficient statistics are the rows of
    (normals, chi2), in the layout of ``_bartlett_t2``, shifted by ``shift``.

    x = H' [g; A'; 0] + 1 shift', H the full Helmert matrix, whose first row
    is (1, ..., 1) / sqrt(n): then sqrt(n) xbar = g + sqrt(n) shift and the
    centred cross products sum to A A'.
    """
    reps, p = chi2.shape
    A = np.zeros((reps, p, p))
    A[:, np.arange(p), np.arange(p)] = np.sqrt(chi2)
    A[(slice(None), *np.tril_indices(p, -1))] = normals[:, p:]
    Y = np.zeros((reps, n, p))
    Y[:, 0] = normals[:, :p]
    Y[:, 1:p + 1] = A.transpose(0, 2, 1)
    return np.einsum("ji,rjk->rik", helmert(n, full=True), Y) + shift


def solved_t2(x):
    """T^2 = n xbar' S^{-1} xbar of each data set of x (R, n, p), by ``np.linalg.solve``."""
    n = x.shape[1]
    xbar = x.mean(axis=1)
    centered = x - xbar[:, None, :]
    cov = np.einsum("rni,rnj->rij", centered, centered) / (n - 1)
    sol = np.linalg.solve(cov, xbar[..., None])[..., 0]
    return n * np.einsum("ri,ri->r", xbar, sol)


def one_batch_acceptance(theta, eta, spec, reps, seed):
    """Acceptance frequency of ``reps`` data sets rebuilt from the sufficient
    statistics drawn, all at once, from the two child streams of
    ``rng_stream(seed)``, each covariance solved with ``np.linalg.solve``."""
    n, p = spec.copies, spec.mu_dof
    normal_rng, chi2_rng = rng_stream(seed).spawn(2)
    normals = normal_rng.standard_normal((reps, p * (p + 1) // 2))
    chi2 = chi2_rng.chisquare(n - 1 - np.arange(p), (reps, p))
    x = bartlett_data(normals, chi2, n, whitened_signal(theta, eta, spec.mixture))
    f_vals = (spec.nu_dof / (spec.mu_dof * (n - 1))) * solved_t2(x)
    return float(np.mean(f_vals <= spec.critical_point))


class TestTestSpec:
    @staticmethod
    def _only_hotelling_refuses(copies, alpha):
        spec = TestSpec(1, copies, 0.0, alpha)
        assert np.isfinite(si_type2_closed(0.3, spec))
        eta0 = SqueezeParam.zero(1)
        with pytest.raises(ValueError):
            hh_type2_analytic(whitened_signal(0.3, eta0, 0.0), spec)
        rng = rng_stream(0)
        with pytest.raises(ValueError):
            hh_type2_montecarlo(whitened_signal(0.3, eta0, 0.0), spec, 100, rng)
        assert rng.random() == rng_stream(0).random()  # raised before its first draw

    def test_hotelling_needs_enough_copies(self):
        self._only_hotelling_refuses(2, 0.05)

    def test_hotelling_needs_interior_level(self):
        # the central F critical point is infinite at alpha = 0 and 0 at 1
        for alpha in (0.0, 1.0):
            self._only_hotelling_refuses(3, alpha)

    @pytest.mark.parametrize("modes", [0, -1])
    def test_needs_a_mode(self, modes):
        # modes = 0 used to build, and si_type2_closed then returned 0.734
        with pytest.raises(ValueError, match="modes must be >= 1"):
            TestSpec(modes, 3, 0.0, 0.05)

    def test_invariant_needs_two_copies(self):
        with pytest.raises(ValueError):
            TestSpec(1, 1, 0.0, 0.05)

    @pytest.mark.parametrize("modes,copies", [(1, 2.5), (1.5, 3), (1.0, 3), (1, 3.0)])
    def test_sizes_must_be_integers(self, modes, copies):
        # copies = 2.5 gave an SI error of 0.5491, and modes = 1.5 a
        # critical point that asked for "more than 2m copies"
        with pytest.raises(ValueError, match="modes and copies must be integers"):
            TestSpec(modes, copies, 0.0, 0.05)

    def test_numpy_integer_sizes_accepted(self):
        spec = TestSpec(np.int64(1), np.int64(3), 0.0, 0.05)
        assert spec.critical_point == TestSpec(1, 3, 0.0, 0.05).critical_point

    def test_level_range(self):
        for alpha in (1.2, np.nan):
            with pytest.raises(ValueError):
                TestSpec(1, 3, 0.0, alpha)

    @pytest.mark.parametrize("mixture", [-1.0, np.nan, np.inf])
    def test_mixture_must_be_finite_and_nonnegative(self, mixture):
        with pytest.raises(ValueError):
            TestSpec(1, 3, mixture, 0.05)


class TestHotellingStatistic:
    def test_matches_hand_inverse(self):
        # oracle: explicit 2x2 inverse on a three-point data set
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        xbar = X.mean(axis=0)
        C = X - xbar
        S = C.T @ C / 2.0
        det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
        Sinv = np.array([[S[1, 1], -S[0, 1]], [-S[1, 0], S[0, 0]]]) / det
        t2 = 3.0 * xbar @ Sinv @ xbar
        oracle = (1.0 / (2.0 * 2.0)) * t2  # nu=1, mu=2, n-1=2
        assert hotelling_F(X) == pytest.approx(oracle, rel=1e-12)

    def test_zero_mean_dataset(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        assert hotelling_F(X) == pytest.approx(0.0, abs=1e-14)

    def test_identical_samples_singular(self):
        with pytest.raises(SingularCovarianceError):
            hotelling_F(np.array([[1.0, 2.0]] * 3))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((5, 2))
        assert hotelling_F(3.7 * X) == pytest.approx(hotelling_F(X), rel=1e-10)

    def test_offset_data_matches_explicit_solve(self):
        # the kernel reads uncentred moments, so hotelling_F centres first
        rng = np.random.default_rng(8)
        X = 1e3 + rng.standard_normal((7, 4))
        xbar = X.mean(axis=0)
        cov = (X - xbar).T @ (X - xbar) / 6.0
        t2 = 7.0 * xbar @ np.linalg.solve(cov, xbar)
        assert hotelling_F(X) == pytest.approx((3.0 / (4.0 * 6.0)) * t2, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("r", [17.0, 20.0])
    def test_strongly_squeezed_raw_outcomes(self, r):
        # sigma's condition number is about 1.6 e^{2r}, past 1/eps at r = 20;
        # T^2 from a QR of the centred samples meets only its square root,
        # so no set is singular and the null accepts at 1 - alpha
        eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r * np.exp(1.57j)]]))
        spec, rng, sets = TestSpec(1, 4, 0.3, 0.05), rng_stream(3), 500
        accepted = sum(hotelling_F(heterodyne_sample(0.0, eta, 0.3, 4, rng))
                       <= spec.critical_point for _ in range(sets))
        assert abs(accepted / sets - 0.95) < 4 * np.sqrt(0.95 * 0.05 / sets)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            hotelling_F(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_samples_are_not_a_singular_covariance(self, bad):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, bad]])
        with pytest.raises(ValueError, match="finite") as err:
            hotelling_F(X)
        assert not isinstance(err.value, SingularCovarianceError)


class TestBartlettKernel:
    @pytest.mark.parametrize("n, p", [(3, 2), (5, 4), (9, 6), (40, 2), (40, 6)])
    def test_matches_per_replicate_solve(self, n, p):
        rng = np.random.default_rng(100 * n + p)
        normals = rng.standard_normal((64, p * (p + 1) // 2))
        chi2 = rng.chisquare(n - 1 - np.arange(p), (64, p))
        shift = rng.standard_normal(p)
        got = _bartlett_t2(normals, chi2, n)(shift)
        want = solved_t2(bartlett_data(normals, chi2, n, shift))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)

    def test_zero_pivot_is_rejection(self):
        rng = np.random.default_rng(5)
        normals, chi2 = rng.standard_normal((3, 3)), rng.chisquare([3, 2], (3, 2))
        chi2[1, 1] = 0.0                     # r / 0: T^2 inf
        normals[2, 0], chi2[2, 0] = 0.0, 0.0  # 0 / 0 at the zero shift: T^2 nan
        t2 = _bartlett_t2(normals, chi2, 4)(np.zeros(2))
        assert np.isfinite(t2[0]) and np.isposinf(t2[1]) and np.isnan(t2[2])
        assert list(t2 <= np.finfo(float).max) == [True, False, False]  # fails every c


class TestHHAnalytic:
    def test_null_gives_level(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        got = hh_type2_analytic(whitened_signal(0.0, SqueezeParam.zero(1), 0.0), spec)
        assert abs(got - 0.95) < 1e-9

    def test_supremum_over_squeezing_reaches_trivial(self):
        # along the axis family the noncentrality collapses as r -> 0, so the
        # error probability climbs monotonically to 1 - alpha
        spec = TestSpec(1, 3, 0.0, 0.05)
        vals = [hh_type2_analytic(whitened_signal(0.5, SqueezeParam.axis_family(r), 0.0), spec)
                for r in (1.0, 0.5, 0.1, 0.01)]
        assert all(b > a - 1e-6 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 0.95 - 1e-4

    def test_small_noncentrality_slope(self):
        # (1 - alpha - beta)/lambda -> (1 - alpha - delta)/2 with
        # delta = (mu + nu) int_0^c f/(mu f + nu) p0(f) df
        alpha, mu, nu = 0.05, 2, 1
        c = dist.critical_point(alpha, mu, nu)
        p0 = dist.NoncentralFParams(mu, nu, 0.0)
        delta, _ = quad(lambda f: (mu + nu) * f / (mu * f + nu)
                        * dist.noncentral_f_pdf(f, p0), 0, c, limit=300)
        lam = 1e-4
        beta = dist.noncentral_f_cdf(c, dist.NoncentralFParams(mu, nu, lam))
        slope = (1.0 - alpha - beta) / lam
        assert slope == pytest.approx((1.0 - alpha - delta) / 2.0, rel=0.01)

    def test_eta_dependence(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        b1 = hh_type2_analytic(whitened_signal(0.5, SqueezeParam.axis_family(1.0), 0.0), spec)
        b2 = hh_type2_analytic(whitened_signal(0.5, SqueezeParam.axis_family(0.1), 0.0), spec)
        assert abs(b1 - b2) > 1e-2  # far above solver tolerance

    def test_lower_bound_exponential(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        eta0 = SqueezeParam.zero(1)
        for th in (0.3, 0.7, 1.5):
            lam = 3 * kappa(np.array([th]), eta0, 0.0)
            beta = hh_type2_analytic(whitened_signal(th, eta0, 0.0), spec)
            assert beta > np.exp(-lam / 2.0) * 0.95

    def test_one_theta_gives_a_float_and_a_stack_an_array(self):
        spec = TestSpec(2, 6, 0.3, 0.05)
        eta = SqueezeParam.axis_family(1.5, modes=2)
        stack = np.array([[0.0, 0.0], [0.5, 0.2j], [1.0 - 0.5j, 0.3]])
        got = hh_type2_analytic(whitened_signal(stack, eta, 0.3), spec)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        for theta, beta in zip(stack, got):
            one = hh_type2_analytic(whitened_signal(theta, eta, 0.3), spec)
            assert isinstance(one, float)
            assert one == pytest.approx(beta, rel=1e-14, abs=0.0)
        assert isinstance(hh_type2_analytic(whitened_signal(0.5, SqueezeParam.zero(1), 0.0),
                                            TestSpec(1, 3, 0.0, 0.05)), float)

    def test_critical_point_solved_once_per_spec(self, monkeypatch):
        calls = []
        solve = dist.critical_point
        monkeypatch.setattr(dist, "critical_point",
                            lambda *a: calls.append(a) or solve(*a))
        spec = TestSpec(1, 3, 0.0, 0.05)
        for t in (0.0, 0.5, 1.0):
            hh_type2_analytic(whitened_signal(t, SqueezeParam.zero(1), 0.0), spec)
        assert len(calls) == 1
        assert spec.critical_point == solve(0.05, 2, 1)


class TestHHMonteCarlo:
    def test_null_calibration(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        est = hh_type2_montecarlo(np.zeros(2), spec, 10 ** 5, rng_stream(1))
        assert abs(est.value - 0.95) < 4 * est.stderr

    def test_matches_analytic(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        eta0 = SqueezeParam.zero(1)
        est = hh_type2_montecarlo(whitened_signal(0.5, eta0, 0.0), spec, 10 ** 5, rng_stream(2))
        want = hh_type2_analytic(whitened_signal(0.5, eta0, 0.0), spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_matches_analytic_with_squeezing(self):
        spec = TestSpec(1, 3, 0.5, 0.05)
        eta = SqueezeParam.axis_family(1.5)
        est = hh_type2_montecarlo(whitened_signal(0.4, eta, 0.5), spec, 10 ** 5, rng_stream(3))
        want = hh_type2_analytic(whitened_signal(0.4, eta, 0.5), spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_matches_analytic_with_two_modes(self):
        # p = 4: the Cholesky kernel beyond the 2x2 covariance
        spec = TestSpec(2, 6, 0.0, 0.05)
        eta = SqueezeParam.axis_family(1.5, modes=2)
        theta = np.array([1.2, 0.8j])
        est = hh_type2_montecarlo(whitened_signal(theta, eta, 0.0), spec, 10 ** 5,
                                  rng_stream(4))
        want = hh_type2_analytic(whitened_signal(theta, eta, 0.0), spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_deterministic(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        signal = whitened_signal(0.3, SqueezeParam.zero(1), 0.0)
        a = hh_type2_montecarlo(signal, spec, 2000, rng_stream(9))
        b = hh_type2_montecarlo(signal, spec, 2000, rng_stream(9))
        assert a == b

    def test_zero_pivots_count_as_rejections(self, monkeypatch):
        # a Bartlett factor with a zero pivot has no inverse: every such
        # replicate is rejected, and the call still returns
        kernel = ht._bartlett_t2

        def zero_odd_pivots(normals, chi2, n):
            chi2 = chi2.copy()
            chi2[1::2, -1] = 0.0
            return kernel(normals, chi2, n)

        monkeypatch.setattr(ht, "_bartlett_t2", zero_odd_pivots)
        spec, reps = TestSpec(1, 4, 0.0, 0.05), 2 * _MC_CHUNK + 6
        est = hh_type2_montecarlo(np.zeros(2), spec, reps, rng_stream(6))
        assert est.value <= 0.5
        assert abs(est.value - 0.95 / 2) < 5 * np.sqrt(0.95 * 0.05 / (2 * reps))

    def test_matches_hotelling_F_on_heterodyne_data(self):
        # two independent samples of the same acceptance: the Monte Carlo's
        # drawn statistics, and hotelling_F on data sets of n outcomes each
        spec = TestSpec(1, 4, 0.5, 0.05)
        eta, theta, sets = SqueezeParam.axis_family(1.5), 2.0, 10_000
        x = heterodyne_sample(theta, eta, 0.5, sets * 4, rng_stream(31)).reshape(sets, 4, 2)
        on_data = np.mean([hotelling_F(s) <= spec.critical_point for s in x])
        est = hh_type2_montecarlo(whitened_signal(theta, eta, 0.5), spec, 10 ** 5,
                                  rng_stream(32))
        assert 0.3 < on_data < 0.7
        sigma = np.hypot(np.sqrt(on_data * (1.0 - on_data) / sets), est.stderr)
        assert abs(est.value - on_data) < 5 * sigma

    @pytest.mark.parametrize("n, lams", [(200, (0.0, 4.0, 12.0)),
                                         (3000, (0.0, 8.0, 170.009, 1000.0))])
    def test_large_n_matches_analytic(self, n, lams):
        # a replicate costs the same at any n; at n = 3000 the lambdas from
        # 170 on are where the noncentral F engine's tail bound overflowed
        spec = TestSpec(1, n, 0.0, 0.05)
        signal = np.sqrt(np.array(lams) / n)[:, None] * np.array([1.0, 0.0])
        est = hh_type2_montecarlo(signal, spec, 10 ** 5, rng_stream(n))
        want = hh_type2_analytic(signal, spec)
        assert want[1] < 0.9 and np.all(np.abs(est.value - want) < 4 * est.stderr)

    def test_blocked_estimate_equals_one_batch(self):
        # three full blocks of _MC_CHUNK replicates and a partial one
        spec = TestSpec(1, 4, 0.5, 0.05)
        eta = SqueezeParam.axis_family(1.5)
        reps, seed = 3 * _MC_CHUNK + 17, 7
        est = hh_type2_montecarlo(whitened_signal(0.4, eta, 0.5), spec, reps, rng_stream(seed))
        accept = one_batch_acceptance(0.4, eta, spec, reps, seed)
        assert est.value == accept
        assert est.stderr == float(np.sqrt(accept * (1.0 - accept) / reps))

    def test_needs_positive_reps(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        with pytest.raises(ValueError):
            hh_type2_montecarlo(whitened_signal(0.3, SqueezeParam.zero(1), 0.0), spec, 0,
                                rng_stream(0))

    @pytest.mark.parametrize("signal", [0.3, np.zeros(3), np.zeros((2, 4))])
    def test_signal_needs_width_2m(self, signal):
        spec = TestSpec(1, 4, 0.0, 0.05)
        rng = rng_stream(0)
        with pytest.raises(ValueError, match=r"finite, of shape \(\.\.\., 2\)"):
            hh_type2_montecarlo(signal, spec, 100, rng)
        assert rng.random() == rng_stream(0).random()  # raised before its first draw

    @pytest.mark.parametrize("modes", [1, 2])
    def test_stack_equals_per_theta_calls(self, modes):
        # every signal is a shift of the same draws, so each entry is the
        # call with that theta's signal alone on a fresh copy of the stream
        spec = TestSpec(modes, 2 * modes + 2, 0.3, 0.05)
        eta = SqueezeParam.axis_family(1.5, modes=modes)
        rng = np.random.default_rng(modes)
        stack = (rng.standard_normal((2, 3, modes))
                 + 1j * rng.standard_normal((2, 3, modes)))
        stack[0, 0] = 0.0
        reps = _MC_CHUNK + 11
        est = hh_type2_montecarlo(whitened_signal(stack, eta, 0.3), spec, reps, rng_stream(21))
        assert est.value.shape == est.stderr.shape == (2, 3)
        for idx in np.ndindex(2, 3):
            one = hh_type2_montecarlo(whitened_signal(stack[idx], eta, 0.3), spec, reps,
                                      rng_stream(21))
            assert isinstance(one.value, np.float64) and isinstance(one.stderr, np.float64)
            assert one.value == est.value[idx] and one.stderr == est.stderr[idx]

    @pytest.mark.parametrize("modes", [1, 2])
    def test_shift_stack_equals_one_batch(self, modes):
        # two squeezings and three thetas on one stream, with a partial
        # block, against heterodyne outcomes solved one replicate at a time
        spec = TestSpec(modes, 2 * modes + 2, 0.5, 0.05)
        etas = (SqueezeParam.zero(modes), SqueezeParam.axis_family(1.5, modes=modes))
        thetas = np.outer([0.0, 0.4, 0.9j], np.ones(modes))
        reps, seed = 2 * _MC_CHUNK + 17, 8
        signals = np.stack([whitened_signal(thetas, eta, 0.5) for eta in etas])
        est = hh_type2_montecarlo(signals, spec, reps, rng_stream(seed))
        assert est.value.shape == (2, 3)
        for j, eta in enumerate(etas):
            for i, theta in enumerate(thetas):
                accept = one_batch_acceptance(theta, eta, spec, reps, seed)
                assert est.value[j, i] == accept
                assert est.stderr[j, i] == float(np.sqrt(accept * (1.0 - accept) / reps))
        # theta = 0 is the zero shift under every squeezing
        assert est.value[0, 0] == est.value[1, 0]


class TestSIClosedForm:
    def test_null_gives_level_exactly(self):
        # theta = 1e-160 makes n theta^2 subnormal, where the Bessel form gave nan at n = 2
        for n in (2, 3, 5):
            spec = TestSpec(1, n, 0.0, 0.05)
            for theta in (0.0, 1e-160):
                assert si_type2_closed(theta, spec) == pytest.approx(0.95, abs=1e-12)

    def test_two_copies_bessel_form(self):
        from tests.test_distributions import bessel_i0_series

        spec = TestSpec(1, 2, 0.0, 0.05)
        for th in (0.3, 0.8):
            want = 0.95 * np.exp(-2 * th * th) * bessel_i0_series(2 * th * th)
            assert si_type2_closed(th, spec) == pytest.approx(want, rel=1e-10)

    def test_three_copies_exponential_form(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        for th in (0.4, 1.0):
            r = 3 * th * th
            want = 0.95 * (1 - np.exp(-2 * r)) / (r * beta(1.0, 0.5))
            assert si_type2_closed(th, spec) == pytest.approx(want, rel=1e-10)

    def test_mixture_not_supported(self):
        with pytest.raises(ValueError):
            si_type2_closed(0.3, TestSpec(1, 2, 0.5, 0.05))

    def test_array_keeps_its_shape(self):
        from tests.test_distributions import assert_shape_rule

        for n in (2, 3, 7):
            spec = TestSpec(1, n, 0.0, 0.05)
            assert_shape_rule(lambda t: si_type2_closed(t, spec),
                              [0.0, 0.01, 0.5, 2.0, 40.0, 400.0])

    def test_monotone_decreasing_and_bounded(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        grid = np.linspace(0.1, 2.5, 13)
        vals = [si_type2_closed(t, spec) for t in grid]
        assert all(0.0 < v <= 0.95 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestSITwoCopies:
    def test_null_gives_level(self):
        for N in (0.0, 0.5, 1.0):
            got = si_type2_n2(0.0, 1, N, 0.05)
            assert got == pytest.approx(0.95, abs=1e-10)

    def test_pure_case_matches_closed_form(self):
        spec = TestSpec(1, 2, 0.0, 0.05)
        for th in (0.0, 0.3, 0.7, 1.2):
            assert abs(si_type2_n2(th, 1, 0.0, 0.05)
                       - si_type2_closed(th, spec)) < 1e-8

    def test_multimode_pure_case(self):
        spec = TestSpec(2, 2, 0.0, 0.05)
        assert abs(si_type2_n2(0.5, 2, 0.0, 0.05)
                   - si_type2_closed(0.5, spec)) < 1e-8

    @pytest.mark.parametrize("m,N", [(1, 0.0), (2, 0.5)])
    def test_array_keeps_its_shape(self, m, N):
        from tests.test_distributions import assert_shape_rule

        assert_shape_rule(lambda t: si_type2_n2(t, m, N, 0.05),
                          [0.0, 0.3, 0.3, 0.7, 1.2, 2.5])

    def test_level_zero_is_nontrivial_for_pure_states(self):
        beta = si_type2_n2(0.8, 1, 0.0, 0.0)
        assert beta < 1.0 - 1e-3

    def test_level_zero_with_mixture_is_trivial(self):
        # with unbounded null support, level zero needs the full acceptance
        # projection, so beta = 1 up to truncation bookkeeping (a null law
        # whose mass falls short of 1 - alpha raises instead: see
        # TestRandomizedAcceptance in test_distributions)
        assert si_type2_n2(0.3, 1, 0.5, 0.0) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("m,s,N", [(1, 0.0, 0.0), (1, 1.3, 0.0), (2, 0.7, 2.0)])
    def test_abs_law_equals_atom_by_atom_sum(self, m, s, N):
        law = dist.count_difference_distribution(m, s, N)
        masses = {}
        for v, p in zip(law.support, law.pmf):
            masses[abs(v)] = masses.get(abs(v), 0.0) + p
        # the fold si_type2_n2 sets its test on
        folded = dist.lattice_law(np.abs(law.support), law.pmf)
        assert folded.support.tolist() == sorted(masses)
        assert folded.pmf.tolist() == [masses[x] for x in sorted(masses)]
        assert folded.tail_mass == pytest.approx(law.tail_mass, abs=1e-15)

    @pytest.mark.parametrize("theta", [0.7, 60.0, 300.0])
    def test_matches_cf_inversion(self, theta):
        # at theta = 60, N = 0.5 the photon law's -log f(0) is about 2400,
        # past 500, so its recurrence is rescaled on the way up; at 300 the
        # law is a core of 6 494 atoms far from 0
        def abs_law(t):
            bound = dist.count_difference_distribution(1, t, 0.5).hi + 8
            inv = dist.invert_integer_cf(lambda r: dist.count_difference_cf(1, t, 0.5, r),
                                         bound)
            return dist.lattice_law(np.abs(inv.support), inv.pmf)

        want = dist.randomized_acceptance(abs_law(0.0), abs_law(theta), 0.05)
        assert si_type2_n2(theta, 1, 0.5, 0.05) == pytest.approx(want, abs=1e-9)

    def test_same_bits_at_one_and_two_blas_threads(self):
        # the convolution of a photon law of 93 275 atoms, lower tail and
        # all, changed its last bit with the OpenBLAS thread count
        code = ("from sqitest.hypotests import si_type2_n2\n"
                "print([si_type2_n2(t, 1, 0.5, 0.05).hex() for t in (150.0, 250.0)])")
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_matches_truncated_space_oracle(self):
        cfg = FockConfig(1, 2, 40)
        got = si_type2_fock(0.5, 0.5, 0.05, cfg)
        want = si_type2_n2(0.5, 1, 0.5, 0.05)
        assert abs(got - want) < 1e-4


class TestSIBranching:
    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10])
    def test_pure_case_matches_closed_form(self, n):
        spec, theta = TestSpec(1, n, 0.0, 0.05), np.array([0.3, 0.7, 1.2])
        np.testing.assert_allclose(si_type2_branching(theta, spec),
                                   si_type2_closed(theta, spec), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("N", [0.3, 1.0])
    def test_two_copies_match_lattice_law(self, N):
        theta = np.array([0.3, 0.7, 1.2])
        np.testing.assert_allclose(si_type2_branching(theta, TestSpec(1, 2, N, 0.05)),
                                   si_type2_n2(theta, 1, N, 0.05), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("theta, cutoff, tol", [(0.3, 20, 1e-10), (0.7, 20, 3e-8),
                                                    (0.7, 32, 1e-13)])
    def test_matches_truncated_space_oracle(self, theta, cutoff, tol):
        # the oracle's truncation sets the gap: 1.1e-8 at d = 20, 1.3e-14 at 32
        got = si_type2_fock(theta, 0.3, 0.05, FockConfig(1, 3, cutoff))
        assert abs(got - si_type2_branching(theta, TestSpec(1, 3, 0.3, 0.05))) < tol

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(n=st.integers(3, 12), N=st.floats(0.05, 2.0),
           alpha=st.sampled_from([0.05]) | st.floats(0.0, 1.0))
    def test_null_gives_level(self, n, N, alpha):
        got = si_type2_branching(0.0, TestSpec(1, n, N, alpha))
        assert abs(got - (1.0 - alpha)) < 1e-11

    @pytest.mark.parametrize("n, N", [(3, 0.3), (5, 0.5)])
    def test_decreasing_in_theta(self, n, N):
        beta = si_type2_branching(np.linspace(0.0, 2.0, 11), TestSpec(1, n, N, 0.05))
        assert np.all(np.diff(beta) < 0) and 0.0 < beta[-1]

    def test_stack_equals_single_calls(self):
        from tests.test_distributions import assert_shape_rule

        # the six thetas reach different K_max, so each sums fewer blocks
        # than the largest one builds
        spec = TestSpec(1, 3, 0.3, 0.05)
        assert_shape_rule(lambda t: si_type2_branching(t, spec),
                          [0.0, 1.2, 0.3, 1.5, 0.7, 0.9], rtol=0.0)

    def test_million_copies(self):
        # dimH(l', n - 1) passes 1e308 from l' = 68 on, and D spans n K_max,
        # 1e8 atoms here: the weights are formed in logarithms and the laws
        # sit on the rank of D.  The 40 thermal photons lie almost all off the
        # pooled mode, so beta stays near the pure value
        theta = np.array([0.0, 0.001, 0.002])
        got = si_type2_branching(theta, TestSpec(1, 10 ** 6, 4e-5, 0.05))
        assert abs(got[0] - 0.95) < 1e-11
        np.testing.assert_allclose(got, si_type2_closed(theta, TestSpec(1, 10 ** 6, 0.0, 0.05)),
                                   rtol=0.0, atol=1e-4)

    @pytest.mark.parametrize("N", [1000.0, 1e5])
    def test_cost_cap_raises_before_any_table(self, N):
        # N = 1e5 would otherwise reach the photon law's own atom bound
        start = time.perf_counter()
        with pytest.raises(NoRouteError, match="total photon counts up to 256"):
            si_type2_branching(np.array([0.0, 1.0]), TestSpec(1, 3, N, 0.05))
        assert time.perf_counter() - start < 0.5


class TestSIDispatch:
    @pytest.mark.parametrize("m, n, N", [(1, 3, 0.0), (2, 3, 0.0), (1, 2, 0.5),
                                         (2, 2, 0.5), (1, 3, 0.3), (1, 5, 0.5)])
    def test_equals_the_route_of_its_region(self, m, n, N):
        spec, theta = TestSpec(m, n, N, 0.05), np.array([[0.0, 0.4], [0.9, 1.2]])
        if N == 0.0:
            want = si_type2_closed(theta, spec)
        elif n == 2:
            want = si_type2_n2(theta, m, N, 0.05)
        else:
            want = si_type2_branching(theta, spec)
        np.testing.assert_array_equal(si_type2(theta, spec), want)

    def test_no_route_for_mixed_multimode_states(self):
        spec = TestSpec(2, 3, 0.3, 0.05)
        for route in (si_type2, si_type2_branching):
            with pytest.raises(NoRouteError, match="m >= 2 modes with n >= 3 copies"):
                route(0.5, spec)


class TestSlope:
    def test_contract_value(self):
        for n, alpha in [(2, 0.05), (3, 0.05), (3, 0.2)]:
            slope = si_small_theta_slope(TestSpec(1, n, 0.0, alpha))
            assert slope == pytest.approx((1 - alpha) * n, rel=5e-3)

    def test_direct_readings(self):
        assert si_small_theta_slope(TestSpec(1, 2, 0.0, 0.05)) == pytest.approx(
            1.90, rel=0.01)
        assert si_small_theta_slope(TestSpec(1, 3, 0.0, 0.05)) == pytest.approx(
            2.85, rel=0.01)

    def test_consistency_between_routes(self):
        # slope from the lattice-law route agrees with the closed form
        thetas = (1e-2, 5e-3, 2.5e-3)
        g = [(0.95 - si_type2_n2(t, 1, 0.0, 0.05)) / t ** 2 for t in thetas]
        for _ in range(2):
            g = [(4 * g[i + 1] - g[i]) / 3.0 for i in range(len(g) - 1)]
        closed = si_small_theta_slope(TestSpec(1, 2, 0.0, 0.05))
        assert g[0] == pytest.approx(closed, rel=1e-6)


class TestNullLevel:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           n=st.integers(2, 7), m=st.sampled_from([1, 2]), N=st.floats(0.0, 30.0))
    def test_every_si_route_gives_one_minus_alpha_at_zero(self, alpha, n, m, N):
        want = 1.0 - alpha
        assert abs(si_type2_closed(0.0, TestSpec(1, n, 0.0, alpha)) - want) < 1e-11
        assert abs(si_type2_n2(0.0, m, N, alpha) - want) < 1e-11
        assert abs(si_type2_fock(0.0, 0.0, alpha, FockConfig(1, 3, 6)) - want) < 1e-11


class TestCrossing:
    def test_wide_grid_finds_both_witnesses(self):
        res = crossing_check(0.05, np.linspace(0.05, 40.0, 160))
        assert res.found_both
        assert res.theta_small < 1.0
        assert 25.0 < res.theta_large < 35.0

    def test_narrow_grid_reports_missing_witness(self):
        res = crossing_check(0.05, np.linspace(0.05, 3.0, 60))
        assert res.theta_small is not None
        assert res.theta_large is None
        assert not res.found_both
        assert len(res.beta_si) == 60  # full curve still reported

    def test_degenerate_grid(self):
        res = crossing_check(0.05, np.array([0.0]))
        assert res.theta_small is None and res.theta_large is None
        assert res.beta_si[0] == pytest.approx(0.95)
        assert res.beta_hh[0] == pytest.approx(0.95, abs=1e-9)

    def test_witnesses_stable_under_refinement(self):
        coarse = crossing_check(0.05, np.linspace(0.05, 40.0, 160))
        fine = crossing_check(0.05, np.linspace(0.05, 40.0, 320))
        assert fine.found_both
        spacing = 40.0 / 159
        assert abs(fine.theta_large - coarse.theta_large) <= spacing
        assert abs(fine.theta_small - coarse.theta_small) <= spacing


class TestTailOrdering:
    def test_invariant_test_tail_is_quadratic(self):
        spec = TestSpec(1, 3, 0.0, 0.05)
        scaled = [t * t * si_type2_closed(t, spec) for t in (2.0, 3.0, 4.0)]
        want = 0.95 / (3.0 * beta(1.0, 0.5))
        assert all(abs(s - want) < 0.01 for s in scaled)

    def test_hotelling_tail_eventually_wins(self):
        # at alpha = 0.5 the exponential-vs-quadratic tail ordering is already
        # visible on a desk-scale grid
        spec_hh = TestSpec(1, 3, 0.0, 0.5)
        spec_si = TestSpec(1, 3, 0.0, 0.5)
        eta0 = SqueezeParam.zero(1)
        ratios = [hh_type2_analytic(whitened_signal(t, eta0, 0.0), spec_hh)
                  / si_type2_closed(t, spec_si)
                  for t in (2.0, 3.0, 4.0)]
        assert ratios[0] > ratios[1] > ratios[2]


@pytest.mark.parametrize("call,theta", [
    (lambda t: si_type2_closed(t, TestSpec(1, 3, 0.0, 0.05)), 1e160),
    (lambda t: si_type2_n2(t, 1, 0.5, 0.05), 1e200),
    (lambda t: si_type2_branching(t, TestSpec(1, 3, 0.5, 0.05)), 1e160),
])
def test_theta_whose_square_overflows_rejected(call, theta):
    # n theta^2 = inf used to give nan (closed form) or an OverflowError (n = 2)
    with pytest.raises(ValueError, match="theta must be finite, with . \\* theta\\^2"):
        call(np.array([0.3, theta]))


def test_closed_form_far_past_the_bulk():
    # n = 3: beta = (1 - alpha) (1 - e^{-2z}) / (2z), z = 3 theta^2; scipy's ive
    # gives NaN from z ~ 1.07e9 on, which used to reach this column, and the
    # Bessel form gave nan at theta = 5e153 (z = 7.5e307) too.  From z = 5e16
    # on the value is formed in logarithms, so |log beta| ~ 460 at
    # theta = 1e100 costs ~1e-13
    theta = np.array([1e4, 2e4, 1e5, 1e100, 5e153])
    want = 0.95 / (6.0 * theta ** 2)
    np.testing.assert_allclose(si_type2_closed(theta, TestSpec(1, 3, 0.0, 0.05)), want,
                               rtol=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("route", ["kappa", "hh_type2_analytic", "hh_type2_montecarlo",
                                   "si_type2_closed", "si_type2_n2", "si_type2",
                                   "si_type2_branching"])
def test_non_finite_theta_rejected(route, bad):
    # each map used to answer differently: a silent 0.0 acceptance, nan, or
    # an unrelated conversion error
    eta0, spec = SqueezeParam.zero(1), TestSpec(1, 4, 0.0, 0.05)
    rng = rng_stream(1)
    call = {
        "kappa": lambda t: kappa(t, eta0, 0.0),
        "hh_type2_analytic": lambda t: hh_type2_analytic(whitened_signal(t, eta0, 0.0), spec),
        "hh_type2_montecarlo": lambda t: hh_type2_montecarlo(
            whitened_signal(t, eta0, 0.0), spec, 2000, rng),
        "si_type2_closed": lambda t: si_type2_closed(t, spec),
        "si_type2_n2": lambda t: si_type2_n2(t, 1, 0.5, 0.05),
        "si_type2": lambda t: si_type2(t, TestSpec(1, 4, 0.5, 0.05)),
        "si_type2_branching": lambda t: si_type2_branching(t, TestSpec(1, 4, 0.5, 0.05)),
    }[route]
    for theta in (bad, np.array([[0.3], [bad]])):
        with pytest.raises(ValueError, match="theta must be finite"):
            call(theta)
    if route == "hh_type2_analytic":
        # a non-finite signal handed in directly fails the one check of both HH routes
        with pytest.raises(ValueError, match="signal must be finite, of shape"):
            hh_type2_analytic(np.array([0.3, bad]), spec)
    if route == "hh_type2_montecarlo":
        # a non-finite signal handed in directly fails the same way, before any draw
        with pytest.raises(ValueError, match="signal must be finite, of shape"):
            hh_type2_montecarlo(np.array([0.3, bad]), spec, 2000, rng)
        assert rng.random() == rng_stream(1).random()
