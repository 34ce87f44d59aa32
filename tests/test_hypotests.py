import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import beta

from sqitest import distributions as dist
from sqitest.fock import FockConfig, si_type2_fock
from sqitest.hypotests import (
    SingularCovarianceError,
    TestSpec,
    _hotelling_t2,
    crossing_check,
    hh_type2_analytic,
    hh_type2_montecarlo,
    hotelling_F,
    si_small_theta_slope,
    si_type2_closed,
    si_type2_n2,
)
from sqitest.phase_space import GaussianSpec, SqueezeParam, heterodyne_sample, kappa, rng_stream


class TestTestSpec:
    def test_hotelling_needs_enough_copies(self):
        with pytest.raises(ValueError):
            TestSpec(1, 2, 0.0, 0.05, "hh")
        TestSpec(1, 3, 0.0, 0.05, "hh")  # minimal valid case

    def test_invariant_needs_two_copies(self):
        with pytest.raises(ValueError):
            TestSpec(1, 1, 0.0, 0.05, "si")

    def test_level_range(self):
        with pytest.raises(ValueError):
            TestSpec(1, 3, 0.0, 1.2, "hh")

    def test_hotelling_needs_interior_level(self):
        # the central F critical point is infinite at alpha = 0 and 0 at 1
        for alpha in (0.0, 1.0):
            with pytest.raises(ValueError):
                TestSpec(1, 3, 0.0, alpha, "hh")
            TestSpec(1, 3, 0.0, alpha, "si")  # the invariant test takes both

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            TestSpec(1, 3, 0.0, 0.05, "nope")


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

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            hotelling_F(np.zeros((2, 2)))


class TestHotellingKernel:
    @pytest.mark.parametrize("n, p", [(4, 2), (6, 4), (9, 6)])
    def test_matches_per_replicate_solve(self, n, p):
        rng = np.random.default_rng(100 * n + p)
        z, shift = rng.standard_normal((64, n, p)), rng.standard_normal(p)
        z[17] = z[17, 0]  # identical copies: a singular sample covariance
        got = _hotelling_t2(z, shift)
        x = z + shift
        for r in range(len(x)):
            if r == 17:
                assert got[r] == np.inf
                continue
            xbar = x[r].mean(axis=0)
            centered = x[r] - xbar
            cov = centered.T @ centered / (n - 1)
            want = n * xbar @ np.linalg.solve(cov, xbar)
            assert got[r] == pytest.approx(want, rel=1e-9, abs=0.0)


class TestHHAnalytic:
    def test_null_gives_level(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        got = hh_type2_analytic(0.0, SqueezeParam.zero(1), spec)
        assert abs(got - 0.95) < 1e-9

    def test_supremum_over_squeezing_reaches_trivial(self):
        # along the axis family the noncentrality collapses as r -> 0, so the
        # error probability climbs monotonically to 1 - alpha
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        vals = [hh_type2_analytic(0.5, SqueezeParam.axis_family(r), spec)
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
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        b1 = hh_type2_analytic(0.5, SqueezeParam.axis_family(1.0), spec)
        b2 = hh_type2_analytic(0.5, SqueezeParam.axis_family(0.1), spec)
        assert abs(b1 - b2) > 1e-2  # far above solver tolerance

    def test_lower_bound_exponential(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        eta0 = SqueezeParam.zero(1)
        for th in (0.3, 0.7, 1.5):
            lam = 3 * kappa(np.array([th]), eta0, 0.0)
            beta = hh_type2_analytic(th, eta0, spec)
            assert beta > np.exp(-lam / 2.0) * 0.95

    def test_one_theta_gives_a_float_and_a_stack_an_array(self):
        spec = TestSpec(2, 6, 0.3, 0.05, "hh")
        eta = SqueezeParam.axis_family(1.5, modes=2)
        stack = np.array([[0.0, 0.0], [0.5, 0.2j], [1.0 - 0.5j, 0.3]])
        got = hh_type2_analytic(stack, eta, spec)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        for theta, beta in zip(stack, got):
            one = hh_type2_analytic(theta, eta, spec)
            assert isinstance(one, float)
            assert one == pytest.approx(beta, rel=1e-14, abs=0.0)
        assert isinstance(hh_type2_analytic(0.5, SqueezeParam.zero(1),
                                            TestSpec(1, 3, 0.0, 0.05, "hh")), float)

    def test_critical_point_solved_once_per_spec(self, monkeypatch):
        calls = []
        solve = dist.critical_point
        monkeypatch.setattr(dist, "critical_point",
                            lambda *a: calls.append(a) or solve(*a))
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        for t in (0.0, 0.5, 1.0):
            hh_type2_analytic(t, SqueezeParam.zero(1), spec)
        assert len(calls) == 1
        assert spec.critical_point == solve(0.05, 2, 1)

    def test_requires_hh_spec(self):
        with pytest.raises(ValueError):
            hh_type2_analytic(0.1, SqueezeParam.zero(1), TestSpec(1, 3, 0.0, 0.05, "si"))


class TestHHMonteCarlo:
    def test_null_calibration(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        est = hh_type2_montecarlo(0.0, SqueezeParam.zero(1), spec, 10 ** 5, seed=1)
        assert abs(est.value - 0.95) < 4 * est.stderr

    def test_matches_analytic(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        eta0 = SqueezeParam.zero(1)
        est = hh_type2_montecarlo(0.5, eta0, spec, 10 ** 5, seed=2)
        want = hh_type2_analytic(0.5, eta0, spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_matches_analytic_with_squeezing(self):
        spec = TestSpec(1, 3, 0.5, 0.05, "hh")
        eta = SqueezeParam.axis_family(1.5)
        est = hh_type2_montecarlo(0.4, eta, spec, 10 ** 5, seed=3)
        want = hh_type2_analytic(0.4, eta, spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_matches_analytic_with_two_modes(self):
        # p = 4: the Cholesky kernel beyond the 2x2 covariance
        spec = TestSpec(2, 6, 0.0, 0.05, "hh")
        eta = SqueezeParam.axis_family(1.5, modes=2)
        theta = np.array([1.2, 0.8j])
        est = hh_type2_montecarlo(theta, eta, spec, 10 ** 5, seed=4)
        want = hh_type2_analytic(theta, eta, spec)
        assert abs(est.value - want) < 4 * est.stderr

    def test_deterministic(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        a = hh_type2_montecarlo(0.3, SqueezeParam.zero(1), spec, 2000, seed=9)
        b = hh_type2_montecarlo(0.3, SqueezeParam.zero(1), spec, 2000, seed=9)
        assert a == b

    def test_singular_replicate_counts_as_rejection(self):
        # replicate 177588 of this stream has an exactly singular covariance,
        # which used to abort the whole batched solve
        eta = SqueezeParam(1, np.zeros((1, 1)), np.eye(1, dtype=complex))
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        est = hh_type2_montecarlo(0.0, eta, spec, 400_000, seed=1000106)
        assert abs(est.value - 0.95) < 5 * est.stderr

    def test_blocked_estimate_equals_one_batch(self):
        # three full blocks of 2^15 replicates and a partial one
        spec = TestSpec(1, 4, 0.5, 0.05, "hh")
        eta = SqueezeParam.axis_family(1.5)
        reps, n, seed = 3 * 2 ** 15 + 17, spec.copies, 7
        est = hh_type2_montecarlo(0.4, eta, spec, reps, seed=seed)
        gspec = GaussianSpec(1, np.array([0.4]), eta, 0.5)
        x = heterodyne_sample(gspec, reps * n, rng=rng_stream(seed)).reshape(reps, n, 2)
        xbar = x.mean(axis=1)
        centered = x - xbar[:, None, :]
        cov = np.einsum("rni,rnj->rij", centered, centered) / (n - 1)
        sol = np.linalg.solve(cov, xbar[..., None])[..., 0]
        f_vals = (spec.nu_dof / (spec.mu_dof * (n - 1))) * (
            n * np.einsum("ri,ri->r", xbar, sol))
        accept = float(np.mean(f_vals <= spec.critical_point))
        assert est.value == accept
        assert est.stderr == float(np.sqrt(accept * (1.0 - accept) / reps))

    def test_needs_positive_reps(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "hh")
        with pytest.raises(ValueError):
            hh_type2_montecarlo(0.3, SqueezeParam.zero(1), spec, 0)


class TestSIClosedForm:
    def test_null_gives_level_exactly(self):
        for n in (2, 3, 5):
            spec = TestSpec(1, n, 0.0, 0.05, "si")
            assert si_type2_closed(0.0, spec) == pytest.approx(0.95, abs=1e-12)

    def test_two_copies_bessel_form(self):
        from tests.test_distributions import bessel_i0_series

        spec = TestSpec(1, 2, 0.0, 0.05, "si")
        for th in (0.3, 0.8):
            want = 0.95 * np.exp(-2 * th * th) * bessel_i0_series(2 * th * th)
            assert si_type2_closed(th, spec) == pytest.approx(want, rel=1e-10)

    def test_three_copies_exponential_form(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "si")
        for th in (0.4, 1.0):
            r = 3 * th * th
            want = 0.95 * (1 - np.exp(-2 * r)) / (r * beta(1.0, 0.5))
            assert si_type2_closed(th, spec) == pytest.approx(want, rel=1e-10)

    def test_mixture_not_supported(self):
        with pytest.raises(ValueError):
            si_type2_closed(0.3, TestSpec(1, 2, 0.5, 0.05, "si"))

    def test_array_keeps_its_shape(self):
        from tests.test_distributions import assert_shape_rule

        for n in (2, 3, 7):
            spec = TestSpec(1, n, 0.0, 0.05, "si")
            assert_shape_rule(lambda t: si_type2_closed(t, spec),
                              [0.0, 0.01, 0.5, 2.0, 40.0, 400.0])

    def test_monotone_decreasing_and_bounded(self):
        spec = TestSpec(1, 3, 0.0, 0.05, "si")
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
        spec = TestSpec(1, 2, 0.0, 0.05, "si")
        for th in (0.0, 0.3, 0.7, 1.2):
            assert abs(si_type2_n2(th, 1, 0.0, 0.05)
                       - si_type2_closed(th, spec)) < 1e-8

    def test_multimode_pure_case(self):
        spec = TestSpec(2, 2, 0.0, 0.05, "si")
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

    def test_matches_truncated_space_oracle(self):
        cfg = FockConfig(1, 2, 40)
        got = si_type2_fock(0.5, 0.5, 0.05, cfg)
        want = si_type2_n2(0.5, 1, 0.5, 0.05)
        assert abs(got - want) < 1e-4


class TestSlope:
    def test_contract_value(self):
        for n, alpha in [(2, 0.05), (3, 0.05), (3, 0.2)]:
            slope = si_small_theta_slope(TestSpec(1, n, 0.0, alpha, "si"))
            assert slope == pytest.approx((1 - alpha) * n, rel=5e-3)

    def test_direct_readings(self):
        assert si_small_theta_slope(TestSpec(1, 2, 0.0, 0.05, "si")) == pytest.approx(
            1.90, rel=0.01)
        assert si_small_theta_slope(TestSpec(1, 3, 0.0, 0.05, "si")) == pytest.approx(
            2.85, rel=0.01)

    def test_consistency_between_routes(self):
        # slope from the lattice-law route agrees with the closed form
        thetas = (1e-2, 5e-3, 2.5e-3)
        g = [(0.95 - si_type2_n2(t, 1, 0.0, 0.05)) / t ** 2 for t in thetas]
        for _ in range(2):
            g = [(4 * g[i + 1] - g[i]) / 3.0 for i in range(len(g) - 1)]
        closed = si_small_theta_slope(TestSpec(1, 2, 0.0, 0.05, "si"))
        assert g[0] == pytest.approx(closed, rel=1e-6)


class TestNullLevel:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(alpha=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           n=st.integers(2, 7), m=st.sampled_from([1, 2]), N=st.floats(0.0, 30.0))
    def test_every_si_route_gives_one_minus_alpha_at_zero(self, alpha, n, m, N):
        want = 1.0 - alpha
        assert abs(si_type2_closed(0.0, TestSpec(1, n, 0.0, alpha, "si")) - want) < 1e-11
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
        spec = TestSpec(1, 3, 0.0, 0.05, "si")
        scaled = [t * t * si_type2_closed(t, spec) for t in (2.0, 3.0, 4.0)]
        want = 0.95 / (3.0 * beta(1.0, 0.5))
        assert all(abs(s - want) < 0.01 for s in scaled)

    def test_hotelling_tail_eventually_wins(self):
        # at alpha = 0.5 the exponential-vs-quadratic tail ordering is already
        # visible on a desk-scale grid
        spec_hh = TestSpec(1, 3, 0.0, 0.5, "hh")
        spec_si = TestSpec(1, 3, 0.0, 0.5, "si")
        eta0 = SqueezeParam.zero(1)
        ratios = [hh_type2_analytic(t, eta0, spec_hh) / si_type2_closed(t, spec_si)
                  for t in (2.0, 3.0, 4.0)]
        assert ratios[0] > ratios[1] > ratios[2]
