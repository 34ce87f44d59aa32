import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import beta, comb, erfc, gammaln, ncfdtr

from sqitest import distributions as dist
from sqitest.distributions import (
    ConvergenceError,
    IntegerDistribution,
    NoncentralFParams,
    count_difference_cf,
    count_difference_distribution,
    critical_point,
    exp_cos_integral_scaled,
    invert_integer_cf,
    lattice_law,
    noncentral_f_cdf,
    noncentral_f_pdf,
    photon_number_cf,
    photon_number_law,
    randomized_acceptance,
    skellam_pmf,
    total_variation,
)


def point_mass(value):
    return IntegerDistribution(value, np.array([1.0]))


def assert_shape_rule(fn, values, rtol=0.0):
    """``fn`` maps a stack of six inputs to a (6,) or (2, 3) array, and one to a numpy float.

    ``values`` stacks the six inputs along its first axis.  The (2, 3)
    output is the (6,) one reshaped bit for bit, and the (6,) output equals
    the six single calls to ``rtol``; 0 means bit for bit.
    """
    values = np.asarray(values)
    one = [fn(values[i, ...]) for i in range(6)]
    assert all(isinstance(w, np.float64) for w in one)
    flat, grid = fn(values), fn(values.reshape((2, 3) + values.shape[1:]))
    assert flat.shape == (6,) and grid.shape == (2, 3)
    np.testing.assert_array_equal(grid.ravel(), flat)
    np.testing.assert_allclose(flat, one, rtol=rtol, atol=0.0)


def polya_aeppli_direct(rate, p, xs):
    """Independent Polya-Aeppli oracle: f(x) = sum_k Poisson(k; rate) C(x-1, k-1)
    (1-p)^k p^(x-k), the k jumps of a compound Poisson law summing to x."""
    out = []
    for x in xs:
        k = np.arange(1, x + 1)
        out.append(np.exp(-rate) if x == 0 else float(
            stats.poisson.pmf(k, rate) @ (comb(x - 1, k - 1) * (1 - p) ** k * p ** (x - k))))
    return np.array(out)


def bessel_i0_series(z):
    """Independent modified-Bessel oracle: sum (z/2)^{2k} / k!^2."""
    total, k = 0.0, 0
    while True:
        term = np.exp(2 * k * np.log(z / 2.0) - 2 * gammaln(k + 1)) if z else (k == 0)
        total += term
        if k > abs(z) and term < 1e-17 * total:
            return total
        k += 1


class TestIntegerDistribution:
    def test_mass_bookkeeping_enforced(self):
        with pytest.raises(ValueError):
            IntegerDistribution(0, np.array([0.5, 0.4]))  # missing declared tail

    def test_cdf_and_prob(self):
        d = IntegerDistribution(-1, np.array([0.2, 0.3, 0.5]))
        assert d.prob(-1) == 0.2
        assert d.prob(2) == 0.0
        assert d.cdf(-2) == 0.0
        assert d.cdf(0) == pytest.approx(0.5)
        assert d.cdf(10) == pytest.approx(1.0)


class TestLatticeLaw:
    def test_adds_masses_of_values_1e12_apart(self):
        law = lattice_law([2.0, 2.0 + 1e-12, 3.0], [0.25, 0.25, 0.5])
        assert (law.lo, law.hi) == (2, 3)
        assert law.pmf.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("offset", [1e-6, 0.5])
    def test_off_lattice_value_raises(self, offset):
        with pytest.raises(ValueError):
            lattice_law([0.0, 1.0 + offset], [0.5, 0.5])

    def test_tail_is_missing_mass(self):
        law = lattice_law([0.0, 1.0], [0.3, 0.5])
        assert law.tail_mass == pytest.approx(0.2, abs=1e-15)

    def test_negative_lo(self):
        # the spectrum of -i bs on a photon sector is symmetric about 0
        law = lattice_law([1.0, -2.0, 0.0, 2.0, -1.0], [0.1, 0.2, 0.3, 0.15, 0.25])
        assert (law.lo, law.hi) == (-2, 2)
        assert law.pmf.tolist() == [0.2, 0.25, 0.3, 0.1, 0.15]
        assert law.prob(-1) == 0.25


class TestRandomizedAcceptance:
    def test_interior_solution(self):
        null = IntegerDistribution(0, np.array([0.5, 0.3, 0.2]))
        # cumulative (0.5, 0.8, 1.0); target 0.65 sits between atoms 0 and 1
        assert randomized_acceptance(null, null, 0.35) == pytest.approx(0.65)
        # a point mass at t reads the randomization weight w
        assert randomized_acceptance(null, point_mass(1), 0.35) == pytest.approx(0.5)

    def test_below_spectrum(self):
        null = IntegerDistribution(0, np.array([0.9, 0.1]))
        # t = 0 is the lowest outcome: nothing lies below it
        got = randomized_acceptance(null, point_mass(0), 0.5)
        assert got == pytest.approx(0.5 / 0.9)

    def test_exact_hit_degenerates(self):
        null = IntegerDistribution(0, np.array([0.5, 0.5]))
        alt = IntegerDistribution(0, np.array([0.2, 0.8]))
        assert randomized_acceptance(null, alt, 0.5) == pytest.approx(0.2)

    def test_mass_exhaustion_raises(self):
        null = IntegerDistribution(0, np.array([0.4, 0.4]), 0.2)
        with pytest.raises(ValueError):
            randomized_acceptance(null, null, 0.05)

    def test_alpha_range(self):
        for alpha in (-0.1, 1.5):
            with pytest.raises(ValueError):
                randomized_acceptance(point_mass(0), point_mass(0), alpha)

    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(-5, 5),
           weights=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).filter(
               lambda w: sum(w) > 1e-3),
           alpha=st.floats(0.0, 1.0))
    def test_level_is_exact_on_the_null(self, lo, weights, alpha):
        pmf = np.array(weights) / sum(weights)
        law = IntegerDistribution(lo, pmf, 1.0 - pmf.sum())
        assert abs(randomized_acceptance(law, law, alpha) - (1.0 - alpha)) < 1e-12


class TestPhotonNumberLaw:
    @pytest.mark.parametrize("m,N", [(3, 0.0), (1, 0.5), (2, 1.0), (4, 7 / 3), (1, 1000.0),
                                     (100, 200.0)])
    def test_zero_rate_is_neg_binomial(self, m, N):
        # (100, 200): -log f(0) = 100 log 201 > 500, so the law is built in parts
        p = N / (N + 1)
        d = photon_number_law(m, 0.0, p)
        assert np.max(np.abs(d.pmf - stats.nbinom.pmf(d.support, m, 1 - p))) < 1e-15
        assert d.tail_mass < 1e-13

    @pytest.mark.parametrize("m", [0, 2])
    def test_zero_p_is_poisson(self, m):
        d = photon_number_law(m, 3.7, 0.0)
        assert np.max(np.abs(d.pmf - stats.poisson.pmf(d.support, 3.7))) < 1e-15
        r = np.linspace(-np.pi, np.pi, 33)
        assert np.max(np.abs(photon_number_cf(m, 3.7, 0.0, r) - d.cf(r))) < 1e-14

    @pytest.mark.parametrize("m,rate,p", [
        (0, 0.4, 0.3), (0, 2.0, 0.5), (0, 0.8, 0.97), (0, 900.0, 0.2),
        (1, 0.0, 0.3), (2, 0.0, 0.5), (4, 0.0, 0.7), (2, 1.5, 0.6), (1, 900.0, 0.5)])
    def test_moments(self, m, rate, p):
        # NB: mean mp/(1-p), variance mp/(1-p)^2; Polya-Aeppli (geometric
        # jumps on 1, 2, ...): mean rate/(1-p), variance rate(1+p)/(1-p)^2
        d = photon_number_law(m, rate, p)
        mean = d.mean()
        assert mean == pytest.approx((m * p + rate) / (1 - p), rel=1e-12)
        var = ((d.support - mean) ** 2) @ d.pmf
        assert var == pytest.approx((m * p + rate * (1 + p)) / (1 - p) ** 2, rel=1e-10)
        assert d.tail_mass < 1e-13
        assert d.cf(0.0) == pytest.approx(1.0)
        # (0, 900, 0.2) and (1, 900, 0.5): -log f(0) > 500, a law built in parts
        r = np.linspace(-np.pi, np.pi, 33)
        assert np.max(np.abs(photon_number_cf(m, rate, p, r) - d.cf(r))) < 1e-12

    @pytest.mark.parametrize("m,rate,p", [(1, 0.8, 0.4), (2, 3.0, 0.25), (1, 25.0, 5 / 6)])
    def test_matches_neg_binomial_convolved_with_direct_sum(self, m, rate, p):
        d = photon_number_law(m, rate, p)
        want = np.convolve(stats.nbinom.pmf(d.support, m, 1 - p),
                           polya_aeppli_direct(rate, p, d.support))[: len(d.pmf)]
        assert np.max(np.abs(d.pmf - want)) < 1e-15

    def test_point_mass_at_zero(self):
        assert photon_number_law(3, 0.0, 0.0).pmf.tolist() == [1.0]
        assert photon_number_law(0, 0.0, 0.5).pmf.tolist() == [1.0]

    @pytest.mark.parametrize("make", [
        lambda: photon_number_law(-1, 0.5, 0.5),
        lambda: photon_number_law(1, -1.0, 0.5),
        lambda: photon_number_law(1, 1.0, 1.0),
        lambda: photon_number_law(2, 0.0, -0.1),
        lambda: count_difference_distribution(0, 0.5, 0.5),
    ], ids=["modes", "rate", "p-one", "p-negative", "count-difference-modes"])
    def test_bad_inputs(self, make):
        with pytest.raises(ValueError):
            make()


class TestCountDifferenceLaw:
    def test_degenerate_case(self):
        d = count_difference_distribution(1, 0.0, 0.0)
        assert d.lo == d.hi == 0 and d.pmf[0] == pytest.approx(1.0)

    def test_pure_case_is_skellam(self):
        for s in (0.4, 0.9):
            d = count_difference_distribution(1, s, 0.0)
            lam = s * s
            for y in range(-6, 7):
                assert d.prob(y) == pytest.approx(skellam_pmf(y, lam), abs=1e-13)
            # P(Y = 0) = e^{-2 lam} I0(2 lam) via the Bessel series oracle
            assert d.prob(0) == pytest.approx(np.exp(-2 * lam) * bessel_i0_series(2 * lam))

    @pytest.mark.parametrize("lam", [0.01, 1.0, 50.0, 200.0])
    def test_skellam_against_high_precision_sum(self, lam):
        # sum_j e^{-2 lam} lam^{2j+y} / (j! (j+y)!) in 40-digit mpmath arithmetic
        mp = pytest.importorskip("mpmath")
        for y in range(40):
            with mp.workdps(40):
                L = mp.mpf(lam)
                term, total, j = mp.exp(-2 * L) * L ** y / mp.factorial(y), mp.mpf(0), 0
                while not (j > lam and term < 1e-45 * total):
                    total += term
                    term *= L * L / ((j + 1) * (j + 1 + y))
                    j += 1
            for sign in (1, -1):
                assert skellam_pmf(sign * y, lam) == pytest.approx(float(total), rel=1e-13)

    def test_exactly_symmetric(self):
        d = count_difference_distribution(2, 0.8, 0.7)
        assert np.array_equal(d.pmf, d.pmf[::-1])

    def test_cf_matches_on_grid(self):
        r = np.linspace(-np.pi, np.pi, 128)
        for (m, s, N) in [(1, 0.5, 0.5), (2, 1.0, 0.3)]:
            d = count_difference_distribution(m, s, N)
            assert np.max(np.abs(d.cf(r) - count_difference_cf(m, s, N, r))) < 1e-8

    def test_cf_basics(self):
        assert count_difference_cf(1, 0.7, 0.5, 0.0) == pytest.approx(1.0)
        r = np.array([0.3, 1.2, 2.8])
        phi = count_difference_cf(2, 0.9, 0.8, r)
        assert np.allclose(count_difference_cf(2, 0.9, 0.8, -r), np.conj(phi))

    def test_cf_inversion_equals_compound(self):
        for (m, s, N) in [(1, 0.5, 0.5), (1, 1.0, 1.0), (2, 0.5, 0.0), (2, 1.0, 0.5)]:
            comp = count_difference_distribution(m, s, N)
            inv = invert_integer_cf(lambda r: count_difference_cf(m, s, N, r),
                                    comp.hi + 8)
            assert total_variation(comp, inv) < 1e-8

    def test_large_mixture_matches_cf_inversion(self):
        # at N = 10 the NB and compound wings reach hundreds of atoms; the
        # old k-sum's N^(k-1) overflowed there
        comp = count_difference_distribution(1, 1.0, 10.0)
        inv = invert_integer_cf(lambda r: count_difference_cf(1, 1.0, 10.0, r),
                                comp.hi + 8)
        assert total_variation(comp, inv) < 1e-8

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2]), N=st.floats(0.0, 30.0), s=st.floats(0.0, 5.0))
    def test_matches_cf_inversion_property(self, m, N, s):
        # N >> 1: the NB and compound wings grow like log(tol) / log(N/(N+1))
        comp = count_difference_distribution(m, s, N)
        assert abs(comp.pmf.sum() + comp.tail_mass - 1.0) < 1e-12
        inv = invert_integer_cf(lambda r: count_difference_cf(m, s, N, r), comp.hi + 8)
        assert total_variation(comp, inv) < 1e-10

    @pytest.mark.parametrize("s,N", [(30.0, 0.0), (40.0, 0.0), (30.0, 1.0)])
    def test_large_displacement_matches_cf_inversion(self, s, N):
        # compound rate s^2/(N+1) above 745, where e^{-rate} underflows
        comp = count_difference_distribution(1, s, N)
        inv = invert_integer_cf(lambda r: count_difference_cf(1, s, N, r), comp.hi + 8)
        assert total_variation(comp, inv) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            count_difference_distribution(1, 0.5, -0.1)


class TestCfInversion:
    def test_constant_cf_is_point_mass(self):
        d = invert_integer_cf(lambda r: np.ones_like(r), 5)
        assert d.prob(0) == pytest.approx(1.0)
        assert total_variation(d, point_mass(0)) < 1e-12

    @pytest.mark.parametrize("y0", [-5, -2, 3, 5])
    def test_shifted_point_mass(self, y0):
        # odd and negative lattice points, where the (-1)^y sign and the
        # wrap y mod K of the FFT fold matter
        d = invert_integer_cf(lambda r: np.exp(1j * y0 * r), 5)
        assert d.prob(y0) == pytest.approx(1.0, abs=1e-14)
        assert total_variation(d, point_mass(y0)) < 1e-12

    def test_neg_binomial_round_trip(self):
        nb = photon_number_law(2, 0.0, 0.45)
        inv = invert_integer_cf(lambda r: photon_number_cf(2, 0.0, 0.45, r), nb.hi + 8)
        assert total_variation(nb, inv) < 1e-10

    def test_support_bound_violation_raises(self):
        with pytest.raises(ValueError):
            invert_integer_cf(lambda r: photon_number_cf(1, 0.0, 0.9, r), 2)

    def test_unsettled_inversion_raises(self, monkeypatch):
        # one grid has no predecessor to agree with, so the doubling runs out
        monkeypatch.setattr(dist, "_CF_DOUBLINGS", 1)
        with pytest.raises(ConvergenceError):
            invert_integer_cf(lambda r: photon_number_cf(2, 0.0, 0.45, r), 5)


class TestNoncentralF:
    def test_central_reduction(self):
        # at lambda = 0 only the k = 0 term survives
        params = NoncentralFParams(4, 3, 0.0)
        for f in (0.3, 1.0, 4.0):
            x = 4 * f / (4 * f + 3)
            want = x ** 2 * (1 - x) ** 1.5 / (beta(2.0, 1.5) * f)
            assert noncentral_f_pdf(f, params) == pytest.approx(want, rel=1e-14)

    def test_pdf_nonnegative_and_rejects_bad_f(self):
        params = NoncentralFParams(2, 1, 3.0)
        assert all(noncentral_f_pdf(f, params) >= 0 for f in (0.01, 1.0, 50.0))
        with pytest.raises(ValueError):
            noncentral_f_pdf(0.0, params)

    @pytest.mark.parametrize("mu,nu,lam", [(2, 1, 0.0), (2, 1, 5.0), (4, 3, 2.0)])
    def test_pdf_normalization(self, mu, nu, lam):
        params = NoncentralFParams(mu, nu, lam)
        val, _ = quad(lambda f: noncentral_f_pdf(f, params), 0, np.inf, limit=300)
        assert abs(val - 1.0) < 1e-8

    def test_pdf_matches_simulation_histogram(self):
        # independent oracle: F = (chi2_mu(lam)/mu) / (chi2_nu/nu) from draws
        mu, nu, lam = 2, 3, 2.0
        params = NoncentralFParams(mu, nu, lam)
        rng = np.random.default_rng(2024)
        n = 10 ** 6
        num = rng.noncentral_chisquare(mu, lam, n) / mu
        den = rng.chisquare(nu, n) / nu
        draws = num / den
        edges = np.linspace(0.1, 6.0, 25)
        counts, _ = np.histogram(draws, edges)
        for lo, hi, c in zip(edges, edges[1:], counts):
            p, _ = quad(lambda f: noncentral_f_pdf(f, params), lo, hi)
            sd = np.sqrt(n * p * (1 - p))
            assert abs(c - n * p) < 3 * sd + 1e-9

    def test_cdf_matches_quadrature(self):
        params = NoncentralFParams(2, 1, 5.0)
        for c in (0.5, 3.0, 20.0):
            val, _ = quad(lambda f: noncentral_f_pdf(f, params), 0, c, limit=200)
            assert noncentral_f_cdf(c, params) == pytest.approx(val, abs=1e-10)

    def test_cdf_monotone_and_saturates(self):
        params = NoncentralFParams(2, 1, 4.0)
        cs = [0.1, 1.0, 10.0, 1e4, 1e8]
        vals = [noncentral_f_cdf(c, params) for c in cs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        # nu = 1 has a c^{-1/2} tail, so saturation needs heavier nu
        assert noncentral_f_cdf(1e8, NoncentralFParams(4, 3, 2.0)) == pytest.approx(
            1.0, abs=1e-8)

    def test_large_noncentrality_no_underflow(self):
        params = NoncentralFParams(2, 1, 6 * 31.0 ** 2)
        val = noncentral_f_cdf(199.5, params)
        assert 0.0 < val < 1e-3

    def test_stochastic_ordering_in_noncentrality(self):
        for c in (0.5, 2.0, 10.0):
            vals = [noncentral_f_cdf(c, NoncentralFParams(2, 1, lam))
                    for lam in (0.0, 1.0, 5.0, 20.0)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("lam", [float("inf"), float("nan")])
    def test_non_finite_noncentrality_rejected(self, lam):
        # a series over the Poisson(lambda/2) weights has no mode to start from
        with pytest.raises(ValueError):
            NoncentralFParams(2, 1, lam)

    @pytest.mark.parametrize("bad", [-1.0, float("inf"), float("nan")])
    def test_bad_entry_of_a_noncentrality_array_rejected(self, bad):
        with pytest.raises(ValueError):
            NoncentralFParams(2, 1, np.array([0.5, bad, 3.0]))

    @pytest.mark.parametrize("fn", [noncentral_f_cdf, noncentral_f_pdf])
    def test_array_call_equals_per_noncentrality_calls(self, fn):
        # unsorted, with repeats, 0, a subnormal value and two huge ones; at
        # c = 5e11 the lambda = 1e12 entries sit near their mean
        lams = np.array([7.5, 0.0, 1e12, 3.25, 1e-310, 7.5, 1e10, 480.0, 0.0, 2e4, 3.25])
        c = 5e11
        got = fn(c, NoncentralFParams(2, 1, lams))
        assert isinstance(got, np.ndarray) and got.shape == lams.shape
        want = [fn(c, NoncentralFParams(2, 1, lam)) for lam in lams]
        assert all(isinstance(w, float) for w in want)
        assert np.all(got > 0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_array_keeps_its_shape(self):
        lams = np.array([[0.0, 1.0], [5.0, 20.0]])
        got = noncentral_f_cdf(2.0, NoncentralFParams(2, 1, lams))
        assert got.shape == (2, 2)
        assert got[1, 0] == noncentral_f_cdf(2.0, NoncentralFParams(2, 1, 5.0))
        # every lambda > 0 of `shared` sums the one window [0, 81)
        shared = [0.0, 5.0, 5.02, 0.0, 5.06, 5.1]
        mixed = [0.0, 1.0, 5.0, 1e-310, 20.0, 480.0]
        for x in (0.5, 2.0, 199.5):
            def pdf(lam):
                return noncentral_f_pdf(x, NoncentralFParams(2, 1, lam))

            def cdf(lam):
                return noncentral_f_cdf(x, NoncentralFParams(2, 1, lam))

            assert_shape_rule(pdf, shared)
            assert_shape_rule(pdf, mixed)
            assert_shape_rule(cdf, shared)
            # the cdf table anchors I_x at the top of its group's k-span; in
            # `mixed` that is the top of lambda = 480's window, above those
            # of lambda = 1, 5, 1e-310 and 20, whose sums may round apart
            assert_shape_rule(cdf, mixed, rtol=1e-14)
            got = cdf(np.array(mixed))
            assert got[0] == cdf(0.0) and got[5] == cdf(480.0)
        for n in (2, 5, 60):
            assert_shape_rule(lambda z: exp_cos_integral_scaled(z, n),
                              [0.0, 1e-300, 0.7, -30.0, 4800.0, 1e5])

    def test_engine_sums_poisson_weights_within_the_group_cap(self):
        # with every t_k = 1 the series is the Poisson mass, 1; no table,
        # and so no temporary, spans more than the group cap
        spans = []

        def ones(k0, k1):
            spans.append(k1 - k0)
            return np.ones(k1 - k0)

        half = np.array([5e11, 0.3, 5e9, 2e3, 2e3 + 0.5, 40.0])
        total = dist._poisson_mixture(half, ones, 0)
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-12)
        assert max(spans) <= dist._GROUP_CAP

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("c", [np.inf, 1e308])
    def test_cdf_is_one_where_mu_c_overflows(self, lam, c):
        assert noncentral_f_cdf(c, NoncentralFParams(2, 1, lam)) == 1.0

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("f", [np.inf, 1e308])
    def test_pdf_is_zero_where_mu_f_overflows(self, lam, f):
        assert noncentral_f_pdf(f, NoncentralFParams(2, 1, lam)) == 0.0

    @pytest.mark.parametrize("f,want", [
        (1e15, 1.8310542819422985698e-23),
        (5e15, 1.6377447379660202876e-24),
        (1e20, 5.7903020503417935279e-31),
    ])
    def test_pdf_at_huge_f_keeps_the_complement(self, f, want):
        # want: sum_k w_k x^{k+1} (1-x)^{1/2} / (B(k+1, 1/2) f), mu = 2, nu = 1,
        # lambda = 3, in 40-digit mpmath arithmetic; forming 1 - x as 1 - x
        # left it 5 % off at 1e15 and divided by zero at 5e15
        got = noncentral_f_pdf(f, NoncentralFParams(2, 1, 3.0))
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("lam", [1e9, 1e12])
    def test_pdf_far_below_the_bulk_is_zero(self, lam):
        # every term underflows; the bound on the terms below the window must
        # not read inf there, or the window walks down towards k = 0
        assert noncentral_f_pdf(2.0, NoncentralFParams(2, 1, lam)) == 0.0

    @pytest.mark.parametrize("mu,nu,lam,f", [(2, 5, 0.5, 1e4), (4, 30, 2.0, 500.0)])
    def test_pdf_whose_table_peaks_far_above_the_poisson_mode(self, mu, nu, lam, f):
        # t_k peaks near k = mu f / 2 (1e4 and 999 here), past the first window
        want = stats.ncf.pdf(f, mu, nu, lam)
        assert noncentral_f_pdf(f, NoncentralFParams(mu, nu, lam)) == pytest.approx(
            want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("lam", [4e5, 1e6])
    def test_pdf_at_huge_noncentrality(self, lam):
        # the terms that matter lie near k = lambda/2, past 2e5 here
        f = (2.0 + lam) / 2.0
        want = stats.ncf.pdf(f, 2, 5, lam)
        assert noncentral_f_pdf(f, NoncentralFParams(2, 5, lam)) == pytest.approx(
            want, rel=1e-9, abs=0.0)


# scipy's ncfdtr is itself wrong below about 1e-165 (by up to 90 orders of
# magnitude at the far-tail cases pinned below), so the comparison keeps to
# reference values above 1e-150.
SCIPY_FLOOR = 1e-150
DOF_PAIRS = [(2, 1), (2, 2), (4, 3), (2, 5), (6, 10)]


def assert_matches_ncfdtr(c, mu, nu, lam):
    want = ncfdtr(mu, nu, lam, c)
    if want > SCIPY_FLOOR:
        got = noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam))
        assert got == pytest.approx(want, rel=1e-9, abs=0.0), (c, mu, nu, lam)


class TestNoncentralFAgainstScipy:
    @pytest.mark.parametrize("mu,nu", DOF_PAIRS)
    def test_cdf_on_noncentrality_grid(self, mu, nu):
        crit = critical_point(0.05, mu, nu)
        for c in (crit, 0.3 * crit, 3.0 * crit):
            for lam in np.geomspace(1e-6, 3e4, 60):
                assert_matches_ncfdtr(c, mu, nu, lam)

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(dof=st.sampled_from(DOF_PAIRS), scale=st.sampled_from([1.0, 0.3, 3.0]),
           lam=st.floats(0.0, 5e4))
    def test_cdf_property(self, dof, scale, lam):
        mu, nu = dof
        assert_matches_ncfdtr(scale * critical_point(0.05, mu, nu), mu, nu, lam)

    @pytest.mark.parametrize("mu,nu,lam,c,want", [
        # a sixth of this sum comes from terms above k = 9984, just past lambda/2
        (2, 1, 19931.635131096373, 59.85, 8.517077793465615596e-38),
        # where ncfdtr returns 4.73e-177 and 5.03e-165
        (2, 5, 1714.245311214491, 1.7358405130049874, 1.8661405788096590904e-217),
        (6, 10, 1448.4382717651154, 0.9651523642196949, 1.2135782415441909068e-193),
    ])
    def test_far_tail_against_high_precision_sum(self, mu, nu, lam, c, want):
        # want: sum_k w_k I_x(k + mu/2, nu/2) over k within 50 sd of the
        # mode and of lambda x / 2, in 40-digit mpmath arithmetic
        got = noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam))
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_huge_noncentrality_keeps_the_complement(self):
        # at c = (2 + lambda)/2, 1 - x = 1/(2c + 1) sits near 1e-10; forming
        # it as 1 - x left the cdf 6e-8 off
        lam = 1e10
        c = (2.0 + lam) / 2.0
        got = noncentral_f_cdf(c, NoncentralFParams(2, 1, lam))
        assert got == pytest.approx(ncfdtr(2, 1, lam, c), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    def test_tiny_c_keeps_x(self, lam):
        # the other end: x = 2c/(2c + 1) near 1e-20 must not be formed as 1 - y
        c = 1e-20
        got = noncentral_f_cdf(c, NoncentralFParams(2, 1, lam))
        assert got == pytest.approx(ncfdtr(2, 1, lam, c), rel=1e-10, abs=0.0)

    def test_normal_limit_at_huge_noncentrality(self):
        # the numerator chi2_2(lambda)/2 over (2 + lambda)/2 tends to 1, so
        # with nu = 1 the cdf tends to P(chi2_1 >= 1) = erfc(1/sqrt 2)
        lam = 1e12
        got = noncentral_f_cdf((2.0 + lam) / 2.0, NoncentralFParams(2, 1, lam))
        assert got == pytest.approx(erfc(1.0 / np.sqrt(2.0)), abs=1e-10)


class TestCriticalPoint:
    def test_round_trip(self):
        for (alpha, mu, nu) in [(0.05, 2, 1), (0.2, 4, 3), (0.5, 2, 5)]:
            c = critical_point(alpha, mu, nu)
            tail = 1.0 - noncentral_f_cdf(c, NoncentralFParams(mu, nu, 0.0))
            assert abs(tail - alpha) < 1e-9

    def test_matches_independent_inversion(self):
        # oracle: invert the quadrature cdf of the central density by bisection
        params = NoncentralFParams(2, 1, 0.0)

        def cdf_quad(c):
            val, _ = quad(lambda f: noncentral_f_pdf(f, params), 0, c, limit=200)
            return val

        lo, hi = 0.0, 1.0
        while cdf_quad(hi) < 0.95:
            hi *= 2
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if cdf_quad(mid) < 0.95:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        mine = critical_point(0.05, 2, 1)
        assert abs(mine - oracle) / oracle < 1e-6

    @pytest.mark.parametrize("nu", [1, 2, 5, 40])
    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-6, 1e-9, 1e-12])
    def test_two_numerator_dof_closed_form(self, alpha, nu):
        # mu = 2: P(F > c) = (1 + 2c/nu)^(-nu/2), so c = (nu/2)(alpha^(-2/nu) - 1)
        want = (nu / 2.0) * np.expm1(-(2.0 / nu) * np.log(alpha))
        assert critical_point(alpha, 2, nu) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_beyond_float_range_rejected(self):
        # c = (alpha^(-2) - 1)/2 overflows; the inverse beta clamps y = 1/(2c + 1)
        with pytest.raises(ValueError, match="float range"):
            critical_point(1e-200, 2, 1)

    def test_degenerate_levels_rejected(self):
        # alpha = 0 would need an infinite critical point (trivial acceptance)
        with pytest.raises(ValueError):
            critical_point(0.0, 2, 1)
        with pytest.raises(ValueError):
            critical_point(1.0, 2, 1)

    def test_acceptance_mass_lower_bound(self):
        # cdf at the critical point exceeds e^{-lam/2} (1-alpha): the k = 0
        # term alone contributes exactly that much
        alpha = 0.05
        c = critical_point(alpha, 2, 1)
        for lam in (0.1, 1.0, 5.0, 20.0):
            val = noncentral_f_cdf(c, NoncentralFParams(2, 1, lam))
            assert val > np.exp(-lam / 2.0) * (1 - alpha)


class TestSpecialIntegrals:
    def test_reduces_to_beta_at_zero(self):
        for n in (2, 3, 5):
            assert exp_cos_integral_scaled(0.0, n) == pytest.approx(
                beta((n - 1) / 2.0, 0.5), rel=1e-12)

    def test_two_copy_case_is_bessel(self):
        for z in (0.3, 1.0, 2.7):
            assert exp_cos_integral_scaled(z, 2) * np.exp(z) == pytest.approx(
                np.pi * bessel_i0_series(z), rel=1e-11)

    def test_three_copy_case_is_sinh(self):
        for z in (0.5, 2.0, 10.0):
            assert exp_cos_integral_scaled(z, 3) * np.exp(z) == pytest.approx(
                (np.exp(z) - np.exp(-z)) / z, rel=1e-11)

    @pytest.mark.parametrize("n", [4, 5, 7, 12])
    def test_matches_adaptive_quadrature(self, n):
        for z in (1e-5, 0.7, 30.0, 4800.0):
            for signed in (z, -z):
                want, _ = quad(
                    lambda p: np.exp(signed * np.cos(p) - z) * np.sin(p) ** (n - 2),
                    0.0, np.pi, epsabs=1e-300, epsrel=1e-12, limit=400)
                assert exp_cos_integral_scaled(signed, n) == pytest.approx(want, rel=1e-10)

    def test_tiny_argument_where_the_bessel_factor_underflows(self):
        # ive(nu, |z|) underflows here, so (2/|z|)^nu ive would give nan or 0
        for n, z in ((5, 1e-300), (20, 1e-40), (60, 1e-12), (120, 1e-4)):
            want, _ = quad(lambda p: np.exp(z * np.cos(p) - z) * np.sin(p) ** (n - 2),
                           0.0, np.pi, epsabs=1e-300, epsrel=1e-12, limit=400)
            assert exp_cos_integral_scaled(z, n) == pytest.approx(want, rel=1e-10)

    def test_series_form_sees_only_the_entries_that_need_it(self, monkeypatch):
        # scipy's 0F1 raises and swallows ZeroDivisionError at large arguments
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        exp_cos_integral_scaled(np.array([0.0, 1e4, 2e4]), 2)
        assert seen == []

    def test_scaled_variant_handles_huge_arguments(self):
        val = exp_cos_integral_scaled(5000.0, 3)
        assert val == pytest.approx((1 - np.exp(-10000.0)) / 5000.0, rel=1e-10)
