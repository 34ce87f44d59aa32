import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import beta, comb, erfc, gammaln, ncfdtr, pdtr, pdtrc

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
    photon_number_cf,
    photon_number_law,
    randomized_acceptance,
    skellam_pmf,
    total_variation,
)


def point_mass(value):
    return IntegerDistribution(value, np.array([1.0]))


def assert_shape_rule(fn, values, rtol=0.0):
    """``fn`` maps a stack of six inputs to a (6,) or (2, 3) array, and one to a numpy scalar.

    ``values`` stacks the six inputs along its first axis.  A single input
    gives a numpy scalar of the stack's dtype (a float, or a complex for a
    characteristic function).  The (2, 3) output is the (6,) one reshaped
    bit for bit, and the (6,) output equals the six single calls to
    ``rtol``; 0 means bit for bit.
    """
    values = np.asarray(values)
    one = [fn(values[i, ...]) for i in range(6)]
    flat, grid = fn(values), fn(values.reshape((2, 3) + values.shape[1:]))
    assert flat.dtype in (np.float64, np.complex128)
    assert all(type(w) is flat.dtype.type for w in one)
    assert flat.shape == (6,) and grid.shape == (2, 3)
    np.testing.assert_array_equal(grid.ravel(), flat)
    np.testing.assert_allclose(flat, one, rtol=rtol, atol=0.0)


def curve_tail_signals():
    """The whitened signals (3, 241, 2) of a curve to theta = 40 at the three eta presets."""
    from sqitest.experiments import ETA_PRESETS, _resolve_eta
    from sqitest.phase_space import whitened_signal

    theta = np.linspace(0.0, 40.0, 241)[:, None]
    return np.stack([whitened_signal(orient * theta, eta, 0.0)
                     for _, eta, orient in (_resolve_eta(e, 1) for e in ETA_PRESETS)])


def recording_passes(monkeypatch):
    """Wrap ``dist._sum_windows``: each pass appends (windows, spans), the
    windows (lo, hi) it sums and the k-spans (k0, k1) its table is asked for."""
    passes, real = [], dist._sum_windows

    def recording(half, lo, hi, table):
        spans = []
        passes.append((list(zip(lo.tolist(), hi.tolist())), spans))

        def wrapped(k0, k1):
            spans.append((k0, k1))
            return table(k0, k1)

        return real(half, lo, hi, wrapped)

    monkeypatch.setattr(dist, "_sum_windows", recording)
    return passes


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
    # a missing declared tail, and NaN totals, which fail every comparison
    @pytest.mark.parametrize("pmf, tail", [([0.5, 0.4], 0.0), ([np.nan], 0.0),
                                           ([1.0], np.nan), ([0.5, np.nan], 0.5)])
    def test_mass_bookkeeping_enforced(self, pmf, tail):
        with pytest.raises(ValueError, match="pmf plus tail mass must be 1"):
            IntegerDistribution(0, np.array(pmf), tail)

    def test_cdf_and_prob(self):
        d = IntegerDistribution(-1, np.array([0.2, 0.3, 0.5]))
        assert d.prob(-1) == 0.2
        assert d.prob(2) == 0.0
        assert d.cdf(-2) == 0.0
        assert d.cdf(0) == pytest.approx(0.5)
        assert d.cdf(10) == pytest.approx(1.0)

    def test_cf_keeps_the_shape_of_r(self):
        d = IntegerDistribution(-1, np.array([0.2, 0.3, 0.5]))
        assert_shape_rule(d.cf, [0.0, 0.5, -1.0, np.pi, 2.5, -3.0])
        assert d.cf(np.array([0.7])).shape == (1,)


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
        # (100, 200): -log f(0) = 100 log 201 > 500, so the recurrence is rescaled
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
        (1, 0.0, 0.3), (2, 0.0, 0.5), (4, 0.0, 0.7), (2, 1.5, 0.6), (1, 900.0, 0.5),
        (1, 6e4, 1 / 3), (1, 1e5, 0.01)])
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
        # -log f(0) passes 500 at (0, 900, 0.2) and (1, 900, 0.5), 6e4 at
        # (1, 6e4, 1/3) and 1e5 at (1, 1e5, 0.01), whose 103 478 atoms near
        # the atom bound: the recurrence is rescaled
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

    @pytest.mark.parametrize("make,message", [
        (lambda: photon_number_law(-1, 0.5, 0.5), "need modes >= 0"),
        (lambda: photon_number_law(1, -1.0, 0.5), "need modes >= 0"),
        (lambda: photon_number_law(1, 1.0, 1.0), "need modes >= 0"),
        (lambda: photon_number_law(2, 0.0, -0.1), "need modes >= 0"),
        (lambda: count_difference_distribution(0, 0.5, 0.5), "modes must be >= 1"),
        (lambda: photon_number_law(1, np.nan, 0.3), "need modes >= 0"),
        (lambda: photon_number_law(np.nan, 1.0, 0.3), "need modes >= 0"),
        (lambda: count_difference_distribution(1, np.nan, 0.5), "need modes >= 0"),
    ], ids=["modes", "rate", "p-one", "p-negative", "count-difference-modes", "rate-nan",
            "modes-nan", "count-difference-displacement-nan"])
    def test_bad_inputs(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()

    def test_lower_tail_is_cut_into_the_tail_mass(self):
        # mean 9e4, -log f(0) = 6e4: the law from 0 held 93 275 atoms, most
        # of them far below 1e-300 of its mode
        d = photon_number_law(1, 6e4, 1 / 3)
        assert d.lo > 0 and len(d.pmf) < 7000
        assert d.tail_mass < 2 * dist._LAW_TOL  # each side's cut is below _LAW_TOL
        assert abs(d.pmf.sum() + d.tail_mass - 1.0) < 1e-12

    def test_lower_cut_matches_the_poisson_cdf(self):
        # at p = 0 the law is Poisson(rate): the atoms below lo hold less
        # than _LAW_TOL of its mass and the atoms up to lo at least that
        rate = 6e4
        d = photon_number_law(0, rate, 0.0)
        assert d.lo > 0
        assert pdtr(d.lo - 1, rate) < dist._LAW_TOL <= pdtr(d.lo, rate)
        # the rest of the tail mass is the upper cut's bound on the mass above hi
        assert pdtrc(d.hi, rate) <= d.tail_mass - pdtr(d.lo - 1, rate) < dist._LAW_TOL

    @pytest.mark.parametrize("rate", [2.0 ** 17, 1e200, np.inf])
    def test_law_past_the_atom_bound_raises(self, rate):
        # 1e200 would run its recurrence over about 1e200 atoms and never return
        with pytest.raises(ValueError, match="needs more than 131072 atoms"):
            photon_number_law(1, rate, 0.0)


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

    def test_convolves_only_the_photon_law_core(self):
        # the photon law's core at (1, 300^2/1.5, 1/3) has 6 494 atoms; its
        # law from 0 had 93 275
        d = count_difference_distribution(1, 300.0, 0.5)
        x = photon_number_law(1, 300.0 ** 2 / 1.5, 1 / 3)
        assert len(d.pmf) < 13500
        # no trim of its own: the core's whole self-difference, twice its tail
        assert (d.lo, d.hi) == (x.lo - x.hi, x.hi - x.lo)
        assert d.tail_mass == 2.0 * x.tail_mass

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

    @pytest.mark.parametrize("s,N", [(30.0, 0.0), (40.0, 0.0), (30.0, 1.0), (60.0, 0.5),
                                     (150.0, 0.5), (300.0, 0.5)])
    def test_large_displacement_matches_cf_inversion(self, s, N):
        # compound rate s^2/(N+1) above 745, where e^{-rate} underflows; at
        # (60, 0.5) it is 2400, so the photon law's recurrence is rescaled;
        # at (150, 0.5) and (300, 0.5) the inversion's positive FFT noise,
        # once clipped, summed past 1 + 1e-12
        comp = count_difference_distribution(1, s, N)
        inv = invert_integer_cf(lambda r: count_difference_cf(1, s, N, r), comp.hi + 8)
        assert total_variation(comp, inv) < 1e-10

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            count_difference_distribution(1, 0.5, -0.1)

    @pytest.mark.parametrize("route,args", [
        ("count_difference", (1, 0.5, -2.0)),
        ("count_difference", (1, 0.5, -0.5)),
        ("count_difference", (1, 0.5, np.nan)),
        ("count_difference", (1, 0.5, np.inf)),
        ("count_difference", (0, 0.5, 0.5)),
        ("count_difference", (1, np.nan, 0.5)),
        ("photon_number", (1, 0.0, 1.5)),
        ("photon_number", (1, -1.0, 0.3)),
        ("photon_number", (-1, 0.0, 0.3)),
        ("photon_number", (1, np.nan, 0.3)),
    ])
    def test_cf_route_rejects_what_the_lattice_route_rejects(self, route, args):
        # the CF route used to answer these: at N = -2 a CF that inverted to a
        # law of tail mass 0, at N = -0.5 |phi| up to 7e32, at N = nan or inf nan
        law, cf = {"count_difference": (count_difference_distribution, count_difference_cf),
                   "photon_number": (photon_number_law, photon_number_cf)}[route]
        with pytest.raises(ValueError) as rejected:
            law(*args)
        with pytest.raises(ValueError, match=re.escape(str(rejected.value))):
            cf(*args, np.linspace(-np.pi, np.pi, 9))


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


class TestNoncentralF:
    def test_cdf_matches_quadrature(self):
        # scipy's density is independent of the engine
        params = NoncentralFParams(2, 1, 5.0)
        for c in (0.5, 3.0, 20.0):
            val, _ = quad(lambda f: stats.ncf.pdf(f, 2, 1, 5.0), 0, c, limit=200)
            assert noncentral_f_cdf(c, params) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("mu,nu", DOF_PAIRS)
    @pytest.mark.parametrize("lam", [1.0, 5.0])
    def test_cdf_matches_quadrature_across_dof(self, mu, nu, lam):
        params = NoncentralFParams(mu, nu, lam)
        for c in (0.5, 3.0, 20.0):
            val, _ = quad(lambda f: stats.ncf.pdf(f, mu, nu, lam), 0, c, limit=200)
            assert noncentral_f_cdf(c, params) == pytest.approx(val, abs=1e-10)

    @pytest.mark.parametrize("mu,nu", DOF_PAIRS)
    @pytest.mark.parametrize("c", [1e-3, 0.3, 1.0, 4.0, 60.0, 1e4])
    def test_central_reduction(self, mu, nu, c):
        # at lambda = 0 only the k = 0 term survives: I_x(mu/2, nu/2), here in
        # 40-digit mpmath; c >= 1 takes the complement branch at every pair
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            x = mp.mpf(mu) * c / (mp.mpf(mu) * c + nu)
            want = float(mp.betainc(mp.mpf(mu) / 2, mp.mpf(nu) / 2, 0, x, regularized=True))
        got = noncentral_f_cdf(c, NoncentralFParams(mu, nu, 0.0))
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("mu,nu,lam", [(2, 3, 2.0), (2, 1, 5.0), (4, 3, 2.0)])
    def test_cdf_matches_simulation(self, mu, nu, lam):
        # independent oracle: F = (chi2_mu(lam)/mu) / (chi2_nu/nu) from draws
        params = NoncentralFParams(mu, nu, lam)
        rng = np.random.default_rng(2024)
        n = 2 * 10 ** 5
        draws = np.sort(rng.noncentral_chisquare(mu, lam, n) / mu / (rng.chisquare(nu, n) / nu))
        for c in np.linspace(0.1, 6.0, 25):
            p = noncentral_f_cdf(c, params)
            count = np.searchsorted(draws, c, side="right")
            assert abs(count - n * p) < 3 * np.sqrt(n * p * (1 - p)) + 1e-9, c

    @pytest.mark.parametrize("mu,nu", DOF_PAIRS)
    @pytest.mark.parametrize("lam", [0.0, 5.0, 1e4])
    def test_cdf_strictly_increasing_in_c(self, mu, nu, lam):
        # 400 points across the bulk, where a window or anchor row that moved
        # with c would show as a step down
        mean = (mu + lam) / mu
        vals = [noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam))
                for c in np.geomspace(mean / 50, mean * 50, 400)]
        assert np.all(np.diff(vals) > 0)

    @pytest.mark.parametrize("f", [1e15, 5e15, 1e20])
    def test_cdf_at_huge_c_keeps_the_complement(self, f):
        # 1 - cdf = sum_k w_k I_y(1/2, k + 1), y = 1/(2f + 1), mu = 2, nu = 1,
        # lambda = 3, in 40-digit mpmath; the cdf must round it to within an ulp
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            y, h = 1 / (2 * mp.mpf(f) + 1), mp.mpf(3) / 2
            tail = mp.fsum(mp.exp(-h) * h ** k / mp.factorial(k)
                           * mp.betainc(0.5, k + 1, 0, y, regularized=True) for k in range(80))
            want = float(1 - tail)
        got = noncentral_f_cdf(f, NoncentralFParams(2, 1, 3.0))
        assert got == pytest.approx(want, rel=0.0, abs=2.5e-16)

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

    @pytest.mark.parametrize("lam", [2.0 ** 54, 2e19, 1e25, 1e38, np.array([0.5, 1e38])])
    def test_noncentrality_past_the_float_index_range_rejected(self, lam):
        # from lambda/2 = 2^53 on consecutive Poisson indices are not distinct
        # floats; the cdf used to give 1.0 at 1e38, "array is too big" at
        # 2e19 and a MemoryError at 1e25
        with pytest.raises(ValueError, match="below 2\\^54 \\(lambda/2 < 2\\^53\\)"):
            NoncentralFParams(2, 1, lam)

    def test_array_call_equals_per_noncentrality_calls(self):
        # unsorted, with repeats, 0, a subnormal value and two huge ones; at
        # c = 5e11 the lambda = 1e12 entries sit near their mean
        lams = np.array([7.5, 0.0, 1e12, 3.25, 1e-310, 7.5, 1e10, 480.0, 0.0, 2e4, 3.25])
        c = 5e11
        got = noncentral_f_cdf(c, NoncentralFParams(2, 1, lams))
        assert isinstance(got, np.ndarray) and got.shape == lams.shape
        want = [noncentral_f_cdf(c, NoncentralFParams(2, 1, lam)) for lam in lams]
        assert all(isinstance(w, float) for w in want)
        assert np.all(got > 0)
        np.testing.assert_array_equal(got, want)

    def test_array_keeps_its_shape(self):
        lams = np.array([[0.0, 1.0], [5.0, 20.0]])
        got = noncentral_f_cdf(2.0, NoncentralFParams(2, 1, lams))
        assert got.shape == (2, 2)
        assert got[1, 0] == noncentral_f_cdf(2.0, NoncentralFParams(2, 1, 5.0))
        # every lambda > 0 of `shared` sums the one window [0, 81)
        shared = [0.0, 5.0, 5.02, 0.0, 5.06, 5.1]
        mixed = [0.0, 1.0, 5.0, 1e-310, 20.0, 480.0]
        for x in (0.5, 2.0, 199.5):
            def cdf(lam):
                return noncentral_f_cdf(x, NoncentralFParams(2, 1, lam))

            assert_shape_rule(cdf, shared)
            # every table entry is a function of k alone (the cdf's anchors
            # sit on a fixed grid of k), so lambda = 480's wider window
            # leaves the sums of lambda = 1, 5, 1e-310 and 20 bit for bit
            assert_shape_rule(cdf, mixed)
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
        total = dist._poisson_mixture(half, ones, 1.0, 0.0, lambda lo: np.zeros(lo.shape))
        np.testing.assert_allclose(total, 1.0, rtol=0.0, atol=1e-12)
        assert max(spans) <= dist._GROUP_CAP

    def test_engine_tables_each_k_once_on_the_anchor_grid(self, monkeypatch):
        # the Hotelling stack of a 241-point curve to theta = 40 (m = 1,
        # n = 3), at eta = 0 alone and at the three presets in one call:
        # within one pass of the engine no k is tabled twice, a multi-entry
        # cdf table ends on a row top, and no table spans more than the group cap
        from sqitest.hypotests import TestSpec, hh_type2_analytic

        spec, stack = TestSpec(1, 3, 0.0, 0.05), curve_tail_signals()
        passes = recording_passes(monkeypatch)
        for signals in (stack[0], stack):
            passes.clear()
            hh_type2_analytic(signals, spec)
            assert passes and all(len(spans) > 1 for _, spans in passes)
            for _, spans in passes:
                ks = np.concatenate([np.arange(k0, k1) for k0, k1 in spans])
                assert np.unique(ks).size == ks.size
                assert all(k1 % dist._ANCHOR_STEP == 0 for k0, k1 in spans if k1 - k0 > 1)
                assert max(k1 - k0 for k0, k1 in spans) <= dist._GROUP_CAP

    def test_curve_tail_stack_sums_few_atoms(self, monkeypatch):
        # the 723 noncentralities of that three-preset stack: the windows
        # that the tail bounds need hold about 407 000 atoms in all; the
        # first windows, each Poisson tail below the stop, come close, and
        # each widening adds only what its bound still asks for
        from sqitest.hypotests import TestSpec, hh_type2_analytic

        passes = recording_passes(monkeypatch)
        hh_type2_analytic(curve_tail_signals(), TestSpec(1, 3, 0.0, 0.05))
        assert sum(hi - lo for windows, _ in passes for lo, hi in windows) <= 470_000

    @pytest.mark.parametrize("nu", [3, 5])
    @pytest.mark.parametrize("lam", [1e9, 1e12])
    def test_far_below_the_bulk_above_nu_2_sums_no_window(self, nu, lam, monkeypatch):
        # at nu > 2 the bound C(lo) x^k on I_x grows with lo, but taken at
        # the first window's top hi + 1 it still bounds the whole series by
        # 2 C e^{-h y}, here 0; lambda = 1e12 once summed one window of
        # about 1.3e7 atoms, in 0.7-0.8 s, to return 0.0
        passes = recording_passes(monkeypatch)
        assert noncentral_f_cdf(2.0, NoncentralFParams(2, nu, lam)) == 0.0
        assert passes == []

    @pytest.mark.parametrize("lam", [1e9, 1e12])
    def test_cdf_far_below_the_bulk_sums_no_window(self, lam, monkeypatch):
        # at nu = 1 the cdf bounds its table by C x^k for every k, so the
        # whole series, at most 2 C e^{-h/5}, is 0 before the first pass;
        # lambda = 1e12 once took most of a second of passes to reach 0.0
        passes = recording_passes(monkeypatch)
        assert noncentral_f_cdf(2.0, NoncentralFParams(2, 1, lam)) == 0.0
        assert passes == []

    @pytest.mark.parametrize("mu,nu,c,lam", [(2, 1, 2.0, 7091.0), (2, 3, 2.0, 3361.0),
                                             (6, 10, 1.0, 2364.0)])
    def test_series_sent_to_zero_lies_below_the_float_range(self, mu, nu, c, lam,
                                                             monkeypatch):
        # lambda just past where the whole-series bound sends the sum to 0:
        # at lambda - 1 the engine still sums a window.  The series, bounded
        # above in 40-digit mpmath, must lie below the smallest normal float:
        # sum_{k<K} w_k I_x(k + a, b) + I_x(K + a, b) P(k >= K), with I_x from
        # its value at the top K and I_x(z, b) = I_x(z + 1, b) + d_z downward,
        # d_z = x^z y^b / (z B(z, b)) and d_{z-1} = d_z z / (x (z - 1 + b))
        mp = pytest.importorskip("mpmath")
        passes = recording_passes(monkeypatch)
        assert noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam)) == 0.0 and passes == []
        noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam - 1.0))
        assert passes
        with mp.workdps(40):
            a, b, h = mp.mpf(mu) / 2, mp.mpf(nu) / 2, mp.mpf(lam) / 2
            x, y = mu * c / (mp.mpf(mu) * c + nu), nu / (mp.mpf(mu) * c + nu)
            top = int(h + 20 * mp.sqrt(h))
            z = top + a
            t = mp.betainc(z, b, 0, x, regularized=True)
            total = t * mp.gammainc(top, 0, h, regularized=True)
            d = x ** z * y ** b / (z * mp.beta(z, b))
            w = mp.exp(top * mp.log(h) - h - mp.loggamma(top + 1))
            for k in range(top - 1, -1, -1):
                z -= 1
                d *= (z + 1) / (x * (z + b))
                w *= (k + 1) / h
                t += d
                total += w * t
            assert total < np.finfo(float).tiny

    def test_cdf_far_below_the_bulk_in_a_stack(self):
        # the lambdas sent to 0 before any pass leave the others' bits alone
        lams = np.array([1e12, 0.0, 3.0, 1e9, 40.0, 2e3, 1e12])
        got = noncentral_f_cdf(2.0, NoncentralFParams(2, 1, lams))
        want = [noncentral_f_cdf(2.0, NoncentralFParams(2, 1, lam)) for lam in lams]
        np.testing.assert_array_equal(got, want)
        assert got[0] == got[3] == 0.0 and np.all(got[[1, 2, 4]] > 0.0)

    @pytest.mark.parametrize("mu,nu", [(1, 1), (2, 1), (2, 2), (4, 3), (2, 5), (6, 10),
                                       (2, 60)])
    @pytest.mark.parametrize("arg", [1e-3, 0.5, 2.0, 60.0, 1e4])
    def test_tables_lie_below_their_geometric_bound(self, mu, nu, arg, monkeypatch):
        # t_k <= C(lo) x^k for every k < lo: the premise of the one bound on
        # the terms below a window, C e^{-h y} pdtr(lo - 1, h x): a table
        # above it would stop a window too early
        seen = []
        monkeypatch.setattr(dist, "_poisson_mixture", lambda half, *rest: seen.append(rest) or 0.0)
        noncentral_f_cdf(arg, NoncentralFParams(mu, nu, 1.0))
        table, x, _, log_scale = seen[0]
        t = table(0, 4 * dist._ANCHOR_STEP)
        k = np.arange(t.size)
        for lo in (1, 2, 7, 40, 300, t.size):
            with np.errstate(under="ignore"):
                bound = np.exp(log_scale(np.array([lo]))[0] + k[:lo] * np.log(x))
            # at nu = 2 (b = 1) the bound is I_x itself, x^{k+1}: equal but for
            # rounding, which is coarse among the subnormals
            assert np.all(t[:lo] <= bound * (1.0 + 1e-12) + np.finfo(float).tiny)

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(data=st.data(), dof=st.sampled_from([(2, 1), (4, 3), (6, 10)]),
           moderate=st.lists(st.floats(0.0, 2e4), max_size=4),
           huge=st.floats(1e9, 1.5e9), log_c=st.floats(-1.0, 10.0))
    def test_stacked_calls_equal_scalar_calls_property(self, data, dof, moderate, huge,
                                                       log_c):
        # 0, a subnormal lambda and one whose windows cross many chunk edges
        lams = data.draw(st.permutations([0.0, 1e-310, huge, *moderate]))
        got = noncentral_f_cdf(10.0 ** log_c, NoncentralFParams(*dof, np.array(lams)))
        want = [noncentral_f_cdf(10.0 ** log_c, NoncentralFParams(*dof, lam)) for lam in lams]
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lam", [0.0, 5.0])
    @pytest.mark.parametrize("c", [np.inf, 1e308])
    def test_cdf_is_one_where_mu_c_overflows(self, lam, c):
        assert noncentral_f_cdf(c, NoncentralFParams(2, 1, lam)) == 1.0

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_cdf_is_zero_at_nonpositive_c(self, c):
        assert noncentral_f_cdf(c, NoncentralFParams(2, 1, 5.0)) == 0.0

    def test_nan_argument_rejected(self):
        with pytest.raises(ValueError, match="^c must"):
            noncentral_f_cdf(np.nan, NoncentralFParams(2, 1, [1.0, 3.0]))


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

    def test_large_nu_tail_bound_overflows_silently(self):
        # at nu = 2998 the Poisson bound below the window passes the float
        # range; an inf bound only widens the window, and warns of nothing
        c = critical_point(0.05, 2, 2998)
        got = noncentral_f_cdf(c, NoncentralFParams(2, 2998, 170.009))
        assert got == pytest.approx(ncfdtr(2, 2998, 170.009, c), rel=1e-12, abs=0.0)

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

    @pytest.mark.parametrize("mu,nu,lam,c", [(2, 5, 0.5, 1e4), (4, 30, 2.0, 500.0),
                                             (2, 1, 0.5, 1e6), (6, 10, 1.0, 1e3)])
    def test_cdf_near_one_at_large_c(self, mu, nu, lam, c):
        # x near 1 takes the complement branch of I_x, and the cdf lies within
        # 1e-3 of 1 (it rounds to 1 at the second case), so the check is
        # absolute, to about ten ulps
        got = noncentral_f_cdf(c, NoncentralFParams(mu, nu, lam))
        assert got == pytest.approx(ncfdtr(mu, nu, lam, c), rel=0.0, abs=1e-15)

    @pytest.mark.parametrize("lam", [4e5, 1e6, 1e7])
    def test_cdf_at_huge_noncentrality(self, lam):
        # the terms that matter lie near k = lambda/2, past 2e5 here
        c = (2.0 + lam) / 2.0
        got = noncentral_f_cdf(c, NoncentralFParams(2, 5, lam))
        assert got == pytest.approx(ncfdtr(2, 5, lam, c), rel=1e-9, abs=0.0)

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
        # oracle: invert the quadrature cdf of scipy's central density by bisection
        def cdf_quad(c):
            val, _ = quad(lambda f: stats.f.pdf(f, 2, 1), 0, c, limit=200)
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

    def test_tiny_argument_against_quadrature(self):
        # |z| tiny against n: the Bessel form (2/|z|)^nu ive(nu, |z|) would give
        # nan or 0 here
        for n, z in ((5, 1e-300), (20, 1e-40), (60, 1e-12), (120, 1e-4)):
            want, _ = quad(lambda p: np.exp(z * np.cos(p) - z) * np.sin(p) ** (n - 2),
                           0.0, np.pi, epsabs=1e-300, epsrel=1e-12, limit=400)
            assert exp_cos_integral_scaled(z, n) == pytest.approx(want, rel=1e-10)

    def test_large_arguments_leave_no_unraisable_error(self, monkeypatch):
        # no special function may leave an unraisable error: scipy's 0F1 raised
        # and swallowed ZeroDivisionError at these arguments
        seen = []
        monkeypatch.setattr(sys, "unraisablehook", seen.append)
        exp_cos_integral_scaled(np.array([0.0, 1e4, 2e4]), 2)
        assert seen == []

    def test_scaled_variant_handles_huge_arguments(self):
        val = exp_cos_integral_scaled(5000.0, 3)
        assert val == pytest.approx((1 - np.exp(-10000.0)) / 5000.0, rel=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 4, 12])
    def test_large_arguments_match_the_bessel_form(self, n):
        # past |z| ~ 1.07e9, where scipy's ive returns NaN, checked against the
        # Bessel form in 40-digit mpmath and, for n = 3, (1 - e^{-2z})/z
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        zs = np.array([1.0e9, 1.2e9, 3e10, 1e15])
        got = exp_cos_integral_scaled(-zs, n)
        nu = (n - 2) / 2.0
        for z, g in zip(zs, got):
            want = (mp.sqrt(mp.pi) * mp.gamma(nu + 0.5) * (2 / mp.mpf(z)) ** nu
                    * mp.besseli(nu, z) * mp.exp(-mp.mpf(z)))
            assert g == pytest.approx(float(want), rel=1e-13, abs=0.0)
        if n == 3:
            np.testing.assert_allclose(got, 1.0 / zs, rtol=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 10, 12, 200])
    def test_matches_kummer_function_in_mpmath(self, n):
        # B(a, 1/2) M(a, 2a, -2|z|), a = (n-1)/2, in 40-digit mpmath, on both
        # sides of the switch to the large-argument term.  Past the switch
        # scipy's hyp1f1 alone misses by 1.6e-11 at (n, z) = (4, 1e104),
        # returns 0 at (6, 1e104) and nan at (2, 1.7e308) and (10, 1e104).
        # The Bessel form gave nan at (2, 5e-324): 2/|z| overflowed, and
        # nu log(2/|z|) was 0 * inf
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        zs = np.array([0.0, 5e-324, 1e-300, 0.7, 4800.0, 1e15, 1e20, 1e104, 1e300, 1.7e308])
        got = exp_cos_integral_scaled(zs, n)
        np.testing.assert_array_equal(exp_cos_integral_scaled(-zs, n), got)
        a = mp.mpf(n - 1) / 2
        for z, g in zip(zs, got):
            want = mp.beta(a, mp.mpf(0.5)) * mp.hyp1f1(a, 2 * a, -2 * mp.mpf(z))
            assert g == pytest.approx(float(want), rel=1e-12, abs=1e-301)

    @pytest.mark.parametrize("n,z", [(2, 1.7e308), (3, 1.7e308), (4, 1e100), (20, 1e25),
                                     (19, 2.5786175408513666e33)])
    def test_far_branch_is_exact_to_a_few_ulps(self, n, z):
        # one exp of the whole log (an exponent of 350-700) missed by 2.3e-14
        # to 1.28e-13 here; the last point was the worst far-branch cell
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        a = mp.mpf(n - 1) / 2
        want = mp.beta(a, mp.mpf(0.5)) * mp.hyp1f1(a, 2 * a, -2 * mp.mpf(z))
        assert exp_cos_integral_scaled(z, n) == pytest.approx(float(want), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("n", [171, 172, 1000])
    def test_far_branch_past_the_gamma_overflow_is_zero(self, n):
        # Gamma(2a) overflows from n = 172, where every far value underflows;
        # the pytest config makes a RuntimeWarning (inf * 0) an error
        got = exp_cos_integral_scaled(np.array([1e25, 1e300, 1.7e308]), n)
        assert got.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("z", [np.inf, np.nan, np.array([1.0, -np.inf])])
    def test_non_finite_argument_rejected(self, z):
        with pytest.raises(ValueError, match="z must be finite"):
            exp_cos_integral_scaled(z, 3)
