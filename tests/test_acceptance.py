"""Acceptance gate: every criterion asserted at its stated tolerance.

Each test prints one summary line so a plain ``pytest -v tests/test_acceptance.py``
doubles as the acceptance report.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import beta
from scipy.stats import kstest

from sqitest import distributions as dist
from sqitest import fock
from sqitest import hypotests as ht
from sqitest.phase_space import SqueezeParam, kappa, pooling_rotation_matrix

ALPHA = 0.05


def report(num, detail):
    print(f"\nacceptance criterion {num}: PASS ({detail})")


def test_criterion_1_closed_form_triple_agreement():
    # invariant-test error probability: closed form == two-copy lattice route
    # (1e-8), both == truncated-space oracle at d=30 for n in {2, 3} (1e-4)
    t0 = time.time()
    thetas = (0.0, 0.3, 0.7)

    worst_lattice = 0.0
    spec2 = ht.TestSpec(1, 2, 0.0, ALPHA, "si")
    for th in thetas:
        closed = ht.si_type2_closed(th, spec2)
        lattice = ht.si_type2_n2(th, 1, 0.0, ALPHA)
        worst_lattice = max(worst_lattice, abs(closed - lattice))
    assert worst_lattice < 1e-8

    worst_fock = 0.0
    for n in (2, 3):
        cfg = fock.FockConfig(1, n, 30)
        spec = ht.TestSpec(1, n, 0.0, ALPHA, "si")
        for th in thetas:
            got = fock.si_type2_fock(th, 0.0, ALPHA, cfg)
            worst_fock = max(worst_fock, abs(got - ht.si_type2_closed(th, spec)))
    assert worst_fock < 1e-4

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(1, f"lattice diff {worst_lattice:.2e}, oracle diff {worst_fock:.2e}, "
              f"{elapsed:.0f}s")


def test_criterion_2_count_difference_law_equivalence():
    # characteristic-function product inverted on the lattice == compound
    # construction (TV 1e-8) over the full parameter grid; both match the
    # spectral measure of the copy-difference observable at d=40 (1e-4)
    t0 = time.time()

    worst_tv = 0.0
    for m in (1, 2):
        for s in (0.0, 0.5, 1.0):
            for N in (0.0, 0.5, 1.0):
                comp = dist.count_difference_distribution(m, s, N)
                inv = dist.invert_integer_cf(
                    lambda r: dist.count_difference_cf(m, s, N, r), comp.hi + 8)
                worst_tv = max(worst_tv, dist.total_variation(comp, inv))
    assert worst_tv < 1e-8

    # truncated-space leg: m = 1 (the m = 2 case at d = 40 would need
    # 820^2 = 672 400 basis states, beyond the dense limit of 4096)
    cfg = fock.FockConfig(1, 2, 40)
    obs = fock.TruncatedOperator(
        cfg, (-1j) * fock.beamsplitter_generator(cfg, 1, 2).toarray())
    from scipy.linalg import eigh
    vals, vecs = eigh(obs.entries)
    worst_fock = 0.0
    for s in (0.0, 0.5, 1.0):
        for N in (0.0, 0.5, 1.0):
            rho = fock.product_state(cfg, np.exp(1j * np.pi / 4) * s, N)
            B = rho.entries @ vecs
            per_vec = np.real(np.sum(vecs.conj() * B, axis=0))
            tv = dist.total_variation(dist.lattice_law(vals, per_vec),
                                      dist.count_difference_distribution(1, s, N))
            worst_fock = max(worst_fock, tv)
    assert worst_fock < 1e-4

    elapsed = time.time() - t0
    assert elapsed < 180.0
    report(2, f"TV {worst_tv:.2e}, spectral-measure TV {worst_fock:.2e}, "
              f"{elapsed:.0f}s")


def test_criterion_3_noncentral_f_engine():
    # normalization, critical-point round trip, and a seeded Monte Carlo
    # Kolmogorov-Smirnov test of the whole simulated chain under the null
    worst_norm = 0.0
    for lam in (0.0, 1.0, 5.0):
        p = dist.NoncentralFParams(2, 1, lam)
        val, _ = quad(lambda f: dist.noncentral_f_pdf(f, p), 0, np.inf, limit=300)
        worst_norm = max(worst_norm, abs(val - 1.0))
    assert worst_norm < 1e-8

    c = dist.critical_point(ALPHA, 2, 1)
    tail = 1.0 - dist.noncentral_f_cdf(c, dist.NoncentralFParams(2, 1, 0.0))
    assert abs(tail - ALPHA) < 1e-9

    spec = ht.TestSpec(1, 3, 0.0, ALPHA, "hh")
    from sqitest.phase_space import GaussianSpec, heterodyne_sample, rng_stream

    gspec = GaussianSpec(1, np.array([0.0]), SqueezeParam.zero(1), 0.0)
    reps, n = 10 ** 5, 3
    x = heterodyne_sample(gspec, reps * n, rng=rng_stream(12345)).reshape(reps, n, 2)
    xbar = x.mean(axis=1)
    centered = x - xbar[:, None, :]
    cov = np.einsum("rni,rnj->rij", centered, centered) / (n - 1)
    sol = np.linalg.solve(cov, xbar[..., None])[..., 0]
    f_vals = (spec.nu_dof / (spec.mu_dof * (n - 1))) * n * np.einsum(
        "ri,ri->r", xbar, sol)
    p0 = dist.NoncentralFParams(2, 1, 0.0)
    cdf = np.vectorize(lambda v: dist.noncentral_f_cdf(v, p0))
    result = kstest(f_vals, cdf)
    assert result.pvalue >= 0.01

    report(3, f"norm defect {worst_norm:.2e}, round trip {abs(tail - ALPHA):.2e}, "
              f"KS p = {result.pvalue:.3f}")


def test_criterion_4_squeezing_dependence_and_supremum():
    # theta = 0.5, N = 0: the Hotelling error moves with the squeezing family
    # and climbs to the trivial level 1 - alpha as the family collapses
    spec = ht.TestSpec(1, 3, 0.0, ALPHA, "hh")
    th = 0.5

    betas = {}
    for r in (1.0, 0.5, 0.1, 1e-3):
        eta = SqueezeParam.axis_family(r)
        want_kappa = 4 * r * r * th * th / ((2 * 0.0 + 1) * r * r + 1)
        assert kappa(np.array([th]), eta, 0.0) == pytest.approx(want_kappa, abs=1e-12)
        betas[r] = ht.hh_type2_analytic(th, eta, spec)

    spread = max(abs(betas[1.0] - betas[0.5]), abs(betas[0.5] - betas[0.1]),
                 abs(betas[1.0] - betas[0.1]))
    assert spread > 1e-3
    assert abs(betas[1e-3] - (1 - ALPHA)) < 1e-4

    report(4, f"spread {spread:.3e}, sup gap {abs(betas[1e-3] - 0.95):.2e}")


def test_criterion_5_error_curve_crossing():
    # the invariant test wins near zero and loses in the far tail; witnesses
    # must be stable under doubling the grid resolution
    grid = np.linspace(0.05, 40.0, 160)
    res = ht.crossing_check(ALPHA, grid)
    assert res.found_both, "crossing witnesses not found on the default grid"
    assert res.theta_small < res.theta_large

    fine = ht.crossing_check(ALPHA, np.linspace(0.05, 40.0, 320))
    assert fine.found_both
    spacing = grid[1] - grid[0]
    assert abs(fine.theta_small - res.theta_small) <= spacing
    assert abs(fine.theta_large - res.theta_large) <= spacing

    report(5, f"witnesses theta_small = {res.theta_small:.3f}, "
              f"theta_large = {res.theta_large:.2f}")


def test_criterion_6_asymptotic_slopes_and_tails():
    # small displacements: (1 - alpha - beta)/(n theta^2 (1 - alpha)) -> 1
    th = 2.5e-3
    worst = 0.0
    for n in (2, 3):
        spec = ht.TestSpec(1, n, 0.0, ALPHA, "si")
        beta = ht.si_type2_closed(th, spec)
        ratio = (1 - ALPHA - beta) / (n * th * th * (1 - ALPHA))
        worst = max(worst, abs(ratio - 1.0))
    assert worst < 0.01

    # large displacements, n = 3: theta^2 beta_si stays bounded while the
    # Hotelling-to-invariant ratio falls once the level puts the critical
    # point inside the tail regime (alpha = 0.5 exhibits it on {2, 3, 4})
    spec_si = ht.TestSpec(1, 3, 0.0, ALPHA, "si")
    scaled = [t * t * ht.si_type2_closed(t, spec_si) for t in (2.0, 3.0, 4.0)]
    assert max(scaled) < 0.2

    spec_hh5 = ht.TestSpec(1, 3, 0.0, 0.5, "hh")
    spec_si5 = ht.TestSpec(1, 3, 0.0, 0.5, "si")
    eta0 = SqueezeParam.zero(1)
    ratios = [ht.hh_type2_analytic(t, eta0, spec_hh5) / ht.si_type2_closed(t, spec_si5)
              for t in (2.0, 3.0, 4.0)]
    assert ratios[0] > ratios[1] > ratios[2]

    report(6, f"slope defect {worst:.2e}, theta^2 beta_si <= {max(scaled):.3f}, "
              f"ratios {ratios[0]:.2e} > {ratios[1]:.2e} > {ratios[2]:.2e}")


def test_criterion_7_generator_invariance_at_truncation():
    # commutator of the copy-mixing generator with the squeeze generator
    # vanishes on the interior block for 20 random squeezing draws
    t0 = time.time()
    rng = np.random.default_rng(777)
    cfg = fock.FockConfig(1, 2, 12)
    v = fock.beamsplitter_generator(cfg, 1, 2).toarray()
    mask = fock.interior_mask(cfg, 2)
    worst = 0.0
    for _ in range(20):
        a = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        s = rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1))
        A = 0.5 * (a - a.conj().T)
        S = 0.5 * (s + s.T)
        scale = max(np.linalg.norm(A), np.linalg.norm(S), 1.0)
        eta = SqueezeParam(1, A / scale, S / scale)
        gen = fock.squeeze_generator(eta, cfg).toarray()
        comm = (gen @ v - v @ gen)[np.ix_(mask, mask)]
        worst = max(worst, float(np.max(np.abs(comm))))
    assert worst < 1e-8

    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(7, f"max interior commutator {worst:.2e}, {elapsed:.1f}s")


def test_criterion_8_rotation_facts():
    # classical pooling rotation sends the all-ones vector to sqrt(n) e_n;
    # the rotation-average projector reproduces the closed-form coherent
    # expectations
    worst_pool = 0.0
    for n in range(2, 9):
        R = pooling_rotation_matrix(n)
        want = np.zeros(n)
        want[-1] = np.sqrt(n)
        worst_pool = max(worst_pool, float(np.max(np.abs(R @ np.ones(n) - want))))
    assert worst_pool < 1e-12

    worst_avg = 0.0
    for n, d in ((2, 25), (3, 10)):
        cfg = fock.FockConfig(1, n, d)
        W = fock.rotation_average_projector(cfg)
        for r in (0.3, 0.5):
            vec = fock.coherent_product_vector(cfg, np.full((1, n), r))
            got = float(np.real(vec.conj() @ (W.entries @ vec)))
            z = n * r * r
            want = dist.exp_cos_integral_scaled(z, n) / beta(
                (n - 1) / 2.0, 0.5)
            worst_avg = max(worst_avg, abs(got - want))
    assert worst_avg < 1e-5

    report(8, f"pooling defect {worst_pool:.2e}, projector defect {worst_avg:.2e}")
