#!/usr/bin/env python3
"""The integer law behind the two-copy invariant test.

The observable measured by the two-copy invariant test is the square of a
photon count-difference statistic.  Its lattice law is built three ways and
shown to agree: the compound construction (the difference X - X' of two
independent photon counts, each ``photon_number_law``: a negative binomial
convolved with a Polya-Aeppli law), Fourier inversion of the
characteristic-function product, and the spectral measure of the literal
truncated-space observable.

Run: python demos/03_count_difference_law.py
"""
import numpy as np

from sqitest import distributions as dist
from sqitest import fock

m, s, N = 1, 0.7, 0.5
print(f"mode count {m}, displacement norm {s}, mixture {N}")

print("\n== route 1: compound construction ==")
law = dist.count_difference_distribution(m, s, N)
print(f"support [{law.lo}, {law.hi}], tail mass {law.tail_mass:.1e}")
print("pmf near the origin:")
for y in range(-3, 4):
    print(f"  P(Y = {y:+d}) = {law.prob(y):.8f}")

print("\n== route 2: characteristic-function inversion ==")
inv = dist.invert_integer_cf(lambda r: dist.count_difference_cf(m, s, N, r),
                             law.hi + 8)
print(f"total variation between the two routes: "
      f"{dist.total_variation(law, inv):.2e}")

print("\n== route 3: spectral measure on the truncated space ==")
cfg = fock.FockConfig(1, 2, 40)
obs = (-1j) * fock.beamsplitter_generator(cfg, 1, 2).toarray()
rho = fock.product_state(cfg, np.exp(1j * np.pi / 4) * s, N)
sm = fock.spectral_measure(rho, obs)
print(f"total variation against the operator route: "
      f"{dist.total_variation(law, sm):.2e}")
print(f"truncation loss of the operator route: {sm.tail_mass:.1e}")

print("\n== special cases ==")
pure = dist.count_difference_distribution(1, s, 0.0)
lam = s * s
print(f"mixture 0 reduces to a Skellam law: P(Y=0) = {pure.prob(0):.10f} "
      f"vs Bessel {dist.skellam_pmf(0, lam):.10f}")

print("\n== the noncentral F side of the comparison ==")
params = dist.NoncentralFParams(2, 1, 3.0)
c = dist.critical_point(0.05, 2, 1)
print(f"critical point of the central F(2,1) at level 0.05: c = {c:.4f}")
print(f"P(F <= c) at noncentrality 3.0: {dist.noncentral_f_cdf(c, params):.6f}")
