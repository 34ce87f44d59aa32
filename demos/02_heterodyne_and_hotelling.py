#!/usr/bin/env python3
"""Heterodyne outcomes, their moments, and the Hotelling decision rule.

Shows the phase-space law of heterodyne data on a squeezed displaced thermal
state, the signal-to-noise form kappa and its collapse under adversarial
squeezing, and the full simulated decision chain against its analytic error
probability.

Run: python demos/02_heterodyne_and_hotelling.py
"""
import numpy as np

from sqitest import hypotests as ht
from sqitest.phase_space import (
    SqueezeParam, heterodyne_sample, kappa, moments, rng_stream, whitened_signal,
)

print("== phase-space moments ==")
eta = SqueezeParam.axis_family(1.5)
mu, sigma = moments(0.5, eta, mixture=0.2)
print(f"G matrix for the axis family (r = 1.5):\n{eta.G}")
print(f"outcome mean {mu}, covariance\n{sigma}")

draws = heterodyne_sample(0.5, eta, 0.2, 200000, rng=rng_stream(1))
print(f"sample mean {draws.mean(axis=0)} (200k draws)")
print(f"sample covariance\n{np.cov(draws.T)}")

print("\n== signal-to-noise collapse under squeezing ==")
for r in (2.0, 1.0, 0.3, 0.05):
    k = kappa(np.array([0.5]), SqueezeParam.axis_family(r), 0.0)
    print(f"  r = {r:>4}: kappa = {k:.6f}   "
          f"(closed form {4*r*r*0.25/(r*r+1):.6f})")
print("as r -> 0 the squeezing hides the displacement from heterodyne data")

print("\n== the Hotelling decision rule on simulated data ==")
spec_hh = ht.TestSpec(modes=1, copies=3, mixture=0.0, alpha=0.05)
eta0 = SqueezeParam.zero(1)
data = heterodyne_sample(0.8, eta0, 0.0, 3, rng=rng_stream(7))
print(f"three heterodyne outcomes:\n{data}")
print(f"scaled Hotelling statistic: {ht.hotelling_F(data):.4f}")

# T^2 is unchanged by whitening, so both routes read the whitened signal
# sigma^{-1/2} mu, whose squared norm is kappa: the simulation draws each
# replicate's whitened sample mean and covariance, and shifts the mean by it
signal = whitened_signal(0.5, eta0, 0.0)
analytic = ht.hh_type2_analytic(signal, spec_hh)
mc = ht.hh_type2_montecarlo(signal, spec_hh, reps=100000, rng=rng_stream(3))
print(f"type II error at displacement 0.5: analytic {analytic:.5f}, "
      f"simulated {mc.value:.5f} +/- {mc.stderr:.5f}")

print("\nthe error probability depends on the unknown squeezing:")
for r in (1.0, 0.5, 0.1):
    b = ht.hh_type2_analytic(whitened_signal(0.5, SqueezeParam.axis_family(r), 0.0), spec_hh)
    print(f"  r = {r:>4}: beta = {b:.5f}")
print("the supremum over squeezing equals 1 - alpha: the Hotelling test "
      "cannot beat the trivial test in the minimax sense")
