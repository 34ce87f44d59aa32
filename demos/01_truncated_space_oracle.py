#!/usr/bin/env python3
"""Tour of the truncated number-basis oracle.

Builds the elementary operators literally and shows that the identities the
rest of the package relies on hold on the truncated space: the commutation
relation below the cutoff edge, coherent-state transport under displacement
and pooling, squeezing invariance of the copy-mixing generator, and the
kernel of the rotation-defect observable.  The multi-copy basis keeps every
occupation tuple whose per-mode photon totals stay below the cutoff, so it
is a sum of whole photon sectors and the last two identities hold on all of
it.

Run: python demos/01_truncated_space_oracle.py
"""
import numpy as np

from sqitest import fock
from sqitest.phase_space import SqueezeParam

print("== single-mode basics ==")
d = 12
a = fock.annihilation(d)
comm = a @ a.conj().T - a.conj().T @ a
print(f"cutoff d = {d}")
print(f"[a, a*] = I on occupations <= {d - 2}: "
      f"max defect {np.max(np.abs(comm[:d-1, :d-1] - np.eye(d-1))):.2e}")

theta = 0.6 + 0.3j
D = fock.displacement(theta, 40)
coh = fock.coherent_vector(theta, 40)
print(f"displacement of the vacuum reproduces the coherent expansion: "
      f"max diff {np.max(np.abs(D.entries[:, 0] - coh)):.2e}")
print(f"coherent tail mass at cutoff 40: {1.0 - np.real(coh.conj() @ coh):.2e}")

rho = fock.thermal_coherent_state(0.5, 0.3, 40)
print(f"displaced thermal state truncation loss: {rho.trunc_loss:.2e}")

print("\n== squeezing ==")
r = 0.8
eta = SqueezeParam(1, np.zeros((1, 1)), np.array([[r]]))
S = fock.squeeze(eta, fock.FockConfig(1, 1, 50))
print(f"squeezed-vacuum overlap |<0|S|0>|^2 = {abs(S.entries[0, 0])**2:.10f} "
      f"vs 1/cosh({r}) = {1/np.cosh(r):.10f}")

cfg = fock.FockConfig(1, 2, 12)
v = fock.beamsplitter_generator(cfg, 1, 2).toarray()
gen = fock.squeeze_generator(eta, cfg).toarray()
print(f"{cfg.dim} basis states with photon total <= {cfg.cutoff - 1}")
print(f"squeeze generator commutes with the copy-mixing generator: "
      f"max {np.max(np.abs(gen @ v - v @ gen)):.2e}")

print("\n== pooling rotation ==")
cfg3 = fock.FockConfig(1, 3, 25)
psi = fock.coherent_product_vector(cfg3, np.full((1, 3), 0.3))
pooled = fock.apply_pooling_rotation(cfg3, psi)
target = fock.coherent_product_vector(cfg3, [[0.0, 0.0, np.sqrt(3) * 0.3]])
overlap = abs(np.vdot(target, pooled)) ** 2
print("three copies displaced by 0.3 pool into one copy displaced by sqrt(3)*0.3")
print(f"trace distance to the pooled product state: "
      f"{np.sqrt(max(0.0, 1 - overlap)):.2e}")

print("\n== rotation-defect observable and its kernel ==")
cfg = fock.FockConfig(1, 2, 8)
T = fock.rotation_defect_observable(cfg)
K0 = fock.spectral_projection(T, 0.0)
W = fock.rotation_average_projector(cfg)
print(f"kernel projector == group average: "
      f"max diff {np.max(np.abs(K0.entries - W.entries)):.2e}")

vec = fock.coherent_product_vector(cfg, np.full((1, 2), 0.4))
got = float(np.real(vec.conj() @ (W.entries @ vec)))
from scipy.special import beta
from sqitest.distributions import exp_cos_integral_scaled
want = exp_cos_integral_scaled(2 * 0.16, 2) / beta(0.5, 0.5)
print(f"coherent expectation of the average: {got:.8f} "
      f"(closed form {want:.8f})")
