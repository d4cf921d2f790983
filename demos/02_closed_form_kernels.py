"""The assembled propagator against textbook closed forms.

Two limits have exact reference kernels: the static oscillator
sqrt(w / (2 pi i hbar sin wT)) exp(i w ((x''^2+x'^2) cos wT - 2 x'' x') / 2 hbar sin wT)
and the free particle sqrt(m / (2 pi i hbar T)) exp(i m (x''-x')^2 / 2 hbar T).
The general construction must collapse to both, including the branch of the
square root past a focal time.
"""

import numpy as np

from oscpair import build_kernel, solve_angle
from oscpair.coefficients import Constant
from oscpair.system import SystemSpec


def spec_with(w):
    return SystemSpec(m1=Constant(1.0), m2=Constant(1.0),
                      omega1=Constant(w), omega2=Constant(w),
                      f1=Constant(0.0), f2=Constant(0.0),
                      coupling=Constant(0.0), t_min=0.0, t_max=8.0)


def feynman_ho(xq, xp, w, T, hbar=1.0):
    s, mu = np.sin(w * T), int(np.floor(w * T / np.pi))
    pref = np.sqrt(w / (2 * np.pi * hbar * abs(s))) * np.exp(
        -0.25j * np.pi - 0.5j * np.pi * mu)
    return pref * np.exp(1j * w / (2 * hbar * s)
                         * ((xq**2 + xp**2) * np.cos(w * T) - 2 * xq * xp))


rng = np.random.default_rng(0)

print("static oscillator, T = pi/4 (before the focal time):")
dec = solve_angle(spec_with(1.0))
kern = build_kernel(dec, 0.0, np.pi / 4)
pts = rng.normal(size=(5, 4))
for x1q, x2q, x1p, x2p in pts:
    K = kern.evaluate(x1q, x2q, x1p, x2p)
    ref = feynman_ho(x1q, x1p, 1.0, np.pi / 4) * feynman_ho(x2q, x2p, 1.0, np.pi / 4)
    print(f"  K = {K:+.10f}   rel err vs closed form {abs(K-ref)/abs(ref):.2e}")

print("\nsame system, T = 3.5 (one caustic passed, extra phase -pi/2):")
kern = build_kernel(dec, 0.0, 3.5)
print(f"  Maslov counts per channel: {kern.maslov.tolist()}")
for x1q, x2q, x1p, x2p in pts[:3]:
    K = kern.evaluate(x1q, x2q, x1p, x2p)
    ref = feynman_ho(x1q, x1p, 1.0, 3.5) * feynman_ho(x2q, x2p, 1.0, 3.5)
    print(f"  K = {K:+.10f}   rel err {abs(K-ref)/abs(ref):.2e}")

print("\nfree particle, T = 1:")
dec0 = solve_angle(spec_with(0.0))
kern0 = build_kernel(dec0, 0.0, 1.0)
for x1q, x2q, x1p, x2p in pts[:3]:
    K = kern0.evaluate(x1q, x2q, x1p, x2p)
    ref = (np.sqrt(1 / (2j * np.pi)) * np.exp(0.5j * (x1q - x1p) ** 2)
           * np.sqrt(1 / (2j * np.pi)) * np.exp(0.5j * (x2q - x2p) ** 2))
    print(f"  K = {K:+.10f}   rel err {abs(K-ref)/abs(ref):.2e}")

print("\nthe auxiliary representation behind the free case: "
      "rho = sqrt(1 + t^2), phi = arctan t")
sol = kern0.solutions[0]
print(f"  rho(1) = {sol.rho(1.0):.12f}   (sqrt(2) = {np.sqrt(2):.12f})")
print(f"  phi(1) = {sol.phi(1.0):.12f}   (pi/4   = {np.pi/4:.12f})")
