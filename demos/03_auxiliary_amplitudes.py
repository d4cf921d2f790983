"""Auxiliary amplitudes: the nonlinear equation behind the exact kernel.

Each decoupled channel needs one positive solution of
rho'' + Omega^2(t) rho = 1/rho^3.  The solver integrates the *linear*
oscillator equation twice and assembles rho = sqrt(u^2 + v^2) (the Pinney
construction); the phase phi = int dt/rho^2 is the polar angle of (u, v).
Caustics of the kernel -- zeros of sin phi -- are located by bisection on
the strictly increasing phase.
"""

import numpy as np

from oscpair import load_shipped, solve_angle, solve_ermakov

# equilibrium: for constant Omega, rho = Omega^(-1/2) solves the equation
# with zero derivative, and the phase grows linearly
om0 = 1.7
sol = solve_ermakov(lambda t: om0**2, 0.0, 4.0, ic=(om0**-0.5, 0.0))
print(f"constant Omega = {om0}: rho stays {sol.rho(2.0):.12f}"
      f" (= Omega^-1/2 = {om0**-0.5:.12f}), phi(4) = {sol.phi(4.0):.10f}"
      f" (= 4 Omega = {4*om0:.10f})")

# generic initial data oscillate between rho = 1 and rho = 1/Omega
sol2 = solve_ermakov(lambda t: om0**2, 0.0, 4.0, ic=(1.0, 0.0))
ts = np.linspace(0.0, 4.0, 9)
print("\nsame channel from rho(0) = 1 (breathing solution):")
print("  rho:", "  ".join(f"{v:.4f}" for v in sol2.rho(ts)))

# the Pinney route satisfies the nonlinear equation pointwise (the tests
# also check it against brute-force integration of that equation)
om_sq = lambda t: 1.5 + 0.8 * np.cos(1.3 * t)
a = solve_ermakov(om_sq, 0.0, 6.0, ic=(1.1, -0.2))
tt = np.linspace(0.0, 6.0, 400)
print(f"\nsinusoidal channel: pointwise equation residual (Wronskian form): "
      f"{np.max(a.residual(tt)):.2e}")

# caustic bookkeeping on a shipped scenario: the stiffer channel of the
# damped pair passes one focal time inside the window
ck = load_shipped("caldirola-kanai")
dec = solve_angle(ck.system)
for j in (1, 2):
    s = solve_ermakov(lambda t, j=j: dec.omega_sq(j, t), 0.0, 2.0, channel=j)
    caustics = s.caustics_in(0.0, 2.0)
    print(f"\nchannel {j}: phi(2) = {s.phi(2.0):.6f} rad, "
          f"caustics in (0, 2]: {[f'{c:.6f}' for c in caustics]}, "
          f"Maslov count {s.maslov_count(0.0, 2.0)}")
print("\n(the kernel accumulates a phase of -pi/2 per caustic passage;"
      " evaluation exactly at one raises CausticError)")
