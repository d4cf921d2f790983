"""Shared fixtures and scenario builders for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from oscpair import SystemSpec, load_shipped, solve_angle
from oscpair.coefficients import Constant, Exponential, Polynomial, Power, Sinusoidal
from oscpair.errors import SolverFailure


def const_spec(w1=1.0, w2=1.0, lam=0.0, f1=0.0, f2=0.0, m1=1.0, m2=1.0,
               hbar=1.0, t_max=12.0):
    return SystemSpec(
        m1=Constant(m1), m2=Constant(m2),
        omega1=Constant(w1), omega2=Constant(w2),
        f1=Constant(f1), f2=Constant(f2),
        coupling=Constant(lam), t_min=0.0, t_max=t_max, hbar=hbar)


def ck_spec(gamma=0.4, w1=1.0, w2=2.0, lam0=1.5, t_max=4.0, hbar=1.0):
    """Exponential-mass pair with the coupling matched for admissibility."""
    return SystemSpec(
        m1=Exponential(1.0, gamma), m2=Exponential(1.0, gamma),
        omega1=Constant(w1), omega2=Constant(w2),
        f1=Constant(0.0), f2=Constant(0.0),
        coupling=Exponential(lam0, gamma),
        t_min=0.0, t_max=t_max, hbar=hbar)


def random_admissible_spec(rng, kind=None, drive=False):
    """Scenario with lambda matched exactly to a random target angle.

    Three families keep the constraint inside the closed coefficient
    family: constant masses, equal-rate exponential masses (constant
    effective frequencies), and equal-shape quadratic power masses (the
    mass correction cancels exactly).
    """
    if kind is None:
        kind = int(rng.integers(0, 3))
    w1 = float(rng.uniform(0.6, 1.3))
    w2 = float(rng.uniform(1.5, 2.2))
    alpha_t = float(rng.uniform(-0.8, 0.8) * np.pi / 4)
    tan2a = np.tan(2 * alpha_t)
    hbar = float(rng.choice([1.0, 0.7, 1.3]))
    if kind == 0:
        a1, a2 = rng.uniform(0.5, 2.0, size=2)
        m1, m2 = Constant(float(a1)), Constant(float(a2))
        lam = Constant(0.5 * np.sqrt(a1 * a2) * (w2**2 - w1**2) * tan2a)
    elif kind == 1:
        g = float(rng.uniform(0.1, 0.5))
        a1, a2 = rng.uniform(0.7, 1.4, size=2)
        m1, m2 = Exponential(float(a1), g), Exponential(float(a2), g)
        # effective frequencies w_j^2 - g^2/4 share the constant shift
        lam = Exponential(0.5 * np.sqrt(a1 * a2) * (w2**2 - w1**2) * tan2a, g)
    else:
        b = float(rng.uniform(0.05, 0.25))
        c1, c2 = rng.uniform(0.8, 1.5, size=2)
        m1 = Power(float(np.sqrt(c1)), float(np.sqrt(c1)) * b, 2)
        m2 = Power(float(np.sqrt(c2)), float(np.sqrt(c2)) * b, 2)
        # sqrt(m1 m2) = sqrt(c1 c2) (1 + b t)^2 and the mass correction
        # vanishes, so lambda is an exact quadratic polynomial
        q = 0.5 * np.sqrt(c1 * c2) * (w2**2 - w1**2) * tan2a
        lam = Polynomial((q, 2 * q * b, q * b**2))
    if drive:
        f1 = Sinusoidal(0.0, float(rng.uniform(0.1, 0.4)),
                        float(rng.uniform(0.8, 2.0)))
        f2 = Constant(float(rng.uniform(-0.3, 0.3)))
    else:
        f1 = f2 = Constant(0.0)
    return SystemSpec(m1=m1, m2=m2, omega1=Constant(w1), omega2=Constant(w2),
                      f1=f1, f2=f2, coupling=lam,
                      t_min=0.0, t_max=6.0, hbar=hbar)


def reference_completion(S, v):
    """(S^-1, S^-1 v, log I) of I = int exp(-x^T S x / 2 + v^T x) d^2x by the
    former route: ``np.linalg`` and the sum of the eigenvalues' principal
    half-logs for log sqrt(det S)."""
    tr = S[0, 0] + S[1, 1]
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    disc = np.sqrt(tr * tr / 4.0 - det + 0j)
    log_sqrt_det = 0.5 * (np.log(tr / 2.0 + disc) + np.log(tr / 2.0 - disc))
    mu = np.linalg.solve(S, v)
    return np.linalg.inv(S), mu, np.log(2.0 * np.pi) - log_sqrt_det + 0.5 * v @ mu


class _DirectSolution:
    """Minimal rho/drho/phi interface for the nonlinear cross-check."""

    def __init__(self, sol):
        self._sol = sol

    def rho(self, t):
        return self._sol(t)[0]

    def drho(self, t):
        return self._sol(t)[1]

    def phi(self, t):
        return self._sol(t)[2]


def solve_ermakov_nonlinear(omega_sq, t0, t1, ic=(1.0, 0.0), tol=1e-10):
    """Integrate rho'' = 1/rho^3 - Om^2 rho and phi' = 1/rho^2 directly with
    DOP853: an oracle for ``solve_ermakov``'s Pinney route that shares none
    of its code."""

    def rhs(t, y):
        r, dr, _ = y
        return [dr, 1.0 / r**3 - omega_sq(t) * r, 1.0 / r**2]

    sol = solve_ivp(rhs, (t0, t1), [float(ic[0]), float(ic[1]), 0.0],
                    method="DOP853", rtol=tol, atol=tol * 1e-2,
                    dense_output=True)
    if not sol.success:
        raise SolverFailure(f"nonlinear auxiliary solve failed: {sol.message}")
    return _DirectSolution(sol.sol)


SHIPPED = ["static", "static-uncoupled", "free", "driven-static",
           "caldirola-kanai", "pulsed-coupling", "equal-effective-frequency"]


@pytest.fixture(scope="session")
def shipped():
    return {name: load_shipped(name) for name in SHIPPED}


@pytest.fixture(scope="session")
def shipped_decoupled(shipped):
    return {name: solve_angle(sc.system, gamma_tol=sc.gamma_tol)
            for name, sc in shipped.items()}


SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(args, timeout):
    """``python args`` in a fresh interpreter that imports this checkout's
    ``oscpair``; a CompletedProcess with text output.  Raises
    subprocess.TimeoutExpired after ``timeout`` seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)
