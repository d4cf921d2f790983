"""Complex 2D Gaussian wavepackets and their exact integrals.

A state is psi(x) = exp(-x^T A x / 2 + b^T x + c) with A complex symmetric
(real part positive definite), b complex, c complex.  This family is closed
under propagation by any Gaussian kernel.  Every integral here is one,

    int exp(-x^T S x / 2 + v^T x) d^2x = 2 pi (det S)^(-1/2) exp(v^T mu / 2),

mu = S^-1 v, completed in closed form by ``_complete_square`` (S^-1 as the
adjugate over det S) for a symmetric 2x2 S with Re S positive definite: in
the start coordinates for propagation, in conj(bra) ket for ``overlap``,
and in |psi|^2 (S = 2 Re A, v = 2 Re b: mean mu, covariance S^-1) for a
state's norm and moments.  The principal Log det S is the right branch:
both eigenvalues of S lie in the open right half plane (its numerical range
does), so their arguments sum to a value inside (-pi, pi).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NonConvergentGaussian

__all__ = ["GaussianState2D", "overlap", "fidelity"]

_LOG_TWO_PI = math.log(2.0 * math.pi)


def _require_posdef_real(S, what):
    SR = np.real(S)
    # 2x2 symmetric positive definiteness
    if not (SR[0, 0] > 0 and SR[0, 0] * SR[1, 1] - SR[0, 1] * SR[1, 0] > 0):
        raise NonConvergentGaussian(f"real part of {what} is not positive definite")


def _complete_square(S, v, what):
    """(S^-1, mu = S^-1 v, log I) of I = int exp(-x^T S x / 2 + v^T x) d^2x for
    a symmetric 2x2 S; NonConvergentGaussian naming ``what`` unless Re S is
    positive definite."""
    _require_posdef_real(S, what)
    (s00, s01), (_, s11) = S.tolist()
    det = s00 * s11 - s01 * s01
    S_inv = np.array([[s11, -s01], [-s01, s00]]) / det
    mu = S_inv @ v
    return S_inv, mu, _LOG_TWO_PI - 0.5 * cmath.log(det) + 0.5 * complex(v @ mu)


@dataclass(frozen=True, eq=False)
class GaussianState2D:
    """psi(x) = exp(-x^T A x / 2 + b^T x + c), lab coordinates."""

    A: np.ndarray
    b: np.ndarray
    c: complex
    hbar: float = 1.0

    def __post_init__(self):
        A = np.asarray(self.A, dtype=complex).reshape(2, 2)
        A = 0.5 * (A + A.T)
        b = np.array(self.b, dtype=complex).reshape(2)
        # the state's own arrays, read-only: its cached moments stay valid
        A.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))
        if not (np.isfinite(A).all() and np.isfinite(b).all() and cmath.isfinite(self.c)):
            raise ValueError("non-finite Gaussian parameters")
        _require_posdef_real(A, "the width matrix")

    @classmethod
    def coherent(cls, center=(0.0, 0.0), momentum=(0.0, 0.0),
                 sigma=(np.sqrt(0.5), np.sqrt(0.5)), hbar=1.0):
        """Normalized coherent-type state.

        ``sigma`` are the position standard deviations of |psi|^2 per axis;
        the packet carries mean momentum ``momentum``.
        """
        q = np.asarray(center, dtype=float)
        p = np.asarray(momentum, dtype=float)
        sig = np.asarray(sigma, dtype=float)
        A = np.diag(1.0 / (2.0 * sig**2)).astype(complex)
        b = A @ q + 1j * p / hbar
        c = -0.5 * q @ A @ q - 1j * (p @ q) / hbar
        return cls(A=A, b=b, c=c, hbar=hbar).normalized()

    # -- norms and moments -------------------------------------------------

    @cached_property
    def _density(self):
        """The completed square of |psi|^2: (covariance, mean, log of its integral
        without the factor exp(2 Re c))."""
        return _complete_square(2.0 * self.A.real, 2.0 * self.b.real, "the width matrix")

    def log_norm_sq(self):
        """log of ||psi||^2 (stable even when the norm under/overflows)."""
        return 2.0 * self.c.real + self._density[2].real

    def norm(self):
        return float(np.exp(0.5 * self.log_norm_sq()))

    def normalized(self):
        return GaussianState2D(self.A, self.b, self.c - 0.5 * self.log_norm_sq(),
                               hbar=self.hbar)

    def mean_position(self):
        return self._density[1].copy()

    def covariance_position(self):
        """Covariance matrix of |psi|^2."""
        return self._density[0].copy()

    def mean_momentum(self):
        return self.hbar * (self.b.imag - self.A.imag @ self._density[1])

    # -- evaluation ---------------------------------------------------------

    def log_psi(self, x1, x2):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        A, b = self.A, self.b
        quad = 0.5 * (A[0, 0] * x1 * x1 + 2.0 * A[0, 1] * x1 * x2 + A[1, 1] * x2 * x2)
        return -quad + b[0] * x1 + b[1] * x2 + self.c

    def __call__(self, x1, x2):
        return np.exp(self.log_psi(x1, x2))


def _log_overlap(bra, ket):
    """log <bra|ket>, the one integral behind ``overlap`` and ``fidelity``."""
    return (_complete_square(np.conj(bra.A) + ket.A, np.conj(bra.b) + ket.b,
                             "the overlap quadratic form")[2] + bra.c.conjugate() + ket.c)


def overlap(bra: GaussianState2D, ket: GaussianState2D) -> complex:
    """<bra|ket> = int conj(psi_a) psi_b d^2x, computed in closed form."""
    return complex(np.exp(_log_overlap(bra, ket)))


def fidelity(a: GaussianState2D, b: GaussianState2D) -> float:
    """|<a|b>|^2 for the normalized pair, formed in logs (no overflow for large c)."""
    return float(np.exp(2.0 * _log_overlap(a, b).real - a.log_norm_sq() - b.log_norm_sq()))
