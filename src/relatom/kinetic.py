"""The relativistic dispersion T(p) = sqrt(p^2 + alpha^-2) - alpha^-1.

Units follow the scaled Hamiltonian H = alpha * H_rel throughout: the
non-relativistic comparison operator is alpha p^2 / 2, the quartic lower
bound is alpha p^2/2 - alpha^3 p^4/8, and the Daubechies F-function is
built from T^-1(t) = sqrt(t^2 + 2t/alpha).
F is a Gauss 2F1 closed form, which unlike the elementary asinh form does
not cancel at small s; its quadrature definition is an oracle in ``checks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Dispersion",
    "t_rel",
    "t_rel_inverse",
    "nonrel_domination_check",
    "quartic_lower_check",
    "daubechies_F",
    "daubechies_F_upper",
]


@dataclass(frozen=True)
class Dispersion:
    """Relativistic kinetic model at coupling alpha (= delta/Z in sweeps)."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")


def t_rel(disp: Dispersion, p):
    """sqrt(p^2 + alpha^-2) - alpha^-1; 0 at p = 0, increasing and convex."""
    p = np.asarray(p, dtype=float)
    ainv = 1.0 / disp.alpha
    # hypot-free stable form: ainv (sqrt(1 + (alpha p)^2) - 1) via expm1-like trick
    w = disp.alpha * p
    out = ainv * w * w / (np.sqrt(1.0 + w * w) + 1.0)
    return float(out) if out.ndim == 0 else out


def t_rel_inverse(disp: Dispersion, t):
    """The p >= 0 with t_rel(p) = t, i.e. sqrt(t^2 + 2t/alpha)."""
    t = np.asarray(t, dtype=float)
    out = np.sqrt(t * t + 2.0 * t / disp.alpha)
    return float(out) if out.ndim == 0 else out


def nonrel_domination_check(disp: Dispersion, q):
    """True iff t_rel(q) <= alpha q^2 / 2 (+ rounding slack)."""
    q = float(q)
    if q < 0:
        raise DomainError("q must be >= 0")
    return t_rel(disp, q) <= 0.5 * disp.alpha * q * q + 1e-15 * (1.0 + q * q)


def quartic_lower_check(disp: Dispersion, p):
    """True iff t_rel(p) >= alpha p^2/2 - alpha^3 p^4/8 (- rounding slack)."""
    p = float(p)
    if p < 0:
        raise DomainError("p must be >= 0")
    a = disp.alpha
    lower = 0.5 * a * p * p - 0.125 * a**3 * p**4
    return t_rel(disp, p) >= lower - 1e-15 * (1.0 + p**4)


def daubechies_F(disp: Dispersion, s):
    """F(s) = int_0^s (t^2 + 2t/alpha)^{3/2} dt, vectorized over s >= 0.

    With c = 2/alpha and t = c y this is c^4 int_0^x (y^2 + y)^{3/2} dy,
    x = s/c, which is c^4 (2/5) x^{5/2} 2F1(-3/2, 5/2; 7/2; -x).
    """
    from scipy.special import hyp2f1

    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("s must be >= 0")
    c = 2.0 / disp.alpha
    x = s / c
    # np.power, not **: a numpy scalar's ** takes another pow than the array loop
    out = c**4 * 0.4 * np.power(x, 2.5) * hyp2f1(-1.5, 2.5, 3.5, -x)
    return float(out) if out.ndim == 0 else out


def daubechies_F_upper(disp: Dispersion, s):
    """Closed-form majorant of F from the (1+u)^{3/2} Taylor bound:
    (2/alpha)^{3/2} [ (2/5) s^{5/2} + (3 alpha/14) s^{7/2} + (alpha^2/48) s^{9/2} ]."""
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("s must be >= 0")
    a = disp.alpha
    out = (2.0 / a) ** 1.5 * (
        0.4 * s**2.5 + (3.0 * a / 14.0) * s**3.5 + (a * a / 48.0) * s**4.5
    )
    return float(out) if out.ndim == 0 else out
