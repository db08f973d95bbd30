"""The relativistic dispersion T(p) = sqrt(p^2 + alpha^-2) - alpha^-1.

Units follow the scaled Hamiltonian H = alpha * H_rel throughout: the
non-relativistic comparison operator is alpha p^2 / 2, the quartic lower
bound is alpha p^2/2 - alpha^3 p^4/8, and the Daubechies F-function is
built from T^-1(t) = sqrt(t^2 + 2t/alpha).  The two inequalities
alpha p^2/2 - alpha^3 p^4/8 <= T(p) <= alpha p^2/2 have no function of
their own: the ``verify kinetic`` ordering line checks them on t_rel.
F is elementary (a polynomial times sqrt plus an asinh), summed as a Pfaff
series near s = 0 where that form cancels; its quadrature definition is an
oracle in ``checks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "Dispersion",
    "t_rel",
    "t_rel_inverse",
    "daubechies_F",
    "daubechies_F_upper",
    "pfaff_integral",
]

_PFAFF_TERMS = 60  # the last term at u = 1/2 is below 1e-20 of the sum


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


def pfaff_integral(x, a, closed_form):
    """int_0^x t^{3/2} (1+t)^{-a} dt at each entry of the 1-d array ``x`` >= 0.

    Above x = 1 this is ``closed_form(x)``.  Up to x = 1, where the
    elementary forms cancel, it is the Pfaff transform of (2/5) x^{5/2} 2F1(a, 5/2;
    7/2; -x): (2/5) x^{5/2} (1+x)^{-a} 2F1(a, 1; 7/2; u), u = x/(1+x) <=
    1/2, whose series terms are positive for a = 1/2 and, for a = -3/2, all
    but the second (-3u/7, so no digits are lost either).
    """
    out = np.empty_like(x)
    big = x > 1.0
    out[big] = closed_form(x[big])
    x = x[~big]
    if not x.size:
        return out
    u = x / (1.0 + x)
    term = np.ones_like(u)
    total = np.ones_like(u)
    for n in range(_PFAFF_TERMS):
        term *= (a + n) / (3.5 + n) * u
        total += term
    out[~big] = 0.4 * np.power(x, 2.5) * np.power(1.0 + x, -a) * total
    return out


def _F_closed(x):
    # G(2x+1)/16 of daubechies_F, with w^2 - 1 = 4x(1+x) and acosh w = 2 asinh(sqrt x)
    q = np.sqrt(x * (1.0 + x))
    return ((2.0 * x + 1.0) * (8.0 * x * (1.0 + x) - 3.0) * q + 3.0 * np.arcsinh(np.sqrt(x))) / 64.0


def daubechies_F(disp: Dispersion, s):
    """F(s) = int_0^s (t^2 + 2t/alpha)^{3/2} dt, vectorized over s >= 0.

    With c = 2/alpha and t = c y this is c^4 int_0^x (y^2 + y)^{3/2} dy,
    x = s/c, which is c^4 G(2x+1)/16 with G(w) = (w/4)(w^2-1)^{3/2} -
    (3/8) w sqrt(w^2-1) + (3/8) acosh w (:func:`pfaff_integral`, a = -3/2).
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise DomainError("s must be >= 0")
    c = 2.0 / disp.alpha
    out = c**4 * pfaff_integral(s.ravel() / c, -1.5, _F_closed)
    return float(out[0]) if s.ndim == 0 else out.reshape(s.shape)


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
