"""Thomas-Fermi atoms by shooting on the universal screening function.

The variational problem

    E(rho) = (3/5) gamma int rho^{5/3} - Z int rho/|x| + (1/2) D(rho, rho)

is solved through its spherically symmetric reduction: with
b = gamma (4 pi)^{-2/3} Z^{-1/3} and V_TF(r) = (Z/r) phi(r/b), the
screening function obeys the universal ODE

    phi'' = phi^{3/2} / sqrt(xi),   phi(0) = 1,

with a Sommerfeld tail (phi ~ 144 xi^-3) for neutral atoms (lambda >= 1)
and a free boundary x0, phi(x0) = 0, -x0 phi'(x0) = 1 - lambda, for ions
(lambda < 1).  The chemical potential is mu = Z (1-lambda) / (b x0) for
ions and 0 otherwise.  A :class:`TFSolution` is the profile of lambda seen
at one Z: every per-Z quantity is an exact rescaling of it, taken on read.

Shooting is on slope0 = phi'(0), with a port of scipy's Brent's method
(same iterates).  Every shot is one :func:`numerics.shoot`: pure-Python
DOP853 whose outward shots stop after the first accepted step where phi
has hit zero or turned upward.  The whole solve path runs on numpy and
plain floats.  Ions are shot in u = sqrt(xi), where the equation reads
(phi, phi')_u = (2u phi', 2 phi^{3/2}) with phi' = dphi/dxi.  That form is
smooth at the origin, so each ion shot starts at u = 0 from (1, slope0)
exactly, with no series start, and needs fewer steps than a shot in xi at
a hundredth of its tolerance (83 against 140 at lambda = 0.5).  Brent's
method solves for the edge flux
-x0 phi'(x0) = 1 - lambda.  The edge comes from the stop step's end: the
clamped right-hand side holds phi' fixed for phi < 0, so phi is linear in
xi past its zero and x0 = u^2 - phi/phi' with phi'(x0) = phi' holds
exactly.  A shot that never reaches phi = 0 counts as flux 0, the flux's
limit at the critical (neutral) slope, so the miss is continuous.
Brent's bracket comes from a few secant steps on logit(flux) against
log(B_c - slope0), B_c = _NEUTRAL_SLOPE0, where the miss is nearly
linear: the two closest trial slopes whose misses differ in sign, or
[-60, -1.58] if none do.  Trials far from the root only steer the
secant, at a coarse tolerance.  No slope is shot twice at one tolerance.

The neutral profile searches nothing: its two roots are pinned constants.
An outward shot with slope0 = _NEUTRAL_SLOPE0 runs to xi = 20 and meets
an inward shot launched from xi = 1000 on the two-term decaying
Sommerfeld manifold phi = 144 xi^-3 (1 + a eta + c2 (a eta)^2),
eta = xi^(-s1), a = _NEUTRAL_TAIL_AMPLITUDE.  Both are the exact roots of
the search in tests/test_scipy_oracles.py, which must reproduce them bit
for bit: slope0 bisects the discrete classification of outward shots to
xi = 150 into those that hit zero and those that turn upward, and a is
Brent's root of the inward shot's miss of the outward phi at xi = 20.
Outward shooting alone cannot carry the profile far enough for 1e-6 mass
accuracy because the growing perturbation mode amplifies the last digit
of slope0.

The profile's grid values come from the final shots themselves, so they
lie on the trajectories of the roots.  Each accepted step of a shot gets
one septic Hermite interpolant in the shot's variable: phi and phi' at
both step ends are recorded, and phi's next derivatives follow from the
ODE (in xi, phi'' = phi^{3/2}/sqrt(xi) and
phi''' = (3/2) phi^{1/2} phi'/sqrt(xi) - phi''/(2 xi); in u, the three
derivatives of :func:`_u_jets`).  All steps are evaluated as one
Bernstein-form piecewise polynomial, term by term as scipy's BPoly does.
An ion's last step straddles the edge, where phi is not smooth (its
fourth derivative diverges); the radii inside it are read off one more
shot, from that step's start to the last of them.
:func:`solve` refuses a profile whose mass misses min(lambda, 1) by more
than 1e-6 relative.

The neutral outward shot, in xi, starts at xi = 1e-8 from the series
phi = 1 + B xi + (4/3) xi^{3/2} + (2B/5) xi^{5/2} + xi^3/3 to sidestep
the sqrt singularity; every grid starts there too.  The profile has one
continuation past its grid: that series below it, and the two-term
Sommerfeld manifold (zero for ions) beyond it.  Every integral of phi^p t^e the package takes over the
profile (mass, energy terms, Newton potential, the identity chain's
phase-space sum, the budget's domain change) is one of its moments: a
closed-form head (the series to first order), the composite GL-12 rule on
the grid, and a closed-form tail (the manifold to second order in a eta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import DomainError, ShootingFailure, ToleranceFailure
from .numerics import Pchip, RadialFunction, gl_rule, grid_quadrature, newton_potential, shoot

__all__ = [
    "GAMMA_TF_PAPER",
    "TFParams",
    "TFSolution",
    "solve",
    "tf_energy",
    "tf_functional",
    "tf_energy_slope_identity",
    "tf_equation_residual",
    "tf_potential",
    "coulomb_potential",
    "solution_to_json",
    "solution_from_json",
]

GAMMA_TF_PAPER = (3.0 * math.pi**2) ** (2.0 / 3.0)

# decaying Sommerfeld mode: exponent and second-order amplitude coefficient
_S1 = (math.sqrt(73.0) - 7.0) / 2.0
_C2 = 4.5 / (67.0 - 7.0 * math.sqrt(73.0))

_XI0 = 1e-8            # series start of the neutral shot, and every grid's first point
_XI_FAR = 1000.0       # launch point of the inward neutral integration
_XI_MATCH = 20.0       # outward/inward matching radius
_U_END = math.sqrt(2000.0)  # ion shots run to xi = 2000 unless they stop first
_ODE_TOL = 1e-12
# DOP853 tolerance of the ion shots: at 1e-12 the step that crosses the
# edge, where the clamped RHS has a kink, misses the edge flux by up to
# 2e-11, and the septic readout of the long first steps misses the
# trajectory by up to 5.5e-12
_ION_TOL = 1e-14
_MASS_TOL = 1e-6       # |int phi^{3/2} sqrt(t) / min(lambda, 1) - 1| that solve() accepts
_PTS_PER_DECADE = 120
_RTOL = 4.0 * np.finfo(float).eps  # relative bracket width the root-finders stop at
_ROOT_ITER = 100
_SLOPE_BRACKET = (-60.0, -1.58)  # every trial ion slope lies here; Brent's fallback bracket
_SECANT_START = (-5.0, -2.0)     # log(B_c - B) of the first two trial ion slopes
_SECANT_STEPS = 10
_SECANT_TOL = 1e-6               # the secant step in log(B_c - B) that ends the search
_COARSE_STEP = 1e-2              # a secant step above this lands far from the root
_COARSE_TOL = 1e-8               # tolerance of far trials: logit(flux) to about 1e-7

# The neutral slope0 and Sommerfeld tail amplitude: the exact roots of the
# neutral search, bisection on [-1.7, -1.5] of whether the outward shot to
# xi = 150 hits zero or turns upward, then Brent's method on [-40, -1] for
# the inward shot from _XI_FAR that meets the outward one's phi at
# _XI_MATCH, both to xtol 1e-16 and _RTOL.  They depend on _XI0, _XI_MATCH,
# _XI_FAR, _ODE_TOL, _RTOL and the two brackets; re-pin them from the reprs
# that tests/test_scipy_oracles.py::test_pinned_neutral_roots_are_the_search_roots
# prints when it fails.
_NEUTRAL_SLOPE0 = -1.5880710226134398
_NEUTRAL_TAIL_AMPLITUDE = -13.292467649087229


@dataclass(frozen=True)
class TFParams:
    """Atom parameters: electron fraction lambda = N/Z, charge Z, kinetic
    coefficient gamma_kin (the paper convention (3 pi^2)^{2/3} by default)."""

    lam: float
    Z: float
    gamma_kin: float = GAMMA_TF_PAPER

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise DomainError("lambda must be positive and finite")
        if not 0 < self.Z < math.inf:
            raise DomainError("Z must be positive and finite")
        if not self.gamma_kin > 0:
            raise DomainError("gamma_kin must be positive")

    @property
    def N(self):
        return self.lam * self.Z

    @property
    def length_scale(self):
        """b = gamma (4 pi)^{-2/3} Z^{-1/3}: V_TF(r) = (Z/r) phi(r/b)."""
        return self.gamma_kin * (4.0 * math.pi) ** (-2.0 / 3.0) * self.Z ** (-1.0 / 3.0)


def _series_init(B, x0):
    phi = 1.0 + B * x0 + (4.0 / 3.0) * x0**1.5 + 0.4 * B * x0**2.5 + x0**3 / 3.0
    dphi = B + 2.0 * np.sqrt(x0) + B * x0**1.5 + x0**2
    return (phi, dphi)


def _rhs(x, y):
    phi, dphi = y  # plain floats: shoot calls this twelve times a step
    if phi < 0.0:
        phi = 0.0
    return (dphi, phi**1.5 / math.sqrt(x))


def _rhs_u(u, y):
    phi, dphi = y  # dphi = dphi/dxi, as in _rhs, at u = sqrt(xi)
    if phi < 0.0:
        phi = 0.0
    return (2.0 * u * dphi, 2.0 * phi**1.5)


def _tail_phi(a, xi):
    """Two-term decaying Sommerfeld manifold and its derivative."""
    eta = xi ** (-_S1)
    u = a * eta + _C2 * (a * eta) ** 2
    du = -_S1 * a * eta / xi - 2.0 * _S1 * _C2 * (a * eta) ** 2 / xi
    phi = 144.0 * xi**-3 * (1.0 + u)
    dphi = -432.0 * xi**-4 * (1.0 + u) + 144.0 * xi**-3 * du
    return phi, dphi


def _escapes(x, y):
    """Stop condition of an outward shot: phi has hit zero or turned upward."""
    return y[0] <= 0.0 or y[1] > 0.0


def _shoot(B, x_end):
    """Outward shot with slope0 = B, stopped after the step where phi hits
    zero or turns upward."""
    return shoot(_rhs, _series_init(B, _XI0), _XI0, x_end, _ODE_TOL, stop=_escapes)


def _shoot_in(a):
    """Inward shot from the Sommerfeld manifold at _XI_FAR down to _XI_MATCH."""
    return shoot(_rhs, _tail_phi(a, _XI_FAR), _XI_FAR, _XI_MATCH, _ODE_TOL)


def _shoot_ion(B, tol=_ION_TOL):
    """Outward ion shot in u = sqrt(xi) from (phi, phi') = (1, B) at u = 0,
    stopped like :func:`_shoot`."""
    return shoot(_rhs_u, (1.0, B), 0.0, _U_END, tol, stop=_escapes)


def _xi_jets(x, phi, dphi):
    """phi's first three xi-derivatives at the step ends of a shot in xi."""
    clamped = np.maximum(phi, 0.0)  # as in _rhs
    d2 = clamped**1.5 / np.sqrt(x)
    return dphi, d2, 1.5 * np.sqrt(clamped) * dphi / np.sqrt(x) - d2 / (2.0 * x)


def _u_jets(u, phi, dphi):
    """phi's first three u-derivatives at the step ends of a shot in u:
    2u phi', 2 phi' + 4u phi^{3/2} and 8 phi^{3/2} + 12 u^2 phi^{1/2} phi'."""
    clamped = np.maximum(phi, 0.0)  # as in _rhs_u
    p32 = clamped**1.5
    return (2.0 * u * dphi, 2.0 * dphi + 4.0 * u * p32,
            8.0 * p32 + 12.0 * u * u * np.sqrt(clamped) * dphi)


def _readout(steps, t, jets):
    """phi at the ascending points ``t`` of a shot's variable inside the
    span of its accepted ``steps``, on the shot's own trajectory: each step
    is one septic Hermite interpolant of phi and its first three
    derivatives in that variable at its two ends, ``jets(t, phi, phi')``,
    all evaluated as one piecewise polynomial in Bernstein form."""
    x = np.array([step[0] for step in steps])
    y = np.array([step[1] for step in steps])
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    if not x[0] <= t[0] <= t[-1] <= x[-1]:
        raise ShootingFailure(f"shot from {steps[0][0]!r} to {steps[-1][0]!r} misses the grid")
    phi = y[:, 0]
    d1, d2, d3 = jets(x, phi, y[:, 1])
    # degree-7 Bernstein coefficients from the derivatives at both step ends
    h = np.diff(x)
    c = np.empty((8, h.size))
    c[0] = phi[:-1]
    c[1] = c[0] + h * d1[:-1] / 7.0
    c[2] = 2.0 * c[1] - c[0] + h**2 * d2[:-1] / 42.0
    c[3] = 3.0 * (c[2] - c[1]) + c[0] + h**3 * d3[:-1] / 210.0
    c[7] = phi[1:]
    c[6] = c[7] - h * d1[1:] / 7.0
    c[5] = 2.0 * c[6] - c[7] + h**2 * d2[1:] / 42.0
    c[4] = 3.0 * (c[5] - c[6]) + c[7] - h**3 * d3[1:] / 210.0
    return _bernstein(c, x, t)


def _bernstein(c, x, xi):
    """The piecewise polynomial with Bernstein coefficients c[:, i] on
    [x[i], x[i+1]] at the radii ``xi`` in [x[0], x[-1]]:
    sum_j binom(k, j) s^j (1-s)^(k-j) c[j] with s the local coordinate in
    [0, 1].  The terms are summed in the order scipy's BPoly sums them, and
    every power is one math.pow, so the values agree with BPoly to the last
    bit (numpy's vectorized power does not)."""
    k = c.shape[0] - 1
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, x.size - 2)
    s = (xi - x[i]) / (x[i + 1] - x[i])
    s_list, s1_list = s.tolist(), (1.0 - s).tolist()
    out = np.zeros_like(s)
    comb = 1.0
    for j in range(k + 1):
        sj = np.array([math.pow(v, j) for v in s_list])
        s1j = np.array([math.pow(v, k - j) for v in s1_list])
        out += comb * sj * s1j * c[j, i]
        comb *= 1.0 * (k - j) / (j + 1.0)
    return out


def _edge(shot):
    """(x_e, phi'(x_e)) where the ion shot hit zero, or None if it never
    did.  The clamped RHS holds phi' fixed for phi < 0, so past the zero
    phi is linear in xi = u^2 and the step end continues back to it
    exactly."""
    u, (phi, dphi) = shot.x_end, shot.y_end
    if phi > 0.0:
        return None
    return u * u - phi / dphi, dphi


def _root(f, lo, hi, what):
    """Root of f on [lo, hi] by Brent's method; a bracket without a sign
    change, or no convergence, is a ShootingFailure.  _brentq is scipy's C
    routine (zeros.c) line for line, with the same error messages, so it
    visits the same iterates as scipy's brentq and returns the same root."""
    try:
        return _brentq(f, lo, hi, xtol=1e-16, rtol=_RTOL)
    except (ValueError, RuntimeError) as exc:
        raise ShootingFailure(f"{what} in [{lo}, {hi}]: {exc}") from None


def _brentq(f, xa, xb, xtol, rtol):
    """Brent's method: inverse quadratic or secant steps kept inside the
    bracket [xcur, xblk], bisection when they would not shrink it enough."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_ROOT_ITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_ROOT_ITER} iterations, value is {xcur}")


@dataclass(frozen=True)
class _UniversalProfile:
    """Solved universal screening problem for one value of lambda."""

    lam_eff: float                  # min(lambda, 1)
    slope0: float
    x_edge: float | None            # None for the neutral branch
    edge_slope: float | None        # phi'(x_edge) for ions
    tail_amplitude: float | None    # Sommerfeld correction amplitude (neutral)
    xi: np.ndarray
    phi_values: np.ndarray

    @cached_property
    def phi_function(self):
        """phi on the grid as the TFSolution's RadialFunction, with the
        tail phi ~ xi^-3 on the neutral branch and zero past an ion's edge."""
        return RadialFunction(self.xi, self.phi_values, -3.0 if self.x_edge is None else None)

    def phi(self, xi):
        """phi_function's PCHIP inside the grid; below it the series of
        _series_init, beyond it the two-term Sommerfeld manifold (neutral)
        or zero."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        inside = (xi >= self.xi[0]) & (xi <= self.xi[-1])
        out[inside] = np.maximum(self.phi_function(xi[inside]), 0.0)
        below = xi < self.xi[0]
        if np.any(below):
            out[below] = _series_init(self.slope0, xi[below])[0]
        beyond = xi > self.xi[-1]
        if np.any(beyond) and self.x_edge is None:
            out[beyond] = _tail_phi(self.tail_amplitude, xi[beyond])[0]
        return out

    def head_moment(self, p, e, lo=0.0):
        """int_lo^xi0 phi^p t^e dt below the grid, with phi = 1 + slope0 t,
        the series to first order (its next term, (4/3) t^{3/2}, is 1e-12
        of phi at xi0 = 1e-8)."""
        x0, B = self.xi[0], self.slope0
        return ((x0 ** (e + 1.0) - lo ** (e + 1.0)) / (e + 1.0)
                + p * B * (x0 ** (e + 2.0) - lo ** (e + 2.0)) / (e + 2.0))

    def tail_moment(self, p, e):
        """int_X^inf phi^p t^e dt beyond the last grid point X on the
        two-term manifold, to second order in a eta; every term is a power
        of t.  0 for ions (phi vanishes past the edge)."""
        if self.x_edge is not None:
            return 0.0
        a, X = self.tail_amplitude, self.xi[-1]
        k = 3.0 * p - 1.0 - e
        return 144.0**p * (X**-k / k + p * a * X ** (-k - _S1) / (k + _S1)
                           + (p * _C2 + 0.5 * p * (p - 1.0)) * a * a
                           * X ** (-k - 2.0 * _S1) / (k + 2.0 * _S1))

    def moment(self, p, e, lo=0.0):
        """int_lo^inf phi^p t^e dt: the head below the grid, the grid from
        lo by the composite GL-12 rule, and the tail."""
        if lo < self.xi[0]:
            head, knots = self.head_moment(p, e, lo), self.xi
        else:
            head, knots = 0.0, np.concatenate([[lo], self.xi[self.xi > lo]])
        grid = grid_quadrature(lambda t: self.phi(t) ** p * t**e, knots)
        return head + grid + self.tail_moment(p, e)

    @cached_property
    def _integrals(self):
        """(mass, I32, I52, potential, repulsion) from one sampling of phi at
        the GL-12 nodes of the grid, dropped once they are built.  The three
        moments int_0^inf phi^p t^e dt, (p, e) = (3/2, 1/2), (3/2, -1/2),
        (5/2, -1/2), are summed as :meth:`moment` sums them; the mass equals
        min(lambda, 1) exactly.  The potential is xi -> M(xi)/xi + T(xi),
        M = int_0^xi phi^{3/2} sqrt(t) dt and T = int_xi^inf phi^{3/2}/sqrt(t)
        dt: the Newton potential of the factored density phi^{3/2} t^{-3/2},
        head and tail included.  The repulsion is int phi^{3/2} sqrt(t) P(t)
        dt over the grid, P that potential: (Z^2/b)/2 times it is the
        repulsion inside the grid."""
        t, w = gl_rule(self.xi)
        ph = self.phi(t)

        def moment(p, e):
            grid = float(np.sum(w * (ph**p * t**e)))
            return self.head_moment(p, e) + grid + self.tail_moment(p, e)

        # newton_potential samples its density at these same nodes
        potential = newton_potential(
            lambda nodes: ph**1.5 * nodes**-1.5,
            self.xi,
            m_head=self.head_moment(1.5, 0.5),
            t_tail=self.tail_moment(1.5, -0.5),
        )
        repulsion = float(np.sum(w * (ph**1.5 * np.sqrt(t) * potential(t))))
        return moment(1.5, 0.5), moment(1.5, -0.5), moment(2.5, -0.5), potential, repulsion

    mass = property(lambda self: self._integrals[0])
    I32 = property(lambda self: self._integrals[1])
    I52 = property(lambda self: self._integrals[2])
    potential = property(lambda self: self._integrals[3])
    repulsion = property(lambda self: self._integrals[4])


def _log_grid(lo, hi, per_decade=_PTS_PER_DECADE):
    n = max(int(per_decade * math.log10(hi / lo)) + 1, 32)
    return np.geomspace(lo, hi, n)


@lru_cache(maxsize=32)
def _solve_universal(lam_key: float) -> _UniversalProfile:
    if lam_key >= 1.0:
        return _solve_neutral()
    return _solve_ion(lam_key)


def _solve_neutral():
    xi = _log_grid(_XI0, _XI_FAR)
    near = xi <= _XI_MATCH
    phi_vals = np.empty_like(xi)
    phi_vals[near] = _readout(_shoot(_NEUTRAL_SLOPE0, _XI_MATCH).steps, xi[near], _xi_jets)
    phi_vals[~near] = _readout(_shoot_in(_NEUTRAL_TAIL_AMPLITUDE).steps, xi[~near], _xi_jets)
    return _UniversalProfile(
        lam_eff=1.0,
        slope0=_NEUTRAL_SLOPE0,
        x_edge=None,
        edge_slope=None,
        tail_amplitude=_NEUTRAL_TAIL_AMPLITUDE,
        xi=xi,
        phi_values=np.maximum(phi_vals, 0.0),
    )


def _ion_bracket(flux, lam):
    """Brent's bracket for the ion slope: the two closest trial slopes whose
    flux misses differ in sign, or _SLOPE_BRACKET if no two do.

    The trials are secant steps on logit(flux) - logit(1 - lambda) against
    s = log(B_c - B), B_c = _NEUTRAL_SLOPE0, where the miss is nearly
    linear (near B_c the flux goes like a power of B_c - B).  Once a step
    falls below _SECANT_TOL, one more trial at twice that step lands past
    the root.  The two starts, and a trial a step above _COARSE_STEP away
    that is no nearer B_c than the first start (where the flux is well
    conditioned), only steer the secant: they run at _COARSE_TOL and bound
    no bracket.  Every trial slope is kept inside _SLOPE_BRACKET."""
    target = math.log((1.0 - lam) / lam)
    s_max = math.log(_NEUTRAL_SLOPE0 - _SLOPE_BRACKET[0])
    tried = set()  # the slopes shot at _ION_TOL

    def logit_miss(s, coarse):
        B = max(_NEUTRAL_SLOPE0 - math.exp(s), _SLOPE_BRACKET[0])
        if not coarse:
            tried.add(B)
        f = flux(B, _COARSE_TOL if coarse else _ION_TOL)
        return math.log(f / (1.0 - f)) - target if 0.0 < f < 1.0 else None

    sa, sb = _SECANT_START
    ga, gb = logit_miss(sa, True), logit_miss(sb, True)
    for _ in range(_SECANT_STEPS):
        if ga is None or gb is None or ga == gb:
            break
        step = -gb * (sb - sa) / (gb - ga)
        if abs(step) < _SECANT_TOL:
            logit_miss(sb + 2.0 * step, False)
            break
        sa, ga, sb = sb, gb, min(sb + step, s_max)
        gb = logit_miss(sb, abs(step) > _COARSE_STEP and sb >= _SECANT_START[0])
    slopes = sorted(tried)
    below = [flux(B) < 1.0 - lam for B in slopes]  # the sign of each miss
    pairs = [(b - a, a, b) for a, b, below_a, below_b in zip(slopes, slopes[1:], below, below[1:])
             if below_a != below_b]
    return min(pairs)[1:] if pairs else _SLOPE_BRACKET


def _solve_ion(lam):
    shots = {}  # (slope0, tol) -> its shot: no slope is shot twice at one tolerance

    def flux(B, tol=_ION_TOL):
        if (B, tol) not in shots:
            shots[B, tol] = _shoot_ion(B, tol)
        # no hit: edge flux 0, its limit at the critical slope, so the miss is continuous
        x_e, dphi_e = _edge(shots[B, tol]) or (0.0, 0.0)
        return -x_e * dphi_e

    slope0 = _root(lambda B: flux(B) - (1.0 - lam), *_ion_bracket(flux, lam),
                   f"ion slope for lambda = {lam}")
    shot = shots[slope0, _ION_TOL]  # Brent's method returns a slope it has shot
    edge = _edge(shot)
    if edge is None:
        raise ShootingFailure(f"ion shot with slope0 = {slope0} never reaches phi = 0")
    x_e, dphi_e = edge

    base = _log_grid(_XI0, x_e * (1.0 - 1e-3))
    cluster = x_e * (1.0 - np.geomspace(1e-3, 1e-12, 28)[1:])
    xi = np.concatenate([base, cluster, [x_e]])
    u = np.sqrt(xi[:-1])
    # the last step straddles the edge, where phi is not smooth: the points
    # inside it are read off one more shot, from its start to the last point
    u_start, y_start = shot.steps[-2]
    steps = shot.steps[:-1]
    if u[-1] > u_start:
        steps += shoot(_rhs_u, y_start, u_start, u[-1], _ION_TOL).steps[1:]
    phi_vals = np.zeros_like(xi)
    phi_vals[:-1] = np.maximum(_readout(steps, u, _u_jets), 0.0)
    return _UniversalProfile(
        lam_eff=lam,
        slope0=slope0,
        x_edge=x_e,
        edge_slope=dphi_e,
        tail_amplitude=None,
        xi=xi,
        phi_values=phi_vals,
    )


@dataclass(frozen=True)
class TFSolution:
    """A Thomas-Fermi atom: the universal profile of min(lambda, 1) seen at
    ``params``, every other attribute derived from the two.  ``phi`` and
    ``edge_radius`` (inf when neutral) live on the universal radius
    xi = r / b; ``rho`` = gamma^{-3/2} (Z/r)^{3/2} phi^{3/2}, on the
    physical radius r = b xi, is built on first read.  :func:`solve` adds
    the mass and residual gates.
    """

    params: TFParams
    profile: _UniversalProfile = field(repr=False)

    slope0 = property(lambda self: self.profile.slope0)
    phi = property(lambda self: self.profile.phi_function)
    b = property(lambda self: self.params.length_scale)

    @property
    def edge_radius(self):
        return math.inf if self.profile.x_edge is None else self.profile.x_edge

    @property
    def mu(self):
        """Z (1 - lambda) / (b x0) for ions, 0 otherwise."""
        x_edge, Z = self.profile.x_edge, self.params.Z
        return 0.0 if x_edge is None else Z * (1.0 - self.params.lam) / (self.b * x_edge)

    @property
    def electron_count(self):
        """int rho d^3x = Z * min(lambda, 1) up to solver accuracy."""
        return self.params.Z * self.profile.mass

    @cached_property
    def energy_terms(self):
        """The three TF energy terms: the profile's Z-independent integrals
        scaled by X = Z^2/b."""
        prof, Z = self.profile, self.params.Z
        X = Z * Z / self.b
        # repulsion = (1/2) int rho (rho * 1/|.|) in xi variables, and its
        # tail: phi^{3/2} sqrt(t) * (mass/t) on the Sommerfeld manifold
        rep = 0.5 * X * prof.repulsion
        rep += 0.5 * X * prof.mass * prof.tail_moment(1.5, -0.5)
        return {"kinetic": float(0.6 * X * prof.I52), "attraction": float(-X * prof.I32),
                "repulsion": float(rep)}

    @cached_property
    def density_samples(self):
        """(r, rho(r)) on the physical grid r = b xi.  Past Z ~ 1e148 the
        density overflows (inf, or inf * 0 at an ion's edge), and from
        Z ~ 10^91.47 its PCHIP's coefficients do: they grow like Z^3, and the
        largest is the first interval's cubic (finest step, steepest
        density), exact from the first three samples.  Either is a
        DomainError naming Z."""
        Z = self.params.Z
        r = self.b * self.profile.xi
        with np.errstate(all="ignore"):
            rho = self.params.gamma_kin**-1.5 * (Z / r) ** 1.5 * self.profile.phi_values**1.5
            first = Pchip.coefficients(r[:3], rho[:3])
        if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(first))):
            raise DomainError(f"Z = {Z!r} is too large: the TF density leaves float range")
        return r, rho

    @cached_property
    def rho(self):
        """rho as a RadialFunction, with the Sommerfeld tail rho ~ r^-6 on
        the neutral branch and zero past an ion's edge."""
        return RadialFunction(*self.density_samples, -6.0 if self.profile.x_edge is None else None)


def solve(params: TFParams, tol: float = 1e-7) -> TFSolution:
    """Solve the TF minimisation; the returned solution satisfies
    tf_equation_residual(sol) <= tol and carries the mass Z min(lambda, 1)
    to _MASS_TOL relative (ToleranceFailure otherwise).  The residual reads
    ``density_samples``, which refuse a Z whose density leaves float range."""
    if not (1e-12 < tol < 1e-3):
        raise DomainError("tol must lie in (1e-12, 1e-3)")
    prof = _solve_universal(round(min(params.lam, 1.0), 12))
    mass_error = prof.mass / prof.lam_eff - 1.0
    if not abs(mass_error) <= _MASS_TOL:
        raise ToleranceFailure(
            f"TF mass error {mass_error:.3e} misses {_MASS_TOL:g} at lambda = {prof.lam_eff!r}",
            residual=abs(mass_error),
        )
    sol = TFSolution(params, prof)
    residual = tf_equation_residual(sol)
    if residual > tol:
        raise ToleranceFailure(
            f"TF residual {residual:.3e} misses tol {tol:.3e}", residual=residual
        )
    return sol


def tf_energy(sol: TFSolution) -> float:
    """(3/5) gamma int rho^{5/3} - Z int rho/|x| + (1/2) D(rho,rho), all by
    radial quadrature of the solved profile."""
    t = sol.energy_terms
    return t["kinetic"] + t["attraction"] + t["repulsion"]


def tf_functional(params: TFParams, rho: RadialFunction) -> float:
    """The TF functional (3/5) gamma int rho^{5/3} - Z int rho/|x| +
    (1/2) D(rho, rho) for an arbitrary density profile, by radial
    quadrature; head and tail contributions are the RadialFunction's closed
    forms, so a head or tail too singular to integrate raises
    DivergentIntegral and a negative end sample DomainError."""
    Z = params.Z
    gamma = params.gamma_kin
    grid = rho.grid

    def clamped(v):
        return np.maximum(rho(v), 0.0)

    kin = grid_quadrature(lambda v: clamped(v) ** (5.0 / 3.0) * v * v, grid)
    att = grid_quadrature(lambda v: clamped(v) * v, grid)
    kin += rho.head_integral(5.0 / 3.0, 2)
    att += rho.head_integral(1.0, 1)
    pot = coulomb_potential(rho)
    # head of the repulsion integral is O(r0^{head_exponent+3}) ~ 1e-12 relative: dropped
    rep = grid_quadrature(lambda v: clamped(v) * pot(v) * v * v, grid)
    kin += rho.tail_integral(5.0 / 3.0, 2)
    tail_moment = rho.tail_integral(1.0, 1)
    att += tail_moment
    # beyond the grid the potential is the far field pot(R) R / v
    rep += pot(grid[-1]) * grid[-1] * tail_moment
    return float(
        0.6 * gamma * 4.0 * math.pi * kin
        - Z * 4.0 * math.pi * att
        + 0.5 * 4.0 * math.pi * rep
    )


def tf_energy_slope_identity(sol: TFSolution) -> float:
    """Closed-form energy from (slope0, x0) alone; the independent route.

    Integration by parts against the ODE gives
    I32 = |B| - (1-lambda)/x0,  I52 = (5/7)(|B| - (1-lambda)^2/x0) and
    E = (Z^2/b)[I52/10 - I32/2] - mu N / 2 (neutral case: E = (3/7)(Z^2/b) B).
    """
    prof = sol.profile
    B = prof.slope0
    X = sol.params.Z ** 2 / sol.b
    if prof.x_edge is None:
        return (3.0 / 7.0) * X * B
    lam = sol.params.lam
    x0 = prof.x_edge
    I32 = -B - (1.0 - lam) / x0
    I52 = (5.0 / 7.0) * (-B - (1.0 - lam) ** 2 / x0)
    return X * (I52 / 10.0 - I32 / 2.0) - 0.5 * sol.mu * sol.params.N


def coulomb_potential(rho: RadialFunction):
    """(rho * 1/|.|) as a vectorized callable on the grid span of ``rho``:
    4 pi [ M(r)/r + T(r) ] with M(r) = int_0^r rho v^2 dv and
    T(r) = int_r^inf rho v dv, by :func:`numerics.newton_potential`.

    The head of M and the tail of T are the RadialFunction's closed forms:
    a head steeper than v^-3 or a tail shallower than v^-2 raises
    DivergentIntegral.  Below the grid, and beyond it unless the tail is
    zero, the potential raises DomainError.
    """
    pot = newton_potential(rho, rho.grid, rho.head_integral(1.0, 2), rho.tail_integral(1.0, 1))
    return lambda r: 4.0 * math.pi * pot(r)


def tf_equation_residual(sol: TFSolution) -> float:
    """sup over the grid of |gamma rho^{2/3} - [Z/r - rho*1/|.| - mu]_+|
    normalised by (1 + gamma rho^{2/3}).

    The convolution is quadrature of the solved density in its factored
    form rho = gamma^{-3/2} (Z/r)^{3/2} phi^{3/2} (the r^{-3/2} factor
    handled analytically); this is what keeps the check meaningful at
    large Z, where the (1 + ...) normalisation turns any interpolation
    bias into a Z^{4/3}-amplified residual.
    """
    Z = sol.params.Z
    r, rho = sol.density_samples
    pot = (Z / sol.b) * sol.profile.potential(sol.profile.xi)
    lhs = sol.params.gamma_kin * rho ** (2.0 / 3.0)
    rhs = np.maximum(Z / r - pot - sol.mu, 0.0)
    return float(np.max(np.abs(lhs - rhs) / (1.0 + lhs)))


def tf_potential(sol: TFSolution) -> RadialFunction:
    """V_TF(r) = Z/r - rho*1/|.| - mu = (Z/r) phi(r/b) as a radial profile."""
    Z = sol.params.Z
    r = sol.b * sol.profile.xi
    vals = (Z / r) * sol.profile.phi_values
    return RadialFunction(r, vals, -4.0 if math.isinf(sol.edge_radius) else None)


def solution_to_json(sol: TFSolution) -> str:
    doc = {
        "params": {
            "lambda": sol.params.lam,
            "Z": sol.params.Z,
            "gamma_kin": sol.params.gamma_kin,
        },
        "slope0": sol.slope0,
        "mu": sol.mu,
        "edge_radius": None if math.isinf(sol.edge_radius) else sol.edge_radius,
        "grid": sol.profile.xi.tolist(),
        "phi": sol.profile.phi_values.tolist(),
        "rho": sol.density_samples[1].tolist(),
        "energy_terms": sol.energy_terms,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def solution_from_json(text: str) -> TFSolution:
    """The solution a :func:`solution_to_json` text records.  Only params,
    slope0, edge_radius, grid and phi are read; mu, rho and the energy
    terms are derived again from them (the neutral tail amplitude is
    refitted from the last grid point)."""
    doc = json.loads(text)
    p = doc["params"]
    # files written before the spin_q field was dropped still carry it: ignored
    params = TFParams(lam=p["lambda"], Z=p["Z"], gamma_kin=p["gamma_kin"])
    xi = np.asarray(doc["grid"], dtype=float)
    phi_vals = np.asarray(doc["phi"], dtype=float)
    edge = doc["edge_radius"]
    neutral = edge is None
    prof = _UniversalProfile(
        lam_eff=min(params.lam, 1.0),
        slope0=doc["slope0"],
        x_edge=None if neutral else float(edge),
        edge_slope=None if neutral else -(1.0 - params.lam) / float(edge),
        tail_amplitude=_fit_tail_amplitude(xi, phi_vals) if neutral else None,
        xi=xi,
        phi_values=phi_vals,
    )
    return TFSolution(params, prof)


def _fit_tail_amplitude(xi, phi_vals):
    # invert phi = 144 x^-3 (1 + a eta + c2 (a eta)^2) at the last grid point
    w = phi_vals[-1] * xi[-1] ** 3 / 144.0 - 1.0
    eta = xi[-1] ** (-_S1)
    disc = 1.0 + 4.0 * _C2 * w
    if disc <= 0:
        return w / eta
    return (math.sqrt(disc) - 1.0) / (2.0 * _C2 * eta)
