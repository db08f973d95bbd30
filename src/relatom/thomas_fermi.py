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

Every shot is one :func:`numerics.shoot`, pure-Python DOP853 at _SHOT_TOL,
of the one right-hand side :func:`_u_rhs`, the ODE in u = sqrt(xi) for
(g, g'), g' = dg/dxi: (g, g')_u = (2u g', k g^{3/2}), g clamped at 0,
k = 2 for phi itself.  u = 0 is a regular point: no shot needs a series
start.  Every root is a port of scipy's Brent's method (same iterates).

An ion comes from the TF homology: the equation is invariant under
phi(x) -> k^3 phi(kx) (E. H. Lieb, Rev. Mod. Phys. 53, 603 (1981)), so
every ion rescales a solution f with a unit edge, f(1) = 0, f'(1) = -c.
With A = f(0), phi(xi) = f(xi/x0)/A is the ion with edge x0 = A^{1/3},
edge flux -x0 phi'(x0) = c/A = 1 - lambda and slope0 = A^{-4/3} f'(0).
A trial shoots g = f/c (k = 2 sqrt(c)) inward from (0, -1) at u = 1 to
u = 0; past c* = _C_STAR it blows up first, and as c -> c* the ions tend
to the neutral atom.  logit lambda = log(g(0) - 1) rises with
t = log(c / (c* - c)), nearly linearly at both ends: lambda ~ (pi/16)
sqrt(c) as c -> 0 and 1 - lambda ~ (c* - c)^{3/s1} as c -> c*.  Newton's
method on those two laws gives the first trial, a secant on shots at a
coarse tolerance closes in, and Brent's method finishes at _SHOT_TOL,
from a bracket whose far end lies past the root by about as much as the
secant's root falls short of it.  No trial is shot twice at one
tolerance, and the profile is read off the root's.

The neutral profile searches nothing: its two roots are pinned constants.
An outward shot from (phi, phi') = (1, _NEUTRAL_SLOPE0) at u = 0 to
xi = 20 meets an inward shot from xi = 1000 on the two-term decaying
Sommerfeld manifold phi = 144 xi^-3 (1 + a eta + c2 (a eta)^2),
eta = xi^(-s1), a = _NEUTRAL_TAIL_AMPLITUDE.  Both are the exact roots of
the search in tests/test_scipy_oracles.py, which must reproduce them bit
for bit: slope0 bisects the classification of outward shots to xi = 2000
into those that hit zero and those that turn upward (each shot does one),
and a is Brent's root of the inward shot's miss of the outward phi at
xi = 20; slope0 lies 2.2e-16 from Boyd's B.  The xi-shots from a series
start that this replaced pinned a slope0 2.06e-12 off B: classified to
xi = 150, that slope0 did neither, and bisection returned on the
"neither"; classified to 2000, the xi-shot still missed B by 1.41e-12.
That offset took 8.96e-9 off the mass, and so cancelled most of the
+7.7e-9 bias of the PCHIP that then read phi between grid points.

The grid's phi and phi' come off the final shots, on the trajectories of
the roots: each accepted step is one septic Hermite interpolant in u of
phi and its first three derivatives at both step ends (the ODE's jets,
:func:`_u_jets`), and all steps, with their derivative, are evaluated as
one Bernstein-form piecewise polynomial, term by term as scipy's BPoly
does.  Between grid points phi is the same construction in xi: the septic
Hermite of (phi, phi') with the jets of phi'' = phi^{3/2}/sqrt(xi)
(:func:`_xi_jets`), evaluated by numpy.  An ion's shot starts at its
edge, where phi is not smooth (its fourth u-derivative diverges): the
readout misses the trajectory by up to 2.2e-8 relative there, and by at
most 5.1e-14 elsewhere.  :func:`solve` refuses a mass error above 1e-6.

Every grid starts at xi = 1e-8.  The profile continues below it as the
series phi = 1 + B xi + (4/3) xi^{3/2} + (2B/5) xi^{5/2} + xi^3/3 and
beyond it as the two-term Sommerfeld manifold (zero for ions).  Every
integral of phi^p t^e the package takes over the profile (mass, energy
terms, Newton potential, the identity chain's phase-space sum, the
budget's domain change) is one of its moments: a closed-form head (the
series to first order), the composite GL-12 rule on the grid, and a
closed-form tail (the manifold to second order in a eta).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import repeat

import numpy as np

from .errors import DomainError, ShootingFailure, ToleranceFailure
from .numerics import Pchip, RadialFunction, gl_rule, newton_potential, shoot

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

_XI0 = 1e-8            # every grid's first point: the series continues phi below it
_XI_FAR = 1000.0       # launch point of the inward neutral shot
_XI_MATCH = 20.0       # outward/inward matching radius
_SHOT_TOL = 1e-14      # every shot's tolerance but the ion search's secant trials
_COARSE_TOL = 1e-8     # tolerance of the ion search's secant trials: logit lambda to about 1e-8
_NEAR = 1e-3           # the secant stops once its step in t falls below this
_MASS_TOL = 1e-6       # |int phi^{3/2} sqrt(t) / min(lambda, 1) - 1| that solve() accepts
_PTS_PER_DECADE = 120
_RTOL = 4.0 * np.finfo(float).eps  # relative bracket width the root-finders stop at
_ROOT_ITER = 100
# The unit-edge slope c* past which the inward ion shot at _SHOT_TOL blows up
# before u = 0: at c*(1 - 1e-12) it reaches g(0) = 1.96e48, at c*(1 + 1e-12)
# DOP853's step underflows (tests/test_scipy_oracles.py re-derives both)
_C_STAR = 1071.214679305575

# The neutral slope0 and Sommerfeld tail amplitude: the exact roots of the
# neutral search (module docstring), bisection on [-1.7, -1.5], then Brent's
# method on [-40, -1], both to xtol 1e-16 and _RTOL.  They depend on
# _XI_MATCH, _XI_FAR, _SHOT_TOL, _RTOL and the two brackets; re-pin them from
# the reprs that test_pinned_neutral_roots_are_the_search_roots prints.
_NEUTRAL_SLOPE0 = -1.588071022611375
_NEUTRAL_TAIL_AMPLITUDE = -13.29246812130286


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


def _tail_phi(a, xi):
    """Two-term decaying Sommerfeld manifold and its derivative."""
    eta = xi ** (-_S1)
    u = a * eta + _C2 * (a * eta) ** 2
    du = -_S1 * a * eta / xi - 2.0 * _S1 * _C2 * (a * eta) ** 2 / xi
    phi = 144.0 * xi**-3 * (1.0 + u)
    dphi = -432.0 * xi**-4 * (1.0 + u) + 144.0 * xi**-3 * du
    return phi, dphi


def _u_rhs(k):
    """(g, g')_u = (2u g', k g^{3/2}), g clamped at 0 (module docstring)."""

    def rhs(u, y):
        g, dg = y  # plain floats: shoot calls this twelve times a step
        return (2.0 * u * dg, k * (g if g > 0.0 else 0.0) ** 1.5)

    return rhs


def _neutral_out(B):
    """Outward neutral shot from (phi, phi') = (1, B) at u = 0 to _XI_MATCH."""
    return shoot(_u_rhs(2.0), (1.0, B), 0.0, math.sqrt(_XI_MATCH), _SHOT_TOL)


def _neutral_in(a):
    """Inward neutral shot from the Sommerfeld manifold at _XI_FAR to _XI_MATCH."""
    u_far, u_match = math.sqrt(_XI_FAR), math.sqrt(_XI_MATCH)
    return shoot(_u_rhs(2.0), _tail_phi(a, _XI_FAR), u_far, u_match, _SHOT_TOL)


def _ion_shot(c, tol):
    """Inward ion shot of g = f/c, f(1) = 0 and f'(1) = -c, from the unit
    edge (g, g') = (0, -1) at u = 1 to u = 0."""
    return shoot(_u_rhs(2.0 * math.sqrt(c)), (0.0, -1.0), 1.0, 0.0, tol)


def _xi_jets(x, phi, dphi):
    """phi's first three xi-derivatives at the grid points."""
    clamped = np.maximum(phi, 0.0)  # as in _u_rhs
    d2 = clamped**1.5 / np.sqrt(x)
    return dphi, d2, 1.5 * np.sqrt(clamped) * dphi / np.sqrt(x) - d2 / (2.0 * x)


def _u_jets(k, u, g, dg):
    """g's first three u-derivatives at the step ends of a shot,
    (g, g')_u = (2u g', k g^{3/2}): 2u g', 2 g' + 2u k g^{3/2} and
    4k g^{3/2} + 6 u^2 k g^{1/2} g'."""
    g = np.maximum(g, 0.0)  # as in _u_rhs
    kp = k * g**1.5
    return (2.0 * u * dg, 2.0 * dg + 2.0 * u * kp,
            4.0 * kp + 6.0 * u * u * k * np.sqrt(g) * dg)


def _septic(x, phi, d1, d2, d3):
    """Bernstein coefficients, one column per interval of the knots ``x``, of
    the septic Hermite of phi and its first three derivatives there."""
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
    return c


def _readout(steps, t, jets):
    """(phi, dphi/dt) at the ascending points ``t`` of a shot's variable
    inside the span of its ``steps``: the septic Hermite of each step's ends
    and their ``jets(t, phi, phi')``, as one Bernstein-form polynomial."""
    x = np.array([step[0] for step in steps])
    y = np.array([step[1] for step in steps])
    if x[0] > x[-1]:
        x, y = x[::-1], y[::-1]
    if not x[0] <= t[0] <= t[-1] <= x[-1]:
        raise ShootingFailure(f"shot from {steps[0][0]!r} to {steps[-1][0]!r} misses the grid")
    c = _septic(x, y[:, 0], *jets(x, y[:, 0], y[:, 1]))
    return _bernstein(x, t, c, 7.0 * np.diff(c, axis=0) / np.diff(x))


def _bernstein(x, xi, *cs):
    """Each piecewise polynomial with Bernstein coefficients c[:, i] on
    [x[i], x[i+1]], c in ``cs``, at the radii ``xi`` in [x[0], x[-1]]:
    sum_j binom(k, j) s^j (1-s)^(k-j) c[j] with s the local coordinate in
    [0, 1].  The terms are summed in the order scipy's BPoly sums them, and
    every power is one math.pow, shared by all of ``cs``, so the values
    agree with BPoly to the last bit (numpy's vectorized power does not)."""
    i = np.clip(np.searchsorted(x, xi, side="right") - 1, 0, x.size - 2)
    s = (xi - x[i]) / (x[i + 1] - x[i])
    # math.pow(v, 0) is 1 and math.pow(v, 1) is v, exactly
    powers = [[np.ones_like(base), base]
              + [np.array(list(map(math.pow, base.tolist(), repeat(float(j)))))
                 for j in range(2, max(map(len, cs)))]
              for base in (s, 1.0 - s)]
    outs = []
    for c in cs:
        k, out, comb = c.shape[0] - 1, np.zeros_like(s), 1.0
        for j in range(k + 1):
            out += comb * powers[0][j] * powers[1][k - j] * c[j, i]
            comb *= 1.0 * (k - j) / (j + 1.0)
        outs.append(out)
    return outs


def _septic_at(c, s):
    """sum_j binom(7, j) s^j (1-s)^(7-j) c[j] at the local coordinates s,
    by Horner's scheme for the Bernstein form: numpy, no power."""
    s1 = 1.0 - s
    sj = np.ones_like(s)
    out = c[0] * s1
    for j in range(1, 7):
        sj = sj * s
        out = (out + math.comb(7, j) * sj * c[j]) * s1
    return out + sj * s * c[7]


# the septic's Bernstein basis at the 12 local coordinates of the GL-12
# nodes, where every grid interval has its nodes: one row per node
_GL_SEPTIC = _septic_at(np.eye(8)[:, None, :], gl_rule([0.0, 1.0])[0][:, None])


def _root(f, lo, hi, xtol, what):
    """Root of f on [lo, hi] by Brent's method, to xtol + _RTOL |root|; a
    bracket without a sign change, or no convergence, is a ShootingFailure.  _brentq is scipy's C
    routine (zeros.c) line for line, with the same error messages, so it
    visits the same iterates as scipy's brentq and returns the same root."""
    try:
        return _brentq(f, lo, hi, xtol=xtol, rtol=_RTOL)
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

    slope0: float
    x_edge: float | None            # None for the neutral branch
    tail_amplitude: float | None    # Sommerfeld correction amplitude (neutral)
    xi: np.ndarray
    phi_values: np.ndarray
    dphi_values: np.ndarray         # phi' = dphi/dxi at the grid points

    @cached_property
    def _hermite(self):
        """Bernstein coefficients of phi between grid points: the septic
        Hermite of (phi, phi') with the jets of phi'' = phi^{3/2}/sqrt(xi)."""
        jets = _xi_jets(self.xi, self.phi_values, self.dphi_values)
        return _septic(self.xi, self.phi_values, *jets)

    def phi(self, xi):
        """The septic Hermite inside the grid, clamped at 0; below it the
        series of _series_init, beyond it the two-term Sommerfeld manifold
        (neutral) or zero."""
        xi = np.asarray(xi, dtype=float)
        out = np.zeros_like(xi)
        grid = self.xi
        inside = (xi >= grid[0]) & (xi <= grid[-1])
        t = xi[inside]
        i = np.clip(np.searchsorted(grid, t, side="right") - 1, 0, grid.size - 2)
        s = (t - grid[i]) / (grid[i + 1] - grid[i])
        out[inside] = np.maximum(_septic_at(self._hermite[:, i], s), 0.0)
        below = xi < grid[0]
        if np.any(below):
            out[below] = _series_init(self.slope0, xi[below])[0]
        beyond = xi > grid[-1]
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

    def _grid_nodes(self):
        """The grid's GL-12 nodes and weights, and phi there by _GL_SEPTIC."""
        t, w = gl_rule(self.xi)
        return t, w, np.maximum(_GL_SEPTIC @ self._hermite, 0.0).T.ravel()

    def moment(self, p, e, lo=0.0):
        """int_lo^inf phi^p t^e dt: the head below the grid, the grid from
        lo by the composite GL-12 rule, and the tail."""
        if lo < self.xi[0]:
            t, w, ph = self._grid_nodes()
            head = self.head_moment(p, e, lo)
        else:
            t, w = gl_rule(np.concatenate([[lo], self.xi[self.xi > lo]]))
            ph, head = self.phi(t), 0.0
        return head + float(np.sum(w * (ph**p * t**e))) + self.tail_moment(p, e)

    @cached_property
    def _integrals(self):
        """(mass, I32, I52, potential, repulsion) from one sampling of phi at
        the GL-12 nodes of the grid, dropped once they are built.  The three
        moments int_0^inf phi^p t^e dt, (p, e) = (3/2, 1/2), (3/2, -1/2),
        (5/2, -1/2), are summed as :meth:`moment` sums them; the mass equals
        min(lambda, 1) exactly.  The potential is P(xi) = M(xi)/xi + T(xi) on
        the grid, M = int_0^xi phi^{3/2} sqrt(t) dt and
        T = int_xi^inf phi^{3/2}/sqrt(t) dt: the Newton potential of the
        factored density phi^{3/2} t^{-3/2}, head and tail included.  The
        repulsion is int phi^{3/2} sqrt(t) P(t) dt over the grid, with P
        read at the nodes: (Z^2/b)/2 times it is the repulsion inside the
        grid."""
        t, w, ph = self._grid_nodes()

        def moment(p, e):
            grid = float(np.sum(w * (ph**p * t**e)))
            return self.head_moment(p, e) + grid + self.tail_moment(p, e)

        # newton_potential samples its density at these same nodes
        potential, at_nodes = newton_potential(lambda nodes: ph**1.5 * nodes**-1.5, self.xi,
                                               m_head=self.head_moment(1.5, 0.5),
                                               t_tail=self.tail_moment(1.5, -0.5))
        repulsion = float(np.sum(w * (ph**1.5 * np.sqrt(t) * at_nodes)))
        return (moment(1.5, 0.5), moment(1.5, -0.5), moment(2.5, -0.5), potential(self.xi),
                repulsion)

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
    u = np.sqrt(xi)
    near = xi <= _XI_MATCH
    phi, dphi_u = np.empty_like(xi), np.empty_like(xi)
    for part, shot in ((near, _neutral_out(_NEUTRAL_SLOPE0)),
                       (~near, _neutral_in(_NEUTRAL_TAIL_AMPLITUDE))):
        phi[part], dphi_u[part] = _readout(shot.steps, u[part], partial(_u_jets, 2.0))
    return _UniversalProfile(slope0=_NEUTRAL_SLOPE0, x_edge=None,
                             tail_amplitude=_NEUTRAL_TAIL_AMPLITUDE, xi=xi,
                             phi_values=np.maximum(phi, 0.0), dphi_values=dphi_u / (2.0 * u))


def _logit_law(t):
    """logit lambda at the trial t = log(c / (c* - c)) by the two end laws,
    lambda ~ (pi/16) sqrt(c) as c -> 0 and 1 - lambda ~ (c* - c)^{3/s1} as
    c -> c*, joined as lambda/(1 - lambda) = (pi/16) sqrt(c) (1 - c/c*)^{-3/s1};
    and its t-derivative, which rises from 1/2 to 3/s1."""
    k = 3.0 / _S1
    law = (math.log(math.pi / 16.0) + 0.5 * math.log(_C_STAR)
           - 0.5 * math.log1p(math.exp(-t)) + k * math.log1p(math.exp(t)))
    return law, 0.5 / (1.0 + math.exp(t)) + k / (1.0 + math.exp(-t))


def _solve_ion(lam):
    """The ion of lambda by the TF homology (module docstring): the trial
    from the unit edge with slope c is the ion lambda = 1 - 1/g(0),
    x0 = (c g(0))^{1/3}, slope0 = g'(0)/(g(0) x0) and
    phi(xi) = g(sqrt(xi/x0))/g(0)."""
    target = math.log(lam / (1.0 - lam))
    shots = {}  # (t, tol) -> its shot

    def miss(t, tol=_SHOT_TOL):
        if (t, tol) not in shots:
            shots[t, tol] = _ion_shot(_C_STAR / (1.0 + math.exp(-t)), tol)
        return math.log(shots[t, tol].y_end[0] - 1.0) - target

    c = (16.0 * lam / math.pi) ** 2  # the small-c law starts Newton's method on both laws
    t, step = math.log(c / (_C_STAR - c)), math.inf
    while abs(step) > _NEAR:
        law, slope = _logit_law(t)
        step = (target - law) / slope
        t += step
    m = miss(t, _COARSE_TOL)
    while abs(m / slope) > _NEAR:
        t_prev, m_prev = t, m
        t -= m / slope
        m = miss(t, _COARSE_TOL)
        slope = max((m - m_prev) / (t - t_prev), 0.5)  # logit lambda rises at least as t/2
    t -= m / slope
    m = miss(t)
    # t's resolution: logit lambda carries g(0)'s error divided by lambda;
    # the far end lies past the root by about as much as t falls short of it
    xtol = 2.0 * _SHOT_TOL / lam
    far = t - math.copysign(2.0 * (abs(m) / slope + xtol), m)
    t = _root(miss, min(t, far), max(t, far), xtol, f"ion trial for lambda = {lam}")
    shot = shots[t, _SHOT_TOL]  # Brent's method returns a t it has shot
    c = _C_STAR / (1.0 + math.exp(-t))
    g0, dg0 = shot.y_end
    x_e = (c * g0) ** (1.0 / 3.0)

    base = _log_grid(_XI0, x_e * (1.0 - 1e-3))
    cluster = x_e * (1.0 - np.geomspace(1e-3, 1e-12, 28)[1:])
    xi = np.concatenate([base, cluster, [x_e]])
    u = np.sqrt(xi / x_e)
    g, dg_u = _readout(shot.steps, u, partial(_u_jets, 2.0 * math.sqrt(c)))
    return _UniversalProfile(slope0=dg0 / (g0 * x_e), x_edge=x_e,
                             tail_amplitude=None, xi=xi, phi_values=np.maximum(g / g0, 0.0),
                             dphi_values=dg_u / (2.0 * u * x_e * g0))


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
    phi = property(lambda self: self.profile.phi)
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
    lam = min(params.lam, 1.0)
    lam_key = round(lam, 12)
    if lam_key == 0.0:
        raise DomainError(f"lambda = {params.lam!r} rounds to 0 at the cache key's 12 decimals")
    prof = _solve_universal(lam_key)
    # against the requested lambda: the cache key's rounding is part of the error
    mass_error = prof.mass / lam - 1.0
    if not abs(mass_error) <= _MASS_TOL:
        raise ToleranceFailure(f"TF mass error {mass_error:.3e} misses {_MASS_TOL:g} at "
                               f"lambda = {params.lam!r}", residual=abs(mass_error))
    sol = TFSolution(params, prof)
    residual = tf_equation_residual(sol)
    if residual > tol:
        raise ToleranceFailure(f"TF residual {residual:.3e} misses tol {tol:.3e}",
                               residual=residual)
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
    v, w = gl_rule(grid)
    clamped = np.maximum(rho(v), 0.0)
    kin = float(np.sum(w * (clamped ** (5.0 / 3.0) * v * v)))
    att = float(np.sum(w * (clamped * v)))
    kin += rho.head_integral(5.0 / 3.0, 2)
    att += rho.head_integral(1.0, 1)
    pot, at_nodes = coulomb_potential(rho)
    # head of the repulsion integral is O(r0^{head_exponent+3}) ~ 1e-12 relative: dropped
    rep = float(np.sum(w * (clamped * at_nodes * v * v)))
    kin += rho.tail_integral(5.0 / 3.0, 2)
    tail_moment = rho.tail_integral(1.0, 1)
    att += tail_moment
    # beyond the grid the potential is the far field pot(R) R / v
    rep += pot(grid[-1]) * grid[-1] * tail_moment
    return float(0.6 * gamma * 4.0 * math.pi * kin - Z * 4.0 * math.pi * att
                 + 0.5 * 4.0 * math.pi * rep)


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
    T(r) = int_r^inf rho v dv, by :func:`numerics.newton_potential`; with
    its values at the GL-12 nodes of ``rho.grid`` (:func:`numerics.gl_rule`).

    The head of M and the tail of T are the RadialFunction's closed forms:
    a head steeper than v^-3 or a tail shallower than v^-2 raises
    DivergentIntegral.  Below the grid, and beyond it unless the tail is
    zero, the potential raises DomainError.
    """
    pot, at_nodes = newton_potential(rho, rho.grid, rho.head_integral(1.0, 2),
                                     rho.tail_integral(1.0, 1))
    return (lambda r: 4.0 * math.pi * pot(r)), 4.0 * math.pi * at_nodes


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
    pot = (Z / sol.b) * sol.profile.potential
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
        "params": {"lambda": sol.params.lam, "Z": sol.params.Z, "gamma_kin": sol.params.gamma_kin},
        "slope0": sol.slope0,
        "mu": sol.mu,
        "edge_radius": None if math.isinf(sol.edge_radius) else sol.edge_radius,
        "grid": sol.profile.xi.tolist(),
        "phi": sol.profile.phi_values.tolist(),
        "dphi": sol.profile.dphi_values.tolist(),
        "rho": sol.density_samples[1].tolist(),
        "energy_terms": sol.energy_terms,
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def solution_from_json(text: str) -> TFSolution:
    """The solution a :func:`solution_to_json` text records.  Only params,
    slope0, edge_radius, grid, phi and dphi are read; mu, rho and the
    energy terms are derived again from them (the neutral tail amplitude is
    refitted from the last grid point).  A file without dphi, which phi's
    interpolant needs, is a DomainError."""
    doc = json.loads(text)
    if "dphi" not in doc:
        raise DomainError("the solution file has no 'dphi' field (phi' on the grid); "
                          "write it again with tf-solve")
    p = doc["params"]
    # files written before the spin_q field was dropped still carry it: ignored
    params = TFParams(lam=p["lambda"], Z=p["Z"], gamma_kin=p["gamma_kin"])
    xi, phi_vals, dphi_vals = (np.asarray(doc[k], dtype=float) for k in ("grid", "phi", "dphi"))
    edge = doc["edge_radius"]
    neutral = edge is None
    prof = _UniversalProfile(
        slope0=doc["slope0"], x_edge=None if neutral else float(edge),
        tail_amplitude=_fit_tail_amplitude(xi, phi_vals) if neutral else None,
        xi=xi, phi_values=phi_vals, dphi_values=dphi_vals)
    return TFSolution(params, prof)


def _fit_tail_amplitude(xi, phi_vals):
    # invert phi = 144 x^-3 (1 + a eta + c2 (a eta)^2) at the last grid point
    w = phi_vals[-1] * xi[-1] ** 3 / 144.0 - 1.0
    eta = xi[-1] ** (-_S1)
    disc = 1.0 + 4.0 * _C2 * w
    if disc <= 0:
        return w / eta
    return (math.sqrt(disc) - 1.0) / (2.0 * _C2 * eta)
