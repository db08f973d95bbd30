"""Quadrature and ODE plumbing used by every physics module.

Four layers:

* :class:`RadialFunction` -- a sampled radial profile and the one place
  that knows how it continues past its grid: PCHIP inside, the power law
  through the first two samples below, values[-1] (r/R)^tail_exponent (or
  zero) beyond; its ``head_integral``/``tail_integral`` give int f^p u^k
  over both continuations in closed form.
* :func:`integrate_1d` / :func:`integrate_radial_3d` -- adaptive
  Gauss-Kronrod quadrature (QUADPACK) behind a small spec object.
  Semi-infinite integrals are mapped to (0, 1) first; exponentially
  decaying integrands use the logarithmic map, algebraically decaying
  ones the rational map u/(1+u).
* :func:`grid_quadrature` -- vectorized composite 12-point Gauss-Legendre
  over an explicit knot sequence.  Adaptive extrapolation misbehaves on
  interpolants with hundreds of knots, so every integral whose integrand
  is built from a :class:`RadialFunction` goes through this instead.
  :func:`newton_potential` builds the radial shell split M(r)/r + T(r)
  on the same rule, and :func:`radial_fourier` the 3-D Fourier transform
  of a radial function (its own inverse up to (2 pi)^3) on equally
  spaced knots, where sin(k v) factors segment by segment into sines and
  cosines of k times the segment midpoints and of k times the node
  offsets, so no k-by-node sine matrix is built.
* ODEs.  :func:`shoot` -- Hairer's compiled DOP853 through
  ``scipy.integrate.ode``, the package's one integrator: one per
  ``(rhs, tol)``, reused shot after shot, for shooting loops that need
  many cheap shots.  A ``stop`` condition ends the shot after the first
  accepted step where it holds, and the shot returns every accepted step,
  so a caller can read values between them off the step ends without
  integrating again.  Failures surface as :class:`StepFailure`.

All operations are pure (:func:`shoot` reuses its integrator, but each
shot starts from a reset state); :class:`RadialFunction` and
:class:`Shot` are immutable after construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.integrate
from scipy.interpolate import PchipInterpolator

from .errors import DivergentIntegral, DomainError, NonConvergence, StepFailure

__all__ = [
    "QuadratureSpec",
    "RadialFunction",
    "Shot",
    "integrate_1d",
    "integrate_radial_3d",
    "gl_rule",
    "grid_quadrature",
    "newton_potential",
    "radial_fourier",
    "shoot",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)

EXP_DECAY_MAP = "exp_decay_map"
ALGEBRAIC_MAP = "algebraic_map"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and transform choice for adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000
    semi_infinite_transform: str = EXP_DECAY_MAP

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.semi_infinite_transform not in (EXP_DECAY_MAP, ALGEBRAIC_MAP):
            raise DomainError(
                f"unknown semi-infinite transform {self.semi_infinite_transform!r}"
            )


DEFAULT_SPEC = QuadratureSpec()


def _quad(f, a, b, spec):
    with warnings.catch_warnings():
        # roundoff-limited convergence is adjudicated below via the error
        # estimate; QUADPACK's warning would only duplicate that signal
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        value, abserr, info, *rest = scipy.integrate.quad(
            f,
            a,
            b,
            epsabs=spec.abs_tol,
            epsrel=spec.rel_tol,
            limit=max(spec.max_subdivisions, 10),
            full_output=1,
        )
    if rest:  # QUADPACK appended an error message
        # Roundoff-limited convergence is tolerated when the reported
        # estimate still meets the requested tolerance.
        if abserr > max(spec.rel_tol * abs(value), spec.abs_tol) * 10.0:
            raise NonConvergence(
                f"quadrature failed on ({a}, {b}): {rest[-1]}",
                value=value,
                err_estimate=abserr,
            )
    return value, abserr


def integrate_1d(f, a, b, spec: QuadratureSpec | None = None):
    """Integrate ``f`` on (a, b), b possibly infinite.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on the open interval.
    a, b : float
        Interval endpoints; ``b = inf`` selects the semi-infinite maps.
    spec : QuadratureSpec, optional

    Returns
    -------
    (value, err_estimate)
    """
    spec = spec or DEFAULT_SPEC
    if not b > a:
        raise DomainError(f"need a < b, got ({a}, {b})")

    if math.isinf(b):
        if math.isinf(a):
            raise DomainError("doubly infinite intervals are not supported")
        if spec.semi_infinite_transform == EXP_DECAY_MAP:
            # x = a - log(1-u), dx = du/(1-u)
            def g(u):
                return f(a - math.log1p(-u)) / (1.0 - u)
        else:
            # x = a + u/(1-u), dx = du/(1-u)^2
            def g(u):
                w = 1.0 - u
                return f(a + u / w) / (w * w)

        return _quad(g, 0.0, 1.0, spec)

    return _quad(f, a, b, spec)


def integrate_radial_3d(f, spec: QuadratureSpec | None = None):
    """3-D integral of the spherically symmetric f: 4 pi int_0^inf f(u) u^2 du."""
    value, err = integrate_1d(lambda u: f(u) * u * u, 0.0, math.inf, spec)
    return 4.0 * math.pi * value


def gl_rule(knots):
    """Nodes and weights of the composite 12-point Gauss-Legendre rule over the
    knot segments, segment by segment (12 consecutive entries per segment)."""
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise DomainError("need at least two knots")
    mid = 0.5 * (knots[:-1] + knots[1:])
    half = 0.5 * (knots[1:] - knots[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def grid_quadrature(f, knots):
    """Composite 12-point Gauss-Legendre of the vectorized ``f`` over knot segments."""
    x, w = gl_rule(knots)
    return float(np.dot(w, np.asarray(f(x), dtype=float)))


# entry (j, k) is w_j P_k(x_j): for values y at the nodes, (y @ _GL_MOMENTS)[k]
# times (2k+1)/2 is the k-th Legendre coefficient of their 12-node interpolant
_GL_MOMENTS = np.polynomial.legendre.legvander(_GL_NODES, 11) * _GL_WEIGHTS[:, None]
_EVAL_CHUNK = 1024  # radii per block when evaluating a Newton potential


def _partial_basis(s):
    """(2k+1)/2 int_{-1}^s P_k for k = 0..11, one row per entry of ``s``;
    exactly 0 at s = -1 and exactly (1, 0, ..., 0) at s = 1."""
    P = np.polynomial.legendre.legvander(s, 12)
    Q = np.empty((s.size, 12))
    Q[:, 0] = 0.5 * (s + 1.0)
    Q[:, 1:] = 0.5 * (P[:, 2:] - P[:, :-2])
    return Q


def newton_potential(f, knots, m_head=0.0, t_tail=0.0):
    """Newton potential of a radial density: r -> M(r)/r + T(r), with

        M(r) = m_head + int_{knots[0]}^r f(v) v^2 dv,
        T(r) = int_r^{knots[-1]} f(v) v dv + t_tail,

    so that 4 pi [M(r)/r + T(r)] is (f * 1/|.|)(r) by Newton's theorem.

    ``f`` is evaluated once, at the nodes of the composite 12-point
    Gauss-Legendre rule (:func:`gl_rule`).  At the knots M and T are the
    cumulative rule sums; between knots they are the exact integrals of
    each segment's 12-node interpolant.  The returned callable is
    vectorized; beyond knots[-1] it returns M_total/r if ``t_tail == 0``
    (no density past the grid) and raises :class:`DomainError` for every
    other radius outside [knots[0], knots[-1]].
    """
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2 or not np.all(np.diff(knots) > 0):
        raise DomainError("knots must be strictly increasing, at least two")
    x, _ = gl_rule(knots)
    fx = np.asarray(f(x), dtype=float).reshape(-1, _GL_NODES.size)
    x = x.reshape(fx.shape)
    half = 0.5 * np.diff(knots)[:, None]
    mom_m = half * ((fx * x * x) @ _GL_MOMENTS)
    mom_t = half * ((fx * x) @ _GL_MOMENTS)
    M = m_head + np.concatenate([[0.0], np.cumsum(mom_m[:, 0])])
    T = t_tail + np.concatenate([np.cumsum(mom_t[::-1, 0])[::-1], [0.0]])
    lo, hi = knots[0], knots[-1]

    def potential(r):
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        if np.any(flat < lo) or (t_tail != 0.0 and np.any(flat > hi)):
            raise DomainError(f"Newton potential evaluated outside its grid [{lo:g}, {hi:g}]")
        out = np.empty_like(flat)
        for start in range(0, flat.size, _EVAL_CHUNK):
            rc = flat[start:start + _EVAL_CHUNK]
            oc = out[start:start + _EVAL_CHUNK]
            beyond = rc > hi
            oc[beyond] = M[-1] / rc[beyond]
            ri = rc[~beyond]
            i = np.clip(np.searchsorted(knots, ri, side="right") - 1, 0, knots.size - 2)
            Q = _partial_basis(2.0 * (ri - knots[i]) / (knots[i + 1] - knots[i]) - 1.0)
            m = M[i] + np.einsum("nk,nk->n", Q, mom_m[i])
            t = T[i] - np.einsum("nk,nk->n", Q, mom_t[i])
            oc[~beyond] = m / ri + t
        return float(out[0]) if r.ndim == 0 else out.reshape(r.shape)

    return potential


# entries per block of k, summed over the four live k-by-segment matrices
_FOURIER_BLOCK = 1 << 19


def radial_fourier(f, knots, k):
    """3-D Fourier transform of the radial ``f``, 4 pi int f(v) v sin(k v)/k dv,
    on the composite 12-point Gauss-Legendre rule of the equally spaced
    ``knots``; vectorized over ``k`` (k = 0 gives 4 pi int f v^2).

    ``f`` is evaluated once, at the rule's nodes v = m_j + h x_i (segment
    midpoints m_j, one half-width h).  The sine factors segment by segment,
    sin(k v) = sin(k m_j) cos(k h x_i) + cos(k m_j) sin(k h x_i), so each k
    costs two transcendentals per segment plus two per GL node, and the
    node sums are two matrix products.  Knots that are not equally spaced
    (to rounding) raise :class:`DomainError`.

    The transform is its own inverse up to (2 pi)^3:
    f(r) = radial_fourier(fhat, p_knots, r) / (2 pi)^3.  The rule must
    resolve sin(k v) at the largest ``|k|`` requested.
    """
    knots = np.asarray(knots, dtype=float)
    if knots.ndim != 1 or knots.size < 2:
        raise DomainError("need at least two knots")
    segments = knots.size - 1
    h = 0.5 * (knots[-1] - knots[0]) / segments
    if np.max(np.abs(np.diff(knots) - 2.0 * h)) > 1e-12 * np.max(np.abs(knots)):
        raise DomainError("radial_fourier needs equally spaced knots")
    mid = 0.5 * (knots[:-1] + knots[1:])
    hx = h * _GL_NODES
    v = mid[:, None] + hx[None, :]
    fv = np.asarray(f(v.ravel()), dtype=float).reshape(v.shape) * v * (h * _GL_WEIGHTS)
    k = np.asarray(k, dtype=float)
    flat = k.ravel()
    out = np.empty_like(flat)
    rows = max(1, _FOURIER_BLOCK // (4 * segments))
    for i in range(0, flat.size, rows):
        kb = flat[i:i + rows]
        kx = np.outer(kb, hx)
        cos_part = np.cos(kx) @ fv.T
        sin_part = np.sin(kx, out=kx) @ fv.T
        km = np.outer(kb, mid)
        s = np.sin(km)
        s *= cos_part
        np.cos(km, out=km)
        km *= sin_part
        s += km
        out[i:i + rows] = s.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 4.0 * math.pi * np.where(flat == 0.0, np.vdot(fv, v), out / flat)
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


@dataclass(frozen=True)
class RadialFunction:
    """A function of radius sampled on a strictly increasing positive grid.

    Inside the grid span a monotone cubic (PCHIP) interpolant is used.  Below
    the first point r0 it continues as values[0] (r/r0)^head_exponent, the
    power law through the first two samples (the log-log slope of their
    magnitudes if both are nonzero and share a sign, else 0: constant).
    Beyond the last point R it continues as values[-1] (r/R)^tail_exponent,
    or as zero when ``tail_exponent`` is None.  :meth:`head_integral` and
    :meth:`tail_integral` integrate powers of both continuations in closed
    form.
    """

    grid: np.ndarray
    values: np.ndarray
    tail_exponent: float | None = None
    head_exponent: float = field(init=False)

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise DomainError("grid must hold at least two radii")
        if grid.size != values.size:
            raise DomainError("grid and values must have equal length")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if grid[0] <= 0:
            raise DomainError("grid radii must be positive")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", PchipInterpolator(grid, values, extrapolate=False))
        v0, v1 = values[0], values[1]
        same_sign = (v0 > 0 and v1 > 0) or (v0 < 0 and v1 < 0)
        head_exp = math.log(v1 / v0) / math.log(grid[1] / grid[0]) if same_sign else 0.0
        object.__setattr__(self, "head_exponent", head_exp)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        lo = r < self.grid[0]
        hi = r > self.grid[-1]
        mid = ~(lo | hi)
        out[mid] = self._interp(r[mid])
        if np.any(lo):
            out[lo] = self.values[0] * (r[lo] / self.grid[0]) ** self.head_exponent
        if np.any(hi):
            if self.tail_exponent is None:
                out[hi] = 0.0
            else:
                out[hi] = self.values[-1] * (r[hi] / self.grid[-1]) ** self.tail_exponent
        return float(out[0]) if scalar else out

    def head_integral(self, p, k):
        """int_0^r0 f(u)^p u^k du in closed form:
        values[0]^p r0^(k+1) / (p head_exponent + k + 1)."""
        n = p * self.head_exponent + (k + 1)
        return _power_moment(self.values[0], self.grid[0], p, k, n, "head")

    def tail_integral(self, p, k):
        """int_R^inf f(u)^p u^k du in closed form:
        values[-1]^p R^(k+1) / -(p tail_exponent + k + 1); 0.0 for a zero tail."""
        if self.tail_exponent is None:
            return 0.0
        n = -(p * self.tail_exponent + (k + 1))
        return _power_moment(self.values[-1], self.grid[-1], p, k, n, "tail")

    @property
    def r_min(self):
        return float(self.grid[0])

    @property
    def r_max(self):
        return float(self.grid[-1])


def _power_moment(v, r, p, k, n, end):
    """v^p r^(k+1) / n: the integral of (v (u/r)^e)^p u^k over the head
    (n = p e + k + 1) or the tail (n = -(p e + k + 1)).  Zero if v is;
    :class:`DivergentIntegral` unless n > 0; :class:`DomainError` for a
    negative v under a non-integer power.  For p = 1 the result is signed."""
    if v == 0.0:
        return 0.0
    if not n > 0.0:
        raise DivergentIntegral(f"int f^{p} u^{k} diverges over the {end} of the RadialFunction")
    if v < 0.0 and not float(p).is_integer():
        raise DomainError(f"f^{p} of the negative {end} sample {v!r} is not real")
    return float(v**p * r ** (k + 1) / n)


# accepted steps per shot before DOP853 gives up; scipy's default of 500 is
# too near the longest TF shot (about 200 steps)
_MAX_STEPS = 100_000


class Shot(NamedTuple):
    """End of one :func:`shoot`: where it ended, the state there, and every
    accepted step (x, y) in the direction of the shot, (x0, y0) first."""

    x_end: float
    y_end: tuple
    steps: tuple


class _Dop853:
    """One compiled DOP853 integrator for a fixed (rhs, tol), reused shot
    after shot: scipy leaks a little memory for every ``ode`` built with a
    ``solout``.  Its ``solout`` records every accepted step as plain floats."""

    def __init__(self, rhs, tol):
        self.ode = scipy.integrate.ode(rhs).set_integrator(
            "dop853", rtol=tol, atol=tol * 1e-2, nsteps=_MAX_STEPS
        )
        self.ode.set_solout(self._record)
        self.steps, self.stop = [], None

    def _record(self, x, y):
        y = tuple(y.tolist())
        self.steps.append((x, y))
        return -1 if self.stop is not None and self.stop(x, y) else 0

    def run(self, y0, x0, x1, stop=None):
        """The accepted steps (x, y) from x0 to x1, or to the first step end
        where ``stop(x, y)`` holds; the first entry is (x0, y0)."""
        self.steps, self.stop = [], stop
        ode = self.ode
        ode.set_initial_value(y0, x0)
        with warnings.catch_warnings():
            # a failure is reported below, from the return code
            warnings.simplefilter("ignore", UserWarning)
            ode.integrate(x1)
        if not ode.successful():
            raise StepFailure(
                f"integration failed at x = {ode.t!r}: return code {ode.get_return_code()}",
                last_x=float(ode.t),
            )
        return self.steps


@lru_cache(maxsize=8)
def _dop853(rhs, tol):
    return _Dop853(rhs, tol)


def shoot(rhs, y0, x0, x1, tol=1e-10, stop=None):
    """One shot of y' = rhs(x, y) from x0 towards x1 with compiled DOP853.

    The shot ends at x1, or after the first accepted step whose end
    (x, y) satisfies ``stop(x, y)`` (y a tuple of floats).  The returned
    :class:`Shot` lists every accepted step end, so values between them
    can be interpolated from the step ends (with the derivatives the ODE
    gives there) or re-integrated from the step start before them.

    Tolerances are ``rtol = tol``, ``atol = tol * 1e-2``.  The integrator
    is built once per ``(rhs, tol)`` and reused, so neither ``rhs``,
    ``stop`` nor a second thread may shoot with the same pair during a
    shot.  Raises :class:`StepFailure` on blow-up or step-size underflow,
    reporting the abscissa reached.
    """
    if not x1 > x0 and not x1 < x0:
        raise DomainError("x0 and x1 must differ")
    steps = tuple(_dop853(rhs, tol).run(y0, x0, x1, stop))
    x_end, y_end = steps[-1]
    return Shot(x_end, y_end, steps)
