"""Quadrature and ODE plumbing used by every physics module.

Four layers:

* :class:`RadialFunction` -- a sampled radial profile and the one place
  that knows how it continues past its grid: PCHIP (:class:`Pchip`) inside,
  the power law through the first two samples below, values[-1]
  (r/R)^tail_exponent (or zero) beyond; its
  ``head_integral``/``tail_integral`` give int f^p u^k over both
  continuations in closed form.
* :func:`integrate_1d` -- globally adaptive bisection with QUADPACK's
  21-point Gauss-Kronrod rule and error heuristic (no extrapolation),
  behind a small spec object.  Semi-infinite integrals are mapped to
  (0, 1) by x = a + u/(1-u) first.  ``tf-solve``, ``budget`` and
  ``asymptotics`` make no adaptive call; ``verify`` runs it on the second
  routes it compares with closed forms.
* :func:`grid_quadrature` -- vectorized composite 12-point Gauss-Legendre
  over an explicit knot sequence.  Adaptive bisection would spend its
  work hunting the hundreds of knots of an interpolant, so every integral
  whose integrand is built from a :class:`RadialFunction` goes through
  this instead.
  :func:`newton_potential` builds the radial shell split M(r)/r + T(r)
  on the same rule, and :func:`radial_fourier` the 3-D Fourier transform
  of a radial function (its own inverse up to (2 pi)^3) on equally
  spaced knots, where sin(k v) factors segment by segment into sines and
  cosines of k times the segment midpoints and of k times the node
  offsets, so no k-by-node sine matrix is built.
  :func:`coulomb_pairing` pairs two radial densities through 1/|x-y| by
  Parseval, from their transforms on one GL-12 p-rule.
* ODEs.  :func:`shoot` -- Hairer's DOP853 on a pair state (y, y'), in
  plain Python floats, the package's one integrator, for shooting loops
  that need many cheap shots.  A ``stop`` condition ends the shot after
  the first accepted step where it holds, and the shot returns every
  accepted step, so a caller can read values between them off the step
  ends without integrating again.  Failures surface as
  :class:`StepFailure`.

Nothing here imports scipy: PCHIP and DOP853 are ports, and scipy is
only the tests' oracle for them and for the adaptive rule.  All
operations are pure; :class:`RadialFunction` and :class:`Shot` are
immutable after construction.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergentIntegral, DomainError, NonConvergence, StepFailure

__all__ = [
    "QuadratureSpec",
    "RadialFunction",
    "Shot",
    "integrate_1d",
    "gl_rule",
    "grid_quadrature",
    "newton_potential",
    "Pchip",
    "radial_fourier",
    "coulomb_pairing",
    "shoot",
]

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(12)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget of :func:`integrate_1d`.  A
    semi-infinite interval always takes its one map, x = a + u/(1-u), which
    handles tails that decay faster than x^-2."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not self.rel_tol > 0:
            raise DomainError("rel_tol must be > 0")
        if self.abs_tol < 0:
            raise DomainError("abs_tol must be >= 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_SPEC = QuadratureSpec()

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21): the positive Kronrod
# abscissae, whose odd entries are the 10-point Gauss ones, their Kronrod
# weights, the Kronrod weight of the centre, and the Gauss weights
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
       0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
       0.2943928627014602, 0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
       0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
       0.14277593857706009, 0.14773910490133849)
_WK_CENTRE = 0.1494455540029169
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
       0.29552422471475287)
_EPS, _UFLOW = sys.float_info.epsilon, sys.float_info.min


def _gk21(f, a, b):
    """(value, error, floor) of the 21-point Kronrod rule on (a, b).  The
    error is QUADPACK's heuristic: the spread of f about its mean, times
    min(1, (200 |K21 - G10| / spread)^1.5), floored at the rounding floor
    50 eps int |f| (0 where that underflows)."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    fc = float(f(c))
    pairs = [(float(f(c - h * x)), float(f(c + h * x))) for x in _XK]
    kronrod = _WK_CENTRE * fc + sum(w * (y1 + y2) for w, (y1, y2) in zip(_WK, pairs))
    gauss = sum(w * (y1 + y2) for w, (y1, y2) in zip(_WG, pairs[1::2]))
    mean = 0.5 * kronrod
    spread = h * (_WK_CENTRE * abs(fc - mean)
                  + sum(w * (abs(y1 - mean) + abs(y2 - mean)) for w, (y1, y2) in zip(_WK, pairs)))
    absolute = h * (_WK_CENTRE * abs(fc) + sum(w * (abs(y1) + abs(y2))
                                                for w, (y1, y2) in zip(_WK, pairs)))
    err = abs((kronrod - gauss) * h)
    if spread != 0.0 and err != 0.0:
        err = spread * min(1.0, (200.0 * err / spread) ** 1.5)
    floor = 50.0 * _EPS * absolute if absolute > _UFLOW / (50.0 * _EPS) else 0.0
    return kronrod * h, max(floor, err), floor


def _quad(f, a, b, spec):
    """Globally adaptive 21-point Gauss-Kronrod quadrature on the finite (a, b):
    bisect the interval with the largest error estimate until the summed
    estimate meets max(abs_tol, rel_tol |value|), the budget of
    ``max_subdivisions`` intervals is spent, or the worst interval is down
    to rounding: either its error estimate is its own rounding floor, which
    bisection cannot lower, or its ends are as close as floats allow.  A
    sum still above ten times the tolerance, or one that is not finite,
    raises :class:`NonConvergence`."""
    if spec.abs_tol <= 0.0 and spec.rel_tol < 50.0 * _EPS:
        raise DomainError(f"with abs_tol = 0, rel_tol must be at least 50 machine epsilons "
                          f"({50.0 * _EPS:.3g}), got {spec.rel_tol!r}")
    value, err, floor = _gk21(f, a, b)
    heap = [(-err, a, b, value, floor)]
    total, errsum = value, err
    limit = spec.max_subdivisions
    while errsum > max(spec.abs_tol, spec.rel_tol * abs(total)) and len(heap) < limit:
        worst, lo, hi, part, floor = heap[0]
        mid = 0.5 * (lo + hi)
        if -worst <= floor or (max(abs(lo), abs(hi))
                               <= (1.0 + 100.0 * _EPS) * (abs(mid) + 1000.0 * _UFLOW)):
            break
        v1, e1, f1 = _gk21(f, lo, mid)
        v2, e2, f2 = _gk21(f, mid, hi)
        heapq.heapreplace(heap, (-e1, lo, mid, v1, f1))
        heapq.heappush(heap, (-e2, mid, hi, v2, f2))
        total += v1 + v2 - part
        errsum += e1 + e2 + worst
    tol = max(spec.abs_tol, spec.rel_tol * abs(total))
    if not (math.isfinite(total) and math.isfinite(errsum)) or errsum > 10.0 * tol:
        raise NonConvergence(f"quadrature failed on ({a}, {b}) after {len(heap)} intervals: "
                             f"error estimate {errsum:.3g} against tolerance {tol:.3g}",
                             total, errsum)
    return total, errsum


def integrate_1d(f, a, b, spec: QuadratureSpec | None = None):
    """Integrate ``f`` on (a, b), b possibly infinite.

    A semi-infinite (a, inf) is mapped onto (0, 1) by x = a + u/(1-u),
    dx = du/(1-u)^2, with u = 1 contributing 0.  That handles every tail
    that decays faster than x^-2, exponential or algebraic; a slower tail
    leaves the mapped integrand singular at u = 1, which the rule (no
    extrapolation) does not resolve, so it raises :class:`NonConvergence`.

    Parameters
    ----------
    f : callable
        Scalar integrand, finite on the open interval.
    a, b : float
        Interval endpoints; ``a`` finite, ``b`` finite or ``inf``.
    spec : QuadratureSpec, optional

    Returns
    -------
    (value, err_estimate)
    """
    spec = spec or DEFAULT_SPEC
    if not b > a:
        raise DomainError(f"need a < b, got ({a}, {b})")
    if not math.isfinite(a):
        raise DomainError(f"the lower limit must be finite, got {a}")
    if math.isinf(b):
        def g(u):
            w = 1.0 - u
            return f(a + u / w) / (w * w) if w > 0.0 else 0.0

        return _quad(g, 0.0, 1.0, spec)
    return _quad(f, a, b, spec)


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
    """Composite 12-point Gauss-Legendre of the vectorized ``f`` over knot
    segments, summed by numpy rather than a BLAS dot, whose order of
    summation depends on the BLAS thread count."""
    x, w = gl_rule(knots)
    return float(np.sum(w * np.asarray(f(x), dtype=float)))


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


# entries per block of k, summed over the four live k-by-segment matrices:
# each node product then stays under the 4 * 65536 multiply-adds from which
# OpenBLAS threads it, which on 2 busy CPUs stalled c(phi) from 10 to 80 ms
_FOURIER_BLOCK = 1 << 16


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
        out = 4.0 * math.pi * np.where(flat == 0.0, np.sum(fv * v), out / flat)
    return float(out[0]) if k.ndim == 0 else out.reshape(k.shape)


def coulomb_pairing(a, a_knots, p_knots, b=None, b_knots=None):
    """iint a(x) b(y)/|x-y| d^3x d^3y for radial ``a``, ``b`` by Parseval,
    (2/pi) int_0^inf ahat bhat dp: each :func:`radial_fourier` on its own
    knots, p on the GL-12 rule of ``p_knots``, which must resolve both and
    reach past where their product is negligible.  Without ``b`` it is the
    self-pairing D(a, a), on one transform."""
    p, w = gl_rule(p_knots)
    ahat = radial_fourier(a, a_knots, p)
    bhat = ahat if b is None else radial_fourier(b, b_knots, p)
    return float(2.0 * np.sum(w * (ahat * bhat)) / math.pi)


class Pchip:
    """The monotone piecewise-cubic Hermite interpolant (PCHIP) of samples
    (x, y), x strictly increasing; a vectorized callable on [x[0], x[-1]]
    (radii outside are the caller's to continue).

    Node slopes are the Fritsch-Butland weighted harmonic mean of the
    adjacent secants, zero where the secants change sign or vanish, with
    Moler's shape-preserving one-sided estimate at both ends.  Each interval
    is evaluated in local power form, ((c3 + c2 s) + c1 s^2) + c0 s^3 with
    s = r - x_i.  Every arithmetic step is that of scipy's
    ``PchipInterpolator``, so the values agree to the last bit.
    """

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.c = self.coefficients(self.x, y)

    @classmethod
    def coefficients(cls, x, y):
        """(c0, c1, c2, c3) of every interval; the first k need only x[:k+2], y[:k+2]."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = np.diff(x)
        m = np.diff(y) / h
        d = np.empty_like(y)
        if y.size == 2:
            d[:] = m[0]
        else:
            w1 = 2 * h[1:] + h[:-1]
            w2 = h[1:] + 2 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
            d[0] = cls._end_slope(h[0], h[1], m[0], m[1])
            d[-1] = cls._end_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2 * m) / h
        return (t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1])

    @staticmethod
    def _end_slope(h0, h1, m0, m1):
        d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        if np.sign(d) != np.sign(m0):
            return 0.0
        if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
            return 3.0 * m0
        return d

    def __call__(self, r):
        x = self.x
        i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, x.size - 2)
        s = r - x[i]
        c0, c1, c2, c3 = (c[i] for c in self.c)
        return ((c3 + c2 * s) + c1 * (s * s)) + c0 * (s * s * s)


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
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise DomainError("grid and values must be finite")
        with np.errstate(all="ignore"):
            interp = Pchip(grid, values)
        if not all(np.all(np.isfinite(c)) for c in interp.c):
            raise DomainError("the interpolant's coefficients leave float range")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "_interp", interp)
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




# Hairer's DOP853 coefficients (Hairer, Norsett & Wanner, dop853.f): nodes C,
# stage weights A, the eighth-order weights B, and the third- and fifth-order
# error weights BHH and ER
C2 = 0.526001519587677318785587544488e-01
C3 = 0.789002279381515978178381316732e-01
C4 = 0.118350341907227396726757197510
C5 = 0.281649658092772603273242802490
C6 = 0.333333333333333333333333333333
C7 = 0.25
C8 = 0.307692307692307692307692307692
C9 = 0.651282051282051282051282051282
C10 = 0.6
C11 = 0.857142857142857142857142857142
A21 = 5.26001519587677318785587544488e-2
A31 = 1.97250569845378994544595329183e-2
A32 = 5.91751709536136983633785987549e-2
A41 = 2.95875854768068491816892993775e-2
A43 = 8.87627564304205475450678981324e-2
A51 = 2.41365134159266685502369798665e-1
A53 = -8.84549479328286085344864962717e-1
A54 = 9.24834003261792003115737966543e-1
A61 = 3.7037037037037037037037037037e-2
A64 = 1.70828608729473871279604482173e-1
A65 = 1.25467687566822425016691814123e-1
A71 = 3.7109375e-2
A74 = 1.70252211019544039314978060272e-1
A75 = 6.02165389804559606850219397283e-2
A76 = -1.7578125e-2
A81 = 3.70920001185047927108779319836e-2
A84 = 1.70383925712239993810214054705e-1
A85 = 1.07262030446373284651809199168e-1
A86 = -1.53194377486244017527936158236e-2
A87 = 8.27378916381402288758473766002e-3
A91 = 6.24110958716075717114429577812e-1
A94 = -3.36089262944694129406857109825
A95 = -8.68219346841726006818189891453e-1
A96 = 2.75920996994467083049415600797e1
A97 = 2.01540675504778934086186788979e1
A98 = -4.34898841810699588477366255144e1
A101 = 4.77662536438264365890433908527e-1
A104 = -2.48811461997166764192642586468
A105 = -5.90290826836842996371446475743e-1
A106 = 2.12300514481811942347288949897e1
A107 = 1.52792336328824235832596922938e1
A108 = -3.32882109689848629194453265587e1
A109 = -2.03312017085086261358222928593e-2
A111 = -9.3714243008598732571704021658e-1
A114 = 5.18637242884406370830023853209
A115 = 1.09143734899672957818500254654
A116 = -8.14978701074692612513997267357
A117 = -1.85200656599969598641566180701e1
A118 = 2.27394870993505042818970056734e1
A119 = 2.49360555267965238987089396762
A1110 = -3.0467644718982195003823669022
A121 = 2.27331014751653820792359768449
A124 = -1.05344954667372501984066689879e1
A125 = -2.00087205822486249909675718444
A126 = -1.79589318631187989172765950534e1
A127 = 2.79488845294199600508499808837e1
A128 = -2.85899827713502369474065508674
A129 = -8.87285693353062954433549289258
A1210 = 1.23605671757943030647266201528e1
A1211 = 6.43392746015763530355970484046e-1
B1 = 5.42937341165687622380535766363e-2
B6 = 4.45031289275240888144113950566
B7 = 1.89151789931450038304281599044
B8 = -5.8012039600105847814672114227
B9 = 3.1116436695781989440891606237e-1
B10 = -1.52160949662516078556178806805e-1
B11 = 2.01365400804030348374776537501e-1
B12 = 4.47106157277725905176885569043e-2
BHH1 = 0.244094488188976377952755905512
BHH2 = 0.733846688281611857341361741547
BHH3 = 0.220588235294117647058823529412e-01
ER1 = 0.1312004499419488073250102996e-01
ER6 = -0.1225156446376204440720569753e+01
ER7 = -0.4957589496572501915214079952
ER8 = 0.1664377182454986536961530415e+01
ER9 = -0.3503288487499736816886487290
ER10 = 0.3341791187130174790297318841
ER11 = 0.8192320648511571246570742613e-01
ER12 = -0.2235530786388629525884427845e-01

# Hairer's defaults: unit roundoff, safety factor, step ratio bounds
# 1/FACC1 <= h_new/h <= 1/FACC2, error exponent 1/8 (no PI control)
_UROUND = 2.3e-16
_SAFE = 0.9
_FACC1 = 1.0 / 0.3
_FACC2 = 1.0 / 6.0
# steps per shot before DOP853 gives up; the longest TF shot takes about 200
_MAX_STEPS = 100_000


class Shot(NamedTuple):
    """End of one :func:`shoot`: where it ended, the state there, and every
    accepted step (x, y) in the direction of the shot, (x0, y0) first."""

    x_end: float
    y_end: tuple
    steps: tuple


def _initial_step(rhs, x, ya, yb, fa, fb, posneg, hmax, rtol, atol):
    """Hairer's HINIT for order 8: an explicit Euler step estimates the second
    derivative, and h^8 max(|f|, |f'|) = 0.01 in the weighted norm."""
    ska = atol + rtol * abs(ya)
    skb = atol + rtol * abs(yb)
    dnf = (fa / ska) ** 2 + (fb / skb) ** 2
    dny = (ya / ska) ** 2 + (yb / skb) ** 2
    if dnf <= 1e-10 or dny <= 1e-10:
        h = 1e-6
    else:
        h = math.sqrt(dny / dnf) * 0.01
    h = min(h, hmax) * posneg
    ga, gb = rhs(x + h, (ya + h * fa, yb + h * fb))
    der2 = math.sqrt(((ga - fa) / ska) ** 2 + ((gb - fb) / skb) ** 2) / h
    der12 = max(abs(der2), math.sqrt(dnf))
    if der12 <= 1e-15:
        h1 = max(1e-6, abs(h) * 1e-3)
    else:
        h1 = (0.01 / der12) ** 0.125
    return min(100.0 * abs(h), h1, hmax) * posneg


def shoot(rhs, y0, x0, x1, tol=1e-10, stop=None):
    """One shot of the pair system (y, y')' = rhs(x, (y, y')) from x0 towards
    x1 with DOP853.

    The shot ends at x1, or after the first accepted step whose end
    (x, y) satisfies ``stop(x, y)`` (y a tuple of two floats; the start
    is tested too).  The returned :class:`Shot` lists every accepted step
    end, so values between them can be interpolated from the step ends
    (with the derivatives the ODE gives there) or re-integrated from the
    step start before them.

    Tolerances are ``rtol = tol``, ``atol = tol * 1e-2``.  The integrator is
    Hairer's DOP853 (its 12 stages, initial step and step control, with
    safety 0.9, step ratios in [1/6 ... 1/0.3]) in plain floats, spelled out
    per component of the pair.  A rejected step shrinks by 0.3, as in the C
    translation of DOP853 that scipy 1.17 ships, which this reproduces step
    for step.  Each shot is independent: ``rhs`` and ``stop`` may shoot
    themselves.  A state that is not a pair raises :class:`DomainError`;
    step-size underflow (blow-up) or more than 100,000 steps raises
    :class:`StepFailure`, reporting the abscissa reached.
    """
    if not x1 > x0 and not x1 < x0:
        raise DomainError("x0 and x1 must differ")
    if len(y0) != 2:
        raise DomainError(f"shoot integrates a pair state (y, y'), got {len(y0)} components")
    rtol, atol = tol, tol * 1e-2
    x, xend = float(x0), float(x1)
    ya, yb = float(y0[0]), float(y0[1])
    posneg = 1.0 if xend > x else -1.0
    hmax = abs(xend - x)
    k1a, k1b = rhs(x, (ya, yb))
    h = _initial_step(rhs, x, ya, yb, k1a, k1b, posneg, hmax, rtol, atol)
    steps = [(x, (ya, yb))]
    if stop is not None and stop(x, (ya, yb)):
        return Shot(x, (ya, yb), tuple(steps))
    reject = last = False
    for _ in range(_MAX_STEPS + 1):
        if 0.1 * abs(h) <= abs(x) * _UROUND:
            raise StepFailure(f"DOP853 step size underflow at x = {x!r}", last_x=x)
        if (x + 1.01 * h - xend) * posneg > 0.0:
            h = xend - x
            last = True
        # the twelve stages, each sum y + h*(a1*k1 + a4*k4 + ...) left to right
        k2a, k2b = rhs(x + C2 * h, (ya + h * A21 * k1a, yb + h * A21 * k1b))
        k3a, k3b = rhs(x + C3 * h, (ya + h * (A31 * k1a + A32 * k2a),
                                    yb + h * (A31 * k1b + A32 * k2b)))
        k4a, k4b = rhs(x + C4 * h, (ya + h * (A41 * k1a + A43 * k3a),
                                    yb + h * (A41 * k1b + A43 * k3b)))
        k5a, k5b = rhs(x + C5 * h, (ya + h * (A51 * k1a + A53 * k3a + A54 * k4a),
                                    yb + h * (A51 * k1b + A53 * k3b + A54 * k4b)))
        k6a, k6b = rhs(x + C6 * h, (ya + h * (A61 * k1a + A64 * k4a + A65 * k5a),
                                    yb + h * (A61 * k1b + A64 * k4b + A65 * k5b)))
        k7a, k7b = rhs(x + C7 * h, (
            ya + h * (A71 * k1a + A74 * k4a + A75 * k5a + A76 * k6a),
            yb + h * (A71 * k1b + A74 * k4b + A75 * k5b + A76 * k6b)))
        k8a, k8b = rhs(x + C8 * h, (
            ya + h * (A81 * k1a + A84 * k4a + A85 * k5a + A86 * k6a + A87 * k7a),
            yb + h * (A81 * k1b + A84 * k4b + A85 * k5b + A86 * k6b + A87 * k7b)))
        k9a, k9b = rhs(x + C9 * h, (
            ya + h * (A91 * k1a + A94 * k4a + A95 * k5a + A96 * k6a + A97 * k7a + A98 * k8a),
            yb + h * (A91 * k1b + A94 * k4b + A95 * k5b + A96 * k6b + A97 * k7b + A98 * k8b)))
        k10a, k10b = rhs(x + C10 * h, (
            ya + h * (A101 * k1a + A104 * k4a + A105 * k5a + A106 * k6a + A107 * k7a
                      + A108 * k8a + A109 * k9a),
            yb + h * (A101 * k1b + A104 * k4b + A105 * k5b + A106 * k6b + A107 * k7b
                      + A108 * k8b + A109 * k9b)))
        k11a, k11b = rhs(x + C11 * h, (
            ya + h * (A111 * k1a + A114 * k4a + A115 * k5a + A116 * k6a + A117 * k7a
                      + A118 * k8a + A119 * k9a + A1110 * k10a),
            yb + h * (A111 * k1b + A114 * k4b + A115 * k5b + A116 * k6b + A117 * k7b
                      + A118 * k8b + A119 * k9b + A1110 * k10b)))
        xph = x + h
        k12a, k12b = rhs(xph, (
            ya + h * (A121 * k1a + A124 * k4a + A125 * k5a + A126 * k6a + A127 * k7a
                      + A128 * k8a + A129 * k9a + A1210 * k10a + A1211 * k11a),
            yb + h * (A121 * k1b + A124 * k4b + A125 * k5b + A126 * k6b + A127 * k7b
                      + A128 * k8b + A129 * k9b + A1210 * k10b + A1211 * k11b)))
        sa = (B1 * k1a + B6 * k6a + B7 * k7a + B8 * k8a + B9 * k9a + B10 * k10a
              + B11 * k11a + B12 * k12a)
        sb = (B1 * k1b + B6 * k6b + B7 * k7b + B8 * k8b + B9 * k9b + B10 * k10b
              + B11 * k11b + B12 * k12b)
        na, nb = ya + h * sa, yb + h * sb
        # error: the fifth-order estimate, damped by the third-order one
        ska = atol + rtol * max(abs(ya), abs(na))
        skb = atol + rtol * max(abs(yb), abs(nb))
        ea = (sa - BHH1 * k1a - BHH2 * k9a - BHH3 * k12a) / ska
        eb = (sb - BHH1 * k1b - BHH2 * k9b - BHH3 * k12b) / skb
        err3 = ea * ea + eb * eb
        ea = (ER1 * k1a + ER6 * k6a + ER7 * k7a + ER8 * k8a + ER9 * k9a + ER10 * k10a
              + ER11 * k11a + ER12 * k12a) / ska
        eb = (ER1 * k1b + ER6 * k6b + ER7 * k7b + ER8 * k8b + ER9 * k9b + ER10 * k10b
              + ER11 * k11b + ER12 * k12b) / skb
        err = ea * ea + eb * eb
        deno = err + 0.01 * err3
        if deno <= 0.0:
            deno = 1.0
        err = abs(h) * err * math.sqrt(1.0 / (2 * deno))
        if err <= 1.0:
            hnew = h / max(_FACC2, min(_FACC1, err ** 0.125 / _SAFE))
            k1a, k1b = rhs(xph, (na, nb))
            x, ya, yb = xph, na, nb
            steps.append((x, (ya, yb)))
            if (stop is not None and stop(x, (ya, yb))) or last:
                return Shot(x, (ya, yb), tuple(steps))
            if abs(hnew) > hmax:
                hnew = posneg * hmax
            if reject:
                hnew = posneg * min(abs(hnew), abs(h))
            reject = False
        else:
            # scipy 1.17's rule; Hairer's Fortran divides by min(1/0.3, err^(1/8)/0.9)
            hnew = h / _FACC1
            reject = True
            last = False
        h = hnew
    raise StepFailure(f"DOP853 took more than {_MAX_STEPS} steps, at x = {x!r}", last_x=x)
