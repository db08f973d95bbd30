"""The modified Bessel function K2 and the relativistic heat kernel.

K2 is evaluated from scratch through three representations (no library
Bessel routines on the evaluation path):

* ``defining_integral`` -- K2(t) = int_0^inf cosh(2s) exp(-t cosh s) ds, the
  representation (1/2) int_0^inf x exp(-t(x+1/x)/2) dx after x = e^s. The
  integrand is entire, even in s and decays double-exponentially, so the
  trapezoid rule converges geometrically in its node count; step and
  truncation are derived in ``_k2_defining``. This is the route of ``k2``
  for every t >= SERIES_CUTOFF.
* ``gamma_rewrite`` -- K2(t) = sqrt(pi/2t) e^-t / Gamma(5/2)
  int_0^inf e^-xi xi^{3/2} (1 + xi/2t)^{3/2} dxi, by adaptive quadrature;
  the independent oracle of the defining integral in ``checks`` and tests.
* ``series_small_t`` -- the ascending series around t = 0 (leading
  behaviour 2/t^2); used below t = 0.05 and validated against the
  defining integral on [0.05, 0.2].

Nothing is cached.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import reduce

from .errors import DomainError
from .numerics import QuadratureSpec, integrate_1d

__all__ = [
    "K2Method",
    "k2",
    "k2_upper_envelope",
    "k2_second_moment",
    "localisation_kernel",
    "heat_kernel",
]

_K2_SPEC = QuadratureSpec(rel_tol=1e-12, abs_tol=0.0, max_subdivisions=400)
_GAMMA_52 = 0.75 * math.sqrt(math.pi)  # Gamma(5/2), equal to scipy's gamma(2.5)

SERIES_CUTOFF = 0.05


class K2Method(Enum):
    DEFINING_INTEGRAL = "defining_integral"
    GAMMA_REWRITE = "gamma_rewrite"
    SERIES_SMALL_T = "series_small_t"


# Trapezoid rule for the defining integral, step h, w = 2 pi/h. Its relative
# discretisation error is about exp(-(g(w) - t)): the aliased Fourier modes
# are K_{2 +- iw}(t), with g(w) = sqrt(t^2-w^2) + w arcsin(w/t) for w <= t and
# g(w) = pi w/2 beyond. g - t >= w^2/2t below w = t, so w = sqrt(2Dt) + 2D/pi
# gives g - t >= D on both branches. At small t the mode carries a further
# |Gamma(2 + iw)| ~ sqrt(2 pi) w^{3/2}, about 300; D = 40 keeps the total near
# 1e-15. The sum stops where t(cosh s - 1) = L; the neglected tail is at most
# about L^2 e^-L = 6e-17 of the integral for L = 45 and every t below the
# underflow of e^-t near 745. That is 14-32 nodes on [0.05, 690], within
# 7e-16 of mpmath's K2 there.
_TRAP_DECAY = 40.0
_TRAP_CUT = 45.0


def _k2_defining(t):
    # factoring e^-t keeps the integrand O(1)-scaled at every t
    # (cosh s - 1 = 2 sinh^2(s/2))
    h = 2.0 * math.pi / (math.sqrt(2.0 * _TRAP_DECAY * t) + 2.0 * _TRAP_DECAY / math.pi)
    n = int(math.acosh(1.0 + _TRAP_CUT / t) / h)
    total = 0.5  # half the s = 0 node of the even integrand
    for k in range(1, n + 1):
        s = k * h
        total += math.cosh(2.0 * s) * math.exp(-2.0 * t * math.sinh(0.5 * s) ** 2)
    return math.exp(-t) * h * total


def _k2_gamma_rewrite(t):
    def f(xi):
        return math.exp(-xi) * xi**1.5 * (1.0 + xi / (2.0 * t)) ** 1.5

    value, _ = integrate_1d(f, 0.0, math.inf, _K2_SPEC)
    return math.sqrt(math.pi / (2.0 * t)) * math.exp(-t) / _GAMMA_52 * value


_EULER = 0.5772156649015329
# Bernoulli terms of psi(n) ~ log n - 1/2n - z A(z), z = 1/n^2, highest power first
_PSI_ASYMPTOTIC = (8.33333333333333333333e-2, -2.10927960927960927961e-2,
                   7.57575757575757575758e-3, -4.16666666666666666667e-3,
                   3.96825396825396825397e-3, -8.33333333333333333333e-3,
                   8.33333333333333333333e-2)


def _psi(n):
    """Digamma at the positive integer n as Cephes' psi computes it: the
    harmonic sum minus Euler's constant up to n = 10, the asymptotic series
    above (its polynomial by Horner's rule)."""
    if n <= 10:
        return reduce(lambda y, i: y + 1.0 / i, range(1, n), 0.0) - _EULER
    z = 1.0 / (n * n)
    return math.log(n) - 0.5 / n - z * reduce(lambda p, c: p * z + c, _PSI_ASYMPTOTIC)


def _k2_series(t):
    # Ascending series for order 2:
    #   K2(z) = 2/z^2 - 1/2 - log(z/2) I2(z)
    #           + (1/2)(z/2)^2 sum_k [psi(k+1)+psi(k+3)] (z^2/4)^k / (k! (k+2)!)
    z2q = 0.25 * t * t
    log_half = math.log(0.5 * t)
    i2 = 0.0
    corr = 0.0
    term_i2 = z2q / 2.0  # k = 0 term of I2: (z/2)^2 / (0! 2!)
    fact_k = 1.0
    fact_k2 = 2.0
    powk = 1.0
    for k in range(0, 60):
        if k > 0:
            fact_k *= k
            fact_k2 *= k + 2
            powk *= z2q
            term_i2 = z2q * powk / (fact_k * fact_k2)
        i2 += term_i2
        corr += (_psi(k + 1) + _psi(k + 3)) * powk / (fact_k * fact_k2)
        if term_i2 < 1e-18 * max(i2, 1e-300):
            break
    return 2.0 / (t * t) - 0.5 - log_half * i2 + 0.5 * z2q * corr


def k2(t, method: K2Method | None = None):
    """K2(t) for t > 0; strictly positive and strictly decreasing, 0.0 at
    t = inf. Defaults to the series below SERIES_CUTOFF and to the defining
    integral (no adaptive quadrature) above."""
    t = float(t)
    if not t > 0:
        raise DomainError(f"k2 requires t > 0, got {t!r}")
    if t == math.inf:
        return 0.0
    if method is None:
        method = K2Method.SERIES_SMALL_T if t < SERIES_CUTOFF else K2Method.DEFINING_INTEGRAL
    if method is K2Method.DEFINING_INTEGRAL:
        return _k2_defining(t)
    if method is K2Method.GAMMA_REWRITE:
        return _k2_gamma_rewrite(t)
    if method is K2Method.SERIES_SMALL_T:
        return _k2_series(t)
    raise DomainError(f"unknown K2 method {method!r}")


def k2_upper_envelope(t):
    """4 sqrt(pi/2t) e^-t (1 + 1/2t + 1/(2t)^2); dominates k2 pointwise."""
    t = float(t)
    if t <= 0:
        raise DomainError("k2_upper_envelope requires t > 0")
    u = 0.5 / t
    return 4.0 * math.sqrt(math.pi / (2.0 * t)) * math.exp(-t) * (1.0 + u + u * u)


def k2_second_moment():
    """(value, error) of int_0^inf t^2 K2(t) dt; equals 3 pi / 2."""
    return integrate_1d(lambda t: t * t * k2(t), 0.0, math.inf,
                        QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))


def localisation_kernel(x_dist, alpha):
    """Scalar factor alpha^-2 K2(d/alpha) / (4 pi^2 d^2) of the localisation
    error kernel at separation d; the (chi_j(x)-chi_j(y))^2 factor is the
    caller's."""
    d = float(x_dist)
    a = float(alpha)
    if d <= 0 or a <= 0:
        raise DomainError("localisation_kernel requires positive separation and alpha")
    return k2(d / a) / (4.0 * math.pi**2 * a * a * d * d)


def heat_kernel(t, d, alpha):
    """Kernel of exp(-t sqrt(p^2 + alpha^-2)) at separation d:
    (t alpha^-2 / 2 pi^2) K2(sqrt(d^2+t^2)/alpha) / (d^2+t^2)."""
    t = float(t)
    d = float(d)
    a = float(alpha)
    if t <= 0 or a <= 0 or d < 0:
        raise DomainError("heat_kernel requires t > 0, alpha > 0, d >= 0")
    s2 = d * d + t * t
    return t / (a * a * 2.0 * math.pi**2) * k2(math.sqrt(s2) / a) / s2


def heat_kernel_normalization(t, alpha):
    """int heat_kernel(t, |x|, alpha) d^3x, to be compared with e^{-t/alpha}."""
    value, _ = integrate_1d(lambda u: heat_kernel(t, u, alpha) * u * u, 0.0, math.inf,
                            QuadratureSpec(rel_tol=1e-11, abs_tol=1e-13))
    return 4.0 * math.pi * value
