"""Phase-space integrals, coherent-state identities, and the chain that
connects the semiclassical sum to the Thomas-Fermi energy.

Sign convention: the negative part [f]_- means min(f, 0) throughout, so
phase-space sums of [T(p) - v]_- are returned as signed energies <= 0,
plain floats without an error estimate.
The momentum integral over the classically allowed region with the
non-relativistic dispersion p^2/2 has the closed form
-(16 sqrt(2) pi / 15) v^{5/2}; the relativistic one is elementary too.

The self-consistency constant: the end-of-chain identity

    -K int [V_TF]_+^{5/2} - (1/2) D(rho,rho) - mu N  =  E_TF,
    K = 2 sqrt(2) / (15 pi^2),

holds exactly iff K gamma^{3/2} = 2/5, i.e. gamma = (6 pi^2)^{2/3} / 2.
With the literal TF-functional gamma = (3 pi^2)^{2/3} the kinetic
coefficients disagree by the exact factor 2 sqrt(2)/3; both constants are
exposed rather than silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegral, DomainError, PreconditionFailure
from .kinetic import Dispersion, pfaff_integral
from .numerics import (
    QuadratureSpec,
    coulomb_pairing,
    gl_rule,
    grid_quadrature,
    integrate_1d,
    newton_potential,
    radial_fourier,
)
from .thomas_fermi import TFSolution, coulomb_potential, tf_energy

__all__ = [
    "PHASE_SPACE_COEFF",
    "CoherentSpec",
    "momentum_integral_nonrel",
    "momentum_integral_rel",
    "phase_space_energy",
    "domain_change_error",
    "tf_identity_chain",
    "kinetic_coefficient_ratio",
    "self_consistent_gamma",
    "coherent_resolution_check",
    "coherent_potential_check",
    "coherent_kinetic_error_bound",
    "newton_smearing_check",
    "smeared_coulomb",
]

# (1/(2 pi)^3) * 16 sqrt(2) pi / 15
PHASE_SPACE_COEFF = 2.0 * math.sqrt(2.0) / (15.0 * math.pi**2)

NONREL_52_COEFF = 16.0 * math.sqrt(2.0) * math.pi / 15.0


def self_consistent_gamma():
    """The gamma_kin for which the identity chain closes: (6 pi^2)^{2/3}/2."""
    return (6.0 * math.pi**2) ** (2.0 / 3.0) / 2.0


def kinetic_coefficient_ratio(gamma_kin):
    """K gamma^{5/2} / ((3/5) gamma) -- the factor by which the phase-space
    kinetic term overshoots the TF-functional one (2 sqrt(2)/3 at the
    paper's gamma)."""
    return PHASE_SPACE_COEFF * gamma_kin**1.5 / 0.6


def momentum_integral_nonrel(v):
    """int_{p^2/2 < v} (p^2/2 - v) d^3p = -(16 sqrt2 pi/15) v^{5/2}, v >= 0."""
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise DomainError("v must be >= 0")
    out = -NONREL_52_COEFF * v**2.5
    return float(out) if out.ndim == 0 else out


def _momentum_closed(x):
    # (2/5) X^5 2F1(1/2, 5/2; 7/2; -X^2) = 2 [(X^3/4 - 3X/8) sqrt(1+X^2) + (3/8) asinh X], X^2 = x
    return ((2.0 * x - 3.0) * np.sqrt(x * (1.0 + x)) + 3.0 * np.arcsinh(np.sqrt(x))) / 4.0


def momentum_integral_rel(disp: Dispersion, v):
    """int_{T(p) < v} (T(p) - v) d^3p, signed (<= 0), vectorized over v >= 0.

    By parts, 4 pi int_0^P (T(u) - v) u^2 du = -(4 pi/3) int_0^P T'(u) u^3 du
    with P = T^-1(v); in X = alpha P = sqrt(alpha v (alpha v + 2)) this is
    -(4 pi/15) alpha^-4 X^5 2F1(1/2, 5/2; 7/2; -X^2), where X^5 2F1 =
    5 [(X^3/4 - 3X/8) sqrt(1+X^2) + (3/8) asinh X] (:func:`pfaff_integral`,
    a = 1/2, at X^2).
    """
    v = np.asarray(v, dtype=float)
    if np.any(v < 0):
        raise DomainError("v must be >= 0")
    av = disp.alpha * v.ravel()
    X2 = av * (av + 2.0)
    out = -2.0 * math.pi / 3.0 * pfaff_integral(X2, 0.5, _momentum_closed) / disp.alpha**4
    return float(out[0]) if v.ndim == 0 else out.reshape(v.shape)


def phase_space_energy(sol: TFSolution, alpha: float | None = None, q_min: float = 0.0) -> float:
    """(1/(2 pi)^3) iint_{|q| > q_min} [T(p) - a V_TF(q)]_- d^3p d^3q, a
    signed energy (<= 0), with V_TF = (Z/q) phi(q/b) the solved atom's
    potential (mu inside it).

    ``alpha=None`` takes T = p^2/2 and a = 1: one moment of the universal
    profile, -PHASE_SPACE_COEFF 4 pi Z^{5/2} b^{1/2} int_{q_min/b}^inf
    phi^{5/2} t^{-1/2} dt, its series head and Sommerfeld tail included.
    Otherwise T = t_rel and a = alpha: the closed-form momentum integral on
    the profile's grid from q_min/b, and past it alpha times the
    non-relativistic tail, where alpha V_TF is tiny.  The relativistic sum
    collapses at the nucleus, so q_min = 0 is DivergentIntegral there, and
    a q_min below the grid DomainError.  A q_min at or beyond the last grid
    point is DomainError on either route.  No error estimate is computed.
    """
    prof, Z, b = sol.profile, sol.params.Z, sol.b
    lo = q_min / b
    if not 0.0 <= lo < prof.xi[-1]:
        raise DomainError("q_min must lie in [0, the last grid radius)")
    coeff = -PHASE_SPACE_COEFF * 4.0 * math.pi * Z**2.5 * math.sqrt(b)
    if alpha is None:
        return float(coeff * prof.moment(2.5, -0.5, lo))
    if lo == 0.0:
        raise DivergentIntegral("relativistic phase-space energy collapses at the nucleus; "
                                "use q_min > 0")
    if lo < prof.xi[0]:
        raise DomainError("q_min below the profile's grid")
    disp = Dispersion(alpha)
    grid = grid_quadrature(
        lambda t: momentum_integral_rel(disp, alpha * Z / (b * t) * prof.phi(t)) * t * t,
        np.concatenate([[lo], prof.xi[prof.xi > lo]]),
    )
    # the tail's next order, a factor 1 + (15/28) alpha^2 V_TF, moves it by
    # 2e-12 of itself at alpha = 0.05, Z = (2/pi)/alpha, where the tail is
    # 4e-17 of the total
    tail = alpha * coeff * prof.tail_moment(2.5, -0.5)
    return float(4.0 * math.pi / (2.0 * math.pi) ** 3 * b**3 * grid + tail)


def domain_change_error(sol: TFSolution, alpha: float, t_exponent: float) -> float:
    """Upper bound for the momentum-domain swap {T(p) < a V} -> {a p^2/2 < a V}:

    (4 pi)^2 delta^{1/3} alpha^{2/3} int_W^inf w^2 V1(w)
        (X^{3/2}/3)((1+Y)^{3/2}-1) dw

    with X = 2 delta^{4/3} alpha^{-4/3} V1, Y = (1/2) delta^{4/3} alpha^{2/3} V1,
    W = (1/4) delta^{1/3} alpha^{t-1/3}, V1 the Z=1 TF potential, and
    (1+Y)^{3/2}-1 replaced by its Taylor majorant (3/2)Y + (3/8)Y^2, which
    does not cancel as Y -> 0.  That is A I_{7/2}(W) + B I_{9/2}(W) with the
    Z-independent moments I_p(W) = int_W^inf w^2 V1^p dw and the monomials
    A = (4 pi)^2 2^{3/2} delta^{11/3} alpha^{-2/3} / 4 and
    B = (4 pi)^2 2^{3/2} delta^5 / 32, combined in logs.  In w = b1 t, b1
    the Z = 1 length scale, V1 = phi(t)/w and
    I_p(W) = b1^{3-p} int_{W/b1}^inf phi^p t^{2-p} dt: one moment of the
    universal profile, whose series head takes over once W falls below
    the grid and whose Sommerfeld tail closes it beyond.  A cutoff W beyond
    the grid raises DomainError.
    """
    delta = sol.params.Z * alpha
    prof = sol.profile
    b1 = sol.params.gamma_kin * (4.0 * math.pi) ** (-2.0 / 3.0)  # Z = 1 length scale
    W = 0.25 * delta ** (1.0 / 3.0) * alpha ** (t_exponent - 1.0 / 3.0)
    if W >= b1 * prof.xi[-1]:
        raise DomainError("cutoff W beyond the tabulated potential")
    log_moments = [(3.0 - p) * math.log(b1) + math.log(prof.moment(p, 2.0 - p, W / b1))
                   for p in (3.5, 4.5)]
    log_c = 2.0 * math.log(4.0 * math.pi) + 1.5 * math.log(2.0)
    log_delta, log_alpha = math.log(delta), math.log(alpha)
    log_A = log_c - math.log(4.0) + (11.0 / 3.0) * log_delta - (2.0 / 3.0) * log_alpha
    log_B = log_c - math.log(32.0) + 5.0 * log_delta
    return math.exp(log_A + log_moments[0]) + math.exp(log_B + log_moments[1])


def tf_identity_chain(sol: TFSolution) -> dict:
    """Both sides of the chain connecting the full-domain non-relativistic
    phase-space sum to the TF energy.

    Returns every term so the mu N bookkeeping stays visible:
    ``phase_space`` = (1/(2 pi)^3) iint [p^2/2 - V_TF]_- (signed),
    ``repulsion``  = (1/2) D(rho, rho),  ``mu_times_N`` = mu N,
    ``lhs`` = phase_space - repulsion - mu_times_N, ``rhs`` = tf_energy.

    On the grid, [V_TF]_+ comes from rho by :func:`coulomb_potential`, the
    route independent of the profile's own potential.  Below and beyond the
    grid V_TF = (Z/u) phi(u/b), so those ends are Z^{5/2} b^{1/2} times the
    profile's head and tail moments of phi^{5/2} t^{-1/2}.
    """
    Z = sol.params.Z
    rho = sol.rho
    pot = coulomb_potential(rho)
    grid = rho.grid

    def w_plus(u):
        return np.maximum(Z / u - pot(u) - sol.mu, 0.0)

    prof = sol.profile
    ends = prof.head_moment(2.5, -0.5) + prof.tail_moment(2.5, -0.5)
    ps = -PHASE_SPACE_COEFF * 4.0 * math.pi * (
        grid_quadrature(lambda u: w_plus(u) ** 2.5 * u * u, grid)
        + Z**2.5 * math.sqrt(sol.b) * ends
    )
    repulsion = sol.energy_terms["repulsion"]
    mu_n = sol.mu * sol.params.N
    lhs = ps - repulsion - mu_n
    rhs = tf_energy(sol)
    return {
        "phase_space": float(ps),
        "repulsion": float(repulsion),
        "mu_times_N": float(mu_n),
        "lhs": float(lhs),
        "rhs": float(rhs),
        "ratio": float(lhs / rhs),
    }


# ---------------------------------------------------------------------------
# coherent states


def _bump_unnormalized(r):
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = r < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@lru_cache(maxsize=1)
def _bump_norm_constant():
    # c with int (c g)^2 d^3x = 1 over the unit ball, on 48 GL-12 panels:
    # scipy's quad value to the last bit (40 and 64 panels are 1 ulp off);
    # CoherentSpec.check_normalization re-checks it by adaptive quadrature
    val = grid_quadrature(lambda r: _bump_unnormalized(r) ** 2 * r * r, np.linspace(0.0, 1.0, 49))
    return 1.0 / math.sqrt(4.0 * math.pi * val)


@lru_cache(maxsize=1)
def _bump_grad_sup():
    """sup |g'(r)| = sup c e^{-1/w} 2r/w^2, w = 1 - r^2.  Setting the log
    derivative 1/r - 2r/w^2 + 4r/w to zero gives 3w^2 - 6w + 2 = 0, whose
    root in (0, 1) is w = 1 - 1/sqrt(3), at r = 3^{-1/4}."""
    w = 1.0 - 1.0 / math.sqrt(3.0)
    return _bump_norm_constant() * math.exp(-1.0 / w) * 2.0 * 3.0**-0.25 / (w * w)


@dataclass(frozen=True)
class CoherentSpec:
    """Coherent-state profile: smooth radial bump on the unit ball with unit
    L2 norm, plus its measured gradient sup and support volume."""

    s_exponent: float
    g_profile: object
    grad_sup: float
    support_volume: float

    def __post_init__(self):
        if not (1.0 / 3.0 < self.s_exponent < 2.0 / 3.0):
            raise DomainError("s_exponent must lie in (1/3, 2/3)")

    @classmethod
    def reference(cls, s_exponent=0.55):
        c = _bump_norm_constant()

        def g(r):
            return c * _bump_unnormalized(r)

        return cls(
            s_exponent=s_exponent,
            g_profile=g,
            grad_sup=_bump_grad_sup(),
            support_volume=4.0 * math.pi / 3.0,
        )

    def g_scaled(self, alpha):
        """g_alpha(r) = alpha^{-3s/2} g(r / alpha^s): unit L2, support alpha^s."""
        a_s = alpha**self.s_exponent
        g = self.g_profile

        def g_a(r):
            return a_s ** (-1.5) * g(np.asarray(r, dtype=float) / a_s)

        return g_a, a_s

    def check_normalization(self):
        val, _ = integrate_1d(
            lambda r: float(self.g_profile(np.array([r]))[0]) ** 2 * r * r,
            0.0,
            1.0,
            QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15),
        )
        total = 4.0 * math.pi * val
        if abs(total - 1.0) > 1e-10:
            raise PreconditionFailure(
                f"coherent profile not normalised: int g^2 = {total!r}"
            )
        return total


def _inverse_fourier(fhat, p_knots, r):
    """f(r) from its radial 3-D transform: (2 pi)^-3 times the forward one."""
    return radial_fourier(fhat, p_knots, r) / (2.0 * math.pi) ** 3


def _state_density(f, width):
    """f^2 of the scalar ``f`` on the length scale ``width``, vectorized,
    with 129 equally spaced knots on [0, 12 width]."""
    return (lambda r: np.array([f(x) for x in r]) ** 2), np.linspace(0.0, 12.0 * width, 129)


def _smearing_density(cs: CoherentSpec, alpha: float):
    """g_alpha^2, vectorized, with 65 equally spaced knots on its support
    [0, alpha^s]."""
    g_a, a_s = cs.g_scaled(alpha)
    return (lambda r: np.asarray(g_a(r), dtype=float) ** 2), np.linspace(0.0, a_s, 65)


def coherent_resolution_check(f, cs: CoherentSpec, alpha: float, width: float) -> dict:
    """Resolution of identity, int dq (f^2 * g_alpha^2)(q) = ||f||^2 for unit
    ||g_alpha||.  ``identity_lhs`` is ||f||^2 by adaptive quadrature;
    ``identity_rhs`` is 4 pi int q^2 (f^2 * g_alpha^2)(q) dq on a GL q-rule,
    with the convolution at its nodes the inverse transform of the product
    of the forward transforms of f^2 and g_alpha^2.

    ``f`` is scalar and lives on the length scale ``width`` like the Gaussian
    e^{-r^2/(2 width^2)}: f^2 is negligible beyond 12 width, and its
    transform, for that Gaussian e^{-p^2 width^2/4}, falls to 2e-16 at
    p = 12/width, where the p-rule ends."""
    spec = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15)
    cs.check_normalization()
    lhs, _ = integrate_1d(lambda r: f(r) ** 2 * r * r, 0.0, math.inf, spec)
    f2, f_knots = _state_density(f, width)
    g2, g_knots = _smearing_density(cs, alpha)

    def conv_hat(p):
        return radial_fourier(f2, f_knots, p) * radial_fourier(g2, g_knots, p)

    # p-segments of width 6/q_max put about 12 nodes on each period of
    # sin(p q) for every q <= q_max, and the q-rule mirrors them
    q_max = f_knots[-1] + g_knots[-1]
    p_max = 12.0 / width
    segments = math.ceil(p_max * q_max / 6.0)
    p_knots = np.linspace(0.0, p_max, segments + 1)
    rhs = radial_fourier(
        lambda q: _inverse_fourier(conv_hat, p_knots, q),
        np.linspace(0.0, q_max, segments + 1),
        0.0,
    )
    return {"identity_lhs": 4.0 * math.pi * lhs, "identity_rhs": rhs}


def smeared_coulomb(cs: CoherentSpec, alpha: float):
    """(1/|.| * g_alpha^2) as a vectorized callable: the Newton shell split
    of g_alpha^2 on its support [0, alpha^s]."""
    pot = newton_potential(*_smearing_density(cs, alpha))
    return lambda r: 4.0 * math.pi * pot(r)


def coherent_potential_check(f, cs: CoherentSpec, alpha: float, width: float) -> dict:
    """(f, (1/|q| * g_alpha^2) f) by two independent routes.

    ``route_newton`` weights :func:`smeared_coulomb` with f^2 at the nodes
    of one radial rule on [0, max(12, 3 alpha^s)].  ``route_momentum``
    never uses Newton's theorem: it is the Parseval pairing
    (2/pi) int_0^inf fhat2 ghat2 dp of f^2 and g_alpha^2
    (:func:`numerics.coulomb_pairing`), both on the knots of
    :func:`coherent_resolution_check`, whose length scale ``width`` it
    shares, and p on 48 GL-12 segments of [0, 12/width], where the
    transform of f^2 has fallen to 2e-16."""
    _, a_s = cs.g_scaled(alpha)
    top = max(12.0, 3.0 * a_s)
    r, w = gl_rule(np.concatenate([[0.0], np.geomspace(min(1e-4, 0.01 * a_s), top, 65)]))
    weight = 4.0 * math.pi * np.array([f(x) for x in r]) ** 2 * r * r * w
    f2, f_knots = _state_density(f, width)
    g2, g_knots = _smearing_density(cs, alpha)
    return {
        "route_newton": float(np.sum(weight * smeared_coulomb(cs, alpha)(r))),
        "route_momentum": coulomb_pairing(f2, f_knots, np.linspace(0.0, 12.0 / width, 49),
                                          g2, g_knots),
    }


def coherent_kinetic_error_bound(cs: CoherentSpec, alpha: float) -> float:
    """3 alpha ||grad g_alpha||_inf^2 Vol(supp g_alpha) per unit ||f||^2
    = 3 Vol(supp g) ||grad g||_inf^2 alpha^{1-2s}, which is
    4 pi ||grad g||_inf^2 alpha^{1-2s} for the unit-ball bump."""
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return 3.0 * cs.support_volume * cs.grad_sup**2 * alpha ** (1.0 - 2.0 * cs.s_exponent)


def newton_smearing_check(alpha, cs: CoherentSpec, radius) -> float:
    """|1/R - (g_alpha^2 * 1/|.|)(R)| by radial quadrature, with g_alpha
    supported on the ball of radius alpha^s, s = ``cs.s_exponent``; vanishes
    (to quadrature accuracy) for R outside that support."""
    if radius <= 0:
        raise DomainError("radius must be positive")
    conv = smeared_coulomb(cs, alpha)
    return abs(1.0 / radius - conv(radius))
