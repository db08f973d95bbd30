"""Rigorous inequality machinery: partition of unity, localisation-error
estimates, the Lieb-Yau inner-zone bound, the Daubechies eigenvalue-sum
bound with its intermediary-zone closed form, mean-field constants, and
the assembled error budget.

Every "C" that the source estimates leave implicit is assembled here from
the constructed partition's gradient sups (analytic ramp slopes at their
argmax) and the explicit numeric factors (4.4827, 0.163, 3/2, 128 pi^2,
...); no constant is ever invented as a bare number.

The budget convention: term values are magnitudes of energy corrections
in the scaled (H = alpha H_rel) units, each tagged with its alpha-scaling
exponent; the o(alpha^{-4/3}) requirement is "exponent > -4/3" for every
term.  N is always lambda delta / alpha.  Every term but the decay lemma
and the domain change is a ``PowerSum`` in alpha, whose leading exponent
is the tag; terms are held as logs, so they stay finite down to
alpha = 1e-300 even where their linear value leaves float range.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetViolation, DomainError
from .kinetic import Dispersion, daubechies_F, daubechies_F_upper
from .numerics import (
    QuadratureSpec,
    RadialFunction,
    coulomb_pairing,
    gl_rule,
    grid_quadrature,
    integrate_1d,
    newton_potential,
)
from .semiclassics import CoherentSpec, coherent_kinetic_error_bound, domain_change_error
from .specfun import localisation_kernel
from .thomas_fermi import TFParams, TFSolution

__all__ = [
    "LIEB_YAU_CONSTANT",
    "DAUBECHIES_CONSTANT",
    "PowerSum",
    "PartitionParams",
    "Partition",
    "mean_field_constant",
    "mean_field_constant_routes",
    "mean_field_error",
    "inner_zone_bound",
    "daubechies_eigenvalue_sum_bound",
    "intermediary_zone_closed_form",
    "lemma_decay_envelope",
    "kernel_offdiag_numeric",
    "quartic_correction_bound",
    "ErrorBudget",
    "BudgetTerm",
    "check_budget_inputs",
    "assemble_error_budget",
]

LIEB_YAU_CONSTANT = 4.4827
DAUBECHIES_CONSTANT = 0.163
EXPONENT_LIMIT = -4.0 / 3.0
_LOG_FLOAT_MAX = math.log(sys.float_info.max)

REGION_INNER = "inner"
REGION_OUTER = "outer"


@dataclass(frozen=True)
class PowerSum:
    """sum_i c_i alpha^{e_i}, each c_i held as its sign and log|c_i|, so the
    log of the sum can be read at any log alpha without overflow or
    underflow."""

    monomials: tuple        # (sign, log|c|, exponent) triples

    @classmethod
    def of(cls, *pairs):
        """From (coefficient, exponent) pairs; a zero coefficient keeps its
        exponent."""
        return cls(tuple(
            (math.copysign(1.0, c), math.log(abs(c)) if c else -math.inf, e) for c, e in pairs
        ))

    @property
    def exponent(self):
        """The leading exponent as alpha -> 0."""
        return min(e for _, _, e in self.monomials)

    def _log_and_sign(self, log_alpha):
        logs = [lc + e * log_alpha for _, lc, e in self.monomials]
        top = max(logs)
        rest = 0.0 if top == -math.inf else math.fsum(
            s * math.exp(x - top) for (s, _, _), x in zip(self.monomials, logs)
        )
        return (top + math.log(abs(rest)) if rest else -math.inf), math.copysign(1.0, rest)

    def log_value(self, log_alpha):
        """log |sum| at log alpha; -inf for an exactly zero sum."""
        return self._log_and_sign(log_alpha)[0]

    def value(self, alpha):
        """The signed sum at alpha."""
        log_value, sign = self._log_and_sign(math.log(alpha))
        return sign * _exp(log_value, "power sum")


def _exp(log_value, what):
    """exp(log_value), or DomainError naming ``what`` beyond float range."""
    if log_value > _LOG_FLOAT_MAX:
        raise DomainError(f"{what} = exp({log_value:.6g}) leaves float range")
    return math.exp(log_value)


@dataclass(frozen=True)
class PartitionParams:
    """Localisation exponents (r, t, s, beta) at coupling alpha.

    The constructor checks only the orderings every zone needs
    (0 < t < r < 1, t < s).  The other range checks are deliberately
    deferred to the operations that need them (``validate``,
    ``Partition``, ``check_budget_inputs``): out-of-range exponents
    must flow through budget assembly so they surface as BudgetViolation,
    not as a constructor error.
    """

    r: float
    t: float
    s: float
    beta: float
    alpha: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError("alpha must be positive")
        if not 0.0 < self.beta < 0.5:
            raise DomainError("beta must lie in (0, 1/2)")
        if not (0.0 < self.t < self.r < 1.0):
            raise DomainError("need 0 < t < r < 1")
        if not self.t < self.s:
            raise DomainError(f"need t < s, got t = {self.t}, s = {self.s}")

    def validate(self):
        """Full exponent ordering r > 8/9 > 2/3 > s > t > 1/3 plus the
        alpha-smallness support condition."""
        if not self.r > 8.0 / 9.0:
            raise DomainError(f"r = {self.r} must exceed 8/9")
        if not (1.0 / 3.0 < self.t < self.s < 2.0 / 3.0):
            raise DomainError("need 1/3 < t < s < 2/3")
        self.check_support_ordering()

    def check_support_ordering(self):
        if (1.0 + self.beta) * self.inner_scale >= (1.0 - self.beta) * self.outer_scale:
            raise DomainError(
                "alpha too large: the chi_1 plateau would overlap the chi_3 ramp "
                f"((1+beta) alpha^r = {(1+self.beta)*self.inner_scale:.3e} !< "
                f"(1-beta) alpha^t = {(1-self.beta)*self.outer_scale:.3e})"
            )

    @property
    def inner_scale(self):
        return self.alpha**self.r

    @property
    def outer_scale(self):
        return self.alpha**self.t


def _smooth_step(u):
    """C-infinity monotone ramp: 0 for u <= 0, 1 for u >= 1."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    out[u >= 1.0] = 1.0
    mid = (u > 0.0) & (u < 1.0)
    if np.any(mid):
        um = u[mid]
        a = np.exp(-1.0 / um)
        b = np.exp(-1.0 / (1.0 - um))
        out[mid] = a / (a + b)
    return out


def _ramp_slope(beta, rising, u):
    """|d theta / d xi| at u for one ramp, where xi = 1 - beta + 2 beta u and
    theta = sin (rising) or cos (falling) of pi S(u)/2.  With
    S'(u) = S (1 - S) (1/u^2 + 1/(1-u)^2) it is
    (pi/2) |cos or sin(pi S/2)| S'(u) / (2 beta); 0 off (0, 1)."""
    if not 0.0 < u < 1.0:
        return 0.0
    S = float(_smooth_step(u))
    dS = S * (1.0 - S) * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2)
    return 0.25 * math.pi / beta * (math.cos if rising else math.sin)(0.5 * math.pi * S) * dS


# ``_ramp_slope`` is pi/(4 beta) times a unimodal function of u alone; a
# rising ramp peaks at the root u* of d/du [cos(pi S/2) S'(u)] (to 50 digits
# 0.38691095718772377592...), a falling one at 1 - u* since S(1-u) = 1 - S(u)
_RAMP_ARGMAX = 0.3869109571877238


@dataclass(frozen=True)
class Partition:
    """Radial partition of unity chi_1^2 + chi_2^2 + chi_3^2 = 1.

    theta_1^2 + theta_2^2 = 1 holds identically, so the three chi's
    square-sum to one wherever the two ramps stay disjoint; the constructor
    refuses params where they overlap (DomainError)."""

    params: PartitionParams

    def __post_init__(self):
        self.params.check_support_ordering()

    def _sigma(self, xi):
        beta = self.params.beta
        return _smooth_step((np.asarray(xi, dtype=float) - (1.0 - beta)) / (2.0 * beta))

    def _theta1(self, xi):
        return np.cos(0.5 * math.pi * self._sigma(xi))

    def _theta2(self, xi):
        return np.sin(0.5 * math.pi * self._sigma(xi))

    def chi1(self, radius):
        return self._theta1(np.asarray(radius, dtype=float) / self.params.inner_scale)

    def chi2(self, radius):
        radius = np.asarray(radius, dtype=float)
        return self._theta1(radius / self.params.outer_scale) * self._theta2(
            radius / self.params.inner_scale
        )

    def chi3(self, radius):
        return self._theta2(np.asarray(radius, dtype=float) / self.params.outer_scale)

    def sum_of_squares(self, radius):
        return self.chi1(radius) ** 2 + self.chi2(radius) ** 2 + self.chi3(radius) ** 2

    def ramp_sups(self, region, j):
        """(e, sup) for each ramp of chi_j that the region reaches: there
        |d chi_j / d radius| <= sup / alpha^e.

        On its alpha^e ramp chi_j is theta(radius/alpha^e), the other factor
        of chi_2 being 1 there because the ramps are disjoint.  So sup is the
        scale-free ``_ramp_slope`` at its argmax clipped to the part of the
        ramp that the region's split 2 alpha^r leaves: the slope is unimodal."""
        pp = self.params
        if region not in (REGION_INNER, REGION_OUTER) or j not in (1, 2, 3):
            raise DomainError(f"unknown region {region!r} or index j = {j!r}")
        ramps = {1: ((pp.r, False),), 2: ((pp.r, True), (pp.t, False)), 3: ((pp.t, True),)}[j]
        sups = []
        for e, rising in ramps:
            u_split = (2.0 * pp.alpha ** (pp.r - e) - (1.0 - pp.beta)) / (2.0 * pp.beta)
            if region == REGION_INNER:
                u_lo, u_hi = 0.0, min(1.0, u_split)
            else:
                u_lo, u_hi = max(0.0, u_split), 1.0
            if u_lo < u_hi:
                peak = _RAMP_ARGMAX if rising else 1.0 - _RAMP_ARGMAX
                sups.append((e, _ramp_slope(pp.beta, rising, min(max(peak, u_lo), u_hi))))
        return sups


# ---------------------------------------------------------------------------
# mean-field constants (one-body reduction)


def _density(cs: CoherentSpec):
    def phi(r):
        return np.asarray(cs.g_profile(r), dtype=float) ** 2

    return phi


def mean_field_constant(cs: CoherentSpec) -> float:
    """c(phi) = (1/2) iint phi(x) phi(y)/|x-y| for phi = g^2 on the unit ball,
    by the radial Newton route (1/2) int phi (phi * 1/|.|)."""
    phi = _density(cs)
    knots = np.linspace(0.0, 1.0, 16)
    u, w = gl_rule(knots)
    pot = newton_potential(phi, knots)[1]
    return float(0.5 * (4.0 * math.pi) ** 2 * np.sum(w * (phi(u) * u * u * pot)))


def mean_field_constant_routes(cs: CoherentSpec):
    """c(phi) by the Newton route and by the momentum route, half the
    Parseval self-pairing (1/pi) int |phihat|^2 dp, the oracle of the checks."""
    # the bump transform decays super-algebraically, and p = 400 is far past
    # the level where |phihat|^2 falls below 1e-30
    mom = 0.5 * coulomb_pairing(_density(cs), np.linspace(0.0, 1.0, 65),
                                np.linspace(0.0, 400.0, 401))
    return mean_field_constant(cs), mom


def mean_field_error(lam, delta, s_exponent, c_phi) -> PowerSum:
    """lambda delta c(phi) alpha^{-s}: the one-body smearing price."""
    return PowerSum.of((lam * delta * c_phi, -s_exponent))


# ---------------------------------------------------------------------------
# inner zone (Lieb-Yau ball bound)


@dataclass(frozen=True)
class InnerZoneBound:
    bound: PowerSum
    alpha_threshold: float      # largest alpha at which dropping C alpha^{1-2r} is valid


def inner_zone_bound(pp: PartitionParams, q_spin: int):
    """Lower bound near the nucleus: the Lieb-Yau ball bound
    -4.4827 C0^4 R^-1 q over the whole ball, with R = (1+beta) alpha^r and
    C0 = 2(1+beta) alpha^{r-1}, is -4.4827 * 16 (1+beta)^3 q alpha^{3r-4}.

    The bound drops a C alpha^{1-2r} localisation term against alpha^{-1},
    valid only for alpha below the reported threshold C^{-1/(2-2r)};
    C = (3/2)(c_1 + c_2) with c_j = alpha^{2r} sup|grad chi_j|^2 over the
    inner region, taken from the scale-free ramp sups, so it is the same at
    every alpha where the inner region meets only the alpha^r ramp.
    """
    if q_spin < 1:
        raise DomainError(f"q_spin must be >= 1, got {q_spin!r}")
    part = Partition(pp)
    C = 1.5 * sum(
        max((sup * pp.alpha ** (pp.r - e) for e, sup in part.ramp_sups(REGION_INNER, j)),
            default=0.0) ** 2
        for j in (1, 2)
    )
    threshold = C ** (-1.0 / (2.0 - 2.0 * pp.r)) if C > 0 else math.inf
    coeff = -LIEB_YAU_CONSTANT * 16.0 * (1.0 + pp.beta) ** 3 * q_spin
    return InnerZoneBound(PowerSum.of((coeff, 3.0 * pp.r - 4.0)), threshold)


# ---------------------------------------------------------------------------
# intermediary zone (Daubechies bound)


def daubechies_eigenvalue_sum_bound(
    disp: Dispersion,
    V: RadialFunction,
    q_spin: int,
    f_form: str = "exact",
    *,
    support: tuple,
) -> float:
    """-q 0.163 int_{lo < |x| < hi} F(|V(x)|) d^3x over the shell
    ``support=(lo, hi)``, by radial Gauss-Legendre quadrature on V's knots.

    ``f_form="exact"`` composes the exact F (a closed form);
    ``"taylor_upper"`` uses the closed-form majorant instead, which is the
    route the intermediary-zone computation takes.  The shell carries the
    cutoffs (like the chi_2 zone's inner one for its Coulomb potential)
    that the RadialFunction extrapolation cannot encode.
    """
    if f_form == "exact":
        F = daubechies_F
    elif f_form == "taylor_upper":
        F = daubechies_F_upper
    else:
        raise DomainError(f"unknown f_form {f_form!r}")
    lo, hi = support
    if not lo < hi:
        raise DomainError(f"support must have lo < hi, got {support!r}")
    knots = np.concatenate([[lo], V.grid[(V.grid > lo) & (V.grid < hi)], [hi]])
    value = grid_quadrature(lambda u: F(disp, np.abs(V(u))) * u * u, knots)
    return -q_spin * DAUBECHIES_CONSTANT * 4.0 * math.pi * value


def intermediary_zone_closed_form(pp: PartitionParams, delta: float) -> PowerSum:
    """Closed form of -2 * 0.163 int_{alpha^r < |x| < alpha^t} F_upper(2 delta/|x|) d^3x:

    -C [ (4/5)(a^{(t-3)/2} - a^{(r-3)/2}) + (6 delta/7)(a^{-(r+1)/2} - a^{-(t+1)/2})
         + (4 delta^2/72)(a^{(1-3r)/2} - a^{(1-3t)/2}) ],
    C = 2 * 0.163 * 4 pi * 16 delta^{5/2}: six signed monomials.
    """
    r, t = pp.r, pp.t
    pre = 2.0 * DAUBECHIES_CONSTANT * 4.0 * math.pi * 16.0 * delta**2.5
    c1, c2, c3 = pre * 0.8, pre * 6.0 * delta / 7.0, pre * 4.0 * delta**2 / 72.0
    return PowerSum.of(
        (-c1, (t - 3.0) / 2.0),
        (c1, (r - 3.0) / 2.0),
        (-c2, -(r + 1.0) / 2.0),
        (c2, -(t + 1.0) / 2.0),
        (-c3, (1.0 - 3.0 * r) / 2.0),
        (c3, (1.0 - 3.0 * t) / 2.0),
    )


# ---------------------------------------------------------------------------
# localisation error (exponentially small and gradient-controlled pieces)


def _chi_minus_norm(pp: PartitionParams):
    # ||chi_-||_2 over the ball of radius 2 alpha^r
    return math.sqrt(4.0 * math.pi / 3.0) * (2.0 * pp.inner_scale) ** 1.5


def lemma_decay_envelope(pp: PartitionParams, gamma_sep: float, log: bool = False):
    """Envelope for the cross terms chi_+ L_j chi_-:

    C alpha^{(3r-5)/2} e^{-2 gamma alpha^{r-1}}
      { (1/2)(4g)^-2 a^{2(1-r)} + (2/3)(4g)^-3 a^{3(1-r)} + (3/4)(4g)^-4 a^{4(1-r)}
        + (2/5)(4g)^-5 a^{5(1-r)} + (1/6)(4g)^-6 a^{6(1-r)} }^{1/2},

    with C = ||chi_-||_2 (gamma)^-2 / (4 pi^2) * sqrt(128 pi^2 gamma) and the
    alpha^{3r/2} of ||chi_-||_2 folded into the printed exponent.  The
    braces come from dominating e^{-t} by its value at the lower limit
    T = 4 gamma alpha^{r-1} in int_T^inf t^-3 e^-t (1 + 1/t + 1/t^2)^2 dt.
    All five terms of (1 + 1/t + 1/t^2)^2 = 1 + 2/t + 3/t^2 + 2/t^3 + t^-4
    are kept, each integrated exactly to c_j T^{-2-j}/(2+j) (whence 1/2,
    2/3, 3/4, 2/5, 1/6), because the braces must dominate the
    Cauchy-Schwarz route: dropping any term leaves a value below it, by
    most where T is small and the t^-4 term leads.
    ``log=True`` returns log(value), usable deep in the asymptotic regime
    where the linear form underflows.
    """
    if not 0.0 < gamma_sep < 1.0:
        raise DomainError("gamma_sep must lie in (0, 1)")
    a = pp.alpha
    r = pp.r
    g4 = 4.0 * gamma_sep
    braces = (
        0.5 * g4**-2 * a ** (2.0 * (1.0 - r))
        + (2.0 / 3.0) * g4**-3 * a ** (3.0 * (1.0 - r))
        + 0.75 * g4**-4 * a ** (4.0 * (1.0 - r))
        + 0.4 * g4**-5 * a ** (5.0 * (1.0 - r))
        + (1.0 / 6.0) * g4**-6 * a ** (6.0 * (1.0 - r))
    )
    # ||chi_-||_2 = sqrt(4 pi/3) 2^{3/2} alpha^{3r/2}; the alpha^{3r/2} is
    # already inside the printed alpha^{(3r-5)/2}
    C = (
        math.sqrt(4.0 * math.pi / 3.0)
        * 2.0**1.5
        / (4.0 * math.pi**2 * gamma_sep**2)
        * math.sqrt(128.0 * math.pi**2 * gamma_sep)
    )
    log_value = (
        math.log(C)
        + 0.5 * (3.0 * r - 5.0) * math.log(a)
        - 2.0 * gamma_sep * a ** (r - 1.0)
        + 0.5 * math.log(braces)
    )
    return log_value if log else math.exp(log_value)


def kernel_offdiag_numeric(pp: PartitionParams, a_out: float, b_in: float):
    """Brute-force Cauchy-Schwarz route for the decay lemma:

    ||chi_-||_2 ( int_{|x| > a_out alpha^r} kappa(gamma |x|)^2 d^3x )^{1/2},

    kappa = ``specfun.localisation_kernel`` at alpha (the exact K2 inside)
    and gamma = 1 - b_in/a_out, under an adaptive outer quadrature.
    """
    gamma = 1.0 - b_in / a_out
    if gamma <= 0.0:
        raise DomainError("need b_in < a_out (gamma = 1 - b_in/a_out > 0)")
    spec = QuadratureSpec(rel_tol=1e-9, abs_tol=0.0, max_subdivisions=400)
    a = pp.alpha
    # z = gamma |x| / alpha scales the kernel to O(1) decay length:
    # int kappa(gamma |x|)^2 d^3x = 4 pi (alpha/gamma)^3 int_{z0}^inf (z kappa(alpha z))^2 dz
    z0 = gamma * a_out * pp.inner_scale / a
    val, _ = integrate_1d(lambda z: (z * localisation_kernel(a * z, a)) ** 2, z0, math.inf, spec)
    return _chi_minus_norm(pp) * math.sqrt(4.0 * math.pi * (a / gamma) ** 3 * val)


def quartic_correction_bound(delta, t_exponent) -> PowerSum:
    """Bound for the alpha^3 p^4/8 correction over the allowed region
    {|q| > alpha^t/4, alpha p^2/2 < delta/|q|}: alpha^3/(2 pi)^3 times the
    phase-space integral (8 pi^2 (2Z)^{7/2}/7) alpha^{-t/2}, Z = delta/alpha,
    which is (2 delta)^{7/2}/(7 pi) alpha^{-(1+t)/2}."""
    return PowerSum.of(((2.0 * delta) ** 3.5 / (7.0 * math.pi), -(1.0 + t_exponent) / 2.0))


# ---------------------------------------------------------------------------
# the assembled budget


@dataclass(frozen=True)
class BudgetTerm:
    name: str
    log_value: float            # log of the magnitude at the budget's alpha
    alpha_exponent: float
    reference: str

    @property
    def value_at_alpha(self):
        """The magnitude itself (DomainError beyond float range)."""
        return _exp(self.log_value, f"budget term {self.name!r}")


@dataclass(frozen=True)
class ErrorBudget:
    terms: tuple
    alpha: float

    @property
    def total(self):
        total = float(sum(t.value_at_alpha for t in self.terms))
        if math.isinf(total):
            raise DomainError("the budget total leaves float range")
        return total

    def binding_term(self):
        return min(self.terms, key=lambda t: t.alpha_exponent)

    def margin(self):
        """Distance of the most dangerous exponent above -4/3."""
        return self.binding_term().alpha_exponent - EXPONENT_LIMIT

    def violations(self):
        return [t for t in self.terms if t.alpha_exponent <= EXPONENT_LIMIT]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write("name,reference,alpha,value,exponent\n")
        for t in self.terms:
            buf.write(
                f"{t.name},{t.reference},{float(self.alpha)!r},"
                f"{float(t.value_at_alpha)!r},{float(t.alpha_exponent)!r}\n"
            )
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "total": self.total,
            "terms": [
                {
                    "name": t.name,
                    "reference": t.reference,
                    "value_at_alpha": t.value_at_alpha,
                    "alpha_exponent": t.alpha_exponent,
                }
                for t in self.terms
            ],
        }


def check_budget_inputs(pp: PartitionParams, params: TFParams, cs: CoherentSpec) -> float:
    """The budget's domain, checked once; returns delta = Z alpha.

    The constructors of the arguments already hold lambda, the partition's
    orderings (0 < t < r < 1, t < s) and 1/3 < s < 2/3.  This adds
    0 < delta <= 2/pi, t > 1/3 and one s for partition and coherent states.
    Exponents that keep every zone defined but break the paper's ordering
    (r <= 8/9, say) pass: their terms carry exponents <= -4/3 and surface
    as BudgetViolation.
    """
    delta = params.Z * pp.alpha
    if not 0.0 < delta <= 2.0 / math.pi + 1e-12:
        raise DomainError(f"delta = Z alpha = {delta!r} must lie in (0, 2/pi]")
    if not pp.t > 1.0 / 3.0:
        raise DomainError(f"need 1/3 < t, got t = {pp.t}")
    if cs.s_exponent != pp.s:
        raise DomainError(f"coherent-state s = {cs.s_exponent} differs from partition s = {pp.s}")
    return delta


def assemble_error_budget(
    pp: PartitionParams,
    sol: TFSolution,
    cs: CoherentSpec,
    q_spin: int = 2,
) -> ErrorBudget:
    """All correction terms below the leading TF energy, each valued at
    pp.alpha and tagged with its alpha-exponent; every exponent must stay
    above -4/3 (BudgetViolation otherwise, with the offending term named;
    the budget is attached to the exception).
    """
    delta = check_budget_inputs(pp, sol.params, cs)
    alpha = pp.alpha
    log_alpha = math.log(alpha)
    lam = sol.params.lam

    def power_term(name, ps, reference):
        return BudgetTerm(name, ps.log_value(log_alpha), ps.exponent, reference)

    izb = inner_zone_bound(pp, q_spin)
    # each outer-region ramp is an alpha^t ramp: N (3/2) sup^2 alpha^{1-2t}
    sup2 = sum(sup**2 for j in (2, 3) for _, sup in Partition(pp).ramp_sups(REGION_OUTER, j))

    gamma_sep = 1.0 - (1.0 + pp.beta) / 2.0

    def log_envelope(a):
        return lemma_decay_envelope(
            PartitionParams(pp.r, pp.t, pp.s, pp.beta, a), gamma_sep, log=True
        )

    # local slope d log envelope / d log alpha: the secant from alpha/2 to alpha
    lemma_log = log_envelope(alpha)
    lemma_exp = (lemma_log - log_envelope(0.5 * alpha)) / (log_alpha - math.log(0.5 * alpha))

    dce = domain_change_error(sol, alpha, pp.t) / (2.0 * math.pi) ** 3
    mass_residual = abs(sol.electron_count - sol.params.N) if sol.mu > 0 else 0.0
    bookkeeping = alpha * sol.mu * mass_residual

    terms = (
        power_term(
            "mean_field_smearing",
            mean_field_error(lam, delta, cs.s_exponent, _reference_c_phi()),
            "one-body reduction; c(phi) N / a",
        ),
        power_term(
            "inner_zone",
            izb.bound,
            f"Lieb-Yau ball bound; drop valid below alpha = {izb.alpha_threshold:.3e}",
        ),
        power_term(
            "intermediary_zone",
            intermediary_zone_closed_form(pp, delta),
            "Daubechies bound on the chi_2 shell (doubled Coulomb)",
        ),
        power_term(
            "localisation_gradient",
            PowerSum.of((1.5 * lam * delta * sup2, -2.0 * pp.t)),
            "(3/2) c_j^+ alpha^{1-2t} x N; inner-edge pieces absorbed "
            "by the inner/intermediary zones",
        ),
        BudgetTerm(
            "localisation_exp_small",
            lemma_log,
            lemma_exp,
            "decay-lemma envelope (super-polynomially small as alpha -> 0); "
            "local slope reported",
        ),
        power_term(
            "coherent_kinetic",
            # N times the per-unit bound, whose value at alpha = 1 is its coefficient
            PowerSum.of((lam * delta * coherent_kinetic_error_bound(cs, 1.0),
                         -2.0 * cs.s_exponent)),
            "3 alpha ||grad g_a||^2 Vol(supp g_a) x N",
        ),
        BudgetTerm(
            "momentum_domain_change",
            math.log(dce),
            # A I_{7/2}(W) leads, I_{7/2}(W) ~ W^{-1/2} on V1's Coulomb head
            -(1.0 + pp.t) / 2.0,
            "region swap {T < aV} -> {a p^2/2 < aV}; phase-space measure",
        ),
        power_term(
            "quartic_rest_correction",
            quartic_correction_bound(delta, pp.t),
            "alpha^3 p^4/8 over the allowed region",
        ),
        BudgetTerm(
            "mu_mass_bookkeeping",
            math.log(bookkeeping) if bookkeeping > 0.0 else -math.inf,
            0.0,
            "mu int rho = mu N holds exactly; numerical residual only",
        ),
    )
    budget = ErrorBudget(terms=terms, alpha=alpha)
    bad = budget.violations()
    if bad:
        raise BudgetViolation(
            f"budget term {bad[0].name!r} has exponent {bad[0].alpha_exponent:.4f} <= -4/3",
            term_name=bad[0].name,
            budget=budget,
        )
    return budget


@lru_cache(maxsize=1)
def _reference_c_phi():
    return mean_field_constant(CoherentSpec.reference())
