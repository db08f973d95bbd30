"""Programmatic verification suites behind the ``verify`` CLI command.

Each suite function returns a list of :class:`CheckResult`; a check
compares a measured quantity against its expected value at an explicit
tolerance.  The suites exercise the documented invariants of the library
modules (sampled identities, inequality batteries, scaling laws), with
fixed RNG seeds so every run is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds as bd
from . import semiclassics as sc
from . import specfun as sf
from . import thomas_fermi as tf
from .errors import DomainError
from .kinetic import (
    Dispersion,
    daubechies_F,
    daubechies_F_upper,
    t_rel,
    t_rel_inverse,
)
from .numerics import QuadratureSpec, grid_quadrature, integrate_1d, shoot

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    expected: float
    tol: float
    passed: bool

    def line(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{self.name}: measured={self.measured:.9g} expected={self.expected:.9g} "
            f"tol={self.tol:.3g} {status}"
        )


def _close(name, measured, expected, tol):
    return CheckResult(name, float(measured), float(expected), float(tol),
                       abs(measured - expected) <= tol)


def _bound(name, measured, limit, sense="<="):
    ok = measured <= limit if sense == "<=" else measured >= limit
    return CheckResult(name, float(measured), float(limit), 0.0, bool(ok))


# ---------------------------------------------------------------------------


def _oscillator(x, y):
    return (y[1], -y[0])


def check_numerics():
    out = []
    rng = np.random.default_rng(20240811)
    spec = QuadratureSpec()
    worst = 0.0
    for trial in range(5):
        cf = rng.uniform(-1, 1, size=4)
        cg = rng.uniform(-1, 1, size=4)
        a, b = rng.uniform(0.2, 3.0, size=2)
        f = lambda x: sum(c * x**k for k, c in enumerate(cf))
        g = lambda x: sum(c * x**k for k, c in enumerate(cg))
        vf, ef = integrate_1d(f, 0.0, 1.0, spec)
        vg, eg = integrate_1d(g, 0.0, 1.0, spec)
        vc, ec = integrate_1d(lambda x: a * f(x) + b * g(x), 0.0, 1.0, spec)
        allowance = 2.0 * (ec + abs(a) * ef + abs(b) * eg) + 1e-14
        worst = max(worst, abs(vc - (a * vf + b * vg)) - allowance)
    out.append(_bound("integrate_1d linearity (5 random polynomial pairs)", worst, 0.0))

    worst = 0.0
    for k in range(4):
        value, _ = integrate_1d(lambda x: math.exp(-x) * x**k, 0.0, math.inf, spec)
        worst = max(worst, abs(value / math.factorial(k) - 1.0))
    out.append(_bound("semi-infinite integral of exp(-x) x^k vs k!", worst, 10 * spec.rel_tol))

    # y'' = -y from (0, 1) is sin x: three periods of global error growth
    worst = 0.0
    for tol in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11):
        end = shoot(_oscillator, (0.0, 1.0), 0.0, 20.0, tol=tol).y_end
        worst = max(worst, abs(end[0] - math.sin(20.0)) / tol)
    out.append(
        _bound("shoot end-point error/tol on y''=-y over [0, 20], tol 1e-6..1e-11",
               worst, 10.0)
    )
    return out


def check_specfun():
    out = []
    t_grid = np.geomspace(0.01, 50.0, 64)
    viol = sum(1 for t in t_grid if sf.k2(t) > sf.k2_upper_envelope(t))
    out.append(_bound("k2 <= envelope violations on [0.01, 50]", viol, 0.0))

    t_grid = np.geomspace(0.05, 50.0, 64)
    worst = max(
        abs(sf.k2(t, sf.K2Method.DEFINING_INTEGRAL) - sf.k2(t, sf.K2Method.GAMMA_REWRITE))
        / sf.k2(t)
        for t in t_grid
    )
    out.append(_bound("defining vs gamma-rewrite relative gap on [0.05, 50]", worst, 1e-9))

    t_grid = np.geomspace(0.05, 0.2, 16)
    worst = max(
        abs(sf.k2(t, sf.K2Method.SERIES_SMALL_T) - sf.k2(t, sf.K2Method.DEFINING_INTEGRAL))
        / sf.k2(t)
        for t in t_grid
    )
    out.append(_bound("small-t series vs defining on [0.05, 0.2]", worst, 1e-9))

    seq = [sf.k2(t) for t in np.geomspace(0.02, 30.0, 40)]
    mono = all(a > b for a, b in zip(seq, seq[1:]))
    out.append(_bound("k2 strictly decreasing (40 samples)", 0.0 if mono else 1.0, 0.0))

    m2, _ = sf.k2_second_moment()
    out.append(_close("k2_second_moment vs 3 pi/2", m2, 1.5 * math.pi, 1e-8))

    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for a in (0.5, 1.0):
            norm = sf.heat_kernel_normalization(t, a)
            worst = max(worst, abs(norm - math.exp(-t / a)))
    out.append(_bound("heat-kernel normalization vs exp(-t/alpha)", worst, 1e-8))
    return out


def check_kinetic():
    out = []
    rng = np.random.default_rng(7)
    disp = Dispersion(0.1)
    ts = rng.uniform(0.0, 1e3, size=100)
    worst = max(
        abs(t_rel(disp, t_rel_inverse(disp, t)) - t) / (1.0 + t) for t in ts
    )
    out.append(_bound("t_rel round trip on 100 random t", worst, 1e-10))

    ok = True
    for alpha in (1.0, 0.1, 0.01):
        d = Dispersion(alpha)
        p = np.geomspace(1e-4, 100.0 / alpha, 1000)
        tr = t_rel(d, p)
        ok &= bool(np.all(tr >= p - 1.0 / alpha - 1e-12 * (1 + p)))
        ok &= bool(np.all(tr <= 0.5 * alpha * p**2 + 1e-12 * (1 + p**2)))
        ok &= bool(np.all(tr >= 0.5 * alpha * p**2 - alpha**3 * p**4 / 8.0 - 1e-12 * (1 + p**4)))
    out.append(_bound("kinetic ordering chain on 1000-point log grids", 0.0 if ok else 1.0, 0.0))

    d = Dispersion(0.5)
    s_grid = np.linspace(0.0, 4.0, 21)
    F = daubechies_F(d, s_grid)
    mono = np.all(np.diff(F) > 0)
    convex = np.all(np.diff(F, 2) > -1e-12)
    out.append(_bound("daubechies_F monotone+convex", 0.0 if (mono and convex) else 1.0, 0.0))

    rng = np.random.default_rng(11)
    viol = 0
    for _ in range(100):
        alpha = rng.uniform(1e-3, 1.0)
        s = rng.uniform(0.0, 10.0 / alpha)
        d = Dispersion(alpha)
        if daubechies_F(d, s) > daubechies_F_upper(d, s) * (1 + 1e-12):
            viol += 1
    out.append(_bound("daubechies_F <= upper bound (100 random)", viol, 0.0))

    def F_by_quadrature(d, s):
        c = 2.0 / d.alpha
        return integrate_1d(lambda t: (t * t + c * t) ** 1.5, 0.0, s, _ORACLE_SPEC)[0]

    out.append(_bound("daubechies_F closed form vs quadrature",
                      _worst_oracle_gap(daubechies_F, F_by_quadrature), 1e-12))
    return out


# abs_tol = 0: the relative tolerance binds at the smallest arguments too
_ORACLE_SPEC = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0)


def _worst_oracle_gap(closed, oracle):
    """Largest relative gap of ``closed(disp, x)`` against ``oracle(disp, x)``
    at alpha in {1, 0.1, 1e-3, 1e-6}, x log-spaced on [1e-8, 10/alpha]; a NaN
    closed form propagates, so the check fails, and a NaN integrand makes
    the quadrature oracle raise NonConvergence."""
    return float(np.max([abs(closed(d, x) / oracle(d, x) - 1.0)
                         for d in map(Dispersion, (1.0, 0.1, 1e-3, 1e-6))
                         for x in np.geomspace(1e-8, 10.0 / d.alpha, 8)]))


# phi'(0) of the neutral TF screening function, J. P. Boyd, J. Comput. Appl.
# Math. (2013): B = -1.588071022611375312718684509
_LITERATURE_SLOPE0 = -1.588071022611375312718684509


def check_thomas_fermi():
    out = []
    unit = {lam: tf.solve(tf.TFParams(lam=lam, Z=1.0), tol=1e-5)
            for lam in (0.2, 0.4, 0.5, 0.6, 0.8, 1.0)}
    base = {}
    for lam in (0.5, 1.0):
        for Z in (1.0, 2.0, 10.0, 100.0):
            sol = tf.solve(tf.TFParams(lam=lam, Z=Z), tol=1e-5)
            base[(lam, Z)] = tf.tf_energy(sol)
    worst = 0.0
    for lam in (0.5, 1.0):
        e1 = base[(lam, 1.0)]
        for Z in (2.0, 10.0, 100.0):
            worst = max(worst, abs(base[(lam, Z)] / (Z ** (7.0 / 3.0) * e1) - 1.0))
    out.append(_bound("E(lam, Z) = Z^{7/3} E(lam, 1) relative spread", worst, 1e-6))

    worst = max(tf.tf_equation_residual(unit[lam]) for lam in (0.5, 1.0))
    out.append(_bound("TF-equation residual of returned solutions", worst, 1e-5))

    ctf = [-tf.tf_energy(unit[l]) for l in (0.2, 0.4, 0.6, 0.8, 1.0)]
    mono = all(a <= b + 1e-12 for a, b in zip(ctf, ctf[1:]))
    out.append(_bound("C_TF(lambda) nondecreasing", 0.0 if mono else 1.0, 0.0))

    e15 = tf.tf_energy(tf.solve(tf.TFParams(lam=1.5, Z=1.0), tol=1e-5))
    out.append(_close("C_TF constant above lambda = 1", e15, base[(1.0, 1.0)],
                      1e-6 * abs(base[(1.0, 1.0)])))

    worst = 0.0
    for lam in (0.5, 1.0):
        rho = unit[lam].rho
        mass = grid_quadrature(lambda v: rho(v) * v * v, rho.grid)
        mass += rho.head_integral(1.0, 2) + rho.tail_integral(1.0, 2)
        mass *= 4.0 * math.pi
        worst = max(worst, abs(mass / (min(lam, 1.0) * 1.0) - 1.0))
    out.append(_bound("int rho d3x = min(N, Z) relative error", worst, 1e-6))

    sol = tf.solve(tf.TFParams(lam=0.5, Z=3.0), tol=1e-5)
    pot = tf.tf_potential(sol)
    excess = float(np.max(pot.values - sol.params.Z / pot.grid))
    out.append(_bound("V_TF <= Z/r at every grid point", excess, 1e-12))

    out.append(_bound("|slope0 - B| of the neutral atom, B from the literature",
                      abs(unit[1.0].slope0 - _LITERATURE_SLOPE0), 1e-14))

    # the functional of the solved density against the (slope0, x0) closed form
    worst = max(abs(tf.tf_functional(sol.params, sol.rho) / tf.tf_energy_slope_identity(sol) - 1.0)
                for sol in (unit[1.0], unit[0.5], unit[0.2]))
    out.append(_bound("tf_functional(rho) vs slope identity, lambda 1, 0.5, 0.2", worst, 1e-6))
    return out


def check_coherent():
    out = []
    cs = sc.CoherentSpec.reference(0.5)
    worst = 0.0
    for w in (0.5, 0.8, 1.0, 1.5, 2.3):
        f = _gaussian(w)
        r = sc.coherent_resolution_check(f, cs, 0.1, w)
        worst = max(worst, abs(r["identity_rhs"] / r["identity_lhs"] - 1.0))
    out.append(_bound("resolution of identity on 5 Gaussians", worst, 1e-8))

    pc = sc.coherent_potential_check(_gaussian(1.0), cs, 0.3, 1.0)
    out.append(
        _bound(
            "smeared-Coulomb routes relative gap",
            abs(pc["route_momentum"] / pc["route_newton"] - 1.0),
            1e-8,
        )
    )

    cs6 = sc.CoherentSpec.reference(0.6)
    alphas = np.geomspace(1e-4, 1e-2, 6)
    vals = [sc.coherent_kinetic_error_bound(cs6, a) for a in alphas]
    slope = np.polyfit(np.log(alphas), np.log(vals), 1)[0]
    out.append(_close("coherent kinetic error alpha-exponent (s=0.6)",
                      slope, 1.0 - 2.0 * 0.6, 1e-3))

    alpha, s = 0.1, 0.5
    a_s = alpha**s
    good = sc.newton_smearing_check(alpha, sc.CoherentSpec.reference(s), 2.0 * a_s)
    out.append(_bound("Newton smearing outside the support", good, 1e-10 / (2.0 * a_s)))
    inside = sc.newton_smearing_check(alpha, sc.CoherentSpec.reference(s), 0.5 * a_s)
    out.append(_bound("smearing differs inside the support", inside, 1e-3, sense=">="))

    worst = -math.inf
    for v in (0.1, 1.0, 10.0):
        for a in (1.0, 0.1):
            rel = sc.momentum_integral_rel(Dispersion(a), v)
            nonrel = sc.momentum_integral_nonrel(v) * a**-1.5
            worst = max(worst, rel - nonrel)
    out.append(_bound("rel momentum integral <= scaled nonrel (signed)", worst, 1e-10))

    def rel_by_quadrature(d, v):
        value, _ = integrate_1d(lambda u: (t_rel(d, u) - v) * u * u,
                                0.0, t_rel_inverse(d, v), _ORACLE_SPEC)
        return 4.0 * math.pi * value

    out.append(_bound("rel momentum integral closed form vs quadrature",
                      _worst_oracle_gap(sc.momentum_integral_rel, rel_by_quadrature), 1e-12))
    return out


def check_identity():
    out = []
    geq = sc.self_consistent_gamma()
    for lam in (0.5, 1.0):
        sol = tf.solve(tf.TFParams(lam=lam, Z=1.0, gamma_kin=geq), tol=1e-5)
        ch = sc.tf_identity_chain(sol)
        out.append(_close(f"identity chain ratio (lambda={lam})", ch["ratio"], 1.0, 1e-5))
    out.append(
        _close(
            "kinetic coefficient ratio at paper gamma vs 2 sqrt2/3",
            sc.kinetic_coefficient_ratio(tf.GAMMA_TF_PAPER),
            2.0 * math.sqrt(2.0) / 3.0,
            1e-12,
        )
    )
    # brute-force check of the 5/2-power closed form at v = 2
    v = 2.0
    brute, _ = integrate_1d(
        lambda u: (0.5 * u * u - v) * u * u, 0.0, math.sqrt(2.0 * v),
        QuadratureSpec(rel_tol=1e-12),
    )
    out.append(
        _close(
            "nonrel momentum integral vs radial brute force (v=2)",
            4.0 * math.pi * brute,
            sc.momentum_integral_nonrel(v),
            1e-8,
        )
    )

    alphas = (1e-2, 1e-3, 1e-4)
    dce = []
    for a in alphas:
        s_a = tf.solve(tf.TFParams(lam=1.0, Z=(2.0 / math.pi) / a, gamma_kin=geq), tol=1e-4)
        dce.append(sc.domain_change_error(s_a, a, 0.5) * a ** (4.0 / 3.0))
    ok = all(x > y for x, y in zip(dce, dce[1:]))
    out.append(_bound("domain-change error is o(alpha^{-4/3})", 0.0 if ok else 1.0, 0.0))

    quartic = bd.quartic_correction_bound(2.0 / math.pi, 0.5)
    qcb = [quartic.value(a) * a ** (4.0 / 3.0) for a in alphas]
    ok = all(x > y for x, y in zip(qcb, qcb[1:]))
    out.append(_bound("quartic correction is o(alpha^{-4/3})", 0.0 if ok else 1.0, 0.0))
    return out


def check_bounds():
    out = []
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(5):
        r = rng.uniform(0.9, 0.99)
        t = rng.uniform(0.35, 0.6)
        beta = rng.uniform(0.05, 0.45)
        alpha = 10.0 ** rng.uniform(-5, -2.2)
        pp = bd.PartitionParams(r=r, t=t, s=0.5 * (t + 2.0 / 3.0), beta=beta, alpha=alpha)
        part = bd.Partition(pp)
        radii = np.geomspace(0.01 * pp.inner_scale, 100.0 * pp.outer_scale, 1000)
        worst = max(worst, float(np.max(np.abs(part.sum_of_squares(radii) - 1.0))))
    out.append(_bound("partition sum of squares == 1 (5 random params)", worst, 1e-12))

    cs = sc.CoherentSpec.reference(0.55)
    newton, mom = bd.mean_field_constant_routes(cs)
    out.append(_bound("mean-field dual routes relative gap", abs(mom / newton - 1.0), 1e-8))
    ball = _ball_mean_field_constant()
    out.append(_close("uniform-ball mean-field constant vs 3/5", ball, 0.6, 1e-8))

    worst = 0.0
    for alpha, r, gam in ((0.05, 0.93, 0.5), (1e-2, 0.95, 0.45), (1e-3, 0.95, 0.45),
                          (1e-4, 0.95, 0.45), (1e-5, 0.95, 0.45)):
        pp = bd.PartitionParams(r=r, t=0.5, s=0.55, beta=0.1, alpha=alpha)
        env = bd.lemma_decay_envelope(pp, gam)
        num = bd.kernel_offdiag_numeric(pp, 2.0, (1.0 - gam) * 2.0)
        worst = max(worst, num / env)
    out.append(_bound("kernel_offdiag_numeric / decay envelope", worst, 1.0))

    pp = bd.PartitionParams(r=0.95, t=0.5, s=0.55, beta=0.1, alpha=1e-3)
    delta = 2.0 / math.pi
    closed = bd.intermediary_zone_closed_form(pp, delta).value(pp.alpha)
    V = _chi2_zone_potential(pp, delta)
    shell = (pp.inner_scale, pp.outer_scale)
    upper = bd.daubechies_eigenvalue_sum_bound(
        Dispersion(pp.alpha), V, q_spin=2, f_form="taylor_upper", support=shell
    )
    out.append(
        _bound(
            "Daubechies majorant route vs closed form, relative gap",
            abs(upper / closed - 1.0),
            1e-8,
        )
    )
    exact = bd.daubechies_eigenvalue_sum_bound(
        Dispersion(pp.alpha), V, q_spin=2, support=shell
    )
    out.append(_bound("exact-F Daubechies bound within the majorant",
                      abs(exact), abs(upper)))

    # binding-term analysis at the exponent boundaries
    sol = tf.solve(tf.TFParams(lam=1.0, Z=delta / 1e-3), tol=1e-4)
    b1 = bd.assemble_error_budget(
        bd.PartitionParams(r=0.90, t=0.5, s=0.55, beta=0.1, alpha=1e-3), sol, cs
    )
    b2 = bd.assemble_error_budget(
        bd.PartitionParams(r=0.95, t=0.65, s=0.655, beta=0.1, alpha=1e-3),
        sol, sc.CoherentSpec.reference(0.655),
    )
    # as t -> 2/3 the alpha^{1-2s,t} x N family binds; s > t puts the
    # coherent-state member in front of the chi_3 gradient member
    ok = (b1.binding_term().name == "inner_zone"
          and b2.binding_term().name in ("coherent_kinetic", "localisation_gradient"))
    out.append(_bound("binding budget term matches the analytic ordering",
                      0.0 if ok else 1.0, 0.0))

    # the gap the momentum-domain terms bound: alpha E_nr(V_TF) - E_rel(alpha V_TF)
    # over |q| > alpha^t/4, t = 1/2, on the neutral atom at Z = delta/alpha
    ratios = []
    for alpha in (0.05, 1e-2, 1e-3, 1e-4):
        s_a = tf.solve(tf.TFParams(lam=1.0, Z=delta / alpha), tol=1e-4)
        q_min = 0.25 * alpha**0.5
        gap = alpha * sc.phase_space_energy(s_a, q_min=q_min) - sc.phase_space_energy(s_a, alpha, q_min)
        bound = (sc.domain_change_error(s_a, alpha, 0.5) / (2.0 * math.pi) ** 3
                 + bd.quartic_correction_bound(delta, 0.5).value(alpha))
        ratios.append(gap / bound)
    # the largest gap/bound, or a negative one if the gap has the wrong sign
    worst = min(ratios) if min(ratios) < 0.0 else max(ratios)
    out.append(CheckResult("0 <= gap/bound <= 1, gap = alpha E_nr - E_rel, bound = "
                           "dce/(2 pi)^3 + quartic, alpha 0.05..1e-4",
                           worst, 1.0, 0.0, 0.0 <= worst <= 1.0))
    return out


def _gaussian(width):
    c = (math.pi * width**2) ** -0.75

    def f(r):
        return c * math.exp(-0.5 * (r / width) ** 2)

    return f


def _ball_mean_field_constant():
    g_ball = lambda r: np.where(np.asarray(r) < 1.0, math.sqrt(3.0 / (4.0 * math.pi)), 0.0)
    cs_ball = sc.CoherentSpec(
        s_exponent=0.5, g_profile=g_ball, grad_sup=0.0, support_volume=4.0 * math.pi / 3.0
    )
    return bd.mean_field_constant(cs_ball)


def _chi2_zone_potential(pp, delta):
    """The doubled chi_2-zone Coulomb potential: 2 delta/|x| on
    (alpha^r, alpha^t), zero outside."""
    grid = np.geomspace(pp.inner_scale, pp.outer_scale, 400)
    return bd.RadialFunction(grid, 2.0 * delta / grid)


SUITES = {
    "numerics": check_numerics,
    "specfun": check_specfun,
    "kinetic": check_kinetic,
    "thomas_fermi": check_thomas_fermi,
    "coherent": check_coherent,
    "identity": check_identity,
    "bounds": check_bounds,
}


def run_suite(name):
    """Resolve a CLI suite name to its checks; 'all' is every module suite."""
    if name == "all":
        results = []
        for key in SUITES:
            results.extend(run_suite_module(key))
        return results
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {(*SUITES, 'all')}")
    return run_suite_module(name)


def run_suite_module(key):
    results = SUITES[key]()
    return [
        CheckResult(f"{key}.{r.name}", r.measured, r.expected, r.tol, r.passed)
        for r in results
    ]
