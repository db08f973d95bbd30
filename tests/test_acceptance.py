"""Acceptance gate: one test per criterion, each printing a PASS line with
the measured value, its target, and the stated tolerance (run with
``pytest -s`` to see the lines stream).  Stated runtime limits are asserted
with cold solver caches, which is why this module clears them up front.
"""

import math
import time

import numpy as np
import pytest

from relatom import bounds as bd
from relatom import cli
from relatom import semiclassics as sc
from relatom import specfun as sf
from relatom import thomas_fermi as tf
from relatom.kinetic import Dispersion, daubechies_F, daubechies_F_upper, t_rel
from relatom.numerics import QuadratureSpec, integrate_1d


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def cold_solver_cache():
    tf._solve_universal.cache_clear()
    yield


def test_criterion_01_bessel_moment():
    t0 = time.perf_counter()
    value, _ = sf.k2_second_moment()
    dt = time.perf_counter() - t0
    err = abs(value - 1.5 * math.pi)
    report(
        "01 bessel moment",
        err < 1e-8 and dt < 1.0,
        f"moment={value!r} vs 3pi/2, |err|={err:.2e} tol=1e-8, runtime={dt:.2f}s < 1s",
    )


def test_criterion_02_k2_envelope():
    grid = np.geomspace(0.01, 50.0, 64)
    violations = sum(1 for t in grid if sf.k2(t) > sf.k2_upper_envelope(t))
    report(
        "02 K2 envelope",
        violations == 0,
        f"{violations} violations over 64 log-spaced t in [0.01, 50]",
    )


def test_criterion_03_heat_kernel_normalization():
    t0 = time.perf_counter()
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for alpha in (0.5, 1.0):
            worst = max(
                worst,
                abs(sf.heat_kernel_normalization(t, alpha) - math.exp(-t / alpha)),
            )
    dt = time.perf_counter() - t0
    report(
        "03 heat-kernel normalization",
        worst < 1e-8 and dt < 0.5,
        f"max |int HK - exp(-t/alpha)| = {worst:.2e}, tol=1e-8, runtime={dt:.2f}s < 0.5s",
    )


def test_criterion_04_tf_solver():
    t0 = time.perf_counter()
    sol1 = tf.solve(tf.TFParams(lam=1.0, Z=1.0), tol=1e-6)
    slope_err = abs(sol1.slope0 - (-1.588071))
    residual = tf.tf_equation_residual(sol1)
    e1 = tf.tf_energy(sol1)
    scale_err = 0.0
    for Z in (2.0, 10.0, 137.0):
        solZ = tf.solve(tf.TFParams(lam=1.0, Z=Z), tol=1e-6)
        scale_err = max(scale_err, abs(tf.tf_energy(solZ) / (Z ** (7.0 / 3.0) * e1) - 1.0))
        residual = max(residual, tf.tf_equation_residual(solZ))
    dt = time.perf_counter() - t0
    report(
        "04 TF solver",
        slope_err < 1e-4 and residual <= 1e-6 and scale_err < 1e-6 and dt < 10.0,
        f"slope0={sol1.slope0:.7f} (|err|={slope_err:.1e} tol=1e-4), "
        f"residual={residual:.1e} tol=1e-6, scaling err={scale_err:.1e} tol=1e-6, "
        f"runtime={dt:.1f}s < 10s",
    )


def test_criterion_05_energy_two_routes():
    sol = tf.solve(tf.TFParams(lam=1.0, Z=1.0), tol=1e-6)
    gap = abs(tf.tf_energy(sol) / tf.tf_energy_slope_identity(sol) - 1.0)
    report(
        "05 energy two-route agreement",
        gap < 1e-4,
        f"functional vs slope-identity relative gap = {gap:.2e}, tol=1e-4",
    )


def test_criterion_06_phase_space_closed_form():
    worst = 0.0
    for v in (0.5, 1.0, 2.0):
        brute, _ = integrate_1d(
            lambda u: (0.5 * u * u - v) * u * u, 0.0, math.sqrt(2.0 * v),
            QuadratureSpec(rel_tol=1e-12, abs_tol=1e-15),
        )
        worst = max(worst, abs(4.0 * math.pi * brute - sc.momentum_integral_nonrel(v)))
    coeff_err = abs(
        -sc.momentum_integral_nonrel(1.0) - 16.0 * math.sqrt(2.0) * math.pi / 15.0
    )
    report(
        "06 5/2-power closed form",
        worst < 1e-8 and coeff_err < 1e-12,
        f"max |brute force - closed form| = {worst:.2e} (tol=1e-8), "
        f"coefficient err = {coeff_err:.1e}",
    )


def test_criterion_07_identity_chain():
    t0 = time.perf_counter()
    geq = sc.self_consistent_gamma()
    worst = 0.0
    for lam in (0.5, 1.0):
        sol = tf.solve(tf.TFParams(lam=lam, Z=1.0, gamma_kin=geq), tol=1e-6)
        worst = max(worst, abs(sc.tf_identity_chain(sol)["ratio"] - 1.0))
    coeff_gap = abs(
        sc.kinetic_coefficient_ratio(tf.GAMMA_TF_PAPER) - 2.0 * math.sqrt(2.0) / 3.0
    )
    dt = time.perf_counter() - t0
    report(
        "07 identity chain",
        worst <= 1e-5 and coeff_gap <= 1e-12 and dt < 30.0,
        f"max |ratio-1| = {worst:.2e} (tol=1e-5), paper-gamma coefficient gap "
        f"= {coeff_gap:.1e} (tol=1e-12), runtime={dt:.1f}s < 30s",
    )


def test_criterion_08_coherent_states():
    t0 = time.perf_counter()
    cs = sc.CoherentSpec.reference(0.5)
    worst_res = 0.0
    worst_pot = 0.0
    for w in (0.5, 0.8, 1.0, 1.5, 2.3):
        c = (math.pi * w * w) ** -0.75
        f = lambda r, c=c, w=w: c * math.exp(-0.5 * (r / w) ** 2)
        rr = sc.coherent_resolution_check(f, cs, 0.1, w)
        worst_res = max(worst_res, abs(rr["identity_rhs"] / rr["identity_lhs"] - 1.0))
        pp = sc.coherent_potential_check(f, cs, 0.3, w)
        worst_pot = max(worst_pot, abs(pp["route_momentum"] / pp["route_newton"] - 1.0))
    cs6 = sc.CoherentSpec.reference(0.6)
    alphas = np.geomspace(1e-4, 1e-2, 6)
    slope = np.polyfit(
        np.log(alphas), np.log([sc.coherent_kinetic_error_bound(cs6, a) for a in alphas]), 1
    )[0]
    slope_err = abs(slope - (1.0 - 2.0 * 0.6))
    dt = time.perf_counter() - t0
    report(
        "08 coherent-state identities",
        worst_res < 1e-8 and worst_pot < 1e-8 and slope_err < 1e-3 and dt < 2.0,
        f"resolution gap = {worst_res:.2e}, smearing gap = {worst_pot:.2e} "
        f"(tol=1e-8), alpha-exponent fit err = {slope_err:.1e} (tol=1e-3), "
        f"runtime={dt:.1f}s < 2s",
    )


def test_criterion_09_inequality_battery():
    rng = np.random.default_rng(2024)
    violations = 0
    for alpha in (0.1, 0.01):
        q = rng.uniform(0.0, 100.0, 200)
        upper = 0.5 * alpha * q * q + 1e-15 * (1.0 + q * q)
        violations += int(np.sum(t_rel(Dispersion(alpha), q) > upper))
    for alpha in (1.0, 0.1, 0.01):
        p = np.geomspace(1e-3, 100.0 / alpha, 300)
        lower = 0.5 * alpha * p * p - 0.125 * alpha**3 * p**4 - 1e-15 * (1.0 + p**4)
        violations += int(np.sum(t_rel(Dispersion(alpha), p) < lower))
    x = np.geomspace(1e-4, 1e3, 300)
    violations += int(np.sum(1.0 + 1.5 * x + 0.375 * x * x < (1.0 + x) ** 1.5))
    for _ in range(100):
        alpha = rng.uniform(1e-3, 1.0)
        s = rng.uniform(0.0, 10.0 / alpha)
        d = Dispersion(alpha)
        if daubechies_F(d, s) > daubechies_F_upper(d, s) * (1.0 + 1e-12):
            violations += 1
    sol = tf.solve(tf.TFParams(lam=0.5, Z=3.0), tol=1e-6)
    pot = tf.tf_potential(sol)
    violations += int(np.sum(pot.values > sol.params.Z / pot.grid + 1e-12))
    report(
        "09 inequality battery",
        violations == 0,
        f"{violations} violations (nonrel domination, quartic lower bound, "
        "Taylor 3/2, F <= F_upper, V_TF <= Z/r)",
    )


def test_criterion_10_error_budget():
    t0 = time.perf_counter()
    cs = sc.CoherentSpec.reference(0.55)
    delta = 2.0 / math.pi
    prev = math.inf
    ok = True
    detail = []
    for alpha in (1e-2, 1e-3, 1e-4, 1e-5):
        pp = bd.PartitionParams(r=0.95, t=0.5, s=0.55, beta=0.1, alpha=alpha)
        sol = tf.solve(tf.TFParams(lam=1.0, Z=delta / alpha), tol=1e-4)
        budget = bd.assemble_error_budget(pp, sol, cs)
        ok &= all(term.alpha_exponent > -4.0 / 3.0 for term in budget.terms)
        scaled = budget.total * alpha ** (4.0 / 3.0)
        ok &= scaled < prev
        detail.append(f"{scaled:.2f}")
        prev = scaled
        env = bd.lemma_decay_envelope(pp, 0.45)
        num = bd.kernel_offdiag_numeric(pp, 2.0, 1.1)
        ok &= num <= env
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    report(
        "10 error budget",
        ok,
        "all exponents > -4/3; total*alpha^{4/3} = " + " > ".join(detail)
        + f"; kernel_offdiag <= envelope at every alpha; runtime={dt:.1f}s < 60s",
    )


def test_criterion_11_flagship_sweep(tmp_path):
    t0 = time.perf_counter()
    path = tmp_path / "sweep.csv"
    code = cli.main(["asymptotics", "--Z", "10", "100", "1000", "10000",
                     "--csv", str(path)])
    dt = time.perf_counter() - t0
    assert code == 0
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    ratios = [float(r[4]) for r in rows]
    gaps = [abs(1.0 - x) for x in ratios]
    ok = (
        all(0.0 < x <= 1.0 for x in ratios)
        and all(a > b for a, b in zip(gaps, gaps[1:]))
        and all(r[-1] == "ok" for r in rows)
        and dt < 300.0
    )
    report(
        "11 flagship sweep",
        ok,
        "ratio(Z) = " + ", ".join(f"{x:.3e}" for x in ratios)
        + f" in (0,1], |1-ratio| decreasing, runtime={dt:.0f}s < 300s",
    )
