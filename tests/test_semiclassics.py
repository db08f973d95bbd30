import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from relatom import bounds as bd
from relatom import checks
from relatom import semiclassics as sc
from relatom import thomas_fermi as tf
from relatom.errors import DivergentIntegral, DomainError, PreconditionFailure
from relatom.kinetic import Dispersion, t_rel
from relatom.numerics import grid_quadrature, radial_fourier

from conftest import gaussian


class TestMomentumIntegrals:
    def test_nonrel_values(self):
        assert sc.momentum_integral_nonrel(0.0) == 0.0
        assert abs(sc.momentum_integral_nonrel(1.0) + 16 * math.sqrt(2) * math.pi / 15) < 1e-12

    def test_nonrel_against_radial_brute_force(self):
        v = 2.0
        brute, _ = quad(lambda u: (0.5 * u * u - v) * u * u, 0.0, math.sqrt(2 * v),
                        epsabs=1e-14, epsrel=1e-13)
        assert abs(4 * math.pi * brute - sc.momentum_integral_nonrel(v)) < 1e-8

    def test_rel_zero(self):
        assert sc.momentum_integral_rel(Dispersion(1.0), 0.0) == 0.0

    def test_rel_against_fixed_grid_oracle(self):
        # midpoint rule, 10^6 steps, on 4 pi (T(u) - 1) u^2 over (0, sqrt(3))
        d = Dispersion(1.0)
        P = math.sqrt(3.0)
        n = 1_000_000
        u = (np.arange(n) + 0.5) * P / n
        oracle = 4 * math.pi * float(np.sum((np.sqrt(u * u + 1) - 2.0) * u * u)) * P / n
        assert abs(sc.momentum_integral_rel(d, 1.0) - oracle) < 1e-8

    @pytest.mark.parametrize("alpha,v", ((0.0677, 3665.0), (1e-6, 1e-3), (1e-6, 1e7)))
    def test_rel_against_quadrature(self, alpha, v):
        # the defining integral with no absolute floor
        d = Dispersion(alpha)
        P = math.sqrt(v * v + 2.0 * v / alpha)
        oracle, _ = quad(lambda u: (t_rel(d, u) - v) * u * u, 0.0, P, epsabs=0.0, epsrel=1e-13)
        assert abs(sc.momentum_integral_rel(d, v) / (4 * math.pi * oracle) - 1.0) < 1e-12

    def test_rel_array_call_matches_scalar_calls(self):
        d = Dispersion(0.05)
        v = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 40)])
        assert np.array_equal(sc.momentum_integral_rel(d, v),
                              [sc.momentum_integral_rel(d, x) for x in v])

    def test_rel_domain(self):
        with pytest.raises(DomainError):
            sc.momentum_integral_rel(Dispersion(1.0), np.array([1.0, -1e-3]))

    def test_small_coupling_reduction(self):
        alpha = 1e-3
        v = alpha * 1.0
        rel = sc.momentum_integral_rel(Dispersion(alpha), v)
        nonrel = sc.momentum_integral_nonrel(v) * alpha**-1.5
        # T <= alpha p^2/2 makes the relativistic value the (slightly) larger
        # magnitude of the two; their quotient approaches 1 from below
        ratio = nonrel / rel
        assert 1.0 - 1e-2 <= ratio <= 1.0 + 1e-12

    @pytest.mark.parametrize("v", (0.1, 1.0, 10.0))
    @pytest.mark.parametrize("alpha", (1.0, 0.1))
    def test_rel_below_scaled_nonrel(self, v, alpha):
        rel = sc.momentum_integral_rel(Dispersion(alpha), v)
        assert rel <= sc.momentum_integral_nonrel(v) * alpha**-1.5 + 1e-12


class TestPhaseSpaceEnergy:
    def test_matches_identity_chain_value(self, neutral_eq_solution, ion_eq_solution):
        # nonrel dispersion, q_min = 0: one profile moment against the chain,
        # whose V_TF comes from coulomb_potential(rho)
        for sol in (neutral_eq_solution, ion_eq_solution):
            ch = sc.tf_identity_chain(sol)
            assert abs(sc.phase_space_energy(sol) / ch["phase_space"] - 1.0) < 1e-6

    def test_cutoff_monotone_and_bounded_by_tail(self, neutral_eq_solution):
        sol = neutral_eq_solution
        q_min = 0.05
        full = sc.phase_space_energy(sol)
        cut = sc.phase_space_energy(sol, q_min=q_min)
        assert cut >= full  # dropping negative mass can only raise the value
        # the dropped piece is controlled by V <= Z/u on (0, q_min)
        Z = sol.params.Z
        coeff = sc.PHASE_SPACE_COEFF * 4.0 * math.pi
        tail_bound = coeff * Z**2.5 * 2.0 * math.sqrt(q_min)
        assert cut - full <= tail_bound

    def test_rel_path_rejects_coulomb_collapse(self, neutral_eq_solution):
        with pytest.raises(DivergentIntegral):
            sc.phase_space_energy(neutral_eq_solution, 0.05, q_min=0.0)

    def test_rel_path_with_cutoff(self, neutral_eq_solution):
        assert sc.phase_space_energy(neutral_eq_solution, 0.05, q_min=0.1) < 0.0

    @pytest.mark.parametrize("alpha", (None, 0.05))
    def test_negative_cutoff_is_refused(self, neutral_solution, alpha):
        with pytest.raises(DomainError):
            sc.phase_space_energy(neutral_solution, alpha, q_min=-1e-3)

    @pytest.mark.parametrize("alpha", (None, 0.05))
    @pytest.mark.parametrize("sol_name", ("neutral_solution", "ion_solution"))
    def test_cutoff_at_or_beyond_the_grid_is_refused(self, request, sol_name, alpha):
        sol = request.getfixturevalue(sol_name)
        last = sol.b * sol.profile.xi[-1]
        for q_min in (last, 2.0 * last):
            with pytest.raises(DomainError):
                sc.phase_space_energy(sol, alpha, q_min)

    def test_rel_cutoff_below_the_grid_is_refused(self, neutral_solution):
        sol = neutral_solution
        with pytest.raises(DomainError):
            sc.phase_space_energy(sol, 0.05, q_min=0.5 * sol.b * sol.profile.xi[0])
        # the non-relativistic route closes that gap with the series head
        assert sc.phase_space_energy(sol, q_min=0.5 * sol.b * sol.profile.xi[0]) < 0.0


class TestQuarticCorrection:
    def test_three_forms_agree(self):
        # energy form = alpha^3/(2 pi)^3 x phase-space form
        # (8 pi^2 (2Z)^{7/2}/7) alpha^{-t/2} = delta form
        # (8 sqrt2/(7 pi)) alpha^{-(1+t)/2} delta^{7/2}
        Z, alpha, t = 10.0, 0.01, 0.5
        delta = Z * alpha
        value = bd.quartic_correction_bound(delta, t).value(alpha)
        phase_space = 8.0 * math.pi**2 * (2.0 * Z) ** 3.5 / 7.0 * alpha ** (-t / 2.0)
        delta_form = 8.0 * math.sqrt(2.0) / (7.0 * math.pi) * alpha ** (-(1.0 + t) / 2.0) * delta**3.5
        assert abs(value - alpha**3 / (2 * math.pi) ** 3 * phase_space) < 1e-12 * value
        assert abs(value - delta_form) < 1e-12 * value

    def test_against_2d_quadrature(self):
        # with V replaced by exactly delta/|q| the bound is an equality
        Z, alpha, t = 10.0, 0.01, 0.5
        W = 0.25 * alpha**t
        inner = lambda q: 4 * math.pi * (2 * Z / q) ** 3.5 / 56.0  # int p^4/8 p^2 dp over ball
        outer, _ = quad(lambda q: inner(q) * q * q, W, np.inf, epsabs=1e-10, epsrel=1e-10)
        brute = alpha**3 / (2 * math.pi) ** 3 * 4 * math.pi * outer
        assert 0.9 < brute / bd.quartic_correction_bound(Z * alpha, t).value(alpha) <= 1.0 + 1e-8

    def test_alpha_power_law(self):
        t = 0.5
        bound = bd.quartic_correction_bound(0.1, t)
        assert abs(bound.value(0.005) / bound.value(0.01) - 2.0 ** ((1.0 + t) / 2.0)) < 1e-10
        assert bound.exponent == -(1.0 + t) / 2.0

    def test_domain(self):
        # the range of t is checked once, by the budget's validator
        pp = bd.PartitionParams(r=0.95, t=0.2, s=0.5, beta=0.1, alpha=0.01)
        with pytest.raises(DomainError):
            bd.check_budget_inputs(pp, tf.TFParams(lam=1.0, Z=10.0), sc.CoherentSpec.reference(0.5))


class TestDomainChange:
    def test_positive_and_decaying(self, neutral_eq_solution):
        alphas = (1e-2, 1e-3, 1e-4, 1e-5)
        vals = []
        for alpha in alphas:
            Z = (2.0 / math.pi) / alpha
            sol = tf.solve(tf.TFParams(lam=1.0, Z=Z,
                                       gamma_kin=sc.self_consistent_gamma()), tol=1e-4)
            v = sc.domain_change_error(sol, alpha, 0.5)
            assert v > 0.0
            vals.append(v)
        # o(alpha^{-4/3}) along the whole window
        seq43 = [v * a ** (4.0 / 3.0) for v, a in zip(vals, alphas)]
        assert all(x > y for x, y in zip(seq43, seq43[1:]))
        # the sharper alpha^{-5/6} scaling needs the deeper window: the first
        # point still feels the pre-asymptotic cutoff W(alpha)
        seq56 = [v * a ** (5.0 / 6.0) for v, a in zip(vals[1:], alphas[1:])]
        assert all(x > y for x, y in zip(seq56, seq56[1:]))

    def test_log_slope_reaches_its_tag_at_tiny_alpha(self, neutral_solution):
        # the Z = 1 profile viewed at Z = delta/alpha is exact by TF
        # scaling; the majorant minus one must not cancel as Y -> 0, and once
        # W falls below the grid (near alpha = 1e-42) the closed-form head
        # takes over, so the secant slope between alpha and alpha/10 stays at
        # -(1+t)/2 = -0.75 all the way down
        def term(alpha):
            sol = tf.TFSolution(tf.TFParams(lam=1.0, Z=(2.0 / math.pi) / alpha),
                                neutral_solution.profile)
            return sc.domain_change_error(sol, alpha, 0.5)

        vals = [term(10.0**-e) for e in range(20, 301)]
        for e, v, v_next in zip(range(20, 300), vals, vals[1:]):
            slope = math.log10(v / v_next)
            assert abs(slope + 0.75) < 0.01, (e, slope)

    @pytest.mark.parametrize("alpha", (1e-100, 1e-300))
    def test_head_below_the_grid_is_the_series(self, neutral_solution, alpha):
        # W/b1 lies some 40 decades below the grid: I_p's head is the ODE
        # series, here integrated by quadrature in log t, next to the grid's
        # GL-12 sum and the quadrature of the Sommerfeld manifold beyond it
        delta, t = 2.0 / math.pi, 0.5
        sol = tf.TFSolution(tf.TFParams(lam=1.0, Z=delta / alpha), neutral_solution.profile)
        prof = sol.profile
        b1 = sol.params.gamma_kin * (4.0 * math.pi) ** (-2.0 / 3.0)
        lo = 0.25 * delta ** (1.0 / 3.0) * alpha ** (t - 1.0 / 3.0) / b1
        log_moments = []
        for p in (3.5, 4.5):
            head, _ = quad(lambda s: tf._series_init(prof.slope0, math.exp(s))[0] ** p
                           * math.exp((3.0 - p) * s),
                           math.log(lo), math.log(prof.xi[0]), epsabs=0.0, epsrel=1e-13,
                           limit=200)
            rest = grid_quadrature(lambda u: prof.phi(u) ** p * u ** (2.0 - p), prof.xi)
            rest += quad(lambda u: tf._tail_phi(prof.tail_amplitude, u)[0] ** p * u ** (2.0 - p),
                         prof.xi[-1], math.inf, epsabs=0.0, epsrel=1e-12)[0]
            log_moments.append((3.0 - p) * math.log(b1) + math.log(head + rest))
        log_c = 2.0 * math.log(4.0 * math.pi) + 1.5 * math.log(2.0)
        log_A = (log_c - math.log(4.0) + (11.0 / 3.0) * math.log(delta)
                 - (2.0 / 3.0) * math.log(alpha))
        log_B = log_c - math.log(32.0) + 5.0 * math.log(delta)
        expected = math.exp(log_A + log_moments[0]) + math.exp(log_B + log_moments[1])
        assert abs(sc.domain_change_error(sol, alpha, t) / expected - 1.0) <= 1e-10

    def test_majorizes_exact_crescent_integral(self):
        # same integral with the exact (1+Y)^{3/2}-1 instead of its Taylor
        # majorant, by direct 2-D (omega shells x momentum shells) quadrature
        alpha = 0.01
        delta = 2.0 / math.pi
        Z = delta / alpha
        t = 0.5
        sol = tf.solve(tf.TFParams(lam=1.0, Z=Z), tol=1e-4)
        bound = sc.domain_change_error(sol, alpha, t)
        prof = sol.profile
        b1 = sol.params.gamma_kin * (4.0 * math.pi) ** (-2.0 / 3.0)

        def V1(w):
            return max(float(prof.phi(np.array([w / b1]))[0]), 0.0) / w

        W = 0.25 * delta ** (1.0 / 3.0) * alpha ** (t - 1.0 / 3.0)
        cX = 2.0 * delta ** (4.0 / 3.0) * alpha ** (-4.0 / 3.0)
        cY = 0.5 * delta ** (4.0 / 3.0) * alpha ** (2.0 / 3.0)

        def integrand(w):
            v = V1(w)
            X, Y = cX * v, cY * v
            return w * w * v * X**1.5 / 3.0 * ((1.0 + Y) ** 1.5 - 1.0)

        exact, _ = quad(integrand, W, 60.0, epsabs=1e-10, epsrel=1e-8, limit=400)
        exact *= (4.0 * math.pi) ** 2 * delta ** (1.0 / 3.0) * alpha ** (2.0 / 3.0)
        assert exact <= bound
        assert exact >= 0.9 * bound  # the Taylor slack is small here


class TestIdentityChain:
    def test_self_consistent_gamma_value(self):
        geq = sc.self_consistent_gamma()
        assert abs(sc.PHASE_SPACE_COEFF * geq**1.5 - 0.4) < 1e-14

    @pytest.mark.parametrize("fixture", ["neutral_eq_solution", "ion_eq_solution"])
    def test_ratio_is_one(self, fixture, request):
        sol = request.getfixturevalue(fixture)
        ch = sc.tf_identity_chain(sol)
        assert abs(ch["ratio"] - 1.0) < 1e-5

    def test_kinetic_coefficient_mismatch_at_paper_gamma(self):
        ratio = sc.kinetic_coefficient_ratio(tf.GAMMA_TF_PAPER)
        assert abs(ratio - 2.0 * math.sqrt(2.0) / 3.0) < 1e-12

    def test_gamma_family_scan_selects_the_consistent_constant(self):
        # brute-force over a one-parameter gamma family: |chain ratio - 1|
        # is minimized (and ~0) exactly at the self-consistent gamma
        geq = sc.self_consistent_gamma()
        gaps = {}
        for factor in (0.85, 0.95, 1.0, 1.05, 1.15):
            sol = tf.solve(tf.TFParams(lam=1.0, Z=1.0, gamma_kin=factor * geq))
            gaps[factor] = abs(sc.tf_identity_chain(sol)["ratio"] - 1.0)
        assert min(gaps, key=gaps.get) == 1.0
        assert gaps[1.0] < 1e-5
        assert all(g > 1e-3 for f, g in gaps.items() if f != 1.0)

    def test_mu_bookkeeping_visible(self, ion_eq_solution):
        ch = sc.tf_identity_chain(ion_eq_solution)
        # dropping the -mu N term breaks the identity by exactly mu N
        assert ch["mu_times_N"] > 0.0
        broken = (ch["lhs"] + ch["mu_times_N"]) / ch["rhs"]
        assert abs(broken - 1.0) > 100 * abs(ch["ratio"] - 1.0)


class TestCoherent:
    @pytest.mark.parametrize("width", (0.5, 0.8, 1.0, 1.5, 2.3))
    def test_resolution_of_identity(self, reference_bump, width):
        res = sc.coherent_resolution_check(gaussian(width), reference_bump, 0.1, width)
        assert abs(res["identity_rhs"] / res["identity_lhs"] - 1.0) < 1e-8

    def test_resolution_check_fails_on_a_misnormalised_inverse(self, monkeypatch):
        # the inverse transform's (2 pi)^-3 off by 1e-7 must fail the verify line
        inverse = sc._inverse_fourier
        monkeypatch.setattr(
            sc, "_inverse_fourier", lambda fhat, p_knots, r: inverse(fhat, p_knots, r) * (1.0 + 1e-7)
        )
        line = next(c for c in checks.check_coherent() if c.name.startswith("resolution"))
        assert not line.passed
        assert abs(line.measured - 1e-7) < 1e-9

    def test_potential_smearing_two_routes(self):
        # quad_ref: nested scipy quad of the Newton split at epsrel 1.2e-14
        for s, quad_ref in ((0.5, 1.0999646432199786), (0.55, 1.1030998391269518)):
            res = sc.coherent_potential_check(gaussian(1.0), sc.CoherentSpec.reference(s), 0.3, 1.0)
            assert abs(res["route_momentum"] / res["route_newton"] - 1.0) < 1e-8
            assert abs(res["route_newton"] - quad_ref) < 1e-12
            assert abs(res["route_momentum"] - quad_ref) < 1e-12

    def test_potential_check_fails_on_a_misnormalised_pairing(self, monkeypatch):
        # the Parseval pairing's 2/pi off by 1e-7 must fail the verify line
        pairing = sc.coulomb_pairing
        monkeypatch.setattr(sc, "coulomb_pairing", lambda *args: pairing(*args) * (1.0 + 1e-7))
        line = next(c for c in checks.check_coherent() if c.name.startswith("smeared-Coulomb"))
        assert not line.passed
        assert abs(line.measured - 1e-7) < 1e-9

    def test_smeared_coulomb_routes_agree_pointwise(self, reference_bump):
        # oracle: the inverse radial transform of 4 pi ghat/p^2 (ghat that of
        # g_alpha^2), which never uses Newton's theorem; ghat decays
        # super-algebraically on the scale 1/alpha^s, and p-segments of
        # width 6/R put about 12 nodes on each period of sin(p r), r <= R
        g_a, a_s = reference_bump.g_scaled(0.3)
        support = np.linspace(0.0, a_s, 65)

        def coulomb_hat(p):
            return 4.0 * math.pi * radial_fourier(lambda v: g_a(v) ** 2, support, p) / (p * p)

        # inside, across and far outside the support alpha^s = 0.52
        r = np.array([1e-3, 0.1, 0.3, 0.5, 0.6, 1.0, 3.0, 20.0])
        p_max = 400.0 / a_s
        p_knots = np.linspace(0.0, p_max, math.ceil(p_max * r[-1] / 6.0) + 1)
        momentum = radial_fourier(coulomb_hat, p_knots, r) / (2.0 * math.pi) ** 3
        newton = sc.smeared_coulomb(reference_bump, 0.3)(r)
        assert np.max(np.abs(momentum / newton - 1.0)) < 1e-12

    def test_degenerate_profile_rejected(self):
        bad = sc.CoherentSpec(
            s_exponent=0.5,
            g_profile=lambda r: 2.0 * np.exp(-np.asarray(r) ** 2) * (np.asarray(r) < 1.0),
            grad_sup=1.0,
            support_volume=4.0 * math.pi / 3.0,
        )
        with pytest.raises(PreconditionFailure):
            sc.coherent_resolution_check(gaussian(1.0), bad, 0.1, 1.0)

    def test_kinetic_error_bound_power_law(self):
        cs5 = sc.CoherentSpec.reference(0.5)
        # at s = 1/2 the bound is alpha-independent
        assert abs(sc.coherent_kinetic_error_bound(cs5, 0.01)
                   - sc.coherent_kinetic_error_bound(cs5, 0.005)) < 1e-12
        cs6 = sc.CoherentSpec.reference(0.6)
        ratio = sc.coherent_kinetic_error_bound(cs6, 0.001) / sc.coherent_kinetic_error_bound(cs6, 0.01)
        assert abs(ratio - 10.0 ** 0.2) < 1e-10

    def test_kinetic_error_bound_reads_the_support_volume(self):
        # 3 Vol(supp g) ||grad g||^2 alpha^{1-2s}; the reference unit ball gives 4 pi
        cs = dataclasses.replace(sc.CoherentSpec.reference(0.5), support_volume=1.0)
        assert sc.coherent_kinetic_error_bound(cs, 0.01) == 3.0 * cs.grad_sup**2
        ref = sc.CoherentSpec.reference(0.5)
        assert sc.coherent_kinetic_error_bound(ref, 0.01) == 4.0 * math.pi * ref.grad_sup**2

    def test_kinetic_error_below_third_power(self):
        cs = sc.CoherentSpec.reference(0.6)
        vals = [sc.coherent_kinetic_error_bound(cs, a) * a ** (1.0 / 3.0)
                for a in (1e-2, 1e-3, 1e-4)]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_grad_sup_is_the_supremum(self, reference_bump):
        # |g'(r)| = c e^{-1/w} 2r/w^2, w = 1 - r^2: the closed-form sup sits at
        # or above every dense sample and agrees with a bounded maximiser
        c = sc._bump_norm_constant()
        r = np.linspace(1e-9, 1.0 - 1e-9, 2_000_001)
        w = 1.0 - r * r
        sampled = float(np.max(c * np.exp(-1.0 / w) * 2.0 * r / (w * w)))
        assert reference_bump.grad_sup >= sampled
        best = minimize_scalar(
            lambda x: -c * math.exp(-1.0 / (1.0 - x * x)) * 2.0 * x / (1.0 - x * x) ** 2,
            bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12},
        )
        assert abs(reference_bump.grad_sup + best.fun) < 1e-15 * reference_bump.grad_sup

    def test_newton_smearing(self, reference_bump):
        alpha = 0.1
        a_s = alpha**reference_bump.s_exponent
        outside = sc.newton_smearing_check(alpha, reference_bump, 2.0 * a_s)
        assert outside <= 1e-10 / (2.0 * a_s)
        inside = sc.newton_smearing_check(alpha, reference_bump, 0.5 * a_s)
        assert inside > 0.0
        # once alpha^s < radius the difference collapses
        tiny = sc.newton_smearing_check(1e-4, reference_bump, 0.5 * a_s)
        assert tiny <= 1e-10 / (0.5 * a_s)
