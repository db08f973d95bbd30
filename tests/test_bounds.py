import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from relatom import bounds as bd
from relatom import numerics
from relatom import semiclassics as sc
from relatom import thomas_fermi as tf
from relatom.errors import BudgetViolation, DomainError
from relatom.kinetic import Dispersion, daubechies_F
from relatom.numerics import RadialFunction
from relatom.specfun import k2


def make_pp(alpha=1e-3, r=0.95, t=0.5, s=0.55, beta=0.1):
    return bd.PartitionParams(r=r, t=t, s=s, beta=beta, alpha=alpha)


def grad_sup(part, region, j):
    """sup over the region of |d chi_j / d radius|, from the ramp sups."""
    return max((sup / part.params.alpha**e for e, sup in part.ramp_sups(region, j)),
               default=0.0)


def fd_grad_sup(part, region, j):
    """Oracle for grad_sup: dense central differences (200,000
    samples per zone) across the two ramp zones, clipped at 2 alpha^r."""
    pp = part.params
    split = 2.0 * pp.inner_scale
    best = 0.0
    fn = (part.chi1, part.chi2, part.chi3)[j - 1]
    for scale in (pp.inner_scale, pp.outer_scale):
        lo = (1.0 - pp.beta) * scale
        hi = (1.0 + pp.beta) * scale
        if region == "inner":
            hi = min(hi, split)
        else:
            lo = max(lo, split)
        if lo < hi:
            x = np.linspace(lo, hi, 200_000)
            h = 1e-7 * (hi - lo)
            grad = (fn(x + h) - fn(x - h)) / (2.0 * h)
            best = max(best, float(np.max(np.abs(grad))))
    return best


class TestPowerSum:
    def test_value_log_value_and_leading_exponent(self):
        a = 1e-3
        ps = bd.PowerSum.of((3.0, -1.5), (-2.0, -0.5))
        assert ps.value(a) == pytest.approx(3.0 * a**-1.5 - 2.0 * a**-0.5, rel=1e-14)
        assert ps.log_value(math.log(a)) == pytest.approx(math.log(ps.value(a)), rel=1e-14)
        assert ps.exponent == -1.5
        assert bd.PowerSum.of((-1.0, 0.5)).value(a) == pytest.approx(-(a**0.5), rel=1e-15)
        assert bd.PowerSum.of((0.0, -2.0)).log_value(math.log(a)) == -math.inf
        # the log value reads on where the linear value leaves float range
        tiny = math.log(1e-300)
        assert ps.log_value(tiny) == pytest.approx(math.log(3.0) - 1.5 * tiny, rel=1e-15)
        with pytest.raises(DomainError):
            ps.value(1e-300)


class TestPartition:
    def test_sum_of_squares(self):
        rng = np.random.default_rng(1)
        pp = make_pp()
        part = bd.Partition(pp)
        radii = np.exp(rng.uniform(math.log(1e-5), math.log(1.0), 200))
        assert np.max(np.abs(part.sum_of_squares(radii) - 1.0)) < 1e-12

    def test_plateaus(self):
        pp = make_pp()
        part = bd.Partition(pp)
        assert part.chi1(0.5 * (1 - pp.beta) * pp.inner_scale) == 1.0
        assert part.chi3(2.0 * pp.outer_scale) == 1.0

    def test_gradient_alpha_scaling(self):
        # sup|grad chi_j| ~ alpha^-r on the inner ramp (j = 1, 2) and
        # ~ alpha^-t on the outer ramp (j = 2, 3)
        sups = {}
        for alpha in (1e-2, 1e-3):
            part = bd.Partition(make_pp(alpha=alpha))
            sups[alpha] = {
                "1-": grad_sup(part, "inner", 1),
                "2-": grad_sup(part, "inner", 2),
                "2+": grad_sup(part, "outer", 2),
                "3+": grad_sup(part, "outer", 3),
            }
        expected = {"1-": 0.95, "2-": 0.95, "2+": 0.5, "3+": 0.5}
        for key, exp in expected.items():
            got = math.log(sups[1e-3][key] / sups[1e-2][key]) / math.log(10.0)
            assert abs(got - exp) < 1e-10, key

    def test_grad_sup_against_finite_differences(self):
        # alpha = 0.2: the split 2 alpha^r clips the outer ramp; alpha = 0.3:
        # the split lies past the outer ramp, so the outer sups are exactly 0
        zones = [make_pp(alpha=0.2), make_pp(alpha=0.3)]
        rng = np.random.default_rng(7)
        while len(zones) < 8:
            alpha, r = 10.0 ** rng.uniform(-5.0, -0.3), rng.uniform(0.9, 0.99)
            t = rng.uniform(0.35, 0.6)
            pp = make_pp(alpha=alpha, r=r, t=t, s=rng.uniform(t, 0.65),
                         beta=rng.uniform(0.05, 0.45))
            if (1.0 + pp.beta) * pp.inner_scale < (1.0 - pp.beta) * pp.outer_scale:
                zones.append(pp)
        for pp in zones:
            part = bd.Partition(pp)
            for region, j in (("inner", 1), ("inner", 2), ("outer", 2), ("outer", 3)):
                oracle = fd_grad_sup(part, region, j)
                got = grad_sup(part, region, j)
                assert abs(got - oracle) <= 1e-7 * oracle, (pp, region, j)
        part = bd.Partition(make_pp(alpha=0.3))
        assert grad_sup(part, "outer", 2) == grad_sup(part, "outer", 3) == 0.0

    def test_support_ordering_guard(self):
        # the plain constructor checks it: the chi_1 plateau meets the chi_3 ramp
        with pytest.raises(DomainError, match="overlap the chi_3 ramp"):
            bd.Partition(make_pp(alpha=0.9))

    def test_full_validation(self):
        make_pp().validate()
        with pytest.raises(DomainError):
            make_pp(r=0.88).validate()     # r below 8/9
        with pytest.raises(DomainError):
            make_pp(s=0.45).validate()     # s below t
        with pytest.raises(DomainError):
            make_pp(t=0.3).validate()      # t below 1/3 (legal to build)
        with pytest.raises(DomainError):
            make_pp(t=0.96)                # constructor sanity: t < r


class TestMeanField:
    def test_dual_routes_and_value(self, reference_bump):
        newton, mom = bd.mean_field_constant_routes(reference_bump)
        assert abs(mom / newton - 1.0) < 1e-8
        assert bd.mean_field_constant(reference_bump) == newton
        # frozen dev oracle (mpmath-checked Newton-route quadrature)
        assert abs(newton - 0.9224234359) < 1e-8

    def test_uniform_ball(self):
        g_ball = lambda r: np.where(
            np.asarray(r) < 1.0, math.sqrt(3.0 / (4.0 * math.pi)), 0.0
        )
        cs = sc.CoherentSpec(s_exponent=0.5, g_profile=g_ball, grad_sup=0.0,
                             support_volume=4.0 * math.pi / 3.0)
        assert abs(bd.mean_field_constant(cs) - 0.6) < 1e-8

    def test_scale_invariance(self, reference_bump):
        # c(phi_a) * a = c(phi), phi_a = a^-3 phi(x/a): direct quadrature of
        # the scaled profile against the library value for the unit profile
        c_unit = bd.mean_field_constant(reference_bump)
        a = 0.35
        phi = lambda v: float(np.atleast_1d(reference_bump.g_profile(np.array([v / a])))[0]) ** 2 / a**3

        def inner(u):
            return quad(lambda v: phi(v) * v * v, 0.0, min(u, a), epsabs=1e-14, epsrel=1e-12)[0]

        def outer(u):
            return quad(lambda v: phi(v) * v, min(u, a), a, epsabs=1e-14, epsrel=1e-12)[0]

        c_scaled = 0.5 * (4 * math.pi) ** 2 * quad(
            lambda u: phi(u) * u * u * (inner(u) / u + outer(u)), 0.0, a,
            epsabs=1e-13, epsrel=1e-11, limit=200,
        )[0]
        assert abs(c_scaled * a - c_unit) < 1e-8 * c_unit

    def test_mean_field_error_power(self):
        c = 0.9
        err = bd.mean_field_error(1.0, 2.0 / math.pi, 0.5, c)
        assert abs(err.value(1e-3) - 2.0 / math.pi * c * 10.0**1.5) < 1e-10
        assert err.exponent == -0.5
        seq = [err.value(a) * a ** (2.0 / 3.0) for a in (1e-2, 1e-3, 1e-4)]
        assert all(x > y for x, y in zip(seq, seq[1:]))


class TestInnerZone:
    def test_value_and_exponent(self):
        res = bd.inner_zone_bound(make_pp(), 2).bound
        assert res.exponent == pytest.approx(-1.15)
        assert res.exponent > -4.0 / 3.0
        expected = -4.4827 * 16 * 1.1**3 * 2 * (1e-3) ** (-1.15)
        assert abs(res.value(1e-3) - expected) < 1e-9 * abs(expected)

    def test_exponent_boundary(self):
        res = bd.inner_zone_bound(make_pp(r=8.0 / 9.0 + 1e-6), 2).bound
        assert -4.0 / 3.0 < res.exponent < -4.0 / 3.0 + 1e-5

    def test_alpha_sweep_below_budget_order(self):
        seq = [abs(bd.inner_zone_bound(make_pp(alpha=a), 2).bound.value(a)) * a ** (4.0 / 3.0)
               for a in (1e-2, 1e-3, 1e-4)]
        assert all(x > y for x, y in zip(seq, seq[1:]))

    def test_threshold_reported_and_scale_free(self):
        # C comes from the scale-free ramp sups, so the threshold cannot
        # depend on alpha (grad_sup^2 times inner_scale^2 read 0.0 from
        # alpha = 1e-165 on and inf from 1e-175 on)
        threshold = bd.inner_zone_bound(make_pp(), 2).alpha_threshold
        assert abs(threshold / 5.266594816502026e-28 - 1.0) < 1e-12  # desk alphas sit far above it
        for k in range(3, 301):
            at_k = bd.inner_zone_bound(make_pp(alpha=10.0**-k), 2).alpha_threshold
            assert abs(at_k / threshold - 1.0) < 1e-12, k

    @pytest.mark.parametrize("q_spin", (0, -2))
    def test_spin_multiplicity_below_one_is_refused(self, q_spin):
        # q = 0 would zero the inner-zone term and q < 0 flip its sign
        with pytest.raises(DomainError, match="q_spin"):
            bd.inner_zone_bound(make_pp(), q_spin)


class TestDaubechiesSum:
    def test_zero_potential(self):
        grid = np.geomspace(0.01, 1.0, 50)
        V0 = RadialFunction(grid, np.zeros_like(grid))
        shell = (0.01, 1.0)
        assert bd.daubechies_eigenvalue_sum_bound(Dispersion(0.1), V0, 2, support=shell) == 0.0

    def test_chi2_zone_against_closed_form(self):
        pp = make_pp()
        delta = 2.0 / math.pi
        closed = bd.intermediary_zone_closed_form(pp, delta)
        grid = np.geomspace(pp.inner_scale, pp.outer_scale, 400)
        V = RadialFunction(grid, 2.0 * delta / grid)
        shell = (pp.inner_scale, pp.outer_scale)
        upper = bd.daubechies_eigenvalue_sum_bound(
            Dispersion(pp.alpha), V, 2, f_form="taylor_upper", support=shell
        )
        assert abs(upper / closed.value(pp.alpha) - 1.0) < 1e-8
        exact = bd.daubechies_eigenvalue_sum_bound(Dispersion(pp.alpha), V, 2, support=shell)
        assert abs(exact) <= abs(upper)
        assert abs(exact) >= 0.5 * abs(upper)

    def test_doubling_power_window(self):
        pp = make_pp(alpha=1e-2)
        grid = np.geomspace(pp.inner_scale, pp.outer_scale, 200)
        V1 = RadialFunction(grid, 0.3 / grid)
        V2 = RadialFunction(grid, 0.6 / grid)
        shell = (pp.inner_scale, pp.outer_scale)
        d = Dispersion(pp.alpha)
        b1 = bd.daubechies_eigenvalue_sum_bound(d, V1, 2, support=shell)
        b2 = bd.daubechies_eigenvalue_sum_bound(d, V2, 2, support=shell)
        assert 2.0**2.5 < b2 / b1 < 2.0**4.5

    def test_support_is_required(self):
        grid = np.geomspace(0.1, 10.0, 50)
        V = RadialFunction(grid, grid**-0.74)
        with pytest.raises(TypeError):
            bd.daubechies_eigenvalue_sum_bound(Dispersion(0.1), V, 2)

    def test_closed_forms_make_no_quad_calls(self, monkeypatch):
        calls = []
        real = numerics._quad

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(numerics, "_quad", counting)
        pp = make_pp()
        d = Dispersion(pp.alpha)
        grid = np.geomspace(pp.inner_scale, pp.outer_scale, 400)
        V = RadialFunction(grid, (4.0 / math.pi) / grid)
        daubechies_F(d, V.values)
        sc.momentum_integral_rel(d, V.values)
        bd.daubechies_eigenvalue_sum_bound(d, V, 2, support=(pp.inner_scale, pp.outer_scale))
        assert calls == []
        # the counter does see quadrature where it still runs
        bd.kernel_offdiag_numeric(pp, 2.0, 1.1)
        assert len(calls) >= 1


class TestIntermediaryZone:
    def test_exponent_audit(self):
        res = bd.intermediary_zone_closed_form(make_pp(), 2.0 / math.pi)
        exponents = [e for _, _, e in res.monomials]
        assert all(e > -4.0 / 3.0 for e in exponents)
        assert len(exponents) == 6
        assert res.exponent == min(exponents) == (0.5 - 3.0) / 2.0

    def test_quadrature_cross_check(self):
        # antiderivative vs direct radial quadrature of the bracket integrand
        pp = make_pp()
        delta = 2.0 / math.pi
        a = pp.alpha

        def integrand(x):
            s = 2.0 * delta / x
            return (2.0 / a) ** 1.5 * (
                0.4 * s**2.5 + (3.0 * a / 14.0) * s**3.5 + (a * a / 48.0) * s**4.5
            ) * x * x

        val, _ = quad(integrand, pp.inner_scale, pp.outer_scale,
                      epsabs=1e-10, epsrel=1e-12, limit=400)
        val *= -2.0 * 0.163 * 4.0 * math.pi
        closed = bd.intermediary_zone_closed_form(pp, delta).value(a)
        assert abs(val / closed - 1.0) < 1e-10

    def test_delta_to_zero(self):
        res = bd.intermediary_zone_closed_form(make_pp(), 1e-9)
        # the three brackets are the monomial pairs of the sum
        b1, b2, b3 = (bd.PowerSum(res.monomials[i:i + 2]).value(1e-3) for i in (0, 2, 4))
        assert abs(b2 / b1) < 1e-8
        assert abs(b3 / b1) < 1e-14


class TestDecayLemma:
    def test_superpolynomial_decay_in_log_space(self):
        # log(value) - n log(alpha) plunges once alpha^{r-1} has grown; at
        # desk alphas the exponential has not kicked in yet, so the honest
        # check lives deep in the asymptotic regime
        pp = lambda a: make_pp(alpha=a)
        n = 10
        logs = [bd.lemma_decay_envelope(pp(10.0**-k), 0.5, log=True)
                - n * math.log(10.0**-k) for k in (80, 160, 320)]
        assert logs[0] > logs[1] > logs[2]
        assert logs[-1] < -1e4

    def test_monotone_in_separation(self):
        pp = make_pp()
        vals = [bd.lemma_decay_envelope(pp, g) for g in (0.3, 0.5, 0.7)]
        assert vals[0] > vals[1] > vals[2]

    def test_numeric_below_envelope_example_triple(self):
        pp = make_pp(alpha=0.05, r=0.93)
        env = bd.lemma_decay_envelope(pp, 0.5)
        num = bd.kernel_offdiag_numeric(pp, 2.0, 1.0)
        assert num <= env

    @pytest.mark.parametrize("alpha,r", ((0.05, 0.93), (1e-3, 0.95), (1e-4, 0.95)))
    def test_envelope_tight_within_constant_factor(self, alpha, r):
        # the envelope dominates but stays within a moderate constant of the
        # Cauchy-Schwarz value: the slack is the K2 envelope's factor-4 and
        # the e^-t flattening, nothing structural
        pp = make_pp(alpha=alpha, r=r)
        env = bd.lemma_decay_envelope(pp, 0.45)
        num = bd.kernel_offdiag_numeric(pp, 2.0, 1.1)
        assert 0.02 <= num / env <= 1.0

    def test_offdiag_geometry(self):
        pp = make_pp(alpha=0.05, r=0.93)
        val = bd.kernel_offdiag_numeric(pp, 2.0, 1.0 + pp.beta)
        assert 0.0 < val < math.inf

    def test_offdiag_gamma_guard(self):
        with pytest.raises(DomainError):
            bd.kernel_offdiag_numeric(make_pp(), 2.0, 2.0)

    @pytest.mark.parametrize("alpha,r,gam", (
        (0.05, 0.93, 0.5), (1e-2, 0.95, 0.45), (1e-3, 0.95, 0.45),
        (1e-4, 0.95, 0.45), (1e-5, 0.95, 0.45), (1e-8, 0.95, 0.45),
    ))
    def test_offdiag_matches_the_k2_form(self, alpha, r, gam):
        # oracle: the kernel's prefactor written out by hand,
        # ||chi_-|| (alpha gamma)^-2 / (4 pi^2) (4 pi (gamma/alpha) int_{z0}^inf (K2(z)/z)^2 dz)^{1/2}
        pp = make_pp(alpha=alpha, r=r)
        a_out, b_in = 2.0, (1.0 - gam) * 2.0
        gamma = 1.0 - b_in / a_out
        z0 = gamma * a_out * pp.inner_scale / alpha
        spec = numerics.QuadratureSpec(rel_tol=1e-9, abs_tol=0.0, max_subdivisions=400)
        val, _ = numerics.integrate_1d(lambda z: (k2(z) / z) ** 2, z0, math.inf, spec)
        oracle = (bd._chi_minus_norm(pp) / (4.0 * math.pi**2 * (alpha * gamma) ** 2)
                  * math.sqrt(4.0 * math.pi * (gamma / alpha) * val))
        assert bd.kernel_offdiag_numeric(pp, a_out, b_in) == pytest.approx(oracle, rel=1e-14)


class TestLocalisationGradient:
    # (3/2) sup|grad chi_j|^2 alpha per unit ||f chi||^2 over the region
    @staticmethod
    def bound(alpha, region, j):
        return 1.5 * grad_sup(bd.Partition(make_pp(alpha=alpha)), region, j) ** 2 * alpha

    def test_outer_chi3_exponent(self):
        vals = {a: self.bound(a, "outer", 3) for a in (1e-2, 1e-3)}
        slope = math.log(vals[1e-3] / vals[1e-2]) / math.log(0.1)
        assert abs(slope - (1.0 - 2.0 * 0.5)) < 1e-3  # alpha^{1-2t}

    def test_inner_chi1_exponent(self):
        vals = {a: self.bound(a, "inner", 1) for a in (1e-2, 1e-3)}
        slope = math.log(vals[1e-3] / vals[1e-2]) / math.log(0.1)
        assert abs(slope - (1.0 - 2.0 * 0.95)) < 1e-3  # alpha^{1-2r}

    def test_invalid_combinations(self):
        # chi_1 is constant outside 2 alpha^r and chi_3 inside it: no ramp
        part = bd.Partition(make_pp())
        for region, j in (("outer", 1), ("inner", 3)):
            assert part.ramp_sups(region, j) == []
            assert grad_sup(part, region, j) == 0.0
        with pytest.raises(DomainError):
            part.ramp_sups("middle", 2)


@pytest.fixture(scope="module")
def budget_inputs(reference_bump):
    alpha = 1e-3
    sol = tf.solve(tf.TFParams(lam=1.0, Z=(2.0 / math.pi) / alpha), tol=1e-4)
    return sol, reference_bump


def scaled(sol, alpha):
    """The Z = 1 solution's profile viewed at Z = (2/pi)/alpha, exact by TF
    scaling."""
    return tf.TFSolution(tf.TFParams(lam=1.0, Z=(2.0 / math.pi) / alpha), sol.profile)


# the exponent tags as they were declared by hand, beside each term's value
DECLARED_TAGS = {
    "mean_field_smearing": lambda r, t, s: -s,
    "inner_zone": lambda r, t, s: 3.0 * r - 4.0,
    "intermediary_zone": lambda r, t, s: min(
        (t - 3.0) / 2.0, (r - 3.0) / 2.0, -(r + 1.0) / 2.0,
        -(t + 1.0) / 2.0, (1.0 - 3.0 * r) / 2.0, (1.0 - 3.0 * t) / 2.0,
    ),
    "localisation_gradient": lambda r, t, s: -2.0 * t,
    "coherent_kinetic": lambda r, t, s: -2.0 * s,
    "momentum_domain_change": lambda r, t, s: -(1.0 + t) / 2.0,
    "quartic_rest_correction": lambda r, t, s: -(1.0 + t) / 2.0,
    "mu_mass_bookkeeping": lambda r, t, s: 0.0,
}


def assert_declared_tags(sol, alpha, r, t, s, beta):
    budget = bd.assemble_error_budget(
        make_pp(alpha=alpha, r=r, t=t, s=s, beta=beta), scaled(sol, alpha),
        sc.CoherentSpec.reference(s),
    )
    tags = {term.name: term.alpha_exponent for term in budget.terms}
    assert set(tags) == set(DECLARED_TAGS) | {"localisation_exp_small"}
    for name, declared in DECLARED_TAGS.items():
        assert tags[name] == declared(r, t, s), (name, r, t, s, beta)  # bit for bit


class TestBudget:
    @pytest.mark.parametrize("alpha", (1e-3, 1e-6))
    @pytest.mark.parametrize("r,t,s", ((0.95, 0.5, 0.55), (0.90, 0.5, 0.55), (0.95, 0.65, 0.655)))
    def test_derived_tags_equal_the_declared_ones(self, neutral_solution, alpha, r, t, s):
        assert_declared_tags(neutral_solution, alpha, r, t, s, beta=0.1)

    def test_derived_tags_at_random_partitions(self, neutral_solution):
        # seeded admissible partitions r in (8/9, 1), 1/3 < t < s < 2/3,
        # beta in (0, 1/2): every tag is its declared formula, which has no beta
        rng = np.random.default_rng(19)
        for _ in range(20):
            r = rng.uniform(8.0 / 9.0, 1.0)
            t, s = np.sort(rng.uniform(1.0 / 3.0, 2.0 / 3.0, 2))
            beta = rng.uniform(0.0, 0.5)
            for alpha in (1e-3, 1e-6):
                assert_declared_tags(neutral_solution, alpha, r, t, s, beta)

    def test_tiny_alpha_gives_finite_values_or_a_named_domain_error(
        self, neutral_solution, reference_bump
    ):
        out_of_range = []
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(3, 301):
                alpha = 10.0**-k
                budget = bd.assemble_error_budget(
                    make_pp(alpha=alpha), scaled(neutral_solution, alpha), reference_bump
                )
                for term in budget.terms:
                    # a neutral atom's bookkeeping term is exactly 0.0
                    exact_zero = term.name == "mu_mass_bookkeeping"
                    assert math.isfinite(term.log_value) or (
                        exact_zero and term.log_value == -math.inf
                    ), (k, term.name)
                    try:
                        assert math.isfinite(term.value_at_alpha)
                    except DomainError as exc:
                        assert term.name in str(exc)
                        out_of_range.append(k)
        # the linear values do leave float range on the way down
        assert min(out_of_range) > 200

    def test_inputs_are_checked_at_the_start(self, budget_inputs):
        sol, cs = budget_inputs
        with pytest.raises(DomainError, match="2/pi"):
            bd.assemble_error_budget(make_pp(alpha=1.1e-3), sol, cs)  # delta = 0.7
        with pytest.raises(DomainError, match="1/3 < t"):
            bd.assemble_error_budget(make_pp(t=0.3, s=0.5), sol, sc.CoherentSpec.reference(0.5))
        with pytest.raises(DomainError, match="differs"):
            bd.assemble_error_budget(make_pp(), sol, sc.CoherentSpec.reference(0.6))

    def test_nine_terms_all_above_limit(self, budget_inputs):
        sol, cs = budget_inputs
        budget = bd.assemble_error_budget(make_pp(), sol, cs)
        assert len(budget.terms) == 9
        assert all(t.alpha_exponent > -4.0 / 3.0 for t in budget.terms)
        assert budget.margin() > 0.0

    def test_violation_names_inner_zone(self, budget_inputs):
        sol, cs = budget_inputs
        with pytest.raises(BudgetViolation) as info:
            bd.assemble_error_budget(make_pp(r=0.85), sol, cs)
        assert info.value.term_name == "inner_zone"
        assert info.value.budget is not None  # budget still available

    def test_csv_layout(self, budget_inputs):
        sol, cs = budget_inputs
        budget = bd.assemble_error_budget(make_pp(), sol, cs)
        lines = budget.to_csv().splitlines()
        assert lines[0] == "name,reference,alpha,value,exponent"
        assert len(lines) == 10
        assert all(len(line.split(",")) == 5 for line in lines)

    def test_scaled_total_decreases(self, reference_bump):
        prev = math.inf
        for alpha in (1e-2, 1e-3, 1e-4):
            sol = tf.solve(tf.TFParams(lam=1.0, Z=(2.0 / math.pi) / alpha), tol=1e-4)
            budget = bd.assemble_error_budget(make_pp(alpha=alpha), sol, reference_bump)
            scaled = budget.total * alpha ** (4.0 / 3.0)
            assert scaled < prev
            prev = scaled
