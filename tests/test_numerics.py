import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import erf

from relatom.errors import DivergentIntegral, DomainError, NonConvergence, StepFailure
from relatom.numerics import (
    QuadratureSpec,
    RadialFunction,
    coulomb_pairing,
    gl_rule,
    grid_quadrature,
    integrate_1d,
    newton_potential,
    radial_fourier,
    shoot,
)


def _end_by_shoot(rhs, y0, x0, x1, tol):
    return shoot(rhs, y0, x0, x1, tol=tol).y_end


# the DOP853 shots against the oracles
END_STATE = pytest.mark.parametrize("end_state", (_end_by_shoot,), ids=("shoot",))


def test_exponential_integral():
    value, err = integrate_1d(lambda x: math.exp(-x), 0.0, math.inf)
    assert abs(value - 1.0) < 1e-12
    assert err <= 1e-9


def test_endpoint_singular_power_law():
    # bisection alone resolves an integrable endpoint singularity
    plain, _ = integrate_1d(lambda x: x**-0.5, 0.0, 1.0)
    assert abs(plain - 2.0) < 1e-10


def test_slow_algebraic_tail_raises_nonconvergence():
    # (1 + x)^-1.5 leaves the mapped integrand singular at u = 1, where the
    # floats run out before bisection resolves it
    with pytest.raises(NonConvergence):
        integrate_1d(lambda x: (1.0 + x) ** -1.5, 0.0, math.inf)


def test_algebraic_tail_faster_than_x_squared():
    value, _ = integrate_1d(lambda x: (1.0 + x) ** -3, 0.0, math.inf)
    assert abs(value - 0.5) < 1e-12


def test_k2_second_moment_from_quadrature():
    # nested quadrature of t^2 K2(t) against its closed-form value 3 pi/2
    from relatom.specfun import k2

    value, _ = integrate_1d(lambda t: t * t * k2(t), 0.0, math.inf,
                            QuadratureSpec(rel_tol=1e-10, abs_tol=1e-12))
    assert abs(value - 1.5 * math.pi) < 1e-8


def test_radial_gaussian():
    value, _ = integrate_1d(lambda u: math.exp(-u * u) * u * u, 0.0, math.inf)
    assert abs(4.0 * math.pi * value - math.pi**1.5) < 1e-10


def test_radial_k2_kernel_total():
    # int K2(|x|/alpha) d^3x = 6 pi^2 alpha^3 at alpha = 1
    from relatom.specfun import k2

    value, _ = integrate_1d(lambda u: k2(u) * u * u, 0.0, math.inf,
                            QuadratureSpec(rel_tol=1e-9, abs_tol=1e-12))
    assert abs(4.0 * math.pi * value - 6.0 * math.pi**2) < 1e-6 * 6.0 * math.pi**2


def test_radial_unit_ball():
    value, _ = integrate_1d(lambda u: u * u if u < 1.0 else 0.0, 0.0, math.inf)
    assert abs(4.0 * math.pi * value - 4.0 * math.pi / 3.0) < 1e-8


def test_nonconvergence_with_exhausted_budget():
    # rapidly oscillating integrand with almost no subdivision budget
    with pytest.raises(NonConvergence) as info:
        integrate_1d(
            lambda x: math.sin(1.0 / x) / x,
            1e-6,
            1.0,
            QuadratureSpec(rel_tol=1e-13, abs_tol=0.0, max_subdivisions=10),
        )
    assert info.value.err_estimate is not None


def test_integrate_domain_error():
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_1d(lambda x: x, 2.0, 1.0)
    with pytest.raises(DomainError, match="lower limit"):
        integrate_1d(math.exp, -math.inf, 0.0)


@pytest.mark.parametrize("value", (math.nan, math.inf))
def test_non_finite_integrand_raises_nonconvergence(value):
    with pytest.raises(NonConvergence):
        integrate_1d(lambda x: value, 0.0, 1.0)


def test_relative_tolerance_below_50_eps_needs_an_absolute_one():
    eps = np.finfo(float).eps
    with pytest.raises(DomainError, match="50 machine epsilons"):
        integrate_1d(math.sqrt, 0.0, 1.0, QuadratureSpec(rel_tol=1e-15, abs_tol=0.0))
    spec = QuadratureSpec(rel_tol=50.0 * eps, abs_tol=0.0)
    value, _ = integrate_1d(lambda x: x * x, 0.0, 1.0, spec)
    assert abs(value - 1.0 / 3.0) < 1e-15


def test_quadrature_stops_at_its_rounding_floor():
    # 1e-15 is below the rule's floor 50 eps int |f|, and bisection cannot
    # lower a floor: the first interval's estimate is final
    evals = [0]

    def f(x):
        evals[0] += 1
        return x * x

    with pytest.raises(NonConvergence):
        integrate_1d(f, 0.0, 1.0, QuadratureSpec(rel_tol=1e-15, abs_tol=1e-300))
    assert evals[0] <= 100


_TF_B = -1.588071
_TF_X0 = 1e-6
_TF_Y0 = (1.0 + _TF_B * _TF_X0 + (4.0 / 3.0) * _TF_X0**1.5, _TF_B + 2.0 * math.sqrt(_TF_X0))


def _tf_rhs(x, y):
    return (y[1], max(y[0], 0.0) ** 1.5 / math.sqrt(x))


@lru_cache(maxsize=1)
def _tf_rk4_oracle():
    """phi(10) by classic RK4, 10^5 fixed steps, in the regularizing
    variable u = sqrt(x): dphi/du = 2 u z, dz/du = 2 phi^{3/2}.  10^4 steps
    agree to 1e-12; 10^6 drift 1.1e-11 off through the summed ``u += h``."""
    n = 100_000
    u0, u1 = math.sqrt(_TF_X0), math.sqrt(10.0)
    h = (u1 - u0) / n
    phi, z = _TF_Y0

    def f(u, phi, z):
        return 2.0 * u * z, 2.0 * max(phi, 0.0) ** 1.5

    u = u0
    for _ in range(n):
        k1 = f(u, phi, z)
        k2 = f(u + h / 2, phi + h / 2 * k1[0], z + h / 2 * k1[1])
        k3 = f(u + h / 2, phi + h / 2 * k2[0], z + h / 2 * k2[1])
        k4 = f(u + h, phi + h * k3[0], z + h * k3[1])
        phi += h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        z += h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        u += h
    return phi


@END_STATE
def test_solve_ivp_tf_equation_vs_fixed_step_oracle(end_state):
    # phi'' = phi^{3/2}/sqrt(x) from x = 1e-6 with a series start, against a
    # fixed-step fourth-order oracle in the regularizing variable u = sqrt(x)
    phi10 = end_state(_tf_rhs, _TF_Y0, _TF_X0, 10.0, 1e-11)[0]
    assert abs(phi10 - _tf_rk4_oracle()) < 1e-7


@END_STATE
def test_solve_ivp_blowup_reports_abscissa(end_state):
    # y'' = 2 y^3 from (1, 1) is y = 1/(1 - x), which blows up at x = 1
    with pytest.raises(StepFailure) as info:
        end_state(lambda x, y: (y[1], 2.0 * y[0] ** 3), (1.0, 1.0), 0.0, 2.0, 1e-8)
    assert info.value.last_x is not None
    assert 0.9 < info.value.last_x <= 2.0


@pytest.mark.parametrize("x0, x1", ((_TF_X0, 10.0), (10.0, 0.01)), ids=("outward", "inward"))
def test_shoot_records_its_accepted_steps(x0, x1):
    # steps run from (x0, y0) to the end state in the direction of the shot,
    # and each step end agrees with a direct shot to its abscissa
    tol = 1e-11
    y0 = _TF_Y0 if x0 < x1 else (0.05, -0.02)
    shot = shoot(_tf_rhs, y0, x0, x1, tol=tol)
    xs = np.array([x for x, _ in shot.steps])
    assert shot.x_end == x1
    assert shot.steps[0] == (x0, tuple(y0))
    assert shot.steps[-1] == (shot.x_end, shot.y_end)
    assert np.all(np.diff(xs) * (x1 - x0) > 0)
    for x, y in shot.steps[1:-1:len(shot.steps) // 4]:
        direct = shoot(_tf_rhs, y0, x0, x, tol=tol).y_end
        bound = 10.0 * tol * np.maximum(np.abs(direct), 1.0)
        assert np.all(np.abs(np.subtract(y, direct)) <= bound)


def test_shoot_stop_ends_after_the_first_step_past_the_condition():
    # y'' = y from (1, 1) is y = exp(x): the shot ends at the first step end
    # with y >= 2, not at x1
    shot = shoot(lambda x, y: (y[1], y[0]), (1.0, 1.0), 0.0, 5.0, tol=1e-10,
                 stop=lambda x, y: y[0] >= 2.0)
    assert math.log(2.0) <= shot.x_end < 5.0
    assert abs(shot.y_end[0] - math.exp(shot.x_end)) < 1e-9 * shot.y_end[0]
    assert shot.steps[-2][1][0] < 2.0


def test_shoot_is_reentrant():
    # a stop condition that itself shoots with the same (rhs, tol) leaves the
    # outer shot's steps as they are
    plain = shoot(_tf_rhs, _TF_Y0, _TF_X0, 10.0, tol=1e-11)
    inner = []

    def stop(x, y):
        inner.append(shoot(_tf_rhs, _TF_Y0, _TF_X0, 1.0, tol=1e-11).y_end)
        return False

    nested = shoot(_tf_rhs, _TF_Y0, _TF_X0, 10.0, tol=1e-11, stop=stop)
    assert nested.steps == plain.steps
    assert len(inner) == len(plain.steps)
    assert len(set(inner)) == 1


@pytest.mark.parametrize("y0", ((1.0,), (1.0, 0.0, 0.0)))
def test_shoot_refuses_a_state_that_is_not_a_pair(y0):
    with pytest.raises(DomainError):
        shoot(lambda x, y: y, y0, 0.0, 1.0)


def test_order_check_fails_when_shoot_ignores_its_tol(monkeypatch):
    # a shoot stuck at tol = 1e-6 misses the err <= 10 tol line by about 1e4
    from relatom import checks

    def stuck(rhs, y0, x0, x1, tol=1e-10, stop=None):
        return shoot(rhs, y0, x0, x1, tol=1e-6, stop=stop)

    monkeypatch.setattr(checks, "shoot", stuck)
    line = next(c for c in checks.check_numerics() if c.name.startswith("shoot"))
    assert not line.passed
    assert line.measured > 1e4


def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


class TestRadialFunction:
    def test_interpolates_and_extends(self):
        grid = np.geomspace(0.1, 10.0, 50)
        rf = RadialFunction(grid, grid**-2.0, tail_exponent=-2.0)
        assert np.array_equal(rf(grid), rf.values)   # exact at the knots
        assert abs(rf(1.0) - 1.0) < 1e-4             # 25 pts/decade interpolation
        assert abs(rf(0.01) - 1e4) < 1e-6 * 1e4      # log-log head is exact on powers
        assert abs(rf(100.0) - 1e-4) < 1e-12         # declared tail
        zero_tail = RadialFunction(grid, grid**-2.0)
        assert zero_tail(100.0) == 0.0
        assert zero_tail.tail_integral(1.0, 2) == 0.0

    def test_negative_head_extrapolates_its_power_law(self):
        grid = np.geomspace(0.1, 10.0, 50)
        rf = RadialFunction(grid, -1.0 / grid)
        assert abs(rf(0.01) + 100.0) < 1e-9
        # samples of opposite sign give no power law: the head stays constant
        mixed = RadialFunction(grid, np.where(grid < 0.11, 1.0, -1.0))
        assert mixed(0.01) == 1.0

    @pytest.mark.parametrize("p", (1.0, 5.0 / 3.0, 2.5))
    @pytest.mark.parametrize("k", (1, 2))
    def test_end_integrals_match_quadrature(self, p, k):
        grid = np.geomspace(0.1, 10.0, 50)
        rf = RadialFunction(grid, 2.0 * grid**-0.5 * np.exp(-0.01 * grid), tail_exponent=-4.0)
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=0.0)
        head, _ = integrate_1d(lambda u: rf(u) ** p * u**k, 0.0, grid[0], spec)
        tail, _ = integrate_1d(lambda u: rf(u) ** p * u**k, grid[-1], math.inf, spec)
        assert rf.head_integral(p, k) == pytest.approx(head, rel=1e-12)
        assert rf.tail_integral(p, k) == pytest.approx(tail, rel=1e-12)

    def test_negative_head_integral_is_signed(self):
        grid = np.geomspace(0.1, 10.0, 50)
        rf = RadialFunction(grid, -1.0 / grid)
        head, _ = integrate_1d(lambda u: rf(u) * u * u, 0.0, grid[0])
        assert head < 0.0
        assert rf.head_integral(1.0, 2) == pytest.approx(head, rel=1e-12)
        with pytest.raises(DomainError):
            rf.head_integral(5.0 / 3.0, 2)

    def test_divergent_end_integrals(self):
        # p e + k + 1 = 0 at both ends: f = u^-2, p = 1, k = 1
        rf = RadialFunction(np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.25, 0.0625]), -2.0)
        assert rf.head_exponent == -2.0
        with pytest.raises(DivergentIntegral):
            rf.head_integral(1.0, 1)
        with pytest.raises(DivergentIntegral):
            rf.tail_integral(1.0, 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            RadialFunction(np.array([1.0]), np.array([1.0]))
        with pytest.raises(DomainError):
            RadialFunction(np.array([1.0, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            RadialFunction(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            RadialFunction(np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        for grid, values in (([1.0, math.inf], [1.0, 1.0]), ([1.0, 2.0], [1.0, math.nan])):
            with pytest.raises(DomainError):
                RadialFunction(np.array(grid), np.array(values))

    def test_overflowing_interpolant_is_refused_without_a_warning(self):
        # finite samples whose PCHIP secant 1e300/1e-10 overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="leave float range"):
                RadialFunction(np.array([1.0, 1.0 + 1e-10, 2.0, 3.0]),
                               np.array([1.0, 1e300, 1.0, 0.5]))

    def test_grid_quadrature_matches_adaptive(self):
        grid = np.geomspace(1e-3, 20.0, 400)
        composite = grid_quadrature(lambda v: np.exp(-v) * v * v, grid)
        adaptive, _ = integrate_1d(lambda v: math.exp(-v) * v * v, 1e-3, 20.0)
        assert abs(composite - adaptive) < 1e-12


class TestNewtonPotential:
    @staticmethod
    def probe(knots, beyond):
        # every knot, every segment midpoint, and radii past the last knot
        mids = 0.5 * (knots[1:] + knots[:-1])
        return np.concatenate([knots[knots > 0], mids, beyond])

    def test_uniform_ball(self):
        rho0 = 2.5
        knots = np.array([0.0, 0.2, 0.55, 1.0])
        pot = newton_potential(lambda v: np.full_like(v, rho0), knots)
        r = self.probe(knots, np.array([1.5, 40.0]))
        exact = np.where(r <= 1.0, rho0 * (0.5 - r * r / 6.0), rho0 / (3.0 * r))
        assert np.max(np.abs(pot(r) - exact)) < 1e-15
        assert isinstance(pot(0.3), float)

    def test_truncated_gaussian(self):
        # e^{-v^2}: M/r + T = sqrt(pi) erf(r)/(4r); T carries the tail e^{-R^2}/2
        R = 6.0
        knots = np.geomspace(1e-3, R, 40)
        m_head = knots[0] ** 3 / 3.0   # e^{-v^2} = 1 to 1e-6 below the first knot
        pot = newton_potential(lambda v: np.exp(-v * v), knots, m_head=m_head,
                               t_tail=math.exp(-R * R) / 2.0)
        r = self.probe(knots, np.array([]))
        exact = math.sqrt(math.pi) * erf(r) / (4.0 * r)
        assert np.max(np.abs(pot(r) / exact - 1.0)) < 1e-12

    def test_domain(self):
        knots = np.linspace(0.5, 2.0, 5)
        tail_free = newton_potential(lambda v: np.ones_like(v), knots)
        with pytest.raises(DomainError):
            tail_free(0.4)
        m_total = (2.0**3 - 0.5**3) / 3.0
        assert abs(tail_free(3.0) - m_total / 3.0) < 1e-15
        with_tail = newton_potential(lambda v: np.ones_like(v), knots, t_tail=0.1)
        with pytest.raises(DomainError):
            with_tail(np.array([1.0, 2.5]))
        with pytest.raises(DomainError):
            newton_potential(lambda v: v, np.array([1.0, 0.5]))


class TestRadialFourier:
    def test_gaussian_closed_form(self):
        # e^{-v^2} -> pi^{3/2} e^{-p^2/4}, including the k = 0 mass
        p = np.linspace(0.0, 5.0, 51)
        hat = radial_fourier(lambda v: np.exp(-v * v), np.linspace(0.0, 8.0, 65), p)
        exact = math.pi**1.5 * np.exp(-p * p / 4.0)
        assert np.max(np.abs(hat / exact - 1.0)) < 1e-12
        assert isinstance(radial_fourier(lambda v: np.exp(-v * v), [0.0, 8.0], 1.0), float)

    @staticmethod
    def dense(f, knots, k):
        # the dense sine matrix over every node of the rule
        v, w = gl_rule(knots)
        fv = f(v) * v * w
        k = np.atleast_1d(np.asarray(k, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            return 4.0 * math.pi * np.where(k == 0.0, fv @ v, np.sin(np.outer(k, v)) @ fv / k)

    @pytest.mark.parametrize(
        "knots,k",
        (
            (np.linspace(0.0, 8.0, 65), np.array([0.0, -2.5, 1e-3, 3.0])),
            (np.linspace(0.5, 2.0, 7), np.array([-7.0])),
            # k v up to 1e4
            (np.linspace(0.0, 8.0, 65), np.linspace(0.0, 1250.0, 2001)),
            # 1,000 k: 25 blocks at 400 segments
            (np.linspace(0.0, 400.0, 401), np.linspace(-25.0, 25.0, 1000)),
        ),
    )
    def test_against_the_dense_sine_matrix(self, knots, k):
        f = lambda v: np.exp(-v * v) * (1.0 + np.cos(3.0 * v))
        oracle = self.dense(f, knots, k)
        assert np.max(np.abs(radial_fourier(f, knots, k) - oracle)) < 1e-13 * np.max(np.abs(oracle))
        scalar = radial_fourier(f, knots, float(k[-1]))
        assert isinstance(scalar, float)
        assert abs(scalar - oracle[-1]) < 1e-13 * np.max(np.abs(oracle))

    def test_knots_must_be_equally_spaced(self):
        f = lambda v: np.exp(-v * v)
        with pytest.raises(DomainError):
            radial_fourier(f, np.geomspace(1e-3, 8.0, 65), 1.0)
        with pytest.raises(DomainError):
            radial_fourier(f, [1.0], 1.0)
        with pytest.raises(DomainError):
            radial_fourier(f, [], 1.0)

    def test_round_trip_on_a_compact_bump(self):
        def bump(v):
            out = np.zeros_like(v)
            inside = v < 1.0
            out[inside] = np.exp(-1.0 / (1.0 - v[inside] ** 2))
            return out

        # the transform decays like e^{-sqrt(p)}: at p = 400 its tail still
        # moves the inverse by 2e-10, so the p-rule runs to 800
        v_knots = np.linspace(0.0, 1.0, 129)
        r = np.linspace(0.05, 1.5, 30)
        back = radial_fourier(
            lambda p: radial_fourier(bump, v_knots, p), np.linspace(0.0, 800.0, 801), r
        ) / (2.0 * math.pi) ** 3
        assert np.max(np.abs(back - bump(r))) < 1e-12


def test_coulomb_pairing_of_two_gaussians():
    # unit-mass Gaussians of widths sa, sb pair through 1/|x-y| to
    # sqrt(2/pi) / sqrt(sa^2 + sb^2); their transforms are e^{-p^2 s^2/2}
    def unit_gaussian(s):
        return lambda v: (2.0 * math.pi * s * s) ** -1.5 * np.exp(-0.5 * (v / s) ** 2)

    def knots(s):
        return np.linspace(0.0, 12.0 * s, 129)

    p_knots = np.linspace(0.0, 12.0, 49)
    a, b = unit_gaussian(1.0), unit_gaussian(0.5)
    pair = coulomb_pairing(a, knots(1.0), p_knots, b, knots(0.5))
    assert abs(pair / (math.sqrt(2.0 / math.pi) / math.sqrt(1.25)) - 1.0) < 1e-13
    # the self-pairing, on one transform, is the pairing of a with itself
    self_pair = coulomb_pairing(a, knots(1.0), p_knots)
    assert self_pair == coulomb_pairing(a, knots(1.0), p_knots, a, knots(1.0))
    assert abs(self_pair * math.sqrt(math.pi) - 1.0) < 1e-13
