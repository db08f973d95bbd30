import math

import numpy as np
import pytest
from scipy.special import kv

from relatom import numerics
from relatom.errors import DomainError
from relatom.numerics import QuadratureSpec, integrate_1d
from relatom.specfun import (
    SERIES_CUTOFF,
    K2Method,
    heat_kernel,
    heat_kernel_normalization,
    k2,
    k2_second_moment,
    k2_upper_envelope,
    localisation_kernel,
)

# frozen from the adaptive defining-integral quadrature at rel_tol 1e-12
K2_AT_1 = 1.6248388986351775
K2_AT_10 = 2.1509817006932769e-5


class TestK2:
    def test_reference_values(self):
        assert abs(k2(1.0) - K2_AT_1) < 1e-9 * K2_AT_1
        assert abs(k2(10.0) - K2_AT_10) < 1e-9 * K2_AT_10

    def test_small_t_limit(self):
        # t^2 K2(t) -> 2
        for t in (1e-3, 1e-4):
            assert abs(t * t * k2(t) - 2.0) < 0.01 * 2.0

    def test_domain(self):
        for t in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                k2(t)

    def test_infinity(self):
        assert k2(math.inf) == 0.0

    def test_against_scipy_kv(self):
        # both sides of the series cutoff, then log-spaced up to 690, where
        # scipy's kv itself drifts to about 5e-14 relative
        t = np.concatenate([SERIES_CUTOFF * np.array([1 - 1e-9, 1 + 1e-9]),
                            np.geomspace(SERIES_CUTOFF, 690.0, 256)])
        ours = np.array([k2(x) for x in t])
        assert np.max(np.abs(ours / kv(2, t) - 1.0)) < 1e-13

    def test_default_runs_no_adaptive_quadrature(self, monkeypatch):
        calls = []
        real_quad = numerics._quad

        def counting(*args):
            calls.append(args)
            return real_quad(*args)

        monkeypatch.setattr(numerics, "_quad", counting)
        for t in np.geomspace(SERIES_CUTOFF, 690.0, 32):
            k2(t)
        assert not calls
        k2(1.0, K2Method.GAMMA_REWRITE)  # the oracle route still counts
        assert len(calls) == 1

    @pytest.mark.parametrize("t", np.geomspace(0.05, 50.0, 16))
    def test_methods_agree(self, t):
        a = k2(t, K2Method.DEFINING_INTEGRAL)
        b = k2(t, K2Method.GAMMA_REWRITE)
        assert abs(a - b) < 1e-9 * a

    @pytest.mark.parametrize("t", np.geomspace(0.05, 0.2, 8))
    def test_series_validated_against_defining(self, t):
        a = k2(t, K2Method.DEFINING_INTEGRAL)
        s = k2(t, K2Method.SERIES_SMALL_T)
        assert abs(s - a) < 1e-9 * a


class TestEnvelope:
    def test_value_at_1(self):
        # 4 sqrt(pi/2) e^-1 (1 + 1/2 + 1/4)
        expected = 4.0 * math.sqrt(math.pi / 2.0) * math.exp(-1.0) * 1.75
        assert abs(k2_upper_envelope(1.0) - expected) < 1e-14

    def test_value_at_2(self):
        expected = 4.0 * math.sqrt(math.pi / 4.0) * math.exp(-2.0) * (1 + 0.25 + 0.0625)
        assert abs(k2_upper_envelope(2.0) - expected) < 1e-14

    @pytest.mark.parametrize("t", np.geomspace(0.01, 50.0, 64))
    def test_dominates_pointwise(self, t):
        assert k2(t) <= k2_upper_envelope(t)


class TestSecondMoment:
    def test_default_spec(self):
        value, _ = k2_second_moment()
        assert abs(value - 1.5 * math.pi) < 1e-8

    def test_envelope_moment_dominates(self):
        value, _ = integrate_1d(lambda t: t * t * k2_upper_envelope(t), 0.0, math.inf)
        assert value >= 1.5 * math.pi


class TestLocalisationKernel:
    def test_reference_point(self):
        # d = alpha = 1: K2(1)/(4 pi^2)
        assert abs(localisation_kernel(1.0, 1.0) - K2_AT_1 / (4 * math.pi**2)) < 1e-10

    def test_alpha_scaling(self):
        for d, a in ((0.3, 0.5), (2.0, 0.1)):
            lhs = localisation_kernel(d, a)
            rhs = a**-4 * localisation_kernel(d / a, 1.0)
            assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_monotone_decay(self):
        vals = [localisation_kernel(d, 1.0) for d in (1.0, 2.0, 4.0, 8.0)]
        assert all(x > y > 0.0 for x, y in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            localisation_kernel(0.0, 1.0)
        with pytest.raises(DomainError):
            localisation_kernel(1.0, 0.0)


class TestHeatKernel:
    @pytest.mark.parametrize("t", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    def test_normalization(self, t, alpha):
        norm = heat_kernel_normalization(t, alpha)
        assert abs(norm - math.exp(-t / alpha)) < 1e-8

    def test_at_origin(self):
        # t = alpha = 1, d = 0: (1/2 pi^2) K2(1)
        assert abs(heat_kernel(1.0, 0.0, 1.0) - K2_AT_1 / (2 * math.pi**2)) < 1e-10

    def test_semigroup_at_origin(self):
        # (HK_t * HK_s)(0) = HK_{t+s}(0) via radial convolution quadrature
        t, s, alpha = 0.7, 0.5, 1.0
        conv, _ = integrate_1d(
            lambda u: heat_kernel(t, u, alpha) * heat_kernel(s, u, alpha) * u * u,
            0.0, math.inf, QuadratureSpec(rel_tol=1e-9, abs_tol=1e-13),
        )
        conv *= 4.0 * math.pi
        target = heat_kernel(t + s, 0.0, alpha)
        assert abs(conv - target) < 1e-6 * target

    def test_domain(self):
        with pytest.raises(DomainError):
            heat_kernel(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            heat_kernel(1.0, -1.0, 1.0)

    def test_quadratic_form_against_momentum_symbol(self):
        # (f, e^{-t sqrt(p^2+1/a^2)} f) two ways for a unit Gaussian f:
        # position route uses the kernel and the analytic Gaussian
        # autocorrelation int f(x) f(x+z) d^3x = exp(-z^2/4w^2); momentum
        # route integrates |fhat|^2 against the symbol directly; both radial
        # integrals drop the common 4 pi
        t, alpha, w = 0.8, 1.0, 1.2
        auto = lambda z: math.exp(-z * z / (4.0 * w * w))
        spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
        position, _ = integrate_1d(
            lambda u: heat_kernel(t, u, alpha) * auto(u) * u * u, 0.0, math.inf, spec
        )
        # fhat(p) = (w^2/pi)^{3/4} exp(-w^2 p^2 / 2)
        momentum, _ = integrate_1d(
            lambda p: (w * w / math.pi) ** 1.5
            * math.exp(-w * w * p * p)
            * math.exp(-t * math.sqrt(p * p + alpha**-2)) * p * p,
            0.0, math.inf, spec,
        )
        assert abs(position - momentum) < 1e-9 * momentum


class TestLocalisationEnergyForm:
    def test_kinetic_quadratic_form_identity(self):
        # (f, (sqrt(p^2 + 1/a^2) - 1/a) f)
        #   = iint |f(x)-f(y)|^2 kappa(|x-y|), kappa the localisation kernel,
        # checked for a unit Gaussian: the double integral collapses to
        # 2 int kappa(z) (1 - exp(-z^2/4w^2)) d^3z via the autocorrelation;
        # both radial integrals drop the common 4 pi
        alpha, w = 0.7, 1.1
        spec = QuadratureSpec(rel_tol=1e-11, abs_tol=1e-14)
        rhs, _ = integrate_1d(
            lambda u: localisation_kernel(u, alpha)
            * (1.0 - math.exp(-u * u / (4.0 * w * w))) * u * u,
            0.0, math.inf, spec,
        )
        rhs *= 2.0
        lhs, _ = integrate_1d(
            lambda p: (w * w / math.pi) ** 1.5
            * math.exp(-w * w * p * p)
            * (math.sqrt(p * p + alpha**-2) - 1.0 / alpha) * p * p,
            0.0, math.inf, spec,
        )
        assert abs(rhs - lhs) < 1e-8 * lhs
