import math

import numpy as np
import pytest
from scipy.integrate import quad

from relatom.kinetic import (
    Dispersion,
    daubechies_F,
    daubechies_F_upper,
    t_rel,
    t_rel_inverse,
)
from relatom.errors import DomainError


def test_t_rel_basics():
    d = Dispersion(1.0)
    assert t_rel(d, 0.0) == 0.0
    assert abs(t_rel(d, 1.0) - (math.sqrt(2.0) - 1.0)) < 1e-14


def test_t_rel_asymptotically_linear():
    for alpha in (1.0, 0.1, 0.01):
        d = Dispersion(alpha)
        p = 1e4 / alpha
        assert abs(t_rel(d, p) / p - 1.0) < 1e-3


def test_t_rel_inverse_values():
    d = Dispersion(1.0)
    assert t_rel_inverse(d, 0.0) == 0.0
    assert abs(t_rel_inverse(d, math.sqrt(2.0) - 1.0) - 1.0) < 1e-12
    d001 = Dispersion(0.01)
    assert abs(t_rel_inverse(d001, 1.0) - math.sqrt(201.0)) < 1e-12


def test_round_trip():
    rng = np.random.default_rng(5)
    for alpha in (1.0, 0.05):
        d = Dispersion(alpha)
        for t in rng.uniform(0.0, 1e3, size=100):
            assert abs(t_rel(d, t_rel_inverse(d, t)) - t) <= 1e-10 * (1.0 + t)


def test_nonrel_domination():
    # t_rel(q) <= alpha q^2 / 2, with a rounding slack
    rng = np.random.default_rng(6)
    cases = [(1.0, np.array([0.0, 1.0]))]
    cases += [(alpha, rng.uniform(0.0, 100.0, 50)) for alpha in (0.1, 0.01)]
    for alpha, q in cases:
        assert np.all(t_rel(Dispersion(alpha), q) <= 0.5 * alpha * q * q + 1e-15 * (1.0 + q * q))


def test_quartic_lower():
    # t_rel(p) >= alpha p^2/2 - alpha^3 p^4/8, with a rounding slack
    cases = [(1.0, np.array([0.0, 1.0]))]
    cases += [(alpha, np.geomspace(1e-3, 100.0 / alpha, 200)) for alpha in (1.0, 0.1, 0.01)]
    for alpha, p in cases:
        lower = 0.5 * alpha * p * p - 0.125 * alpha**3 * p**4
        assert np.all(t_rel(Dispersion(alpha), p) >= lower - 1e-15 * (1.0 + p**4))


def test_taylor_32_bound():
    # (1+x)^{3/2} <= 1 + 1.5x + 0.375x^2: the majorant behind
    # domain_change_error and daubechies_F_upper
    def taylor(x):
        return 1.0 + 1.5 * x + 0.375 * x * x

    assert taylor(1.0) == 2.875 >= 2.0**1.5
    assert taylor(8.0) == 37.0 >= 27.0
    x = np.geomspace(1e-3, 1e3, 100)
    assert np.all(taylor(x) >= (1.0 + x) ** 1.5)


class TestDaubechiesF:
    def test_zero(self):
        assert daubechies_F(Dispersion(1.0), 0.0) == 0.0
        assert daubechies_F_upper(Dispersion(1.0), 0.0) == 0.0

    def test_alpha1_s1_against_midpoint_oracle(self):
        # brute-force midpoint rule, 10^6 steps, for int_0^1 (t^2+2t)^{3/2} dt
        n = 1_000_000
        t = (np.arange(n) + 0.5) / n
        oracle = float(np.mean((t * t + 2.0 * t) ** 1.5))
        assert abs(daubechies_F(Dispersion(1.0), 1.0) - oracle) < 1e-8

    @pytest.mark.parametrize("alpha,s", ((1.984e-3, 2.141e-8), (1e-6, 1e-3), (1e-6, 1e7)))
    def test_closed_form_against_quadrature(self, alpha, s):
        # the defining integral with no absolute floor, so that the relative
        # tolerance binds where F itself is tiny
        c = 2.0 / alpha
        oracle, _ = quad(lambda t: (t * t + c * t) ** 1.5, 0.0, s, epsabs=0.0, epsrel=1e-13)
        assert abs(daubechies_F(Dispersion(alpha), s) / oracle - 1.0) < 1e-12

    def test_array_call_matches_scalar_calls(self):
        d = Dispersion(0.05)
        s = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 40)])
        assert np.array_equal(daubechies_F(d, s), [daubechies_F(d, x) for x in s])

    def test_upper_formula_instantiation(self):
        expected = 2.0**1.5 * (0.4 + 3.0 / 14.0 + 1.0 / 48.0)
        assert abs(daubechies_F_upper(Dispersion(1.0), 1.0) - expected) < 1e-14

    def test_upper_tightens_at_small_alpha(self):
        d = Dispersion(0.01)
        ratio = daubechies_F_upper(d, 1.0) / daubechies_F(d, 1.0)
        assert 1.0 <= ratio <= 1.05

    def test_upper_dominates_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            alpha = rng.uniform(1e-3, 1.0)
            s = rng.uniform(0.0, 10.0 / alpha)
            d = Dispersion(alpha)
            assert daubechies_F(d, s) <= daubechies_F_upper(d, s) * (1 + 1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            daubechies_F(Dispersion(1.0), -1.0)
        with pytest.raises(DomainError):
            daubechies_F(Dispersion(1.0), np.array([1.0, -1e-3]))
        with pytest.raises(DomainError):
            Dispersion(0.0)
