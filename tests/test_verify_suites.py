"""Every invariant suite must pass wholesale; these are the same checks the
``verify`` command runs, so `verify all` stays green iff this module does.

A line must also be able to fail.  Each mutation below is planted by
monkeypatching and must turn its line to FAIL:

| line | mutation |
| --- | --- |
| bounds: 0 <= gap/bound <= 1 | a second (2 pi)^3 under the whole bound |
| bounds: 0 <= gap/bound <= 1 | the gap's sign swapped, E_rel - alpha E_nr |
| thomas_fermi: tf_functional(rho) vs slope identity | the repulsion without its 1/2 |
"""

import math

import numpy as np
import pytest

from relatom import bounds as bd
from relatom import checks, numerics
from relatom import semiclassics as sc
from relatom import thomas_fermi as tf


@pytest.mark.parametrize("suite", sorted(checks.SUITES))
def test_suite_passes(suite):
    results = checks.run_suite_module(suite)
    failed = [r.line() for r in results if not r.passed]
    assert not failed, "\n".join(failed)


def test_all_alias_covers_every_module_suite(monkeypatch):
    ran = []

    def stub(key):
        def suite():
            ran.append(key)
            return []

        return suite

    monkeypatch.setattr(checks, "SUITES", {k: stub(k) for k in checks.SUITES})
    checks.run_suite("all")
    assert set(ran) == set(checks.SUITES)


def test_quadrature_budget(monkeypatch):
    # the adaptive integrals of `verify all` and their integrand
    # evaluations, at the measured count: a rule or a route that spends
    # more fails here
    calls, evals = [0], [0]
    real = numerics._quad

    def counting(f, a, b, spec):
        calls[0] += 1

        def g(x):
            evals[0] += 1
            return f(x)

        return real(g, a, b, spec)

    monkeypatch.setattr(numerics, "_quad", counting)
    checks.run_suite("all")
    assert calls[0] == 170
    assert evals[0] <= 54_600


def test_shot_budget(monkeypatch):
    # the TF solver's DOP853 shots in `verify all`, at the measured count:
    # two neutral shots and five ion profiles (lambda 0.2 ... 0.8) of 7 to
    # 9 trials from the unit edge; 106 when each ion searched by Brent's
    # method on [-60, -1.58], 52 with the outward secant bracket
    shots = [0]
    real = tf.shoot

    def counting(*args, **kwargs):
        shots[0] += 1
        return real(*args, **kwargs)

    tf._solve_universal.cache_clear()
    monkeypatch.setattr(tf, "shoot", counting)
    checks.run_suite("all")
    assert shots[0] == 42


def test_smeared_coulomb_transform_budget(monkeypatch):
    # (k, segment) pairs of the radial transforms behind the
    # "smeared-Coulomb routes" line, at its arguments: the Parseval pairing
    # spends 110,592; the r-space inverse transform it replaced, 2.26M
    pairs = [0]
    real = numerics.radial_fourier

    def counting(f, knots, k):
        pairs[0] += np.size(k) * (len(knots) - 1)
        return real(f, knots, k)

    monkeypatch.setattr(numerics, "radial_fourier", counting)
    monkeypatch.setattr(sc, "radial_fourier", counting)
    sc.coherent_potential_check(checks._gaussian(1.0), sc.CoherentSpec.reference(0.5), 0.3, 1.0)
    assert 0 < pairs[0] <= 120_000


def line(suite, prefix):
    return next(r for r in checks.SUITES[suite]() if r.name.startswith(prefix))


def test_gap_line_fails_on_a_units_slip(monkeypatch):
    # a second (2 pi)^3 under both terms; under the domain change alone the
    # largest gap/bound is 0.517, which the line cannot tell from a pass
    slip = (2.0 * math.pi) ** 3
    dce, quartic = sc.domain_change_error, bd.quartic_correction_bound
    monkeypatch.setattr(sc, "domain_change_error", lambda *args: dce(*args) / slip)
    monkeypatch.setattr(bd, "quartic_correction_bound", lambda delta, t: bd.PowerSum(tuple(
        (sign, log_c - math.log(slip), e) for sign, log_c, e in quartic(delta, t).monomials)))
    r = line("bounds", "0 <= gap/bound <= 1")
    assert not r.passed and r.measured > 1.0


def test_gap_line_fails_on_a_swapped_sign(monkeypatch):
    real = sc.phase_space_energy
    monkeypatch.setattr(sc, "phase_space_energy", lambda *args, **kw: -real(*args, **kw))
    r = line("bounds", "0 <= gap/bound <= 1")
    assert not r.passed and r.measured < 0.0


def test_two_route_energy_line_fails_on_a_doubled_repulsion(monkeypatch):
    # twice the Coulomb potential is the repulsion without its 1/2; the
    # functional reads the potential at its nodes, and past the grid
    real = tf.coulomb_potential

    def doubled(rho):
        pot, at_nodes = real(rho)
        return (lambda r: 2.0 * pot(r)), 2.0 * at_nodes

    monkeypatch.setattr(tf, "coulomb_potential", doubled)
    assert not line("thomas_fermi", "tf_functional(rho) vs slope identity").passed
