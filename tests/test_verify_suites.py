"""Every invariant suite must pass wholesale; these are the same checks the
``verify`` command runs, so `verify all` stays green iff this module does."""

import numpy as np
import pytest

from relatom import checks, numerics
from relatom import semiclassics as sc


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
