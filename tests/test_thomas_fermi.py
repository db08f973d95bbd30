import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest

from relatom import bounds as bd
from relatom import numerics
from relatom import semiclassics as sc
from relatom import thomas_fermi as tf
from relatom.errors import DivergentIntegral, DomainError, ShootingFailure, ToleranceFailure
from relatom.numerics import RadialFunction, grid_quadrature

# independent fixed-step RK4 shooting oracle (dev run, u = sqrt(x) variable,
# 54 bisections, Sommerfeld classification window x <= 50)
SLOPE0_ORACLE = -1.5880710

ION_LAMBDAS = (1e-3, 0.01, 0.5, 0.9, 0.99)

# slope0 of the lambda = 0.5 ion from a 22-digit mpmath solution of
# (phi, phi')_u = (2u phi', 2 phi^{3/2}), u = sqrt(xi), with edge flux 1/2
SLOPE0_HALF_MPMATH = -1.60740991140427877


def rho_mass(rho: RadialFunction):
    mass = grid_quadrature(lambda v: rho(v) * v * v, rho.grid)
    return 4.0 * math.pi * (mass + rho.head_integral(1.0, 2) + rho.tail_integral(1.0, 2))


class TestSolve:
    def test_neutral_slope(self, neutral_solution):
        assert abs(neutral_solution.slope0 - SLOPE0_ORACLE) < 1e-4

    def test_neutral_mu_zero(self, neutral_solution):
        assert neutral_solution.mu == 0.0
        assert math.isinf(neutral_solution.edge_radius)

    def test_neutral_mass_error(self, neutral_solution):
        # -1.27e-9 with the series head and the second-order Sommerfeld tail;
        # a phi = 1 head and a first-order tail gave -3.33e-9
        assert abs(neutral_solution.profile.mass - 1.0) <= 2e-9

    def test_over_charged_matches_neutral(self, neutral_solution):
        sol = tf.solve(tf.TFParams(lam=1.5, Z=1.0))
        assert sol.mu == 0.0
        assert abs(tf.tf_energy(sol) - tf.tf_energy(neutral_solution)) < 1e-6 * abs(
            tf.tf_energy(neutral_solution)
        )

    @pytest.mark.parametrize("lam, Z", ((1.0, 1e200), (0.5, 1e200), (1.0, 6.4e149),
                                        (1.0, 1e100), (1.0, 1e147), (0.5, 1e100)))
    def test_huge_charge_is_refused_without_a_warning(self, lam, Z):
        # the density, or below Z ~ 1e148 its PCHIP coefficients, overflow
        # float range: a typed refusal naming Z, not numpy's overflow warning
        # and an unrelated RadialFunction message
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape(f"Z = {Z!r} is too large")):
                tf.solve(tf.TFParams(lam=lam, Z=Z), tol=1e-4)

    def test_scaled_view_refuses_its_density_lazily(self):
        # the budget's reads stay finite at Z = 1e100; the density's PCHIP
        # would leave float range, so reading rho is the typed refusal
        sol = tf.TFSolution(tf.TFParams(lam=0.5, Z=1e100), tf._solve_universal(0.5))
        assert all(map(math.isfinite, (sol.mu, sol.electron_count, tf.tf_energy(sol))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=re.escape("Z = 1e+100 is too large")):
                sol.rho

    @pytest.mark.parametrize("lam", (1.0, 0.5))
    @pytest.mark.parametrize("Z", (10.0, 636.6, 1e4))
    def test_scaled_view_is_the_solution_at_z(self, lam, Z):
        view = tf.TFSolution(tf.TFParams(lam, Z), tf.solve(tf.TFParams(lam, 1.0)).profile)
        sol = tf.solve(tf.TFParams(lam, Z), tol=1e-4)
        assert (view.mu, view.energy_terms, view.electron_count) == (
            sol.mu, sol.energy_terms, sol.electron_count)
        assert np.array_equal(view.rho.values, sol.rho.values)
        assert tf.tf_equation_residual(view) == tf.tf_equation_residual(sol)

    @pytest.mark.parametrize("lam", ION_LAMBDAS)
    def test_ion_mass_and_mu(self, lam):
        sol = tf.solve(tf.TFParams(lam=lam, Z=1.0))
        assert sol.mu > 0.0
        assert abs(rho_mass(sol.rho) - lam) < 1e-6 * lam
        assert abs(sol.electron_count - lam) < 1e-6 * lam

    @pytest.mark.parametrize("lam", ION_LAMBDAS)
    def test_ion_edge_flux(self, lam):
        # -x0 phi'(x0) = 1 - lambda defines the free boundary
        sol = tf.solve(tf.TFParams(lam=lam, Z=1.0))
        x0 = sol.edge_radius
        assert abs(-x0 * sol.profile.edge_slope - (1.0 - lam)) < 1e-9

    @pytest.mark.parametrize("lam, max_shots", (
        (0.2, 12), (0.4, 12), (0.5, 12), (0.6, 12), (0.8, 12), (0.99, 12), (1e-3, 30), (1.0, 2)))
    def test_shot_budget(self, monkeypatch, lam, max_shots):
        # secant steps on logit(flux) find Brent's bracket: 8 to 10 trial
        # shots from lambda = 0.2 to 0.99, plus the shot that re-reads the
        # edge step (20 to 30 shots in all when Brent's method started from
        # [-60, -1.58]); at 1e-3 the miss is flat and noisy near the root and
        # Brent's method bisects through the noise, 27 in all; the neutral
        # roots are pinned, so its profile searches nothing and is read off
        # one outward and one inward shot
        shots = []
        real = tf.shoot

        def counting(*args, **kwargs):
            shots.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tf, "shoot", counting)
        tf._solve_universal.__wrapped__(lam)
        assert 0 < len(shots) <= max_shots
        # no slope is shot twice: the root's profile is read off its Brent shot
        starts = [args[1] for args in shots if args[2] in (0.0, tf._XI0)]
        assert len(set(starts)) == len(starts)
        if lam == 1.0:
            ends = [(tf._XI0, tf._XI_MATCH), (tf._XI_FAR, tf._XI_MATCH)]
            assert [args[2:4] for args in shots] == ends
        else:
            # every trial is a u-shot from the origin; the last shot re-reads
            # the step that straddles the edge
            assert all(args[0] is tf._rhs_u for args in shots)
            assert len(starts) == len(shots) - 1

    @pytest.mark.parametrize("lam, max_rhs", ((0.5, 6_400), (1.0, 2_863)))
    def test_rhs_budget(self, monkeypatch, lam, max_rhs):
        # the grid values are read off the recorded steps: re-integrating
        # every radius from its step start cost 51,572 and 122,607 calls;
        # the neutral search behind the pinned roots cost 94,409; the ion's
        # 21 xi-shots from a series start cost 31,910, its 10 u-shots 6,189
        # (the five far from the root at the coarse tolerance)
        calls = [0]
        rhs = "_rhs" if lam == 1.0 else "_rhs_u"
        real = getattr(tf, rhs)

        def counting(x, y):
            calls[0] += 1
            return real(x, y)

        monkeypatch.setattr(tf, rhs, counting)
        tf._solve_universal.__wrapped__(lam)
        assert 0 < calls[0] <= max_rhs

    @pytest.mark.parametrize("lam", (0.5, 1.0))
    def test_phi_interpolant_is_built_once_per_lambda(self, monkeypatch, lam):
        prof = tf._solve_universal.__wrapped__(lam)  # fresh: no interpolant cached yet
        monkeypatch.setattr(tf, "_solve_universal", lambda key: prof)
        builds = []
        real = numerics.Pchip

        class Counting(real):
            def __init__(self, x, y):
                builds.append(x.size)
                super().__init__(x, y)

        monkeypatch.setattr(numerics, "Pchip", Counting)
        for Z in (1.0, 10.0, 100.0):
            assert tf.solve(tf.TFParams(lam=lam, Z=Z)).phi is prof.phi_function
        assert builds == [prof.xi.size]  # phi once; no solve builds the density

    def test_repulsion_quadrature_runs_once_per_lambda(self, monkeypatch):
        prof = tf._solve_universal.__wrapped__(0.5)  # fresh: no integral cached yet
        monkeypatch.setattr(tf, "_solve_universal", lambda key: prof)
        samples = []
        real = tf._UniversalProfile.phi

        def counting(self, xi):
            samples.append(np.size(xi))
            return real(self, xi)

        monkeypatch.setattr(tf._UniversalProfile, "phi", counting)
        for Z in (1.0, 2.0, 10.0, 100.0):
            tf.solve(tf.TFParams(lam=0.5, Z=Z))
        # mass, I32, I52, the potential and the repulsion all come from one
        # sampling of phi at the grid's GL-12 nodes
        assert samples == [12 * (prof.xi.size - 1)]

    @pytest.mark.parametrize("lam", (0.5, 1.0))
    def test_mass_postcondition_is_enforced(self, monkeypatch, lam):
        # a profile 2e-6 too high carries 3e-6 too much mass; the TF residual
        # (about 2e-6) still meets tol = 1e-4, so only the mass gate can refuse it
        prof = tf._solve_universal(lam)
        bad = dataclasses.replace(prof, phi_values=prof.phi_values * (1.0 + 2e-6))
        monkeypatch.setattr(tf, "_solve_universal", lambda key: bad)
        with pytest.raises(ToleranceFailure, match="mass error"):
            tf.solve(tf.TFParams(lam=lam, Z=1.0), tol=1e-4)

    def test_residual_contract(self, neutral_solution, ion_solution):
        assert tf.tf_equation_residual(neutral_solution) <= 1e-7
        assert tf.tf_equation_residual(ion_solution) <= 1e-7

    def test_tol_out_of_range(self):
        with pytest.raises(DomainError):
            tf.solve(tf.TFParams(lam=1.0, Z=1.0), tol=1e-2)
        with pytest.raises(DomainError):
            tf.solve(tf.TFParams(lam=1.0, Z=1.0), tol=1e-13)

    def test_unreachable_tol_fails_honestly(self):
        with pytest.raises(ToleranceFailure):
            tf.solve(tf.TFParams(lam=1.0, Z=137.0), tol=2e-12)

    def test_extreme_ionization_bracket_failure(self):
        # target edge flux 1 - lambda -> 1 escapes the bisection bracket
        with pytest.raises(ShootingFailure):
            tf.solve(tf.TFParams(lam=1e-7, Z=1.0))

    def test_slope_bracket_bounds_the_ion_domain(self):
        # slope0 = -53.74 at 5e-4 lies inside [-60, -1.58]; -75.48 at 3e-4 does not
        assert tf.solve(tf.TFParams(lam=5e-4, Z=1.0)).slope0 > -60.0
        with pytest.raises(ShootingFailure, match=re.escape("in [-60.0, -1.58]")):
            tf.solve(tf.TFParams(lam=3e-4, Z=1.0))

    def test_ion_slope_matches_the_mpmath_solution(self):
        # the xi-shot from the series start at 1e-8 missed it by 1.45e-12
        assert abs(tf._solve_universal(0.5).slope0 - SLOPE0_HALF_MPMATH) <= 1e-14


def _reintegrated(shot, points, rhs, tol):
    """Oracle: phi at each point of the shot's variable re-integrated from
    the last accepted step start at or before it, in the direction of the
    shot."""
    sign = 1.0 if shot.x_end > shot.steps[0][0] else -1.0
    starts = sign * np.array([x for x, _ in shot.steps])
    values = []
    for r, k in zip(points, np.searchsorted(starts, sign * points, side="right") - 1):
        xk, yk = shot.steps[k]
        values.append(yk[0] if xk == r else tf.shoot(rhs, yk, xk, r, tol).y_end[0])
    return np.maximum(values, 0.0)


class TestReadout:
    @pytest.mark.parametrize("lam", (1.0, 0.5, 0.01))
    def test_matches_per_radius_reintegration(self, lam):
        prof = tf._solve_universal(lam)
        xi = prof.xi
        if prof.x_edge is None:
            near = xi <= tf._XI_MATCH
            out = tf._shoot(prof.slope0, tf._XI_MATCH)
            inward = tf._shoot_in(prof.tail_amplitude)
            oracle = np.concatenate([_reintegrated(out, xi[near], tf._rhs, tf._ODE_TOL),
                                     _reintegrated(inward, xi[~near], tf._rhs, tf._ODE_TOL)])
        else:
            shot = tf._shoot_ion(prof.slope0)
            assert tf._edge(shot) == (prof.x_edge, prof.edge_slope)
            u = np.sqrt(xi)
            oracle = np.append(_reintegrated(shot, u[:-1], tf._rhs_u, tf._ION_TOL), 0.0)
            # phi falls to ~1e-15 inside the step that straddles the edge;
            # a Hermite fit across the edge misses it by 4e-5 relative
            edge_step = slice(np.searchsorted(u, shot.steps[-2][0], side="right"), -1)
            assert xi[edge_step].size > 10
            assert np.max(np.abs(prof.phi_values[edge_step] / oracle[edge_step] - 1.0)) <= 1e-6
        assert np.max(np.abs(prof.phi_values - oracle)) <= 1e-12

    def test_grid_beyond_the_shot_is_refused(self):
        shot = tf._shoot(tf._solve_universal(1.0).slope0, 5.0)
        with pytest.raises(ShootingFailure):
            tf._readout(shot.steps, np.array([1.0, 10.0]), tf._xi_jets)


class TestEnergy:
    def test_two_route_agreement_neutral(self, neutral_solution):
        e_func = tf.tf_energy(neutral_solution)
        e_slope = tf.tf_energy_slope_identity(neutral_solution)
        assert abs(e_func / e_slope - 1.0) < 1e-4

    def test_two_route_agreement_ion(self, ion_solution):
        e_func = tf.tf_energy(ion_solution)
        e_slope = tf.tf_energy_slope_identity(ion_solution)
        assert abs(e_func / e_slope - 1.0) < 1e-4

    def test_functional_matches_slope_identity_far_ion(self):
        # the verify line's two routes at lambda = 1e-3, which verify leaves
        # out to spare every request a fresh ion solve (measured 1.6e-7)
        sol = tf.solve(tf.TFParams(lam=1e-3, Z=1.0))
        e_func = tf.tf_functional(sol.params, sol.rho)
        assert abs(e_func / tf.tf_energy_slope_identity(sol) - 1.0) <= 1e-6

    def test_energy_negative(self, neutral_solution, ion_solution):
        assert tf.tf_energy(neutral_solution) < 0.0
        assert tf.tf_energy(ion_solution) < 0.0

    @pytest.mark.parametrize("Z", (2.0, 10.0, 137.0))
    def test_z_scaling(self, neutral_solution, Z):
        sol = tf.solve(tf.TFParams(lam=1.0, Z=Z))
        ratio = tf.tf_energy(sol) / (Z ** (7.0 / 3.0) * tf.tf_energy(neutral_solution))
        assert abs(ratio - 1.0) < 1e-6

    def test_variational_minimum(self, ion_solution):
        # admissible zero-mass perturbations cannot lower the functional
        # beyond O(eps^2)
        sol = ion_solution
        rho = sol.rho
        e0 = tf.tf_functional(sol.params, rho)
        rng = np.random.default_rng(17)
        eps = 1e-3
        grid = rho.grid
        for _ in range(5):
            r1, r2 = rng.uniform(0.3, 2.0, size=2) * sol.b
            w = 0.3 * sol.b
            eta = np.exp(-((grid - r1) / w) ** 2) - np.exp(-((grid - r2) / w) ** 2)
            # project out the monopole so the electron count is unchanged
            base = np.exp(-((grid - 0.5 * (r1 + r2)) / (2 * w)) ** 2)
            m_eta = grid_quadrature(lambda v, e=eta: np.interp(v, grid, e) * v * v, grid)
            m_base = grid_quadrature(lambda v, b=base: np.interp(v, grid, b) * v * v, grid)
            eta = eta - base * (m_eta / m_base)
            scale = np.max(np.abs(eta)) / np.max(rho.values)
            eta = eta / scale * 0.1  # keep rho + eps eta >= 0 in the bulk
            perturbed = np.maximum(rho.values + eps * eta, 0.0)
            rho_eps = dataclasses.replace(rho, values=perturbed)
            e_eps = tf.tf_functional(sol.params, rho_eps)
            assert e_eps >= e0 - 50.0 * eps**2 * abs(e0)

    def test_divergent_tail_is_typed(self, neutral_solution):
        rho = dataclasses.replace(neutral_solution.rho, tail_exponent=-2.0)
        with pytest.raises(DivergentIntegral):
            tf.tf_functional(neutral_solution.params, rho)


class TestPotential:
    def test_divergent_head_is_typed(self):
        grid = np.geomspace(0.1, 10.0, 50)
        with pytest.raises(DivergentIntegral):
            tf.coulomb_potential(RadialFunction(grid, grid**-3.5))

    def test_nuclear_limit(self, neutral_solution):
        pot = tf.tf_potential(neutral_solution)
        r = pot.grid[0]
        assert abs(r * pot(r) - neutral_solution.params.Z) < 1e-6

    def test_matches_screening_function(self, neutral_solution):
        sol = neutral_solution
        pot = tf.tf_potential(sol)
        r = pot.grid[::50]
        expected = (sol.params.Z / r) * sol.phi(r / sol.b)
        assert np.max(np.abs(pot(r) - expected) / np.abs(expected)) < 1e-8

    def test_dominated_by_bare_coulomb(self, ion_solution):
        pot = tf.tf_potential(ion_solution)
        Z = ion_solution.params.Z
        assert np.all(pot.values <= Z / pot.grid + 1e-12)

    def test_z_scaling_of_potential(self, neutral_solution):
        # V^{N,Z}(x) = Z^{4/3} V^{lam,1}(Z^{1/3} x)
        Z = 10.0
        solZ = tf.solve(tf.TFParams(lam=1.0, Z=Z))
        potZ = tf.tf_potential(solZ)
        pot1 = tf.tf_potential(neutral_solution)
        for x in (0.01, 0.1, 1.0):
            lhs = potZ(x)
            rhs = Z ** (4.0 / 3.0) * pot1(Z ** (1.0 / 3.0) * x)
            assert abs(lhs - rhs) < 1e-6 * abs(rhs)


class TestMuIdentity:
    # the budget's mu_mass_bookkeeping term alpha mu |int rho - N|, zero in
    # exact arithmetic by the TF trichotomy; alpha = 0.5 puts delta = Z alpha
    # inside (0, 2/pi] for these Z = 1 solutions
    ALPHA = 0.5

    def bookkeeping(self, sol):
        pp = bd.PartitionParams(r=0.95, t=0.5, s=0.55, beta=0.1, alpha=self.ALPHA)
        budget = bd.assemble_error_budget(pp, sol, sc.CoherentSpec.reference(0.55))
        return {t.name: t for t in budget.terms}["mu_mass_bookkeeping"].value_at_alpha

    def test_neutral(self, neutral_solution):
        assert self.bookkeeping(neutral_solution) == 0.0

    def test_ion(self, ion_solution):
        sol = ion_solution
        bound = self.ALPHA * 1e-8 * (1.0 + sol.mu * sol.params.N)
        assert self.bookkeeping(sol) <= bound

    def test_over_charged(self):
        sol = tf.solve(tf.TFParams(lam=1.5, Z=1.0))
        assert self.bookkeeping(sol) == 0.0


class TestSerialization:
    def test_round_trip(self, ion_solution):
        text = tf.solution_to_json(ion_solution)
        restored = tf.solution_from_json(text)
        assert restored.params == ion_solution.params
        assert restored.slope0 == ion_solution.slope0
        assert restored.mu == ion_solution.mu
        assert restored.edge_radius == ion_solution.edge_radius
        assert np.array_equal(restored.phi.grid, ion_solution.phi.grid)
        assert np.max(np.abs(restored.phi.values - ion_solution.phi.values)) <= 1e-15
        assert np.max(np.abs(restored.rho.values - ion_solution.rho.values)) <= 1e-15 * np.max(
            ion_solution.rho.values
        )
        assert tf.tf_equation_residual(restored) <= 1e-6

    def test_round_trip_neutral_energy(self, neutral_solution):
        restored = tf.solution_from_json(tf.solution_to_json(neutral_solution))
        e0 = tf.tf_energy(neutral_solution)
        assert abs(tf.tf_energy(restored) - e0) < 1e-9 * abs(e0)

    def test_loads_files_with_spin_q(self, ion_solution):
        # files written before TFParams dropped spin_q carry the key
        doc = json.loads(tf.solution_to_json(ion_solution))
        doc["params"]["spin_q"] = 1
        restored = tf.solution_from_json(json.dumps(doc))
        assert restored.params == ion_solution.params
        assert restored.energy_terms == ion_solution.energy_terms

    @pytest.mark.parametrize("lam,Z,tails", (
        (1.0, 1.0, (-3.0, -6.0)), (0.5, 1.0, (None, None)), (0.9, 137.0, (None, None)),
        (0.01, 100.0, (None, None)), (1.0, 636.6, (-3.0, -6.0)),
    ))
    def test_text_round_trip_and_tails(self, lam, Z, tails):
        # the file's mu, rho and energy terms are derived again on loading,
        # from its grid and phi (and a refitted neutral tail amplitude);
        # tol is tf-solve's default, which Z = 137 and 636.6 need
        text = tf.solution_to_json(tf.solve(tf.TFParams(lam=lam, Z=Z), tol=1e-6))
        restored = tf.solution_from_json(text)
        assert tf.solution_to_json(restored) == text
        assert (restored.phi.tail_exponent, restored.rho.tail_exponent) == tails

    def test_json_is_plain(self, neutral_solution):
        doc = json.loads(tf.solution_to_json(neutral_solution))
        assert set(doc) == {
            "params", "slope0", "mu", "edge_radius", "grid", "phi", "rho", "energy_terms",
        }
        assert doc["edge_radius"] is None  # neutral: infinity encodes as null


class TestMonotonicity:
    def test_ctf_nondecreasing_in_lambda(self):
        ctf = [
            -tf.tf_energy(tf.solve(tf.TFParams(lam=l, Z=1.0)))
            for l in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(ctf, ctf[1:]))
