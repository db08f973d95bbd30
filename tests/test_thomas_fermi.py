import dataclasses
import functools
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
from relatom.numerics import RadialFunction, gl_rule, grid_quadrature

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
        # +1.6e-12 with phi's septic Hermite between grid points and the
        # u-shots' slope0; -1.27e-9 with a PCHIP of phi, whose +7.7e-9 bias
        # the xi-shots' 2.06e-12 slope0 offset cancelled
        assert abs(neutral_solution.profile.mass - 1.0) <= 1e-11

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
        # the profile's mass: 1.5e-11 at 1e-3, at most 1.1e-12 elsewhere (a
        # PCHIP of phi missed by 4.0e-9 at 0.9 and 7.1e-9 at 0.99)
        assert abs(sol.electron_count - lam) <= 1e-10 * lam

    @pytest.mark.parametrize("lam", ION_LAMBDAS)
    def test_ion_edge_flux(self, lam):
        # -x0 phi'(x0) = 1 - lambda defines the free boundary; phi'' = 0 at
        # the edge, so phi = (1 - lambda)(1 - xi/x0) + O((1 - xi/x0)^{7/2})
        # on the grid points that cluster there
        prof = tf.solve(tf.TFParams(lam=lam, Z=1.0)).profile
        depth = 1.0 - prof.xi / prof.x_edge
        near = (depth > 1e-7) & (depth < 1e-5)
        assert np.count_nonzero(near) >= 5
        assert np.max(np.abs(prof.phi_values[near] / depth[near] - (1.0 - lam))) < 1e-9

    @pytest.mark.parametrize("lam, max_shots", (
        (0.2, 12), (0.4, 12), (0.5, 12), (0.6, 12), (0.8, 12), (0.99, 12), (1e-3, 6),
        (1.0 - 1e-5, 8), (1.0, 2)))
    def test_shot_budget(self, monkeypatch, lam, max_shots):
        # 7 to 9 trial shots from lambda = 0.2 to 0.99, 5 at 1e-3 and 7 at
        # 1 - 1e-5 (the outward search took 9 to 11 with a secant bracket, 27
        # at 1e-3, where Brent's method bisected through the noise of the
        # flux, and 88 at 1 - 1e-5, which fell back to [-60, -1.58]); the
        # neutral roots are pinned, so its profile searches nothing and is
        # read off one outward and one inward shot in u = sqrt(xi)
        shots, trials = [], []
        real_shoot, real_trial = tf.shoot, tf._ion_shot

        def counting(*args, **kwargs):
            shots.append(args)
            return real_shoot(*args, **kwargs)

        def trial(c, tol):
            trials.append((c, tol))
            return real_trial(c, tol)

        monkeypatch.setattr(tf, "shoot", counting)
        monkeypatch.setattr(tf, "_ion_shot", trial)
        tf._solve_universal.__wrapped__(lam)
        assert 0 < len(shots) <= max_shots
        if lam == 1.0:
            u_match = math.sqrt(tf._XI_MATCH)
            ends = [((1.0, tf._NEUTRAL_SLOPE0), 0.0, u_match),
                    (tf._tail_phi(tf._NEUTRAL_TAIL_AMPLITUDE, tf._XI_FAR),
                     math.sqrt(tf._XI_FAR), u_match)]
            assert [args[1:4] for args in shots] == ends
        else:
            # every shot is a trial from the unit edge, none shot twice at one
            # tolerance: the profile is read off the root's trial
            assert len(set(trials)) == len(trials) == len(shots)
            assert all(args[1:4] == ((0.0, -1.0), 1.0, 0.0) for args in shots)

    @pytest.mark.parametrize("lam, max_rhs", ((0.5, 3_700), (1.0, 2_863)))
    def test_rhs_budget(self, monkeypatch, lam, max_rhs):
        # the grid values are read off the recorded steps: re-integrating
        # every radius from its step start cost 51,572 and 122,607 calls;
        # the neutral search behind the pinned roots cost 94,409; the
        # neutral u-shots take 1,790, the xi-shots from a series start took
        # 2,863; the ion's
        # 21 xi-shots from a series start cost 31,910, its 10 outward u-shots
        # 6,189, its 8 trials from the unit edge 3,658 (the four of the
        # secant at the coarse tolerance)
        calls = [0]
        real = tf.shoot

        def counting(rhs, *args, **kwargs):
            def counted(x, y):
                calls[0] += 1
                return rhs(x, y)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(tf, "shoot", counting)
        tf._solve_universal.__wrapped__(lam)
        assert 0 < calls[0] <= max_rhs

    @pytest.mark.parametrize("lam", (0.5, 1.0))
    def test_phi_interpolant_is_built_once_per_lambda(self, monkeypatch, lam):
        prof = tf._solve_universal.__wrapped__(lam)  # fresh: no interpolant cached yet
        monkeypatch.setattr(tf, "_solve_universal", lambda key: prof)
        builds, septics = [], []
        real, real_septic = numerics.Pchip, tf._septic

        class Counting(real):
            def __init__(self, x, y):
                builds.append(x.size)
                super().__init__(x, y)

        def septic(x, *args):
            septics.append(x.size)
            return real_septic(x, *args)

        monkeypatch.setattr(numerics, "Pchip", Counting)
        monkeypatch.setattr(tf, "_septic", septic)
        for Z in (1.0, 10.0, 100.0):
            assert tf.solve(tf.TFParams(lam=lam, Z=Z)).phi == prof.phi
        # phi's septic Hermite once; no PCHIP, of phi or of the density
        assert (septics, builds) == ([prof.xi.size], [])

    def test_repulsion_quadrature_runs_once_per_lambda(self, monkeypatch):
        prof = tf._solve_universal.__wrapped__(0.5)  # fresh: no integral cached yet
        monkeypatch.setattr(tf, "_solve_universal", lambda key: prof)
        samples = []
        real = tf.newton_potential

        def counting(f, knots, **tails):
            samples.append(knots.size)
            return real(f, knots, **tails)

        monkeypatch.setattr(tf, "newton_potential", counting)
        for Z in (1.0, 2.0, 10.0, 100.0):
            tf.solve(tf.TFParams(lam=0.5, Z=Z))
        # mass, I32, I52, the potential and the repulsion all come from one
        # sampling of phi at the grid's GL-12 nodes
        assert samples == [prof.xi.size]

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

    @pytest.mark.parametrize("lam, refusal", (
        (1e-13, DomainError), (1e-10, ToleranceFailure), (1e-7, None), (1e-5, None),
        (3e-4, None), (1.0 - 1e-4, None), (1.0 - 1e-5, None), (1.0 - 3e-6, None),
        (1.0 - 1e-9, None), (1.23456789e-9, ToleranceFailure)))
    def test_ion_domain_ends(self, lam, refusal):
        # each lambda meets the mass gate or raises a typed error: 3e-4 and
        # 1e-7 found no sign change in the outward search's [-60, -1.58],
        # and 1 - 3e-6 and 1 - 1e-9 never reached phi = 0; at 1e-10 the
        # miss log(g(0) - 1) cancels, and the profile misses the gate by
        # 1.6e-5; below 5e-13 lambda rounds to the cache key 0; and
        # 1.23456789e-9 keys the profile of 1.235e-9, 3.5e-4 too heavy
        if refusal is not None:
            with pytest.raises(refusal):
                tf.solve(tf.TFParams(lam=lam, Z=1.0))
            return
        prof = tf.solve(tf.TFParams(lam=lam, Z=1.0)).profile
        assert abs(prof.mass / lam - 1.0) <= 1e-6

    def test_ions_do_not_read_the_neutral_slope(self, monkeypatch):
        ion = tf._solve_universal.__wrapped__(0.5)
        monkeypatch.setattr(tf, "_NEUTRAL_SLOPE0", math.nan)
        again = tf._solve_universal.__wrapped__(0.5)
        assert again.slope0 == ion.slope0
        assert np.array_equal(again.phi_values, ion.phi_values)

    def test_ion_slope_matches_the_mpmath_solution(self):
        # the xi-shot from the series start at 1e-8 missed it by 1.45e-12
        assert abs(tf._solve_universal(0.5).slope0 - SLOPE0_HALF_MPMATH) <= 1e-14

    @pytest.mark.parametrize("lam, Z", ((0.9, 1e3), (1.0, 1e4)))
    def test_residual_meets_tol_1e6_at_large_z(self, lam, Z):
        # 2.4e-10 and 1.9e-9; a PCHIP of phi left 1.83e-6 and 1.55e-6,
        # which tol = 1e-6 refused
        assert tf.tf_equation_residual(tf.solve(tf.TFParams(lam, Z), tol=1e-6)) <= 1e-6


def _reintegrated(shot, points, k):
    """Oracle: the state (g, g') at each point of the shot's variable
    u = sqrt(x), (g, g')_u = (2u g', k g^{3/2}), re-integrated from the
    last accepted step start at or before it, in the direction of the shot."""
    def rhs(u, y):
        return (2.0 * u * y[1], k * max(y[0], 0.0) ** 1.5)

    sign = 1.0 if shot.x_end > shot.steps[0][0] else -1.0
    starts = sign * np.array([x for x, _ in shot.steps])
    states = []
    for r, i in zip(points, np.searchsorted(starts, sign * points, side="right") - 1):
        xi, yi = shot.steps[i]
        states.append(yi if xi == r else tf.shoot(rhs, yi, xi, r, tf._SHOT_TOL).y_end)
    return np.array(states)


class TestReadout:
    @pytest.mark.parametrize("lam", (1.0, 0.5, 0.01))
    def test_matches_per_radius_reintegration(self, monkeypatch, lam):
        # phi and phi' on the grid against the shots re-integrated to each
        # grid point in u = sqrt(xi): (phi, phi')_u = (2u phi', 2 phi^{3/2})
        trials = {}
        real = tf._ion_shot

        def recording(c, tol):
            trials[c, tol] = real(c, tol)
            return trials[c, tol]

        monkeypatch.setattr(tf, "_ion_shot", recording)
        prof = tf._solve_universal.__wrapped__(lam)
        xi = prof.xi
        if prof.x_edge is None:
            u = np.sqrt(xi)
            near = xi <= tf._XI_MATCH
            oracle = np.concatenate([
                _reintegrated(tf._neutral_out(prof.slope0), u[near], 2.0),
                _reintegrated(tf._neutral_in(prof.tail_amplitude), u[~near], 2.0)])
        else:
            # the root's trial: the edge x0 = (c g(0))^{1/3} it gives is the
            # profile's; phi(xi) = g(u)/g(0), phi'(xi) = g'(u)/(g(0) x0)
            (c, shot), = [(c, shot) for (c, tol), shot in trials.items() if tol == tf._SHOT_TOL
                          and (c * shot.y_end[0]) ** (1.0 / 3.0) == prof.x_edge]
            u = np.sqrt(xi / prof.x_edge)
            oracle = _reintegrated(shot, u, 2.0 * math.sqrt(c)) / shot.y_end[0]
            oracle[:, 1] /= prof.x_edge
            # the shot starts at the edge, where phi is not smooth (its fourth
            # u-derivative diverges): in the first step the readout misses
            # re-integration by 1.2e-8 relative at lambda = 0.01
            edge_step = u > shot.steps[1][0]
            assert np.count_nonzero(edge_step) > 10
            assert np.max(np.abs(prof.phi_values[edge_step][:-1] / oracle[edge_step][:-1, 0]
                                 - 1.0)) <= 1e-6
        # phi' misses by at most 3.1e-11, the derivative of a septic in u
        assert np.max(np.abs(prof.phi_values - np.maximum(oracle[:, 0], 0.0))) <= 1e-12
        assert np.max(np.abs(prof.dphi_values - oracle[:, 1])) <= 1e-10

    def test_grid_beyond_the_shot_is_refused(self):
        shot = tf._neutral_out(tf._NEUTRAL_SLOPE0)
        with pytest.raises(ShootingFailure):
            tf._readout(shot.steps, np.array([1.0, 10.0]), functools.partial(tf._u_jets, 2.0))


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


def node_ulps(knots, pot, at_nodes):
    """Largest distance, in ulp, of the node values from the callable there."""
    ref = pot(gl_rule(knots)[0])
    return float(np.max(np.abs(at_nodes - ref) / np.spacing(np.abs(ref))))


class TestPotential:
    @pytest.mark.parametrize("lam", (1.0, 0.5))
    def test_profile_node_values_match_the_callable(self, monkeypatch, lam):
        built = []
        real = tf.newton_potential

        def recording(f, knots, **tails):
            built.append((knots, *real(f, knots, **tails)))
            return built[-1][1:]

        monkeypatch.setattr(tf, "newton_potential", recording)
        assert tf._solve_universal.__wrapped__(lam).repulsion > 0.0
        (knots, pot, at_nodes), = built
        assert node_ulps(knots, pot, at_nodes) <= 4.0

    def test_coulomb_node_values_match_the_callable(self, ion_solution):
        rho = ion_solution.rho
        assert node_ulps(rho.grid, *tf.coulomb_potential(rho)) <= 4.0

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


class TestChemicalPotential:
    # mu = -dE/dN (E. H. Lieb and B. Simon, Adv. Math. 23, 22 (1977)) by a
    # Richardson step on central differences of tf_energy in N = lambda Z
    # at Z = 1, h = 1e-3 and 5e-4: it meets mu to 1.5e-12 at lambda 0.5 and
    # 2.2e-11 at 0.2, where one central difference at h = 1e-3 misses by
    # 2.9e-6 and 7.3e-6

    @staticmethod
    def minus_dE_dN(lam, h=1e-3):
        def central(h):
            up, down = (tf.tf_energy(tf.solve(tf.TFParams(lam + s, 1.0))) for s in (h, -h))
            return (up - down) / (2.0 * h)

        return -(4.0 * central(h / 2.0) - central(h)) / 3.0

    @pytest.mark.parametrize("lam", (0.5, 0.2))
    def test_mu_is_minus_dE_dN(self, lam):
        mu = tf.solve(tf.TFParams(lam, 1.0)).mu
        assert abs(self.minus_dE_dN(lam) / mu - 1.0) <= 1e-6

    def test_mu_without_its_one_minus_lambda_fails(self, monkeypatch):
        def mu(sol):  # Z / (b x0): the (1 - lambda) dropped
            return sol.params.Z / (sol.b * sol.profile.x_edge)

        # planted after the solves: the residual gate reads mu too
        sol, slope = tf.solve(tf.TFParams(0.5, 1.0)), self.minus_dE_dN(0.5)
        monkeypatch.setattr(tf.TFSolution, "mu", property(mu))
        assert abs(slope / sol.mu - 1.0) > 1e-6


class TestSerialization:
    def test_round_trip(self, ion_solution):
        text = tf.solution_to_json(ion_solution)
        restored = tf.solution_from_json(text)
        assert restored.params == ion_solution.params
        assert restored.slope0 == ion_solution.slope0
        assert restored.mu == ion_solution.mu
        assert restored.edge_radius == ion_solution.edge_radius
        prof, ours = restored.profile, ion_solution.profile
        assert np.array_equal(prof.xi, ours.xi)
        assert np.max(np.abs(prof.phi_values - ours.phi_values)) <= 1e-15
        assert np.array_equal(prof.dphi_values, ours.dphi_values)
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
        (1.0, 1.0, (True, -6.0)), (0.5, 1.0, (False, None)), (0.9, 137.0, (False, None)),
        (0.01, 100.0, (False, None)), (1.0, 636.6, (True, -6.0)),
    ))
    def test_text_round_trip_and_tails(self, lam, Z, tails):
        # the file's mu, rho and energy terms are derived again on loading,
        # from its grid, phi and dphi (and a refitted neutral tail
        # amplitude); tol is tf-solve's default, which Z = 137 and 636.6 need.
        # phi's tail is the Sommerfeld manifold exactly when the atom is neutral
        text = tf.solution_to_json(tf.solve(tf.TFParams(lam=lam, Z=Z), tol=1e-6))
        restored = tf.solution_from_json(text)
        assert tf.solution_to_json(restored) == text
        prof = restored.profile
        assert (prof.tail_amplitude is not None, restored.rho.tail_exponent) == tails
        assert (prof.phi(np.array([2.0 * prof.xi[-1]]))[0] > 0.0) == tails[0]

    def test_json_is_plain(self, neutral_solution):
        doc = json.loads(tf.solution_to_json(neutral_solution))
        assert set(doc) == {
            "params", "slope0", "mu", "edge_radius", "grid", "phi", "dphi", "rho",
            "energy_terms",
        }
        assert doc["edge_radius"] is None  # neutral: infinity encodes as null

    def test_file_without_dphi_is_refused(self, ion_solution):
        # phi's interpolant needs phi' on the grid, which older files lack
        doc = json.loads(tf.solution_to_json(ion_solution))
        del doc["dphi"]
        with pytest.raises(DomainError, match="'dphi'"):
            tf.solution_from_json(json.dumps(doc))


class TestMonotonicity:
    def test_ctf_nondecreasing_in_lambda(self):
        ctf = [
            -tf.tf_energy(tf.solve(tf.TFParams(lam=l, Z=1.0)))
            for l in (0.2, 0.4, 0.6, 0.8, 1.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(ctf, ctf[1:]))
