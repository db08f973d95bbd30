"""No relatom command imports scipy: DOP853, Brent's method, PCHIP, the
Bernstein readout and digamma at integers are ports, the coherent bump's
norm is a fixed Gauss-Legendre rule, the two 2F1s are elementary closed
forms with a Pfaff series near zero, and each partition ramp's sup is its
slope at one fixed argmax.  scipy is their oracle here: each port must
agree with it to the last bit, each closed form to 2e-15, and the argmax
with scipy's bounded minimiser to 1e-8.  The neutral TF profile's two
pinned roots are re-derived here, bit for bit, by scipy's bisect and
brentq, and the relativistic phase-space energy to 1e-10 by scipy's quad.
The adaptive Gauss-Kronrod rule behind ``integrate_1d`` is no port: it
must land within ten times its tolerance of scipy's ``quad``, or raise
NonConvergence."""

import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
from scipy.interpolate import BPoly, PchipInterpolator
from scipy.optimize import bisect, brentq, minimize_scalar
from scipy.special import digamma, hyp2f1

from relatom import bounds as bd
from relatom import checks, numerics
from relatom import semiclassics as sc
from relatom import specfun as sf
from relatom import thomas_fermi as tf
from relatom.errors import NonConvergence, ShootingFailure, StepFailure
from relatom.kinetic import Dispersion, daubechies_F
from relatom.numerics import Pchip, Shot, gl_rule, shoot

PROFILE_LAMBDAS = (1.0, 0.99, 0.9, 0.5, 0.2, 0.01, 1e-3)


def scipy_shoot(rhs, y0, x0, x1, tol=1e-10, stop=None):
    """:func:`numerics.shoot` through scipy's compiled DOP853."""
    steps = []

    def record(x, y):
        y = tuple(y.tolist())
        steps.append((x, y))
        return -1 if stop is not None and stop(x, y) else 0

    ode = scipy.integrate.ode(lambda x, y: rhs(x, tuple(y.tolist())))
    ode.set_integrator("dop853", rtol=tol, atol=tol * 1e-2, nsteps=100_000)
    ode.set_solout(record)
    ode.set_initial_value(y0, x0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        ode.integrate(x1)
    if not ode.successful():
        raise StepFailure(f"return code {ode.get_return_code()}", last_x=float(ode.t))
    return Shot(*steps[-1], tuple(steps))


@pytest.mark.parametrize("slope0", (-1.6, -1.588071022611, -1.55, -3.0, -50.0))
def test_dop853_outward_tf_shots_match_scipy(slope0):
    args = (tf._rhs, tf._series_init(slope0, tf._XI0), tf._XI0, 2000.0, tf._ODE_TOL)
    assert shoot(*args, stop=tf._escapes).steps == scipy_shoot(*args, stop=tf._escapes).steps


@pytest.mark.parametrize("slope0", (-1.6, -1.588071022611, -1.55, -3.0, -50.0))
def test_dop853_outward_tf_u_shots_match_scipy(slope0):
    args = (tf._rhs_u, (1.0, slope0), 0.0, tf._U_END, tf._ION_TOL)
    assert shoot(*args, stop=tf._escapes).steps == scipy_shoot(*args, stop=tf._escapes).steps


def test_dop853_inward_tf_shot_matches_scipy():
    a = tf._solve_universal(1.0).tail_amplitude
    args = (tf._rhs, tf._tail_phi(a, tf._XI_FAR), tf._XI_FAR, tf._XI_MATCH, tf._ODE_TOL)
    assert shoot(*args).steps == scipy_shoot(*args).steps


# the search whose roots thomas_fermi pins as _NEUTRAL_SLOPE0 and
# _NEUTRAL_TAIL_AMPLITUDE: bisection of the escape classification of
# outward shots to xi = 150, then Brent's method for the tail amplitude
# whose inward shot meets the outward phi at _XI_MATCH
NEUTRAL_SLOPE_BRACKET = (-1.7, -1.5)
NEUTRAL_AMPLITUDE_BRACKET = (-40.0, -1.0)


def neutral_classification(B):
    """-1 if the outward shot with slope0 = B hits zero by xi = 150, +1 if
    it turns upward first, 0 if it does neither."""
    phi, dphi = tf._shoot(B, 150.0).y_end
    return -1.0 if phi <= 0.0 else 1.0 if dphi > 0.0 else 0.0


def neutral_amplitude_miss(slope0):
    target = tf._shoot(slope0, tf._XI_MATCH).y_end[0]
    return lambda a: tf._shoot_in(a).y_end[0] - target


def neutral_roots():
    """(slope0, tail amplitude) of the neutral search by scipy's bisect and brentq."""
    slope0 = bisect(neutral_classification, *NEUTRAL_SLOPE_BRACKET, xtol=1e-16, rtol=tf._RTOL)
    a = brentq(neutral_amplitude_miss(slope0), *NEUTRAL_AMPLITUDE_BRACKET,
               xtol=1e-16, rtol=tf._RTOL)
    return slope0, a


@pytest.mark.parametrize("integrator", ("package", "scipy"))
def test_pinned_neutral_roots_are_the_search_roots(monkeypatch, integrator):
    if integrator == "scipy":
        monkeypatch.setattr(tf, "shoot", scipy_shoot)
    slope0, a = neutral_roots()
    assert (slope0, a) == (tf._NEUTRAL_SLOPE0, tf._NEUTRAL_TAIL_AMPLITUDE), (
        f"re-pin: _NEUTRAL_SLOPE0 = {slope0!r}, _NEUTRAL_TAIL_AMPLITUDE = {a!r}")


@pytest.mark.parametrize("lam", PROFILE_LAMBDAS)
def test_universal_profile_matches_the_scipy_pipeline(monkeypatch, lam):
    # the same profile solved with scipy's DOP853, brentq and BPoly; the
    # neutral one from the roots of the search run on scipy's shots
    ours = tf._solve_universal.__wrapped__(lam)
    monkeypatch.setattr(tf, "shoot", scipy_shoot)
    monkeypatch.setattr(tf, "_brentq", brentq)
    monkeypatch.setattr(tf, "_bernstein", lambda c, x, xi: BPoly(c, x)(xi))
    if lam == 1.0:
        slope0, a = neutral_roots()
        monkeypatch.setattr(tf, "_NEUTRAL_SLOPE0", slope0)
        monkeypatch.setattr(tf, "_NEUTRAL_TAIL_AMPLITUDE", a)
    theirs = tf._solve_universal.__wrapped__(lam)
    for field in ("slope0", "x_edge", "edge_slope", "tail_amplitude"):
        assert getattr(ours, field) == getattr(theirs, field), field
    assert np.array_equal(ours.xi, theirs.xi)
    assert np.array_equal(ours.phi_values, theirs.phi_values)


@pytest.mark.parametrize("lam", (1.0, 0.9, 0.5, 0.01))
def test_pchip_matches_scipy_at_knots_and_gl_nodes(lam):
    prof = tf._solve_universal(lam)
    r = np.concatenate([prof.xi, gl_rule(prof.xi)[0]])
    ours = Pchip(prof.xi, prof.phi_values)(r)
    theirs = PchipInterpolator(prof.xi, prof.phi_values, extrapolate=False)(r)
    assert np.array_equal(ours, theirs)


@pytest.mark.parametrize("lam", (1.0, 0.5, 0.01))
def test_bernstein_readout_matches_bpoly(monkeypatch, lam):
    calls = []
    real = tf._bernstein

    def recording(c, x, xi):
        calls.append((c, x, xi))
        return real(c, x, xi)

    monkeypatch.setattr(tf, "_bernstein", recording)
    tf._solve_universal.__wrapped__(lam)
    assert calls
    for c, x, xi in calls:
        assert np.array_equal(real(c, x, xi), BPoly(c, x)(xi))


# every (p, e) at which the package integrates phi^p t^e past the grid: the
# mass, I32, I52, the domain change's I_7/2 and I_9/2; a head with e <= -1
# converges only above a positive lower limit
MOMENT_SITES = ((1.5, 0.5), (1.5, -0.5), (2.5, -0.5), (3.5, -1.5), (4.5, -2.5))
HEAD_CASES = [(p, e, lo) for p, e in MOMENT_SITES for lo in (0.0, 1e-40) if lo > 0.0 or e > -1.0]


def _log_quad(phi_p, e, lo, hi):
    """int_lo^hi phi_p(t) t^e dt by scipy's quad in s = log t (lo = 0 maps to -inf)."""
    a = math.log(lo) if lo > 0.0 else -math.inf
    return scipy.integrate.quad(lambda s: phi_p(math.exp(s)) * math.exp((e + 1.0) * s),
                                a, math.log(hi), epsabs=0.0, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("lam", (1.0, 0.5))
@pytest.mark.parametrize("p, e, lo", HEAD_CASES)
def test_head_moment_is_the_series_integral(lam, p, e, lo):
    prof = tf._solve_universal(lam)
    series = _log_quad(lambda t: tf._series_init(prof.slope0, t)[0] ** p, e, lo, prof.xi[0])
    assert abs(prof.head_moment(p, e, lo) / series - 1.0) <= 1e-10


@pytest.mark.parametrize("p, e", MOMENT_SITES)
def test_tail_moment_is_the_manifold_integral(p, e):
    # second order in a eta drops a third order of about (p |a eta|)^3 of the
    # tail at the last grid point, where a eta = -0.064: 6.5e-5 to 4.6e-3 of
    # it at these sites, against 3.8e-3 to 4.8e-2 for a first-order form
    prof = tf._solve_universal(1.0)
    a, X = prof.tail_amplitude, prof.xi[-1]
    manifold = scipy.integrate.quad(lambda t: tf._tail_phi(a, t)[0] ** p * t**e, X, math.inf,
                                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
    tail = prof.tail_moment(p, e)
    assert abs(tail - manifold) <= 1e-10 * prof.moment(p, e, 0.0 if e > -1.0 else 1e-40)
    assert abs(tail / manifold - 1.0) <= (p * abs(a) * X**-tf._S1) ** 3
    assert tf._solve_universal(0.5).tail_moment(p, e) == 0.0


def rel_phase_space_by_quad(sol, alpha, q_min):
    """(1/(2 pi)^3) iint_{|q| > q_min} [t_rel(p) - alpha V_TF(q)]_- d^3p d^3q
    by scipy's quad in the physical radius q, with V_TF = (Z/q) phi(q/b),
    phi scipy's PCHIP of the profile on the grid and the Sommerfeld manifold
    past it, and the momentum integral -(4 pi/15) alpha^-4 X^5
    hyp2f1(1/2, 5/2; 7/2; -X^2), X^2 = w (w + 2), w = alpha^2 V_TF.  The
    grid's knots are quad's breakpoints, a hundred to a call."""
    prof, Z, b = sol.profile, sol.params.Z, sol.b
    pchip = PchipInterpolator(prof.xi, prof.phi_values)

    def integrand(q):
        t = q / b
        phi = float(pchip(t)) if t <= prof.xi[-1] else tf._tail_phi(prof.tail_amplitude, t)[0]
        w = alpha * alpha * Z / q * max(phi, 0.0)
        X2 = w * (w + 2.0)
        return -4.0 * math.pi / 15.0 * alpha**-4 * X2**2.5 * hyp2f1(0.5, 2.5, 3.5, -X2) * q * q

    knots = np.concatenate([[q_min], b * prof.xi[b * prof.xi > q_min]])
    total = 0.0
    for k in range(0, knots.size - 1, 100):
        seg = knots[k:k + 101]
        total += scipy.integrate.quad(integrand, seg[0], seg[-1], points=seg[1:-1],
                                      epsabs=0.0, epsrel=1e-12, limit=500)[0]
    if prof.x_edge is None:
        total += scipy.integrate.quad(integrand, knots[-1], math.inf, epsabs=0.0, epsrel=1e-12)[0]
    return 4.0 * math.pi * total / (2.0 * math.pi) ** 3


@pytest.mark.parametrize("alpha", (0.05, 1e-3))
@pytest.mark.parametrize("lam", (1.0, 0.5))
def test_rel_phase_space_energy_matches_quad(lam, alpha):
    # the budget's region |q| > alpha^t/4 at t = 1/2
    sol = tf.solve(tf.TFParams(lam=lam, Z=1.0))
    q_min = 0.25 * math.sqrt(alpha)
    oracle = rel_phase_space_by_quad(sol, alpha, q_min)
    assert abs(sc.phase_space_energy(sol, alpha, q_min) / oracle - 1.0) <= 1e-10


def _miss_functions(monkeypatch, lam):
    """(f, lo, hi) of every root the solve of ``lam`` asks _brentq for."""
    roots = []
    real = tf._brentq

    def recording(f, lo, hi, xtol, rtol):
        roots.append((f, lo, hi))
        return real(f, lo, hi, xtol, rtol)

    monkeypatch.setattr(tf, "_brentq", recording)
    tf._solve_universal.__wrapped__(lam)
    monkeypatch.setattr(tf, "_brentq", real)
    return roots


def _iterates(find, f, lo, hi):
    xs = []

    def recording(x):
        xs.append(x)
        return f(x)

    return find(recording, lo, hi, xtol=1e-16, rtol=tf._RTOL), xs


@pytest.mark.parametrize("lam", (1.0, 0.9, 0.5, 1e-3))
def test_root_finders_take_scipys_iterates_on_the_tf_misses(monkeypatch, lam):
    # ion: the edge flux of the solve; neutral: the solve searches nothing,
    # so the tail amplitude miss of the search behind its pinned roots
    roots = _miss_functions(monkeypatch, lam)
    if lam == 1.0:
        assert not roots
        roots = [(neutral_amplitude_miss(tf._NEUTRAL_SLOPE0), *NEUTRAL_AMPLITUDE_BRACKET)]
    assert len(roots) == 1
    for f, lo, hi in roots:
        assert _iterates(tf._brentq, f, lo, hi) == _iterates(brentq, f, lo, hi)


@pytest.mark.parametrize("find, oracle", ((tf._brentq, brentq),))
def test_bracket_without_sign_change_fails_as_scipy_does(monkeypatch, find, oracle):
    def f(x):
        return x * x + 1.0

    messages = []
    for method in (find, oracle):
        monkeypatch.setattr(tf, "_brentq", method)
        with pytest.raises(ShootingFailure) as info:
            tf._root(f, -1.0, 2.0, "test root")
        messages.append(str(info.value))
    assert messages[0] == messages[1]


# whole ramps, ramps cut by the split 2 alpha^r on either side, and pieces
# on which the slope is monotone, so its sup sits at an end
RAMP_PIECES = ((0.0, 1.0), (0.0, 0.3), (0.0, 0.62), (0.3, 1.0), (0.71, 1.0), (0.05, 0.2),
               (0.8, 0.95), (0.45, 0.55))


def ramp_peak(rising):
    return bd._RAMP_ARGMAX if rising else 1.0 - bd._RAMP_ARGMAX


@pytest.mark.parametrize("rising", (True, False))
def test_ramp_argmax_is_where_minimize_scalar_finds_it(rising):
    best = minimize_scalar(lambda u: -bd._ramp_slope(0.1, rising, u), bounds=(0.0, 1.0),
                           method="bounded", options={"xatol": 1e-14})
    assert best.success
    assert abs(best.x - ramp_peak(rising)) < 1e-8


@pytest.mark.parametrize("beta", (0.05, 0.1, 0.25, 0.45))
@pytest.mark.parametrize("rising", (True, False))
def test_no_grid_point_of_a_piece_beats_the_clipped_argmax(beta, rising):
    for lo, hi in RAMP_PIECES:
        sup = bd._ramp_slope(beta, rising, min(max(ramp_peak(rising), lo), hi))
        u = np.linspace(lo, hi, 20_001)
        u = u[(u > 0.0) & (u < 1.0)]     # the slope is 0 at the ends of the ramp
        S = bd._smooth_step(u)
        dS = S * (1.0 - S) * (1.0 / u**2 + 1.0 / (1.0 - u) ** 2)
        slope = 0.25 * math.pi / beta * (np.cos if rising else np.sin)(0.5 * math.pi * S) * dS
        assert np.max(slope) <= sup * (1.0 + 1e-15), (lo, hi)


def test_bump_norm_matches_quadpack():
    val, _ = scipy.integrate.quad(lambda r: sc._bump_unnormalized(np.array([r]))[0] ** 2 * r * r,
                                  0.0, 1.0, epsabs=1e-16, epsrel=1e-13, limit=2000)
    quadpack = 1.0 / np.sqrt(4.0 * np.pi * val)
    assert sc._bump_norm_constant.__wrapped__() == quadpack == 3.2257609703105166


def scipy_quad(f, a, b, epsabs, epsrel, limit):
    """scipy's quad value on the same arguments, its warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        return scipy.integrate.quad(f, a, b, epsabs=epsabs, epsrel=epsrel, limit=limit)[0]


def _inverse_sqrt_at_half(x):
    return abs(x - 0.5) ** -0.5 if x != 0.5 else 0.0


def _log(x):
    return math.log(x) if x > 0.0 else 0.0


# oscillation, an interior singularity on and off the interval's middle, a
# sharp peak and end singularities; log x + 1 integrates to 0, and
# x^-0.9 sin(1/x) oscillates into an integrable singularity
QUAD_BATTERY = (
    (lambda x: math.sin(50.0 * x), 0.0, 3.7),
    (_inverse_sqrt_at_half, 0.0, 1.0),
    (_inverse_sqrt_at_half, -1.0, 2.0),
    (lambda x: math.cos(x) ** 40, 0.0, 10.0),
    (math.sqrt, 0.0, 1.0),
    (_log, 0.0, 1.0),
    (_log, 0.0, 7.0),
    (lambda x: _log(x) + 1.0, 0.0, 1.0),
    (lambda x: x**-0.9 * math.sin(1.0 / x) if x > 0.0 else 0.0, 0.0, 1.0),
)
QUAD_TOLERANCES = ((1.49e-8, 1.49e-8), (0.0, 1e-12), (1e-14, 1e-10), (1e-10, 0.0), (1e-300, 1e-14))


def _spec(epsabs, epsrel, limit):
    # scipy's arguments as they are: QuadratureSpec refuses rel_tol = 0
    return SimpleNamespace(rel_tol=epsrel, abs_tol=epsabs, max_subdivisions=limit)


@pytest.mark.parametrize("case", range(len(QUAD_BATTERY)))
@pytest.mark.parametrize("limit", (50, 2000))
def test_quad_is_right_or_raises_on_the_battery(case, limit):
    # a value within ten times the tolerance of scipy's epsrel = 1e-13
    # one, or NonConvergence; never a wrong number or another error
    f, a, b = QUAD_BATTERY[case]
    exact = scipy_quad(f, a, b, 0.0, 1e-13, 2000)
    for epsabs, epsrel in QUAD_TOLERANCES:
        try:
            value, _ = numerics._quad(f, a, b, _spec(epsabs, epsrel, limit))
        except NonConvergence:
            continue
        assert abs(value - exact) <= 10.0 * max(epsabs, epsrel * abs(exact)), (epsabs, epsrel)


def test_quad_is_right_or_raises_where_quadpack_flags_roundoff():
    # QUADPACK's error flag 2: sqrt on [0, 1] asked for 1e-14 in 50 pieces
    try:
        value, _ = numerics._quad(math.sqrt, 0.0, 1.0, _spec(1e-300, 1e-14, 50))
    except NonConvergence:
        return
    assert abs(value - 2.0 / 3.0) <= 10.0 * 1e-14 * (2.0 / 3.0)


# the divergent and nearly divergent integrands on which QUADPACK ends
# with its error flags 1, 3, 4 and 5 (flag 2 has its own test above)
@pytest.mark.parametrize("f, epsabs, epsrel, limit", (
    (lambda x: 1.0 / x, 1.49e-8, 1.49e-8, 50),
    (lambda x: 1.0 / x, 1.49e-8, 1.49e-8, 2000),
    (lambda x: x**-0.999, 0.0, 1e-13, 50),
    (lambda x: 1.0 / (x - 0.3) if x != 0.3 else 0.0, 1.49e-8, 1.49e-8, 50),
), ids=("subdivision-limit", "bad-integrand", "extrapolation-roundoff", "divergent"))
def test_quad_raises_on_quadpacks_failures(f, epsabs, epsrel, limit):
    with pytest.raises(NonConvergence):
        numerics._quad(f, 0.0, 1.0, _spec(epsabs, epsrel, limit))


def test_quad_matches_scipy_on_every_verify_call(monkeypatch):
    gaps = []
    real = numerics._quad

    def recording(f, a, b, spec):
        value, err = real(f, a, b, spec)
        exact = scipy_quad(f, a, b, spec.abs_tol, spec.rel_tol, spec.max_subdivisions)
        gaps.append(abs(value - exact) / max(spec.abs_tol, spec.rel_tol * abs(exact)))
        return value, err

    monkeypatch.setattr(numerics, "_quad", recording)
    for suite in checks.SUITES.values():
        suite()
    assert len(gaps) > 100 and max(gaps) <= 10.0


def test_integer_psi_is_digamma():
    n = np.arange(1, 201)
    assert np.array_equal([sf._psi(int(k)) for k in n], digamma(n))


# on both sides of the crossover at x = 1, and across the range where the
# elementary forms would cancel
CLOSED_FORM_X = np.concatenate([np.geomspace(1e-12, 1e8, 201), np.linspace(0.5, 2.0, 61),
                                [1.0 - 1e-12, 1.0, 1.0 + 1e-12]])


def test_daubechies_F_matches_hyp2f1():
    # alpha = 2, so c = 1 and x = s
    x = CLOSED_FORM_X
    ref = 0.4 * np.power(x, 2.5) * hyp2f1(-1.5, 2.5, 3.5, -x)
    assert np.max(np.abs(daubechies_F(Dispersion(2.0), x) / ref - 1.0)) < 2e-15


def test_momentum_integral_rel_matches_hyp2f1():
    # alpha = 1, so X^2 = v (v + 2)
    v = np.sqrt(1.0 + CLOSED_FORM_X) - 1.0
    X2 = v * (v + 2.0)
    ref = -4.0 * math.pi / 15.0 * np.power(X2, 2.5) * hyp2f1(0.5, 2.5, 3.5, -X2)
    assert np.max(np.abs(sc.momentum_integral_rel(Dispersion(1.0), v) / ref - 1.0)) < 2e-15
