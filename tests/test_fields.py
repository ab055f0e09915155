"""Grid, traces, functionals, projection, distances and the minimizer."""

import hashlib
import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import blas, lapack

from lognls import corefn, fields
from lognls.corefn import SQRT_PI
from lognls.dynamics import linear_step
from lognls.fields import (
    DEFAULT_GRID,
    ConvergenceError,
    Field,
    Grid,
    Metric,
    MinimizeResult,
    Seed,
    ShiftedSolver,
    action_gradient,
    derivative,
    derivative_norm_sq,
    entropy,
    form_operator,
    mass,
    minimize_dgamma,
    morse_index,
    nehari_project,
    orbital_distance,
    quadratic_form,
    random_smooth_field,
    report,
    sample_profile,
    sigma_norm,
    stationary_newton,
    stationary_residual,
)
from lognls.stationary import (
    Branch,
    action_closed_form,
    branch_params,
    gamma_tail,
    ground_states,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(20.0, 2048)


@pytest.fixture(scope="module")
def ground_gamma2(grid):
    params = ground_states(2.0, 0.0)[0]
    return params, sample_profile(params, grid)


def free_gaussian(grid):
    """The free-line Gaussian e^{1/2} e^{-x^2/2} of omega = 0 (no sign flip)."""
    x = grid.nodes()
    return Field(grid, np.exp(0.5) * np.exp(-0.5 * x * x) + 0j)


def smooth_random(grid, seed):
    rng = np.random.default_rng(seed)
    return random_smooth_field(grid, rng)


class TestGrid:
    def test_staggering(self, grid):
        x = grid.nodes()
        m = grid.mid
        assert x[m - 1] == pytest.approx(-grid.dx / 2)
        assert x[m] == pytest.approx(grid.dx / 2)
        assert np.all(x != 0.0)
        assert len(x) == grid.n

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid(20.0, 101)
        # stationary_residual keeps no node of an 8-node grid
        with pytest.raises(ValueError, match="even integer >= 10, got 8"):
            Grid(1.0, 8)
        with pytest.raises(ValueError):
            Grid(-1.0, 64)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite positive"):
                Grid(bad, 64)

    def test_field_validation(self, grid):
        with pytest.raises(ValueError):
            Field(grid, np.zeros(3))
        bad = np.zeros(grid.n, dtype=complex)
        bad[0] = np.inf
        with pytest.raises(ValueError):
            Field(grid, bad)


class TestQuadraticForm:
    def test_continuous_field_has_no_jump_term(self, grid):
        # restriction of a smooth whole-line function: the form reduces
        # to the derivative integral
        x = grid.nodes()
        u = Field(grid, np.exp(-0.5 * (x - 0.7) ** 2) + 0j)
        want = quad(lambda t: (t - 0.7) ** 2 * math.exp(-((t - 0.7) ** 2)), -20, 20, limit=200)[0]
        got = quadratic_form(u, 2.0)
        assert got == pytest.approx(want, rel=2e-4)
        t = u.traces()
        # trace extrapolation is O(dx^3), so the jump-term energy
        # contribution |jump|^2/gamma is negligible
        assert abs(t.jump) < 1e-4
        assert abs(t.jump) ** 2 / 2.0 < 1e-9 * abs(got)

    def test_gamma_zero_rejected(self, grid):
        u = Field(grid, np.ones(grid.n, dtype=complex))
        with pytest.raises(ValueError):
            quadratic_form(u, 0.0)

    @pytest.mark.parametrize("n,tol", [(2048, 1e-3), (8192, 1e-4)])
    def test_rayleigh_quotient_of_bound_state(self, n, tol):
        gamma = 2.0
        g = Grid(20.0, n)
        x = g.nodes()
        psi = Field(g, np.sign(x) * np.exp(-2.0 * np.abs(x) / gamma) + 0j)
        ray = quadratic_form(psi, gamma) / mass(psi)
        assert abs(ray - (-4.0 / gamma**2)) <= tol

    def test_ground_state_form_vs_quadrature(self, ground_gamma2):
        params, u = ground_gamma2
        # analytic pieces: int |phi'|^2 over each half, minus jump term
        amp2 = math.e

        def dleft(x):
            return amp2 * (x - params.t2) ** 2 * math.exp(-((x - params.t2) ** 2))

        def dright(x):
            return amp2 * (x + params.t1) ** 2 * math.exp(-((x + params.t1) ** 2))

        kin = quad(dleft, -25, 0, limit=200)[0] + quad(dright, 0, 25, limit=200)[0]
        jump = 2.0 * math.sqrt(amp2) * math.exp(-0.5 * params.t1**2)
        want = kin - jump**2 / 2.0
        assert quadratic_form(u, 2.0) == pytest.approx(want, rel=2e-4)


    @pytest.mark.parametrize("n", [10, 1024])
    def test_edge_form_matches_operator(self, n):
        # the form from edges against vdot(v, M v) through apply, on random
        # real and complex fields
        g = Grid(4.0, n)
        op, rng = form_operator(g, 2.0), np.random.default_rng(n)
        for v in (rng.standard_normal(n), rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            want = np.vdot(v, op.apply(v)).real
            assert abs(op.form(v) - want) <= 1e-12 * np.vdot(v, v).real / g.dx ** 2


class TestMassEntropy:
    def test_free_gaussian_mass(self, grid):
        u = free_gaussian(grid)
        assert mass(u) == pytest.approx(math.e * SQRT_PI, rel=1e-10)

    def test_zero_field(self, grid):
        z = Field(grid, np.zeros(grid.n, complex))
        assert mass(z) == 0.0
        assert entropy(z) == 0.0

    def test_scaling_identities(self, grid):
        u = smooth_random(grid, 5)
        lam = 1.7
        v = u.with_values(lam * u.values)
        assert mass(v) == pytest.approx(lam**2 * mass(u), rel=1e-13)
        want = lam**2 * entropy(u) + lam**2 * math.log(lam**2) * mass(u)
        assert entropy(v) == pytest.approx(want, rel=1e-12)


class TestReport:
    def test_identities_exact(self, grid):
        u = smooth_random(grid, 9)
        r = report(u, 1.5, 0.4)
        assert r.action == pytest.approx(0.5 * r.nehari + 0.5 * r.mass, rel=1e-12)
        assert r.energy == pytest.approx(0.5 * r.form - 0.5 * r.entropy, rel=1e-12)

    def test_ground_state_near_constraint_set(self):
        # the sampled profile satisfies the zero-scaling-derivative
        # constraint up to quadrature error, which shrinks at second order
        vals = {}
        for n in (8192, 16384):
            g = Grid(20.0, n)
            params = ground_states(2.0, 0.0)[0]
            u = sample_profile(params, g)
            vals[n] = report(u, 2.0, 0.0).nehari
        assert abs(vals[16384]) <= 1e-6
        assert abs(vals[8192] / vals[16384]) == pytest.approx(4.0, abs=1.2)

    def test_action_matches_closed_form(self):
        g = Grid(20.0, 8192)
        params = ground_states(2.0, 0.0)[0]
        u = sample_profile(params, g)
        assert report(u, 2.0, 0.0).action == pytest.approx(
            action_closed_form(params), rel=1e-4
        )
        assert action_closed_form(params) == pytest.approx(
            math.e * gamma_tail(1.0), rel=1e-14
        )

    def test_free_gaussian_nehari_small(self, grid):
        # zero jump: the free-line zero-scaling-derivative identity survives
        u = free_gaussian(grid)
        assert abs(report(u, 2.0, 0.0).nehari) <= 5e-4

    def test_phase_invariance(self, grid):
        u = smooth_random(grid, 12)
        r0 = report(u, 2.0, 0.1)
        r1 = report(u.with_values(np.exp(0.713j) * u.values), 2.0, 0.1)
        for name in ("form", "mass", "entropy", "energy", "action", "nehari"):
            assert getattr(r1, name) == pytest.approx(getattr(r0, name), rel=1e-12, abs=1e-12)


class TestNehariProjection:
    def test_identity_on_constraint_set(self, grid):
        u = nehari_project(smooth_random(grid, 21), 2.0, 0.0)
        v = nehari_project(u, 2.0, 0.0)
        lam = v.values[100] / u.values[100]
        assert abs(lam - 1.0) <= 1e-12

    def test_projection_zeroes_nehari(self, grid):
        for seed in range(5):
            u = smooth_random(grid, 100 + seed)
            v = nehari_project(u, 2.0, 0.0)
            r = report(v, 2.0, 0.0)
            assert abs(r.nehari) <= 1e-10 * r.mass

    def test_rescaled_ground_state(self, ground_gamma2):
        _, u = ground_gamma2
        v = nehari_project(u.with_values(2.0 * u.values), 2.0, 0.0)
        r = report(v, 2.0, 0.0)
        assert abs(r.nehari) <= 1e-10 * r.mass

    def test_idempotence(self, grid):
        u = smooth_random(grid, 33)
        v1 = nehari_project(u, 2.0, 0.0)
        v2 = nehari_project(v1, 2.0, 0.0)
        assert np.allclose(v1.values, v2.values, rtol=1e-12, atol=1e-14)

    def test_zero_rejected(self, grid):
        with pytest.raises(ValueError):
            nehari_project(Field(grid, np.zeros(grid.n, complex)), 2.0, 0.0)

    def test_rough_field_fails_with_named_cause(self):
        # white noise is so far from the constraint set that the projected
        # mass, e^650 squared times 37.9, is no double: a ValueError that
        # says so, not an overflow warning and an infinite field
        g = Grid(20.0, 1024)
        u = Field(g, np.random.default_rng(0).standard_normal(g.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="outside the range of doubles"):
                nehari_project(u, 1.0, 0.0)


class TestStationaryResidual:
    def test_zero_field(self, grid):
        r = stationary_residual(Field(grid, np.zeros(grid.n, complex)), 2.0, 0.0)
        assert (r.interior, r.bc1, r.bc2) == (0.0, 0.0, 0.0)

    def test_ground_state_second_order(self):
        params = ground_states(3.0, 0.0)[1]
        prev = None
        for n in (1024, 2048, 4096):
            u = sample_profile(params, Grid(20.0, n))
            r = stationary_residual(u, 3.0, 0.0)
            if prev is not None:
                assert prev.interior / r.interior == pytest.approx(4.0, abs=1.0)
                assert prev.bc2 / r.bc2 == pytest.approx(4.0, abs=1.0)
            prev = r

    def test_shifted_free_gaussian_breaks_jump_condition(self, grid):
        # solves the defect-free equation but not the coupling condition:
        # the bc2 residual singles it out
        x = grid.nodes()
        u = Field(grid, np.exp(0.5) * np.exp(-0.5 * (x - 1.0) ** 2) + 0j)
        r = stationary_residual(u, 2.0, 0.0)
        assert r.interior <= 1e-3
        assert r.bc2 > 0.5


class TestOrbitalDistance:
    def test_phase_orbit_is_null(self, ground_gamma2):
        _, phi = ground_gamma2
        for theta in (0.0, 0.4, 2.0, -1.2):
            u = phi.with_values(np.exp(1j * theta) * phi.values)
            assert orbital_distance(u, phi) <= 1e-12
            assert orbital_distance(u, phi, Metric.FULL_W) <= 1e-10

    def test_first_order_perturbation(self, ground_gamma2):
        _, phi = ground_gamma2
        grid = phi.grid
        x = grid.nodes()
        bump = Field(grid, np.exp(-2.0 * (x - 1.3) ** 2) + 0j)
        # remove the orbit tangent direction (i phi)
        dphi, dbump = derivative(phi), derivative(bump)
        tang = phi.with_values(1j * phi.values)
        dtang = derivative(tang)
        dx = grid.dx
        ip = dx * (np.vdot(tang.values, bump.values) + np.vdot(dtang, dbump))
        nrm2 = dx * (np.vdot(tang.values, tang.values) + np.vdot(dtang, dtang))
        orth = bump.with_values(bump.values - (ip.real / nrm2.real) * tang.values)
        delta = 1e-3
        u = phi.with_values(phi.values + delta * orth.values)
        d = orbital_distance(u, phi)
        size = delta * sigma_norm(orth)
        assert 0.5 * size <= d <= 2.0 * size

    def test_mirror_states_not_phase_equivalent(self):
        g = Grid(20.0, 2048)
        pts = ground_states(3.0, 0.0)
        u = sample_profile(pts[1], g)
        v = sample_profile(pts[2], g)
        assert orbital_distance(u, v) > 0.1
        assert orbital_distance(u, v, Metric.FULL_W) > 0.1

    @pytest.mark.parametrize("n", [10, 1024])
    def test_derivative_transpose(self, n):
        # D^T against the transpose of the dense D built from unit vectors;
        # at n = 10 each half-line has 5 nodes, where the one-sided end
        # stencils meet the centred ones
        g = Grid(5.0, n)
        eye = np.eye(n)
        dense = np.column_stack([fields._derivative(e, g) for e in eye])
        got = np.column_stack([fields._derivative_t(e, g) for e in eye])
        assert np.max(np.abs(got - dense.T)) <= 1e-15 * np.max(np.abs(dense))
        w = np.random.default_rng(n).standard_normal(n) + 1j
        assert np.max(np.abs(fields._derivative_t(w, g) - dense.T @ w)) <= (
            1e-14 * np.max(np.abs(dense.T @ w)))

    @pytest.mark.parametrize("theta", [0.4, 2.0, -1.2, 3.0])
    def test_phase_fit_is_h1_angle(self, ground_gamma2, theta):
        # one vdot with g = phi + D^T D phi gives the angle of the H^1
        # inner product <phi, u> + <D phi, D u>
        _, phi = ground_gamma2
        bump = smooth_random(phi.grid, 5).values
        u = phi.with_values(np.exp(1j * theta) * phi.values + 0.05 * bump)
        want = np.angle(np.vdot(phi.values, u.values) + np.vdot(derivative(phi), derivative(u)))
        got = fields._phase_fit(u.values, fields._h1_dual(phi.values, phi.grid))
        assert got == pytest.approx(want, rel=1e-14)

    def test_grid_mismatch(self, ground_gamma2):
        _, phi = ground_gamma2
        other = free_gaussian(Grid(20.0, 1024))
        with pytest.raises(ValueError):
            orbital_distance(other, phi)


class TestGradient:
    @pytest.mark.parametrize("case", range(4))
    def test_matches_finite_differences(self, case):
        g = Grid(10.0, 512)
        rng = np.random.default_rng(40 + case)
        u = random_smooth_field(g, rng, center_range=(-4, 4))
        gamma, omega = 2.0, 0.25
        grad = action_gradient(u, gamma, omega)
        action = lambda f: report(f, gamma, omega).action
        for _ in range(3):
            v = random_smooth_field(g, rng, center_range=(-4, 4)).values
            eps = 1e-6
            plus = action(u.with_values(u.values + eps * v))
            minus = action(u.with_values(u.values - eps * v))
            fd = (plus - minus) / (2 * eps)
            want = float(np.sum(grad * np.conj(v)).real)
            assert fd == pytest.approx(want, rel=1e-6)

    def test_zero_sample_gives_finite_gradient(self):
        g = Grid(10.0, 512)
        vals = random_smooth_field(g, np.random.default_rng(3)).values.copy()
        vals[100] = 0.0
        u = Field(g, vals)
        grad = action_gradient(u, 2.0, 0.25)
        assert np.all(np.isfinite(grad))
        # u log|u|^2 -> 0 at a zero sample: only the form part is left there
        assert grad[100] == form_operator(g, 2.0).apply(vals)[100]


class TestInequalities:
    def test_log_sobolev(self, grid):
        rng = np.random.default_rng(77)
        alphas = (0.5, 1.0, math.sqrt(math.pi / 2.0), 2.0)
        for _ in range(50):
            u = random_smooth_field(grid, rng)
            q, k, e = mass(u), derivative_norm_sq(u), entropy(u)
            for alpha in alphas:
                rhs = (alpha**2 / math.pi) * k + (math.log(2 * q) - 1 - math.log(alpha)) * q
                assert e <= rhs + 1e-8

    def test_trace_bound(self, grid):
        rng = np.random.default_rng(78)
        for _ in range(30):
            u = random_smooth_field(grid, rng)
            t = u.traces()
            q, k = mass(u), derivative_norm_sq(u)
            for gamma in (0.5, 1.0, 2.0, 5.0):
                lhs = abs(t.jump) ** 2 / gamma
                assert lhs <= (8.0 / gamma**2) * q + 0.5 * k + 1e-8


class TestMinimize:
    def test_symmetric_gamma1(self):
        r = minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 1024))
        closed = action_closed_form(ground_states(1.0, 0.0)[0])
        assert abs(r.value - closed) / closed < 0.01
        assert r.residual.interior < 1e-6

    def test_asymmetric_seeds_mirror(self):
        g = Grid(20.0, 1024)
        left = minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=g)
        right = minimize_dgamma(3.0, 0.0, seed=Seed.RIGHT, grid=g)
        closed = action_closed_form(ground_states(3.0, 0.0)[1])
        assert abs(left.value - closed) / closed < 0.01
        assert abs(left.value - right.value) <= 1e-8 * left.value
        # mirror fields: mass on opposite sides
        m = g.mid
        lm = np.sum(np.abs(left.field.values[:m]) ** 2)
        rm = np.sum(np.abs(left.field.values[m:]) ** 2)
        assert rm > 10 * lm

    @pytest.mark.parametrize("gamma, omega, seed", [(1.0, 0.0, Seed.SYMMETRIC),
                                                    (3.0, 0.5, Seed.LEFT)])
    def test_result_matches_report(self, gamma, omega, seed):
        # the minimizer evaluates its action and value with report's formulas
        r = minimize_dgamma(gamma, omega, seed=seed, grid=Grid(20.0, 1024))
        rep = report(r.field, gamma, omega)
        assert r.action == rep.action
        assert r.value == 0.5 * rep.mass

    def test_complex_seed_rejected(self):
        # the minimizer works on real profiles; a complex seed's imaginary
        # part is refused, not dropped
        g = Grid(20.0, 256)
        seed = free_gaussian(g)
        with pytest.raises(ValueError, match="custom seed must be real"):
            minimize_dgamma(1.0, 0.0, seed=seed.with_values(np.exp(0.3j) * seed.values), grid=g)
        r = minimize_dgamma(1.0, 0.0, seed=seed, grid=g)
        assert not np.any(r.field.values.imag)

    def test_default_grid(self):
        grid = inspect.signature(minimize_dgamma).parameters["grid"]
        assert grid.default is DEFAULT_GRID == Grid(20.0, 4096)

    def test_max_iter_validation(self):
        # a fraction or a bool is refused as a count, as stability_experiment
        # refuses them for trials
        for bad in (0, -1, 2.5, 3.0, True, "10"):
            with pytest.raises(ValueError, match="max_iter must be a positive integer"):
                minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 256), max_iter=bad)

    def test_nonconvergence_carries_diagnostics(self):
        with pytest.raises(ConvergenceError) as info:
            minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 1024), max_iter=2)
        err = info.value
        # the error holds its message and the last iterate's result, whose
        # action and value are report's, as on convergence
        assert vars(err) == {"result": err.result}
        r = err.result
        assert isinstance(r, MinimizeResult)
        assert (r.iterations, r.rejected, r.forced, r.newton) == (2, 0, 0, 0)
        assert r.index == morse_index(r.field, 3.0, 0.0)
        rep = report(r.field, 3.0, 0.0)
        assert (r.action, r.value) == (rep.action, 0.5 * rep.mass)
        assert r.residual == stationary_residual(r.field, 3.0, 0.0)
        assert "no convergence after 2 iterations" in str(err)

    def test_gamma_validation(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                minimize_dgamma(bad, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_omega_validation(self, bad):
        # a custom seed skips the branch parameters, whose check would
        # otherwise catch omega; the minimizer rejects it before any arithmetic
        g = Grid(20.0, 256)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="omega must be finite"):
                minimize_dgamma(1.0, bad, seed=free_gaussian(g), grid=g)

    @pytest.mark.parametrize("gamma, seed, descent", [(1.0, Seed.SYMMETRIC, 4),
                                                      (3.0, Seed.LEFT, 26),
                                                      (3.0, Seed.RIGHT, 26),
                                                      (2.01, Seed.LEFT, 624),
                                                      (2.1, Seed.LEFT, 102)])
    def test_descent_path_pinned(self, gamma, seed, descent, monkeypatch):
        # the benchmark's minimizations at their grid: a speed-up that bends
        # the descent path changes these iteration counts.  Each ends on the
        # Newton state of a ground state; with that state refused, the
        # descent runs on to its own end after `descent` steps
        finish = {1.0: (5, 2), 3.0: (21, 3), 2.01: (243, 5), 2.1: (62, 4)}
        grid = Grid(20.0, 4096)
        r = minimize_dgamma(gamma, 0.0, seed=seed, grid=grid)
        assert (r.iterations, r.newton, r.index) == (*finish[gamma], 1)
        assert r.residual.interior <= 1e-10
        assert r.action == report(r.field, gamma, 0.0).action
        monkeypatch.setattr(fields, "morse_index", lambda u, gamma, omega: 2)
        r = minimize_dgamma(gamma, 0.0, seed=seed, grid=grid)
        assert r.iterations - r.newton == descent

    def test_step_counts_pinned(self):
        # the benchmark's 2.1-left minimization takes no step back, so every
        # one of its iterations is an accepted descent step or a Newton step
        r = minimize_dgamma(2.1, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 4096))
        assert (r.iterations, r.rejected, r.forced) == (62, 0, 0)
        # a narrow Gaussian seed overshoots twice on its way down
        g = Grid(20.0, 1024)
        r = minimize_dgamma(1.0, 0.0, seed=Field(g, np.exp(-(g.nodes() / 0.1) ** 2)), grid=g)
        assert (r.iterations, r.rejected, r.forced) == (387, 2, 0)

    def test_rejected_newton_state_leaves_descent_path(self, monkeypatch):
        # a Newton state that fails a check is dropped: the descent carries
        # on from its own iterate, tau and counters, and returns the bits of
        # the descent without a Newton finish (102 steps)
        monkeypatch.setattr(fields, "morse_index", lambda u, gamma, omega: 2)
        r = minimize_dgamma(2.1, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 1024))
        assert (r.iterations - r.newton, r.rejected, r.forced, r.index) == (102, 0, 0, 2)
        assert r.newton > 0
        assert r.value == 0.42604500481851115
        assert hashlib.sha256(r.field.values.tobytes()).hexdigest()[:16] == "e44ca8a7ba8a7895"

    def test_newton_finish_next_to_pitchfork(self):
        # the descent alone creeps here: it stopped at max_iter = 4000 with an
        # interior residual of 1.5e-6; Newton ends it on the ground state
        r = minimize_dgamma(2.0005, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 4096))
        assert (r.iterations, r.newton, r.index) == (479, 8, 1)
        assert r.residual.interior <= 1e-10

    def test_newton_finish_on_fine_grid(self):
        # the residual's rounding floor grows like 1/dx^2; the step-based stop
        # still ends the finish at n = 8192
        r = minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 8192))
        assert r.newton > 0 and r.index == 1
        assert r.residual.interior <= 1e-10

    def test_forced_steps_counted(self, monkeypatch):
        # every projection reads a larger action, so every step is uphill:
        # MAX_REJECTS rejections, then one forced step, and again
        project, bump = fields._project, iter(range(1, 10**6))

        def uphill(op, values, omega, log_s2):
            return project(op, values, omega, log_s2)[0], float(next(bump))

        monkeypatch.setattr(fields, "_project", uphill)
        steps = 2 * (fields.MAX_REJECTS + 1)
        with pytest.raises(ConvergenceError) as info:
            minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 256), max_iter=steps)
        r = info.value.result
        assert (r.iterations, r.rejected, r.forced) == (steps, 2 * fields.MAX_REJECTS, 2)

    def test_rough_seed_fails_with_named_cause(self):
        # the seed's first projection fails with its cause, not with
        # "cannot project the zero field" after an overflow warning
        g = Grid(20.0, 1024)
        seed = Field(g, np.random.default_rng(0).standard_normal(g.n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"exp\(I/\(2 mass\)\).*outside the range"):
                minimize_dgamma(1.0, 0.0, seed=seed, grid=g)

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_seed_scale_projected_away(self, gamma):
        # the projection is scale-invariant, so the size of a seed does not
        # matter: c times a Gaussian takes the Gaussian's steps to its state,
        # to rounding (measured 3.6e-15 relative, bound 1e-13), from c = 1e-155
        # (every square subnormal) to 1e150.  Solving every step for the
        # carried step s, whatever its projection factor, kept the 1e-155
        # seed's squares subnormal: at gamma = 3 its descent never stagnated
        # and stopped at max_iter
        g = Grid(20.0, 1024)
        base = np.exp(-0.5 * (g.nodes() - 1.0) ** 2)
        ref = minimize_dgamma(gamma, 0.0, seed=Field(g, base), grid=g)
        for c in (1e-155, 1e-140, 1e100, 1e150):
            r = minimize_dgamma(gamma, 0.0, seed=Field(g, c * base), grid=g)
            assert (r.iterations, r.newton, r.index) == (ref.iterations, ref.newton, ref.index)
            assert r.value == pytest.approx(ref.value, rel=1e-13)
            assert np.max(np.abs(r.field.values - ref.field.values)) \
                <= 1e-13 * np.max(np.abs(ref.field.values))

    def test_compactly_supported_seed(self):
        # exact zeros in the seed must not reach the implicit step as log 0
        g = Grid(20.0, 1024)
        params = ground_states(1.0, 0.0)[0]
        x = g.nodes()
        seed = Field(g, np.where(np.abs(x) <= 15.0, sample_profile(params, g).values, 0.0))
        r = minimize_dgamma(1.0, 0.0, seed=seed, grid=g)
        closed = action_closed_form(params)
        assert abs(r.value - closed) / closed < 0.01
        assert r.residual.interior < 1e-6


def symmetric_profile(gamma, n):
    """The closed-form symmetric branch sampled on Grid(20, n)."""
    return sample_profile(branch_params(gamma, 0.0, Branch.SYMMETRIC), Grid(20.0, n))


class TestScaleCovariance:
    # the profile at omega is e^(omega/2) times the one at 0, so values and
    # actions scale by e^omega and fields by e^(omega/2), with the same
    # steps: 1.4e-13 relative measured down to omega = -600, bounded at 1e-12
    OMEGA = -600.0

    def check(self, a, b):
        assert (b.iterations, b.newton, b.index) == (a.iterations, a.newton, a.index)
        assert b.value == pytest.approx(math.exp(self.OMEGA) * a.value, rel=1e-12)
        assert b.action == pytest.approx(math.exp(self.OMEGA) * a.action, rel=1e-12)
        scaled = math.exp(-0.5 * self.OMEGA) * b.field.values
        assert np.max(np.abs(scaled - a.field.values)) <= 1e-12 * np.max(np.abs(a.field.values))

    def test_minimizer(self):
        g = Grid(20.0, 1024)
        self.check(*(minimize_dgamma(3.0, omega, seed=Seed.LEFT, grid=g)
                     for omega in (0.0, self.OMEGA)))

    @pytest.mark.parametrize("gamma", [1.0, 3.0])
    def test_newton(self, gamma):
        g = Grid(20.0, 1024)
        self.check(*(stationary_newton(
            sample_profile(branch_params(gamma, omega, Branch.SYMMETRIC), g), gamma, omega)
            for omega in (0.0, self.OMEGA)))


class TestNewton:
    @pytest.mark.parametrize("gamma", [2.01, 3.0])
    def test_symmetric_saddle(self, gamma):
        # Newton keeps the symmetric branch above the pitchfork, where it is a
        # saddle of index 2 whose half-mass is the branch's action
        r = stationary_newton(symmetric_profile(gamma, 1024), gamma, 0.0)
        closed = action_closed_form(branch_params(gamma, 0.0, Branch.SYMMETRIC))
        assert r.index == 2
        assert abs(r.value - closed) / closed < 0.01
        assert r.iterations == r.newton > 0 and r.rejected == r.forced == 0
        assert r.residual == stationary_residual(r.field, gamma, 0.0)
        assert r.residual.interior <= 1e-10

    @pytest.mark.parametrize("gamma, index", [(1.9999, 1), (2.0, 2)])
    def test_discrete_pitchfork_below_two(self, gamma, index):
        # at n = 2048 the symmetric state turns into a saddle between
        # gamma = 2 - 1e-4 and 2 (at 2 - 2.2e-5)
        assert stationary_newton(symmetric_profile(gamma, 2048), gamma, 0.0).index == index

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.99, 2.0, 2.01, 2.5, 3.0, 5.0, 10.0])
    def test_classification(self, gamma):
        # the paper's classification on the grid: Newton from every
        # closed-form branch.  The symmetric (odd) state has index 1 below
        # gamma = 2 and 2 from 2 on, as the discrete pitchfork lies below 2;
        # above it the mirror pair has index 1 and equal, lower actions
        g = Grid(20.0, 1024)
        states = {p.branch: stationary_newton(sample_profile(p, g), gamma, 0.0)
                  for p in ground_states(gamma, 0.0)}
        odd = states.pop(Branch.SYMMETRIC)
        assert odd.index == (1 if gamma < 2.0 else 2)
        assert len(states) == (2 if gamma > 2.0 else 0)
        if states:
            left, right = states[Branch.ASYMMETRIC_LEFT], states[Branch.ASYMMETRIC_RIGHT]
            assert left.index == right.index == 1
            assert left.action == pytest.approx(right.action, rel=1e-12, abs=0.0)
            assert left.action < odd.action

    def test_stall_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(fields, "NEWTON_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="Newton stalled after 1 steps") as info:
            stationary_newton(symmetric_profile(3.0, 1024), 3.0, 0.0)
        r = info.value.result
        assert (r.iterations, r.newton) == (1, 1)
        assert (r.action, r.value) == (report(r.field, 3.0, 0.0).action, 0.5 * mass(r.field))

    def test_complex_profile_rejected(self):
        u = symmetric_profile(3.0, 256)
        u = u.with_values(np.exp(0.3j) * u.values)
        for fn in (stationary_newton, morse_index):
            with pytest.raises(ValueError, match="must be real"):
                fn(u, 3.0, 0.0)


def edge_sum_form(u, gamma):
    """t_gamma[u] written out from the definition in the fields docstring,
    one cell edge at a time."""
    v, n, m, dx = u.values, u.grid.n, u.grid.mid, u.grid.dx
    # ghost edges at -L and L: Dirichlet derivative +-2 u / dx, trapezoid end weight dx/2
    total = 0.5 * dx * abs(2.0 * v[0] / dx) ** 2 + 0.5 * dx * abs(2.0 * v[n - 1] / dx) ** 2
    for lo, hi in ((0, m), (m, n)):  # each half-line; no edge crosses the origin
        for j in range(lo + 1, hi):
            # an edge next to the origin also covers the half cell up to 0
            weight = 1.5 * dx if j in (m - 1, m + 1) else dx
            total += weight * abs((v[j] - v[j - 1]) / dx) ** 2
    # two-node linear extrapolation of the traces u(0+) and u(0-)
    jump = (1.5 * v[m] - 0.5 * v[m + 1]) - (1.5 * v[m - 1] - 0.5 * v[m - 2])
    return total - abs(jump) ** 2 / gamma


def reference_matrix(grid, gamma):
    """Dense real symmetric M with u* M u = edge_sum_form, by polarization."""
    n = grid.n
    e = np.eye(n)
    q = lambda vals: edge_sum_form(Field(grid, vals), gamma)
    return np.array([[0.25 * (q(e[j] + e[k]) - q(e[j] - e[k])) for k in range(n)]
                     for j in range(n)])


class TestOperatorReference:
    """The structured operator against the edge-sum definition on a small grid."""

    grid = Grid(4.0, 16)
    gamma = 1.5

    def field(self, seed):
        rng = np.random.default_rng(seed)
        return Field(self.grid, rng.standard_normal(16) + 1j * rng.standard_normal(16))

    def test_quadratic_form(self):
        for seed in range(3):
            u = self.field(seed)
            want = edge_sum_form(u, self.gamma)
            assert quadratic_form(u, self.gamma) == pytest.approx(want, rel=1e-13)

    def test_linear_step_is_dense_crank_nicolson(self):
        H = reference_matrix(self.grid, self.gamma) / self.grid.dx
        eye = np.eye(self.grid.n)
        u = self.field(10)
        for dt in (0.05, -0.3):
            want = np.linalg.solve(eye + 0.5j * dt * H, (eye - 0.5j * dt * H) @ u.values)
            got = linear_step(u, self.gamma, dt).values
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_morse_index(self):
        # the negative eigenvalues of the dense Jacobian of the gradient,
        # M + dx (omega - 2 - log u^2), with and without the jump term
        dx, omega = self.grid.dx, 0.4
        M, T = reference_matrix(self.grid, self.gamma), reference_matrix(self.grid, math.inf)
        jump_counts = 0
        for seed in range(12):
            v = np.random.default_rng(seed).standard_normal(self.grid.n)
            V = np.diag(dx * (omega - 2.0 - np.log(v**2)))
            want = int(np.sum(np.linalg.eigvalsh(M + V) < 0.0))
            jump_counts += want != np.sum(np.linalg.eigvalsh(T + V) < 0.0)
            assert morse_index(Field(self.grid, v), self.gamma, omega) == want
        assert jump_counts > 0

    def test_action_gradient(self):
        H = reference_matrix(self.grid, self.gamma) / self.grid.dx
        u, omega, dx = self.field(20), 0.4, self.grid.dx
        v = u.values
        want = H @ v * dx + dx * (omega - np.log(np.abs(v) ** 2)) * v
        got = action_gradient(u, self.gamma, omega)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def minimizer_shift(grid, tau):
    """The minimizer's first shift and scale on the 2.01-left seed."""
    base = sample_profile(branch_params(2.01, 0.0, Branch.SYMMETRIC), grid).values.real
    v = np.where(grid.nodes() > 0, 2.0, 0.5) * base
    return v, 1.0 + tau * (0.0 - np.log(v**2)), tau / grid.dx


def trace_tridiagonal(op, diag, off, coupling):
    """P^T (D + coupling c c^T) P for the tridiagonal D (diag, off), one
    entry at a time: P maps the trace coordinates to the samples, with
    v[m-1] = (w[m-2] + 2 w[m-1]) / 3 and v[m] = (2 w[m] + w[m+1]) / 3."""
    m = op.grid.mid
    d, e = diag.copy(), off.copy()
    # (trace row, the node beyond it, the edge between them)
    for k, j, s in ((m - 1, m - 2, m - 2), (m, m + 1, m)):
        third = diag[k] / 3.0
        d[j] = diag[j] + (2.0 * off[s] + third) / 3.0
        e[s] = 2.0 * (off[s] + third) / 3.0
        d[k] = 4.0 * third / 3.0 + coupling
    e[m - 1] = -coupling
    return d, e


def to_trace(op, r):
    """P^T r, one entry at a time."""
    m = op.grid.mid
    b = r.copy()
    b[m - 2] = r[m - 2] + r[m - 1] / 3.0
    b[m - 1] = 2.0 * r[m - 1] / 3.0
    b[m] = 2.0 * r[m] / 3.0
    b[m + 1] = r[m + 1] + r[m] / 3.0
    return b


def from_trace(op, w):
    """P w, one entry at a time."""
    m = op.grid.mid
    v = w.copy()
    v[m - 1] = (2.0 * w[m - 1] + w[m - 2]) / 3.0
    v[m] = (2.0 * w[m] + w[m + 1]) / 3.0
    return v


def trace_solve(op, shift, scale, r):
    """(shift + scale * M)^-1 r as P (P^T (shift + scale * M) P)^-1 P^T r,
    with one dgtsv call on the trace tridiagonal."""
    d, e = trace_tridiagonal(op, shift + scale * op.diag, scale * op.off, scale * op.coupling)
    *_, w, info = lapack.dgtsv(e, d, e, to_trace(op, r))
    assert info == 0
    return from_trace(op, w), (d, e)


def row_interchanges(d, e):
    ipiv = lapack.dgttrf(e, d, e)[4]
    return np.count_nonzero(ipiv != np.arange(1, len(ipiv) + 1))


@pytest.mark.parametrize("n", [1024, 4096])
def test_one_sweep_solve_is_trace_solve(n):
    # solve (one single-column gtsv sweep in trace coordinates) returns the
    # bits of the trace-form oracle for the minimizer's real systems; r is
    # not written.  The rows next to the traces are not diagonally dominant,
    # so the elimination interchanges rows there at tau = 0.2, and in the
    # bulk too at tau = 2
    g = Grid(20.0, n)
    op = form_operator(g, 2.01)
    for tau in (0.2, 2.0):
        v, shift, scale = minimizer_shift(g, tau)
        kept = v.copy()
        want, trace_form = trace_solve(op, shift, scale, v)
        assert row_interchanges(*trace_form) > 0
        got = op.solve(shift, scale, v)
        assert got.dtype == np.float64
        assert np.array_equal(v, kept)
        assert np.array_equal(got, want)


def descent_shift(grid, v, tau):
    """The shift and scale of the minimizer's step from the real samples v
    at omega = 0 and step size tau, built as minimize_dgamma builds them."""
    return 1.0 + tau * (0.0 - fields._log_abs2(v)), tau / grid.dx


def tridiagonal_backward_error(d, e, w, b):
    """The normwise backward error max|b - A w| / (|A| max|w| + max|b|) of
    w for the symmetric tridiagonal A (d, e), in the infinity norm."""
    rows = np.abs(d)
    rows[:-1] += np.abs(e)
    rows[1:] += np.abs(e)
    aw = d * w
    aw[:-1] += e * w[1:]
    aw[1:] += e * w[:-1]
    return np.max(np.abs(b - aw)) / (np.max(rows) * np.max(np.abs(w)) + np.max(np.abs(b)))


@pytest.mark.parametrize("n", [1024, 4096])
@pytest.mark.parametrize("tau", [fields.TAU0, fields.TAU_MAX])
def test_definite_sweep_backward_stable(n, tau, monkeypatch):
    # the descent's ptsv solve on the positive definite system of the first
    # 2.01-left step, against the trace tridiagonal of the oracle and P^T r,
    # with w read before the map back: measured at most 0.41 eps (the
    # pivoted gtsv reads 1.2 eps at TAU_MAX, n = 4096), bound eps
    g = Grid(20.0, n)
    op = form_operator(g, 2.01)
    s = fields._seed_values(Seed.LEFT, 2.01, 0.0, g)
    v = fields._project(op, s, 0.0, np.empty(g.n))[0] * s
    shift, scale = descent_shift(g, v, tau)
    d, e = trace_tridiagonal(op, shift + scale * op.diag, scale * op.off, scale * op.coupling)
    monkeypatch.setattr(op, "_from_trace", lambda w: w)
    w = op._definite_sweep(shift + scale * op.diag, scale, v)
    assert w is not None
    assert tridiagonal_backward_error(d, e, w, to_trace(op, v)) <= np.finfo(float).eps


def test_indefinite_descent_step_falls_back(monkeypatch):
    # the free Gaussian seed lies next to the even stationary state of
    # gamma = 1, where L- has the eigenvalue -4.92 (the delta' bound state):
    # I + tau L- is positive definite only for tau < 1/4.92 = 0.203, so at
    # the first step's tau = TAU0 = 0.2 and not at the second's 1.3 TAU0.
    # There ptsv finds a leading minor that is not positive, and the
    # minimizer's step is the pivoted gtsv sweep's, bit for bit that of the
    # trace-form oracle
    g = Grid(20.0, 256)
    op = form_operator(g, 1.0)
    project, steps = fields._project, []

    def recording(op, values, omega, log_s2):
        steps.append(values.copy())
        return project(op, values, omega, log_s2)

    monkeypatch.setattr(fields, "_project", recording)
    with pytest.raises(ConvergenceError):
        minimize_dgamma(1.0, 0.0, seed=Field(g, free_gaussian(g).values.real), grid=g,
                        max_iter=2)
    # the seed's projection, then each step's; the second step solves for
    # the first step s, whose projection is lam * s, with the shift of lam * s
    assert len(steps) == 3
    s, tau, log_s2 = steps[1], 1.3 * fields.TAU0, np.empty(g.n)
    lam, _ = project(op, s, 0.0, log_s2)
    shift, scale = fields._step_shift(np.empty(g.n), log_s2, lam, tau, 0.0), tau / g.dx
    assert op._definite_sweep(shift + scale * op.diag, scale, s) is None
    assert np.array_equal(steps[2], trace_solve(op, shift, scale, s)[0])


TINY = np.finfo(float).tiny


def narrow_seed(grid):
    """test_step_counts_pinned's narrow Gaussian seed: exact zeros and, on
    Grid(20, 1024), subnormal squares between them and its peak."""
    return np.exp(-(grid.nodes() / 0.1) ** 2)


def projection_inputs():
    """(name, op, samples, omega): every state the 2.1-left minimization
    projects on the benchmark's grid, the narrow seed, the compactly
    supported seed of test_compactly_supported_seed and a state whose
    squares are mostly subnormal."""
    grid = Grid(20.0, 4096)
    project, seen = fields._project, []

    def recording(op, values, omega, log_s2):
        seen.append(values.copy())
        return project(op, values, omega, log_s2)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fields, "_project", recording)
        minimize_dgamma(2.1, 0.0, seed=Seed.LEFT, grid=grid)
    op = form_operator(grid, 2.1)
    out = [(f"2.1-left state {k}", op, v, 0.0) for k, v in enumerate(seen)]
    g = Grid(20.0, 1024)
    out.append(("narrow seed", form_operator(g, 1.0), narrow_seed(g), 0.0))
    x = g.nodes()
    compact = np.where(np.abs(x) <= 15.0, sample_profile(ground_states(1.0, 0.0)[0], g).values.real,
                       0.0)
    out.append(("compactly supported seed", form_operator(g, 1.0), compact, 0.0))
    # a peak square of 9e-308, just above tiny: the subnormal squares hold a
    # share of the mass and entropy that moves S
    out.append(("subnormal squares", form_operator(g, 1.0), 3e-154 * np.exp(-0.5 * x * x), 0.0))
    return out


def test_projection_log_keeps_action_bits():
    # the projection takes form, mass, entropy and Nehari value from the
    # evaluation behind _report, whose entropy, summed from s^2 times the
    # floored log, has entropy_of_squares' bits, zeros and subnormal
    # squares included: lambda and S are those of _report's functionals
    # bit for bit.  The buffer holds log max(s^2, ulp(0)), which is
    # _log_abs2's where no square is below tiny
    inputs, unfloored = projection_inputs(), 0
    for name, op, s, omega in inputs:
        s2 = s * s
        r = fields._report(op, s, omega)
        assert r.entropy == float(op.grid.dx * np.sum(corefn.entropy_of_squares(s2))), name
        buf = np.full(s.shape, np.nan)
        lam, S = fields._project(op, s, omega, buf)
        want = math.exp(r.nehari / (2.0 * r.mass))
        assert (lam, S) == (want, 0.5 * want * (want * r.mass)), name
        assert np.array_equal(buf, np.log(np.maximum(s2, math.ulp(0.0)))), name
        if np.min(s2) >= TINY:
            assert np.array_equal(buf, fields._log_abs2(s)), name
            unfloored += 1
    # the seed, the 58 descent steps and the Newton state of the 2.1-left
    # run; the narrow seed and the subnormal state have zeros and
    # subnormal squares, the compact seed zeros
    assert unfloored == len(inputs) - 3 == 60


def test_projection_action_finite_where_lambda_squared_overflows():
    # 1e-155 times a Gaussian: lambda is about 1e155, so lambda^2
    # overflows, while the projected mass lambda^2 mass(s) is of order 1.
    # S = lambda (lambda mass(s)) / 2 is half the projected mass to the
    # rounding of the subnormal squares in mass(s) (measured 1.0e-14
    # relative, bound 1e-12)
    g = Grid(20.0, 1024)
    op = form_operator(g, 3.0)
    s = 1e-155 * np.exp(-0.5 * (g.nodes() - 1.0) ** 2)
    lam, S = fields._project(op, s, 0.0, np.empty(g.n))
    assert lam * lam == math.inf
    assert math.isfinite(S)
    assert S == pytest.approx(0.5 * mass(Field(g, lam * s)), rel=1e-12)


def scaled_to(op, s, lam, omega=0.0):
    """s times the factor that makes its projection factor lam at omega."""
    return s * (fields._project(op, s, omega, np.empty(s.size))[0] / lam)


def shift_today(s, lam, tau, omega):
    """1 + tau (omega - _log_abs2(lam s)): the shift from the projected
    samples, as the descent built it before carrying lam as a scalar."""
    return 1.0 + tau * (omega - fields._log_abs2(lam * s))


@pytest.mark.parametrize("target", [0.6, 1.7])
@pytest.mark.parametrize("omega", [0.0, -3.0])
def test_step_shift_from_log_matches_floored_log(target, omega):
    # lambda < 1 and lambda > 1 on a benchmark seed, whose squares are far
    # from the floor: two passes from log s^2 agree with the shift from
    # lambda s to a few ulps of the terms 1, tau omega, 2 tau log lambda and
    # tau log s^2 (measured 1.8 ulps at most, bound 4)
    g = Grid(20.0, 4096)
    op = form_operator(g, 2.01)
    s = scaled_to(op, fields._seed_values(Seed.LEFT, 2.01, 0.0, g), target, omega)
    log_s2 = np.empty(g.n)
    lam, _ = fields._project(op, s, omega, log_s2)
    assert (lam < 1.0) == (target < 1.0)
    for tau in (fields.TAU0, fields.TAU_MAX, 1e-3):
        got = fields._step_shift(np.empty(g.n), log_s2, lam, tau, omega)
        terms = 1.0 + abs(tau * omega) + abs(2.0 * tau * math.log(lam)) + np.abs(tau * log_s2)
        err = np.abs(got - shift_today(s, lam, tau, omega))
        assert np.max(err / terms) <= 4.0 * np.finfo(float).eps


def floored_states():
    """(name, s, lam, log_s2): samples s whose iterate lam s has squares
    below the smallest normal double tiny, with the log that the
    projection of s writes.  lam is the projection factor of s, below or
    above 1, or, on a seed with exact zeros, a factor from either end of
    the range the descent keeps lam in (SCALE_DRIFT) and 1."""
    g = Grid(20.0, 1024)
    op = form_operator(g, 1.0)
    x = g.nodes()
    # lambda = 0.01, with the eight outermost squares at 2500 tiny: s^2 is
    # above the floor there but (lambda s)^2 = tiny / 4 is below it
    s = scaled_to(op, np.exp(-0.5 * x * x), 0.01)
    s[:4] = s[-4:] = 0.5 * math.sqrt(TINY) / 0.01
    out = []
    # lambda = 2 on the narrow seed: zeros and subnormal squares
    for name, v in [("lambda < 1", s), ("lambda > 1", scaled_to(op, narrow_seed(g), 2.0))]:
        log_s2 = np.empty(g.n)
        out.append((name, v, fields._project(op, v, 0.0, log_s2)[0], log_s2))
    v, log_s2 = narrow_seed(g), np.empty(g.n)
    fields._project(op, v, 0.0, log_s2)
    return out + [(f"zeros at lambda = {lam:g}", v, lam, log_s2)
                  for lam in (2.0**-40, 1.0, fields.SCALE_DRIFT)]


@pytest.mark.parametrize("case", range(5))
def test_step_shift_exact_on_floored_nodes(case):
    # where a square of lambda s is floored, log s^2 + 2 log lambda lies
    # below log tiny and the cap gives the shift bit for bit the floored
    # log's.  A zero square's log, log ulp(0), reaches the cap for every
    # lambda up to 2^26, so up to SCALE_DRIFT (with SCALE_DRIFT = 2^32 the
    # last case fails)
    name, s, lam, log_s2 = floored_states()[case]
    floored = (lam * s) ** 2 < TINY
    assert floored.any()
    if name.startswith("zeros"):
        assert np.any(s == 0.0)
    else:
        assert (lam < 1.0) == (name == "lambda < 1")
    if name == "lambda < 1":
        assert np.min(s * s) >= TINY  # log s^2 itself is not floored
    for tau in (fields.TAU0, fields.TAU_MAX, 1e-3):
        got = fields._step_shift(np.empty(s.size), log_s2, lam, tau, 0.0)
        assert np.array_equal(got[floored], shift_today(s, lam, tau, 0.0)[floored]), name


def dense_operator(op):
    return np.column_stack([op.apply(e) for e in np.eye(op.grid.n)])


def test_trace_form_is_congruence():
    # _trace_form's tridiagonal is P^T (D + coupling c c^T) P, with D the
    # tridiagonal part of a shifted operator and P written densely
    g = Grid(5.0, 64)
    op, m = form_operator(g, 1.5), g.mid
    shift = np.random.default_rng(4).uniform(-1.0, 1.0, g.n)
    dense = np.diag(shift) + dense_operator(op)
    P = np.eye(g.n)
    P[m - 1, m - 2], P[m - 1, m - 1] = 1.0 / 3.0, 2.0 / 3.0
    P[m, m], P[m, m + 1] = 2.0 / 3.0, 1.0 / 3.0
    d, e = shift + op.diag, op.off.copy()
    op._trace_form(d, e, op.coupling)
    want = P.T @ dense @ P
    assert np.max(np.abs(np.diag(d) + np.diag(e, 1) + np.diag(e, -1) - want)) \
        <= 1e-15 * np.max(np.abs(want))
    # c^T P = e_m - e_{m-1}: the jump term is the edge between the traces
    assert np.max(np.abs(op.jump_stencil @ P - (np.eye(g.n)[m] - np.eye(g.n)[m - 1]))) <= 1e-15


@pytest.mark.parametrize("tau, scale", [(0.2, None), (2.0, None), (None, 0.5j * 2e-3),
                                        (None, 0.3 + 0.7j)])
def test_one_sweep_solve_matches_dense(tau, scale):
    # the minimizer's real systems and complex ones, against a dense solve
    g = Grid(20.0, 256)
    op = form_operator(g, 2.01)
    if tau is not None:
        r, shift, scale = minimizer_shift(g, tau)
    else:
        rng = np.random.default_rng(5)
        shift, scale = 1.0, scale / g.dx
        r = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    want = np.linalg.solve(np.diag(np.broadcast_to(shift, g.n)) + scale * dense_operator(op), r)
    got = op.solve(shift, scale, r)
    assert got.dtype == want.dtype
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def two_part_index(u, gamma, omega):
    """The Morse index as the negative count of the tridiagonal part T' of
    the Jacobian (dstebz) plus 1 when the Sherman-Morrison denominator
    1 + coupling c^T T'^-1 c is negative."""
    op = form_operator(u.grid, gamma)
    diag = op.diag + u.grid.dx * (omega - 2.0 - np.log(u.values.real ** 2))
    lo = float(np.min(diag)) - 2.0 * float(np.max(np.abs(op.off))) - 1.0
    count, *_, info = lapack.dstebz(diag, op.off, 1, lo, 0.0, 1, 1, -lo, b"E")
    assert info == 0
    *_, z, info = lapack.dgtsv(op.off, diag, op.off, op.jump_stencil.copy())
    assert info == 0
    return int(count), int(1.0 + op.coupling * (op.jump_stencil @ z) < 0.0)


@pytest.mark.parametrize("gamma", [1.0, 3.0])
def test_morse_index_is_two_part_count(gamma):
    # one Sturm count in trace coordinates against the count of T' plus the
    # jump term's sign, on seeded real fields whose index spreads over 0..6
    g = Grid(20.0, 1024)
    jump_terms, indices = 0, set()
    for seed in range(50):
        u = Field(g, smooth_random(g, seed).values.real)
        count, jump = two_part_index(u, gamma, 0.0)
        assert morse_index(u, gamma, 0.0) == count + jump
        jump_terms += jump
        indices.add(count + jump)
    assert jump_terms > 0 and len(indices) > 3


def bidiagonal_solve(op, scale, r):
    """2 (1 + scale * M)^-1 r in trace coordinates, from zgttrf's L D L^T
    of the trace tridiagonal, which must interchange no rows: the map
    P^T, a unit lower and a unit upper ztbsv sweep, each on its own band,
    with the product by 2/D between them, and the map P."""
    d, e = trace_tridiagonal(op, 1.0 + scale * op.diag, scale * op.off, scale * op.coupling)
    dl, d, _, _, ipiv, info = lapack.zgttrf(e, d, e)
    assert info == 0
    assert np.array_equal(ipiv, np.arange(1, op.grid.n + 1))
    lower = np.zeros((2, op.grid.n), dtype=complex, order="F")
    upper = np.zeros((2, op.grid.n), dtype=complex, order="F")
    lower[0], lower[1, :-1] = 1.0, dl
    upper[1], upper[0, 1:] = 1.0, dl
    y = blas.ztbsv(1, lower, to_trace(op, r.astype(complex)), lower=1, diag=1) * (2.0 / d)
    return from_trace(op, blas.ztbsv(1, upper, y, lower=0, diag=1))


@pytest.mark.parametrize("n", [1024, 4096])
def test_cayley_solve_is_bidiagonal_sweeps(n):
    # the propagator's complex Cayley system, solved into the caller's out
    g = Grid(20.0, n)
    op = form_operator(g, 2.01)
    rng = np.random.default_rng(n)
    for dt in (1e-3, -1e-3, 2e-3):
        scale = 0.5j * dt / g.dx
        r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kept, out = r.copy(), np.empty_like(r)
        got = ShiftedSolver(op, scale)(r, out)
        assert got is out
        assert np.array_equal(r, kept)
        assert np.array_equal(got, bidiagonal_solve(op, scale, r))


@pytest.mark.parametrize("dt", [1e-3, -1e-3, 2e-3])
def test_cayley_solve_matches_dense(dt):
    # the two solvers on the propagator's complex system (measured <= 3e-16);
    # ShiftedSolver carries the Cayley factor 2
    g = Grid(5.0, 64)
    op = form_operator(g, 2.0)
    scale = 0.5j * dt / g.dx
    dense = np.eye(g.n) + scale * np.column_stack([op.apply(e) for e in np.eye(g.n)])
    rng = np.random.default_rng(2)
    r = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    want = np.linalg.solve(dense, r)
    for got in (ShiftedSolver(op, scale)(r, np.empty_like(r)),
                2.0 * op.solve(1.0, scale, r)):
        assert got.dtype == np.complex128
        assert np.max(np.abs(got - 2.0 * want)) <= 1e-14 * np.max(np.abs(2.0 * want))


@pytest.mark.parametrize("n", [10, 256, 4096])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_cayley_factorization_never_pivots(n, gamma):
    # the trace form of 1 + scale * M has the positive definite real part
    # P^T P for every real dt, so its factorization needs no pivoting, and
    # the step keeps the mass across the accepted range of dt (a zero or
    # non-finite pivot would raise).  The last dt takes
    # |scale| max(diag T) to 2^51
    g = Grid(1.0, n)
    op = form_operator(g, gamma)
    edge = 2.0**51 / op.diag.max() * 2.0 * g.dx
    rng = np.random.default_rng(n)
    u = Field(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    m = mass(u)
    for dt in (1e-3, -1e-3, 40.0, -40.0, 5e-324, -5e-324, edge, -edge):
        assert abs(mass(linear_step(u, gamma, dt)) - m) <= 1e-15 * m, dt


def cayley_backward_error(op, scale, r):
    """The normwise backward error max|r - A x| / (|A| max|x| + max|r|) of
    x = ShiftedSolver(op, scale)(r) / 2 for A = 1 + scale * M, in the
    infinity norm; the four jump rows of |A| are summed from op.apply."""
    x = 0.5 * ShiftedSolver(op, scale)(r, np.empty_like(r))
    rows = np.abs(1.0 + scale * op.diag)
    rows[:-1] += np.abs(scale * op.off)
    rows[1:] += np.abs(scale * op.off)
    for k in range(op.jump.start, op.jump.stop):
        e = np.eye(1, op.grid.n, k)[0]
        rows[k] = np.sum(np.abs(e + scale * op.apply(e)))
    residual = r - (x + scale * op.apply(x))
    return np.max(np.abs(residual)) / (np.max(rows) * np.max(np.abs(x)) + np.max(np.abs(r)))


@pytest.mark.parametrize("n", [10, 256, 4096])
@pytest.mark.parametrize("gamma", [0.5, 2.0, 10.0])
def test_cayley_solve_backward_stable(n, gamma):
    # the Cayley solve is backward stable on the grids, gamma and dt of
    # test_cayley_factorization_never_pivots, the 2^51 stiffness edge
    # included: measured at most 1.3e-16, against the bound eps = 2^-52
    g = Grid(1.0, n)
    op = form_operator(g, gamma)
    edge = 2.0**51 / op.diag.max() * 2.0 * g.dx
    rng = np.random.default_rng(n)
    r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for dt in (1e-3, -1e-3, 40.0, -40.0, 5e-324, -5e-324, edge, -edge):
        assert cayley_backward_error(op, 0.5j * dt / g.dx, r) <= np.finfo(float).eps, dt


def test_cayley_factorization_zero_pivot():
    # a scale that zeroes the first pivot exactly, real or complex, and a
    # NaN scale whose pivots are not finite, each raise LinAlgError
    op = form_operator(Grid(20.0, 256), 2.0)
    scale = -1.0 / op.diag[0]
    assert 1.0 + scale * op.diag[0] == 0.0
    for s in (scale, complex(scale)):
        with pytest.raises(np.linalg.LinAlgError, match="zero pivot in row 0"):
            ShiftedSolver(op, s)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite pivot"):
        ShiftedSolver(op, complex(math.nan, 0.0))


def test_one_sweep_solve_singular():
    # scale 0 leaves the diagonal shift, exactly singular with one zero in it
    g = Grid(20.0, 256)
    shift = np.ones(g.n)
    shift[10] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="info=11"):
        form_operator(g, 3.0).solve(shift, 0.0, np.ones(g.n))


def test_operator_cache_shared():
    g = Grid(20.0, 1024)
    assert form_operator(g, 2.0) is form_operator(g, 2.0)
