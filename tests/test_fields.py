"""Grid, traces, functionals, projection, distances and the minimizer."""

import inspect
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import lapack

from lognls import fields
from lognls.corefn import SQRT_PI
from lognls.dynamics import linear_step
from lognls.fields import (
    DEFAULT_GRID,
    ConvergenceError,
    Field,
    Grid,
    Metric,
    Seed,
    action_gradient,
    derivative,
    derivative_norm_sq,
    entropy,
    form_operator,
    mass,
    minimize_dgamma,
    nehari_project,
    orbital_distance,
    quadratic_form,
    random_smooth_field,
    report,
    sample_profile,
    sigma_norm,
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


class TestMassEntropy:
    def test_free_gaussian_mass(self, grid):
        u = free_gaussian(grid)
        assert mass(u) == pytest.approx(math.e * SQRT_PI, rel=1e-10)

    def test_zero_field(self, grid):
        z = Field.zero(grid)
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
            nehari_project(Field.zero(grid), 2.0, 0.0)


class TestStationaryResidual:
    def test_zero_field(self, grid):
        r = stationary_residual(Field.zero(grid), 2.0, 0.0)
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

    def test_even_seed_with_odd_constraint_rejected(self):
        # the odd part of an even seed is zero, which cannot be projected
        g = Grid(20.0, 256)
        seed = Field(g, np.exp(-g.nodes() ** 2) + 0j)
        with pytest.raises(ValueError, match="zero field"):
            minimize_dgamma(1.0, 0.0, seed=seed, grid=g, odd_constraint=True)

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
        for bad in (0, -1):
            with pytest.raises(ValueError, match="max_iter"):
                minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 256), max_iter=bad)

    def test_odd_constraint_reaches_saddle(self):
        g = Grid(20.0, 1024)
        r = minimize_dgamma(3.0, 0.0, grid=g, odd_constraint=True)
        closed = action_closed_form(ground_states(3.0, 0.0)[0])
        assert abs(r.value - closed) / closed < 0.01

    def test_nonconvergence_carries_diagnostics(self):
        with pytest.raises(ConvergenceError) as info:
            minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 1024), max_iter=2)
        err = info.value
        assert err.last_field is not None
        assert err.iterations == 2
        assert err.action is not None

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

    @pytest.mark.parametrize("gamma, seed, iterations", [(1.0, Seed.SYMMETRIC, 4),
                                                         (3.0, Seed.LEFT, 26),
                                                         (3.0, Seed.RIGHT, 26),
                                                         (2.01, Seed.LEFT, 624),
                                                         (2.1, Seed.LEFT, 102)])
    def test_descent_path_pinned(self, gamma, seed, iterations):
        # the benchmark's minimizations at their grid: a speed-up that bends
        # the descent path changes these iteration counts
        r = minimize_dgamma(gamma, 0.0, seed=seed, grid=Grid(20.0, 4096))
        assert r.iterations == iterations
        assert r.action == report(r.field, gamma, 0.0).action

    def test_step_counts_pinned(self):
        # the benchmark's 2.1-left minimization takes no step back, so every
        # one of its iterations is an accepted descent step
        r = minimize_dgamma(2.1, 0.0, seed=Seed.LEFT, grid=Grid(20.0, 4096))
        assert (r.iterations, r.rejected, r.forced) == (102, 0, 0)
        # a narrow Gaussian seed overshoots twice on its way down
        g = Grid(20.0, 1024)
        r = minimize_dgamma(1.0, 0.0, seed=Field(g, np.exp(-(g.nodes() / 0.1) ** 2)), grid=g)
        assert (r.iterations, r.rejected, r.forced) == (386, 2, 0)

    def test_forced_steps_counted(self, monkeypatch):
        # every projection reads a larger action, so every step is uphill:
        # MAX_REJECTS rejections, then one forced step, and again
        project, bump = fields._project, iter(range(1, 10**6))
        monkeypatch.setattr(fields, "_project",
                            lambda op, v, omega: (project(op, v, omega)[0], float(next(bump))))
        steps = 2 * (fields.MAX_REJECTS + 1)
        with pytest.raises(ConvergenceError) as info:
            minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 256), max_iter=steps)
        err = info.value
        assert (err.iterations, err.rejected, err.forced) == (steps, 2 * fields.MAX_REJECTS, 2)

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

    def test_action_gradient(self):
        H = reference_matrix(self.grid, self.gamma) / self.grid.dx
        u, omega, dx = self.field(20), 0.4, self.grid.dx
        v = u.values
        want = H @ v * dx + dx * (omega - np.log(np.abs(v) ** 2)) * v
        got = action_gradient(u, self.gamma, omega)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("complex_rhs", [True, False])
def test_real_shift_solves_like_complex_shift(complex_rhs):
    # a real shift and scale are factored and solved in real arithmetic:
    # the solve returns float64 and agrees with the same system in complex
    # arithmetic, whose imaginary part stays exactly 0, to rounding; a
    # complex right-hand side would lose its imaginary part there, so the
    # real factorization refuses it
    for n in (1024, 4096):
        g = Grid(20.0, n)
        op = form_operator(g, 3.0)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            r = rng.standard_normal(g.n)
            shift = 1.0 + rng.uniform(0.0, 2.0, g.n)
            s = rng.uniform(0.01, 2.0) / g.dx
            solve = op.solver(shift, s)
            if complex_rhs:
                with pytest.raises(TypeError, match="complex right-hand side"):
                    solve(r + 1j * rng.standard_normal(g.n))
                continue
            real = solve(r)
            cplx = op.solver(shift + 0j, s + 0j)(r)
            assert real.dtype == np.float64
            assert np.all(cplx.imag == 0.0)
            assert np.max(np.abs(real - cplx.real)) <= 1e-15 * np.max(np.abs(cplx.real))


def minimizer_shift(grid, tau):
    """The minimizer's first shift and scale on the 2.01-left seed."""
    base = sample_profile(branch_params(2.01, 0.0, Branch.SYMMETRIC), grid).values.real
    v = np.where(grid.nodes() > 0, 2.0, 0.5) * base
    return v, 1.0 + tau * (0.0 - np.log(v**2)), tau / grid.dx


def row_interchanges(op, shift, scale):
    ipiv = lapack.dgttrf(scale * op.off, shift + scale * op.diag, scale * op.off)[4]
    return np.count_nonzero(ipiv != np.arange(1, len(ipiv) + 1))


@pytest.mark.parametrize("n", [1024, 4096])
def test_one_sweep_solve_is_factored_solve(n):
    # solve (one gtsv sweep over r and the jump stencil) returns the bits of
    # the factor-once solver, with row interchanges (tau = 2) and without
    # (tau = 0.2); a complex r is solved in complex arithmetic, as by the
    # complex-typed factorization, not cut to its real part
    g = Grid(20.0, n)
    op = form_operator(g, 2.01)
    rng = np.random.default_rng(n)
    for tau, pivots in ((0.2, False), (2.0, True)):
        v, shift, scale = minimizer_shift(g, tau)
        assert (row_interchanges(op, shift, scale) > 0) == pivots
        got = op.solve(shift, scale, v)
        assert got.dtype == np.float64
        assert np.array_equal(got, op.solver(shift, scale)(v))
        r = v + 1j * rng.standard_normal(n)
        got = op.solve(shift, scale, r)
        assert got.dtype == np.complex128
        assert np.array_equal(got, op.solver(shift + 0j, scale + 0j)(r))


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
