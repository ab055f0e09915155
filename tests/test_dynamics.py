"""Time stepping: substep contracts, conservation, reversal, stability runs."""

import inspect
import math

import numpy as np
import pytest

from lognls import dynamics
from lognls.corefn import eval_Gm, gm_phase_rate
from lognls.dynamics import (
    EvolutionAborted,
    EvolutionConfig,
    evolve,
    linear_step,
    nonlinear_step,
    stability_experiment,
)
from lognls.fields import (
    DEFAULT_GRID,
    Field,
    Grid,
    Metric,
    form_operator,
    mass,
    orbital_distance,
    random_smooth_field,
    sample_profile,
    sigma_norm,
)
from lognls.stationary import Branch, branch_params, ground_states


@pytest.fixture(scope="module")
def grid():
    return Grid(20.0, 1024)


def bound_state(grid, gamma):
    x = grid.nodes()
    return Field(grid, np.sign(x) * np.exp(-2.0 * np.abs(x) / gamma) + 0j)


class TestLinearStep:
    def test_dt_zero_is_identity(self, grid):
        u = bound_state(grid, 2.0)
        assert linear_step(u, 2.0, 0.0) is u
        # a non-finite dt is refused before a propagator is factored for it
        size = dynamics._propagator.cache_info().currsize
        for dt in (math.nan, math.inf, -math.inf):
            for step in (lambda: linear_step(u, 2.0, dt), lambda: nonlinear_step(u, dt)):
                with pytest.raises(ValueError, match="dt must be finite"):
                    step()
        assert dynamics._propagator.cache_info().currsize == size

    @pytest.mark.parametrize("L, n", [(1.0, 10), (1.0, 256), (20.0, 4096)])
    def test_step_beyond_stiffness_bound_rejected(self, L, n):
        # 1.5 |dt| / dx^2 must stay below 2^52, where rounding keeps the
        # Cayley system diagonally dominant: beyond it the step raises
        # ValueError naming dt and the bound, before any factorization
        # (zgttrf would fail or interchange rows); the largest accepted dt
        # still steps and keeps the mass
        g = Grid(L, n)
        u = Field(g, np.random.default_rng(n).standard_normal(n) + 0j)
        bound = 2.0**52 * g.dx * g.dx / 1.5
        size = dynamics._propagator.cache_info().currsize
        for dt in (1e305, -1e305, bound, -bound):
            with pytest.raises(ValueError, match=r"dt = .* is too large for the grid: "
                                                 r"1\.5 \|dt\| / dx\^2 must stay below 2\^52"):
                linear_step(u, 2.0, dt)
        assert dynamics._propagator.cache_info().currsize == size
        below = math.nextafter(bound, 0.0)
        for dt in (below, -below):
            assert abs(mass(linear_step(u, 2.0, dt)) - mass(u)) <= 1e-15 * mass(u)

    def test_mass_preserved_per_step(self, grid):
        rng = np.random.default_rng(1)
        u = random_smooth_field(grid, rng)
        v = linear_step(u, 2.0, 1e-3)
        assert mass(v) == pytest.approx(mass(u), rel=1e-12)

    def test_mass_does_not_drift(self):
        # a fixed rounding error of the factored solve would drain or feed
        # the mass by the same amount at every step of a long run
        g = Grid(20.0, 2048)
        u = sample_profile(ground_states(2.0, 0.0)[0], g)
        v = u
        for _ in range(3000):
            v = linear_step(v, 2.0, 2e-3)
        assert abs(mass(v) - mass(u)) <= 1e-13 * mass(u)

    def test_bound_state_phase_rotation(self):
        # the defect's single bound state rotates at rate 4/gamma^2
        gamma, dt = 2.0, 1e-3
        g = Grid(20.0, 4096)
        psi = bound_state(g, gamma)
        v = linear_step(psi, gamma, dt)
        want = np.exp(1j * dt * 4.0 / gamma**2) * psi.values
        err = math.sqrt(mass(v.with_values(v.values - want)) / mass(psi))
        assert err <= 1e-5

    def test_backward_undoes_forward(self, grid):
        u = bound_state(grid, 2.0)
        v = linear_step(linear_step(u, 2.0, 1e-3), 2.0, -1e-3)
        assert np.allclose(v.values, u.values, atol=1e-12)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("dt", [1e-3, -2e-3])
    def test_matches_dense_cayley_transform(self, gamma, dt):
        # (I + iA)^-1 (I - iA) v with A = (dt/2) M/dx, M assembled densely
        # from the form operator; the mass projection moves the step only
        # at roundoff, and makes its mass that of its input to a few ulp
        g = Grid(5.0, 64)
        eye = np.eye(g.n)
        a = 0.5 * dt / g.dx * np.column_stack([form_operator(g, gamma).apply(e) for e in eye])
        rng = np.random.default_rng(4)
        v = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
        want = np.linalg.solve(eye + 1j * a, (eye - 1j * a) @ v)
        w = linear_step(Field(g, v), gamma, dt).values
        assert np.max(np.abs(w - want)) <= 1e-12 * np.max(np.abs(v))
        m = np.vdot(v, v).real
        assert abs(np.vdot(w, w).real - m) <= 4 * np.finfo(float).eps * m

    def test_zero_field_stays_zero(self, grid):
        # the mass projection must not divide the zero state's 0 by 0
        with np.errstate(all="raise"):
            v = linear_step(Field(grid, np.zeros(grid.n, complex)), 2.0, 1e-3)
        assert not np.any(v.values)


class TestNonlinearStep:
    def test_modulus_preserved_to_ulp(self, grid):
        rng = np.random.default_rng(2)
        u = random_smooth_field(grid, rng)
        v = nonlinear_step(u, 0.37)
        # a pure rotation: |u| unchanged up to one rounding of the product
        a, b = np.abs(v.values), np.abs(u.values)
        assert np.all(np.abs(a - b) <= 4 * np.finfo(float).eps * b)

    def test_unit_modulus_is_fixed(self, grid):
        u = Field(grid, np.exp(1j * np.linspace(0, 3, grid.n)))
        v = nonlinear_step(u, 0.5)
        assert np.allclose(v.values, u.values, atol=1e-14)

    def test_composition(self, grid):
        rng = np.random.default_rng(3)
        u = random_smooth_field(grid, rng)
        a = nonlinear_step(nonlinear_step(u, 0.2), 0.3)
        b = nonlinear_step(u, 0.5)
        assert np.allclose(a.values, b.values, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("dt", [1e-3, 2e-3, 0.37, 5.0, 40.0])
    def test_phase_matches_exact_flow(self, grid, dt):
        # the tangent-built factor against cos + i sin of the same angle, at
        # every sample, up to |theta| ~ 2.6e3
        rng = np.random.default_rng(5)
        u = random_smooth_field(grid, rng)
        s = np.abs(u.values)
        theta = dt * gm_phase_rate(s)
        exact = u.values * (np.cos(theta) + 1j * np.sin(theta))
        v = nonlinear_step(u, dt)
        assert np.all(np.abs(v.values - exact) <= 4 * np.finfo(float).eps * s)


class TestEvolve:
    def test_zero_initial_data(self, grid):
        res = evolve(Field(grid, np.zeros(grid.n, complex)), 2.0,
                     EvolutionConfig(dt=1e-3, t_end=0.01))
        assert not np.any(res.final.values)
        assert res.records[0].mass == 0.0
        # the zero field stays zero, and its distance to a reference orbit
        # is the norm of the reference, recorded like any other field's
        params = ground_states(2.0, 0.0)[0]
        res = evolve(Field(grid, np.zeros(grid.n, complex)), 2.0,
                     EvolutionConfig(dt=1e-3, t_end=0.01, record_every=2), reference=params)
        phi = sample_profile(params, grid)
        want = (orbital_distance(Field(grid, np.zeros(grid.n, complex)), phi),
                orbital_distance(Field(grid, np.zeros(grid.n, complex)), phi, Metric.FULL_W,
                                 refine=False))
        assert len(res.records) == 6
        for r in res.records:
            assert (r.mass, r.energy) == (0.0, 0.0)
            assert (r.orbital_distance_sigma, r.orbital_distance_w) == want
        assert want[0] > 1.0

    def test_standing_wave_short(self, grid):
        params = ground_states(2.0, 0.0)[0]
        u0 = sample_profile(params, grid)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_every=100)
        res = evolve(u0, 2.0, cfg, reference=params)
        m0 = res.records[0].mass
        for r in res.records:
            assert abs(r.mass - m0) <= 1e-11 * m0
            assert r.orbital_distance_sigma <= 1e-3
            assert r.orbital_distance_w <= 5e-3

    def test_mass_exact_over_long_run(self):
        # every CN step projects onto one target, the first CN input's mass,
        # so rounding does not accumulate in the mass: over 20 000 steps
        # the records stay within 3.2e-16 relative (measured); projecting
        # onto each step's own input leaked ~1.5e-17 a step, 3.0e-13 by the end
        gamma, dt, steps = 3.0, 2e-3, 20_000
        g = Grid(20.0, 512)
        u0 = sample_profile(branch_params(gamma, 0.0, Branch.ASYMMETRIC_LEFT), g)
        res = evolve(u0, gamma, EvolutionConfig(dt=dt, t_end=steps * dt, record_every=1000))
        m = np.array([r.mass for r in res.records])
        assert len(m) == 21
        assert np.max(np.abs(m - m[0])) <= 4e-15 * m[0]

    def test_gauge_covariance(self, grid):
        params = ground_states(2.0, 0.0)[0]
        u0 = sample_profile(params, grid)
        cfg = EvolutionConfig(dt=1e-3, t_end=0.05, record_every=50)
        plain = evolve(u0, 2.0, cfg).final.values
        rotated = evolve(u0.with_values(np.exp(0.9j) * u0.values), 2.0, cfg).final.values
        assert np.allclose(rotated, np.exp(0.9j) * plain, rtol=1e-12, atol=1e-13)

    def test_time_reversal_through_substeps(self, grid):
        params = ground_states(2.0, 0.0)[0]
        u0 = sample_profile(params, grid)
        dt, gamma = 1e-3, 2.0
        fwd = nonlinear_step(linear_step(nonlinear_step(u0, dt / 2), gamma, dt), dt / 2)
        back = nonlinear_step(linear_step(nonlinear_step(fwd, -dt / 2), gamma, -dt), -dt / 2)
        err = np.max(np.abs(back.values - u0.values))
        assert err <= 1e-10

    def test_phase_advances_at_omega(self):
        omega = 0.5
        g = Grid(20.0, 2048)
        params = ground_states(2.0, omega)[0]
        u0 = sample_profile(params, g)
        cfg = EvolutionConfig(dt=1e-3, t_end=1.0, record_every=1000)
        res = evolve(u0, 2.0, cfg, reference=params)
        peak = int(np.argmax(np.abs(u0.values)))
        drift = np.angle(res.final.values[peak] / u0.values[peak])
        assert drift == pytest.approx(omega * 1.0, abs=1e-3)

    @pytest.mark.parametrize("gamma, branch, size, seed, t_end, every", [
        (2.0, Branch.SYMMETRIC, 0.05, 3, 0.05, 10),
        (3.0, Branch.ASYMMETRIC_LEFT, 1e-2, 4, 0.02, 5),
    ], ids=["2-symmetric", "3-left"])
    def test_record_distances_match_orbital_distance(self, grid, gamma, branch, size, seed,
                                                     t_end, every):
        # each record's two distances come from one phase fit, with the
        # reference's derivative taken once per run; they must be exactly
        # the two separate orbital_distance calls on the snapshot
        params = branch_params(gamma, 0.0, branch)
        phi = sample_profile(params, grid)
        bump = random_smooth_field(grid, np.random.default_rng(seed))
        u0 = phi.with_values(phi.values + size * bump.values)
        cfg = EvolutionConfig(dt=1e-3, t_end=t_end, record_every=every, snapshot_every=1)
        res = evolve(u0, gamma, cfg, reference=params)
        states = [u0] + [f for _, f in res.snapshots]
        assert len(states) == len(res.records) == 1 + round(t_end / 1e-3) // every
        for rec, f in zip(res.records, states):
            assert rec.orbital_distance_sigma == orbital_distance(f, phi, Metric.SIGMA_ONLY)
            assert rec.orbital_distance_w == orbital_distance(f, phi, Metric.FULL_W, refine=False)
            assert rec.orbital_distance_w > rec.orbital_distance_sigma > 0.0

    def test_snapshots_and_records_cadence(self, grid):
        params = ground_states(2.0, 0.0)[0]
        u0 = sample_profile(params, grid)
        cfg = EvolutionConfig(dt=1e-2, t_end=1.0, record_every=20, snapshot_every=2)
        res = evolve(u0, 2.0, cfg)
        assert len(res.records) == 1 + 5  # t = 0 plus 5 recording times
        assert len(res.snapshots) == 2
        assert res.snapshots[0][0] == pytest.approx(0.4)

    def test_abort_on_nonfinite(self, grid):
        params = ground_states(2.0, 0.0)[0]
        u0 = sample_profile(params, grid)
        u0.values[5] = np.inf  # corrupt in place, bypassing validation
        with pytest.raises(EvolutionAborted) as info:
            evolve(u0, 2.0, EvolutionConfig(dt=1e-3, t_end=1e-3))
        assert info.value.step == 0
        assert info.value.records == []

    def test_abort_on_raised_overflow(self, grid):
        # under np.errstate(over="raise") a finite state whose squares
        # overflow aborts with its step instead of a bare FloatingPointError
        vals = np.zeros(grid.n, dtype=complex)
        vals[grid.n // 2] = 1e200
        with np.errstate(over="raise"), pytest.raises(EvolutionAborted) as info:
            evolve(Field(grid, vals), 2.0, EvolutionConfig(dt=1e-3, t_end=1e-3))
        assert info.value.step == 0
        assert info.value.records == []
        assert isinstance(info.value.__cause__, FloatingPointError)

    @staticmethod
    def cn_step(u, gamma, dt, mass):
        """The Crank-Nicolson substep projected onto the run's mass."""
        solve = dynamics._propagator(u.grid, gamma, dt)
        v = dynamics._cn_step(solve, u.values, mass, np.empty_like(u.values),
                              np.empty_like(u.values))
        return u.with_values(v)

    @staticmethod
    def half_factor(u, dt):
        """exp(i (dt/2) log|u|^2), the factor of nonlinear_step(u, dt / 2)."""
        n = u.grid.n
        return dynamics._phase(u.values, dt / 2, np.empty_like(u.values), np.empty(n),
                               np.empty(n))

    def test_strang_step_from_substeps(self):
        # with a record at every step, evolve is half rotation, then per
        # step a CN step onto the first CN input's mass and the half factor
        # of its result applied twice, bit for bit
        gamma, dt = 3.0, 2e-3
        g = Grid(20.0, 512)
        u = sample_profile(branch_params(gamma, 0.0, Branch.ASYMMETRIC_LEFT), g)
        res = evolve(u, gamma, EvolutionConfig(dt=dt, t_end=20 * dt, record_every=1))
        u = nonlinear_step(u, dt / 2)
        m = np.vdot(u.values, u.values).real
        for k in range(20):
            u = self.cn_step(u, gamma, dt, m)
            f = self.half_factor(u, dt)
            assert np.array_equal(u.values * f, nonlinear_step(u, dt / 2).values)
            u = u.with_values(u.values * f)
            if k < 19:
                u = u.with_values(u.values * f)
        assert res.final.values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("nsteps", [5, 12])
    def test_merged_rotations_from_substeps(self, nsteps):
        # between records evolve merges the trailing and leading half
        # rotations into one over dt; at a record it applies one half factor
        # twice, and every CN step projects onto the first CN input's mass
        gamma, dt, every = 3.0, 2e-3, 5
        g = Grid(20.0, 512)
        u0 = sample_profile(branch_params(gamma, 0.0, Branch.ASYMMETRIC_LEFT), g)
        cfg = EvolutionConfig(dt=dt, t_end=nsteps * dt, record_every=every, snapshot_every=1)
        res = evolve(u0, gamma, cfg)
        u = nonlinear_step(u0, dt / 2)
        m = np.vdot(u.values, u.values).real
        for k in range(1, nsteps):
            u = self.cn_step(u, gamma, dt, m)
            if k % every:
                u = nonlinear_step(u, dt)
            else:
                f = self.half_factor(u, dt)
                u = u.with_values(u.values * f * f)
        u = nonlinear_step(self.cn_step(u, gamma, dt, m), dt / 2)
        assert res.final.values.tobytes() == u.values.tobytes()
        # each snapshot is its own array: the final state of a run to its time
        assert len(res.snapshots) == len(res.records) - 1 == -(-nsteps // every)
        for t, snap in res.snapshots:
            short = evolve(u0, gamma, EvolutionConfig(dt=dt, t_end=t, record_every=every))
            assert snap.values.tobytes() == short.final.values.tobytes()

    def test_record_mass_and_energy_formula(self, grid):
        # records take |u|^2 once; the values are those of the mass and of
        # the energy through eval_Gm, bit for bit
        u0 = sample_profile(branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT), grid)
        cfg = EvolutionConfig(dt=2e-3, t_end=0.04, record_every=4, snapshot_every=1)
        res = evolve(u0, 3.0, cfg)
        op, dx = form_operator(grid, 3.0), grid.dx
        for rec, vals in zip(res.records, [u0.values] + [f.values for _, f in res.snapshots]):
            s = np.abs(vals)
            q = float(dx * np.sum(s * s))
            en = 0.5 * op.form(vals) - float(dx * np.sum(eval_Gm(s))) - 0.5 * q
            assert (rec.mass, rec.energy) == (q, en)

    def test_caller_arrays_not_written(self, grid):
        # Field keeps a complex input array without copying it
        vals = sample_profile(branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT), grid).values
        u = Field(grid, vals * (1.0 + 0.1j))
        before = u.values.tobytes()
        res = evolve(u, 3.0, EvolutionConfig(dt=2e-3, t_end=0.02, record_every=3))
        linear_step(u, 3.0, 2e-3)
        nonlinear_step(u, 2e-3)
        assert u.values.tobytes() == before
        assert not np.shares_memory(res.final.values, u.values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=3e-3, t_end=1.0)  # not an integer step count
        with pytest.raises(ValueError):
            EvolutionConfig(dt=1e-3, t_end=1.0, record_every=0)
        # evolve would record every 5 steps for 2.5 and keep every 3rd record
        # for 1.5; a float is refused even when it is integral
        for key, every in (("record_every", 2.5), ("snapshot_every", 1.5),
                           ("record_every", 2.0), ("snapshot_every", 0)):
            with pytest.raises(ValueError, match=f"{key} must be a positive integer"):
                EvolutionConfig(dt=1e-3, t_end=1e-2, **{key: every})
        assert EvolutionConfig(dt=1e-3, t_end=1e-2, record_every=np.int64(2),
                               snapshot_every=3).snapshot_every == 3
        for dt, t_end in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.inf),
                          (1e-3, math.nan)):
            with pytest.raises(ValueError, match="finite and positive"):
                EvolutionConfig(dt=dt, t_end=t_end)


class TestExactSymmetries:
    # the equation keeps time reversal, the mirror x -> -x (which maps the
    # left branch to minus the mirrored right one) and the phase e^(i alpha)
    # u exactly, and the Strang step keeps each up to rounding: <= 7e-13 of
    # max|u| after 1000 steps here, bounded at 5e-12
    BOUND = 5e-12
    CONFIG = EvolutionConfig(dt=2e-3, t_end=2.0, record_every=1000)

    @pytest.fixture(scope="class", params=[(1.0, Branch.SYMMETRIC, Branch.SYMMETRIC),
                                           (3.0, Branch.ASYMMETRIC_LEFT, Branch.ASYMMETRIC_RIGHT)],
                    ids=["g1-symmetric", "g3-left"])
    def case(self, request):
        # (gamma, the mirror branch's seed, u0, u0 stepped 1000 times)
        gamma, branch, mirror = request.param
        g = Grid(20.0, 2048)
        pert = 0.05 * random_smooth_field(g, np.random.default_rng(1)).values
        phi = sample_profile(branch_params(gamma, 0.0, branch), g).values
        mirrored = sample_profile(branch_params(gamma, 0.0, mirror), g).values
        u0 = Field(g, phi + pert)
        assert self.within_bound(mirrored, -phi[::-1], u0)
        return gamma, mirrored - pert[::-1], u0, evolve(u0, gamma, self.CONFIG).final.values

    @classmethod
    def within_bound(cls, a, b, u0):
        return np.max(np.abs(a - b)) <= cls.BOUND * np.max(np.abs(u0.values))

    def test_time_reversal(self, case):
        # conj(u_N) stepped N times returns conj(u_0)
        gamma, _, u0, u_n = case
        back = evolve(u0.with_values(np.conj(u_n)), gamma, self.CONFIG).final.values
        assert self.within_bound(back, np.conj(u0.values), u0)

    def test_mirror(self, case):
        # the mirror branch's profile with the perturbation mirrored, against
        # minus the mirror image of the stepped state
        gamma, v0, u0, u_n = case
        v_n = evolve(u0.with_values(v0), gamma, self.CONFIG).final.values
        assert self.within_bound(v_n, -u_n[::-1], u0)

    def test_phase(self, case):
        gamma, _, u0, u_n = case
        rot = np.exp(0.7j)
        v_n = evolve(u0.with_values(rot * u0.values), gamma, self.CONFIG).final.values
        assert self.within_bound(v_n, rot * u_n, u0)


class TestStabilityExperiment:
    def test_deterministic_given_seed(self):
        g = Grid(10.0, 512)
        kw = dict(gamma=2.0, omega=0.0, branch=Branch.SYMMETRIC,
                  perturbation_size=1e-2, t_end=0.5, trials=2, rng_seed=42,
                  grid=g, dt=2.5e-3, record_every=50)
        a = stability_experiment(**kw)
        b = stability_experiment(**kw)
        assert a == b

    def test_trial_depends_only_on_seed_and_index(self):
        g = Grid(10.0, 512)
        kw = dict(gamma=2.0, omega=0.0, branch=Branch.SYMMETRIC,
                  perturbation_size=1e-2, t_end=0.5, rng_seed=7,
                  grid=g, dt=2.5e-3, record_every=50)
        three = stability_experiment(**kw, trials=3)
        assert three.trials[:2] == stability_experiment(**kw, trials=2).trials

    def test_trials_report_both_distances(self):
        # each trial's sigma and W fields are the first and the largest
        # value of evolve's records for the same (rng_seed, k), and their ratio
        g = Grid(10.0, 512)
        gamma, params = 3.0, branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT)
        s = stability_experiment(gamma, 0.0, Branch.ASYMMETRIC_LEFT, 1e-2, 0.25, 2, 5,
                                 grid=g, dt=2.5e-3, record_every=20)
        phi = sample_profile(params, g)
        cfg = EvolutionConfig(dt=2.5e-3, t_end=0.25, record_every=20)
        for k, t in enumerate(s.trials):
            pert = random_smooth_field(g, np.random.default_rng((5, k)))
            u0 = phi.with_values(phi.values + pert.values * (1e-2 * sigma_norm(phi)
                                                             / sigma_norm(pert)))
            recs = evolve(u0, gamma, cfg, reference=params).records
            for name in ("sigma", "w"):
                dists = [getattr(r, "orbital_distance_" + name) for r in recs]
                assert getattr(t, "initial_distance_" + name) == dists[0]
                assert getattr(t, "max_distance_" + name) == max(dists)
                assert getattr(t, "ratio_" + name) == max(dists) / dists[0]
            # the conservation columns come from the same records: the mass
            # drift relative to the first mass, the energy drift absolute
            masses, energies = (np.array([getattr(r, f) for r in recs])
                                for f in ("mass", "energy"))
            assert t.max_mass_drift == np.max(np.abs(masses - masses[0])) / masses[0]
            assert t.max_energy_drift == np.max(np.abs(energies - energies[0]))
            assert 0.0 <= t.max_mass_drift <= 1e-14 and 0.0 < t.max_energy_drift <= 1e-6
        assert t.trial == k == 1
        assert s.max_ratio_sigma == max(t.ratio_sigma for t in s.trials)
        assert s.max_ratio_w == max(t.ratio_w for t in s.trials)

    def test_missing_branch_rejected(self):
        with pytest.raises(ValueError):
            stability_experiment(1.0, 0.0, Branch.ASYMMETRIC_LEFT, 1e-2, 0.5, 1, 0,
                                 grid=Grid(10.0, 512), dt=2.5e-3)

    def test_excited_branch_flagged_exploratory(self):
        g = Grid(10.0, 512)
        s = stability_experiment(3.0, 0.0, Branch.SYMMETRIC, 1e-2, 0.1, 1, 0,
                                 grid=g, dt=2.5e-3, record_every=10)
        assert s.exploratory
        s2 = stability_experiment(1.5, 0.0, Branch.SYMMETRIC, 1e-2, 0.1, 1, 0,
                                  grid=g, dt=2.5e-3, record_every=10)
        assert not s2.exploratory
        # at the pitchfork the symmetric profile is still the ground state
        s3 = stability_experiment(2.0, 0.0, Branch.SYMMETRIC, 1e-2, 0.1, 1, 0,
                                  grid=g, dt=2.5e-3, record_every=10)
        assert not s3.exploratory

    def test_ratios_do_not_depend_on_omega(self):
        # the profile at omega is e^(omega/2) times the one at 0, and the
        # flow is scale-covariant, so the ratios agree to rounding (7e-13
        # measured) and the distances scale by e^(omega/2)
        kw = dict(gamma=1.0, branch=Branch.SYMMETRIC, perturbation_size=1e-2, t_end=1.0,
                  trials=2, rng_seed=0, grid=Grid(10.0, 512), dt=1e-3)
        a = stability_experiment(omega=0.0, **kw)
        b = stability_experiment(omega=-100.0, **kw)
        assert b.max_ratio_sigma == pytest.approx(a.max_ratio_sigma, rel=1e-9)
        assert b.max_ratio_w == pytest.approx(a.max_ratio_w, rel=1e-9)
        for ta, tb in zip(a.trials, b.trials):
            assert tb.initial_distance_sigma == pytest.approx(
                math.exp(-50.0) * ta.initial_distance_sigma, rel=1e-9)

    def test_default_grid(self):
        grid = inspect.signature(stability_experiment).parameters["grid"]
        assert grid.default is DEFAULT_GRID

    def test_validation(self):
        with pytest.raises(ValueError):
            stability_experiment(2.0, 0.0, Branch.SYMMETRIC, -1e-2, 0.5, 1, 0)
        with pytest.raises(ValueError):
            stability_experiment(2.0, 0.0, Branch.SYMMETRIC, 1e-2, 0.5, 0, 0)
        # a non-integral count is refused like EvolutionConfig's record_every,
        # not left to range()
        for bad in (2.5, 2.0):
            with pytest.raises(ValueError, match=f"trials must be a positive integer, got {bad}"):
                stability_experiment(2.0, 0.0, Branch.SYMMETRIC, 1e-2, 0.5, bad, 0,
                                     grid=Grid(10.0, 512), dt=2.5e-3)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="perturbation_size"):
                stability_experiment(2.0, 0.0, Branch.SYMMETRIC, bad, 0.5, 1, 0,
                                     grid=Grid(10.0, 512), dt=2.5e-3)
        # the profile's squares underflow: no perturbation can be scaled to it
        with pytest.raises(ValueError, match="underflow"):
            stability_experiment(2.0, -760.0, Branch.SYMMETRIC, 1e-2, 0.5, 1, 0,
                                 grid=Grid(10.0, 512), dt=2.5e-3)
