"""Time stepping: substep contracts, conservation, reversal, stability runs."""

import inspect
import math

import numpy as np
import pytest

from lognls.corefn import eval_Gm
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

    def test_clamped_rate_agrees_in_band(self, grid):
        x = grid.nodes()
        u = Field(grid, 0.5 * np.exp(-0.5 * x * x) + 0.2 + 0j)  # amplitudes in [0.2, 0.7]
        raw = nonlinear_step(u, 0.1)
        clamped = nonlinear_step(u, 0.1, m=10.0)
        assert np.allclose(raw.values, clamped.values, rtol=1e-12)


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

    def test_clamped_rate_with_zero_sample(self, grid):
        # s * s underflows to 0 at a zero sample; the clamped rate is frozen
        # there, also at m = 1e200, where the squares of 1/m and m under- and
        # overflow
        x = grid.nodes()
        vals = np.exp(-x * x) + 0j
        vals[grid.n // 4] = 0.0
        u0 = Field(grid, vals)
        for m in (10.0, 1e200):
            res = evolve(u0, 2.0, EvolutionConfig(dt=1e-3, t_end=0.05, m=m, record_every=10))
            assert len(res.records) == 6
            assert all(math.isfinite(r.mass) and math.isfinite(r.energy) for r in res.records)
            assert np.all(np.isfinite(res.final.values))

    @pytest.mark.parametrize("m", [None, 4.0])
    def test_strang_step_from_substeps(self, m):
        # with a record at every step, evolve is half rotation, CN step,
        # half rotation, bit for bit
        gamma, dt = 3.0, 2e-3
        g = Grid(20.0, 512)
        u = sample_profile(branch_params(gamma, 0.0, Branch.ASYMMETRIC_LEFT), g)
        res = evolve(u, gamma, EvolutionConfig(dt=dt, t_end=20 * dt, m=m, record_every=1))
        for _ in range(20):
            u = nonlinear_step(linear_step(nonlinear_step(u, dt / 2, m), gamma, dt), dt / 2, m)
        assert res.final.values.tobytes() == u.values.tobytes()

    @pytest.mark.parametrize("m", [None, 4.0])
    @pytest.mark.parametrize("nsteps", [5, 12])
    def test_merged_rotations_from_substeps(self, m, nsteps):
        # between records evolve merges the trailing and leading half
        # rotations into one over dt; at a record it rotates twice by dt/2
        gamma, dt, every = 3.0, 2e-3, 5
        g = Grid(20.0, 512)
        u0 = sample_profile(branch_params(gamma, 0.0, Branch.ASYMMETRIC_LEFT), g)
        cfg = EvolutionConfig(dt=dt, t_end=nsteps * dt, m=m, record_every=every,
                              snapshot_every=1)
        res = evolve(u0, gamma, cfg)
        u = nonlinear_step(u0, dt / 2, m)
        for k in range(1, nsteps):
            u = linear_step(u, gamma, dt)
            if k % every:
                u = nonlinear_step(u, dt, m)
            else:
                u = nonlinear_step(nonlinear_step(u, dt / 2, m), dt / 2, m)
        u = nonlinear_step(linear_step(u, gamma, dt), dt / 2, m)
        assert res.final.values.tobytes() == u.values.tobytes()
        # each snapshot is its own array: the final state of a run to its time
        assert len(res.snapshots) == len(res.records) - 1 == -(-nsteps // every)
        for t, snap in res.snapshots:
            short = evolve(u0, gamma, EvolutionConfig(dt=dt, t_end=t, m=m, record_every=every))
            assert snap.values.tobytes() == short.final.values.tobytes()

    @pytest.mark.parametrize("m", [None, 4.0])
    def test_record_mass_and_energy_formula(self, grid, m):
        # records take |u|^2 once; the values are those of the mass and of
        # the energy through eval_Gm, bit for bit
        u0 = sample_profile(branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT), grid)
        cfg = EvolutionConfig(dt=2e-3, t_end=0.04, m=m, record_every=4, snapshot_every=1)
        res = evolve(u0, 3.0, cfg)
        op, dx = form_operator(grid, 3.0), grid.dx
        for rec, vals in zip(res.records, [u0.values] + [f.values for _, f in res.snapshots]):
            s = np.abs(vals)
            q = float(dx * np.sum(s * s))
            en = 0.5 * op.form(vals) - float(dx * np.sum(eval_Gm(s, m))) - 0.5 * q
            assert (rec.mass, rec.energy) == (q, en)

    @pytest.mark.parametrize("m", [None, 4.0])
    def test_caller_arrays_not_written(self, grid, m):
        # Field keeps a complex input array without copying it
        vals = sample_profile(branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT), grid).values
        u = Field(grid, vals * (1.0 + 0.1j))
        before = u.values.tobytes()
        res = evolve(u, 3.0, EvolutionConfig(dt=2e-3, t_end=0.02, m=m, record_every=3))
        linear_step(u, 3.0, 2e-3)
        nonlinear_step(u, 2e-3, m)
        assert u.values.tobytes() == before
        assert not np.shares_memory(res.final.values, u.values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=-1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=3e-3, t_end=1.0)  # not an integer step count
        with pytest.raises(ValueError):
            EvolutionConfig(dt=1e-3, t_end=1.0, record_every=0)
        for dt, t_end in ((math.nan, 1.0), (math.inf, 1.0), (1e-3, math.inf),
                          (1e-3, math.nan)):
            with pytest.raises(ValueError, match="finite and positive"):
                EvolutionConfig(dt=dt, t_end=t_end)


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

    def test_default_grid(self):
        grid = inspect.signature(stability_experiment).parameters["grid"]
        assert grid.default is DEFAULT_GRID

    def test_validation(self):
        with pytest.raises(ValueError):
            stability_experiment(2.0, 0.0, Branch.SYMMETRIC, -1e-2, 0.5, 1, 0)
        with pytest.raises(ValueError):
            stability_experiment(2.0, 0.0, Branch.SYMMETRIC, 1e-2, 0.5, 0, 0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="perturbation_size"):
                stability_experiment(2.0, 0.0, Branch.SYMMETRIC, bad, 0.5, 1, 0,
                                     grid=Grid(10.0, 512), dt=2.5e-3)
