"""The three benchmark workloads and the checks on their outputs.

Every workload calls lognls only through its public functions.  A
workload is set up once (profiles, form operators and propagators are
built cold), then repeats a fixed unit of work, a *pass*, until the run's
time is spent; each pass is timed on its own.

* stability   - the criterion-10 configuration of tests/test_acceptance.py:
  four (gamma, branch) cases, each advancing a seeded perturbed trial by
  one evolve segment per pass.  Time goes to Strang stepping.
* trajectory  - the README `evolve` case with one seeded perturbation and
  diagnostics every 5 steps.  Time goes to the per-record orbital
  distances (the Luxemburg bisection above all).
* variational - minimizations, pair-system solves and in-process CLI
  commands.  No time stepping.

`stability_experiment`, `lognls evolve` and `lognls stability` raise
NameError at this commit (`dynamics._pick_branch`), so the stepping
workloads are composed from the public calls those paths make:
branch_params, sample_profile, sigma_norm, random_smooth_field and
evolve(..., reference=...).  Evolving a trial in segments whose length is
a multiple of record_every reproduces the single-call trajectory
exactly: evolve completes both half rotations at every record boundary.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from lognls import cli, corefn, dynamics, fields, stationary
from lognls.dynamics import EvolutionConfig, evolve, linear_step, nonlinear_step
from lognls.fields import (
    Grid,
    Metric,
    Seed,
    form_operator,
    minimize_dgamma,
    orbital_distance,
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
    ground_states,
    solve_3s,
)

from tracing import Ledger, Tracer

# Acceptance bounds, as pinned in tests/test_acceptance.py (criterion number).
BOUNDS = {
    "pair_residual": 1e-10,        # 1
    "closed_form_rel_err": 0.01,   # 8
    "mirror_rel_diff": 1e-8,       # 8
    "mass_drift": 1e-10,           # 9
    "energy_drift": 1e-6,          # 9
    "orbit_ratio": 10.0,           # 10
}

# At the pitchfork gamma = 2 the symmetric profile is degenerate, and its
# orbit ratio depends strongly on the perturbation: criterion 10 pins the
# bound at rng_seed 0 only, and other seeds exceed it (README, Findings).
# The ratio is reported against the bound on every run, not counted as a
# failed operation.
DEGENERATE = "degenerate pitchfork point, bound pinned at rng_seed 0 only"

SETUP_REPEATS = 9
PART_REPEATS = 5  # calls per public part timed after each traced operation


def clear_caches() -> None:
    """Drop every memoized form operator and propagator, so that the next
    call builds it cold."""
    for mod in (corefn, stationary, fields, dynamics):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _array_bytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    parts = [getattr(obj, a, None) for a in ("data", "indices", "indptr")]
    if all(isinstance(p, np.ndarray) for p in parts):  # a scipy.sparse compressed matrix
        return sum(p.nbytes for p in parts)
    return 0


def linear_step_bytes(grid: Grid, gamma: float, dt: float) -> int:
    """Bytes one linear step moves, computed from array sizes: every array
    held by the memoized propagator for (grid, gamma, dt), plus the state
    read, one intermediate written and read, and the result written.
    Cache misses are not counted."""
    held = 0
    for obj in vars(dynamics).values():
        if callable(getattr(obj, "cache_info", None)):
            try:
                prop = obj(grid, float(gamma), float(dt))
            except TypeError:
                continue
            held += sum(_array_bytes(v) for v in getattr(prop, "__dict__", {}).values())
    return held + 4 * 16 * grid.n


def perturbed(phi, phi_norm: float, delta: float, seed: int, k: int):
    """Trial k's initial state, drawn exactly as stability_experiment does."""
    rng = np.random.default_rng((seed, k))
    pert = random_smooth_field(phi.grid, rng)
    return phi.with_values(phi.values + pert.values * (delta * phi_norm / sigma_norm(pert)))


# ----------------------------------------------------------------------
# time stepping: stability and trajectory
# ----------------------------------------------------------------------


@dataclass
class Case:
    gamma: float
    branch: Branch
    ungated: str  # why the orbit-ratio bound is not applied; "" when it is
    params: object = None
    phi: object = None
    phi_norm: float = 0.0
    trial: object = None
    next_k: int = 0


@dataclass
class Trial:
    k: int
    u: object
    steps: int = 0
    d0: float = 0.0
    m0: float = 0.0
    e0: float = 0.0
    escale: float = 0.0
    max_ratio: float = 0.0


class Stepping:
    """Seeded perturbed trials advanced by evolve segments, one segment per
    case per pass; a finished trial is followed by trial k + 1."""

    def __init__(self, name, seed, grid_n, dt, record_every, horizon_steps,
                 segment_steps, cases, check_energy):
        if segment_steps % record_every or horizon_steps % segment_steps:
            raise ValueError("segments must tile the horizon at record boundaries")
        self.name = name
        self.seed = seed
        self.grid = Grid(20.0, grid_n)
        self.dt = dt
        self.record_every = record_every
        self.horizon_steps = horizon_steps
        self.segment_steps = segment_steps
        self.cases = [Case(g, b, why) for g, b, why in cases]
        self.check_energy = check_energy
        self.delta = 1e-2
        self.omega = 0.0
        self.segment = EvolutionConfig(dt=dt, t_end=segment_steps * dt, record_every=record_every)
        self.steps_per_pass = len(self.cases) * segment_steps
        self.records_per_pass = len(self.cases) * (segment_steps // record_every + 1)
        self.iters_per_pass = 0

    def inputs(self) -> dict:
        return {
            "grid": {"L": self.grid.L, "n": self.grid.n},
            "dt": self.dt, "omega": self.omega, "delta": self.delta,
            "record_every": self.record_every, "metric": Metric.SIGMA_ONLY.value,
            "m": None, "threads": 1,
            "trial_t_end": self.horizon_steps * self.dt,
            "segment_steps": self.segment_steps,
            "cases": [{"gamma": c.gamma, "branch": c.branch.value,
                       "orbit_ratio_bound": c.ungated or "applied"} for c in self.cases],
            "perturbation": "trial k: random_smooth_field(grid, default_rng((seed, k))) "
                            "scaled to delta * sigma_norm(profile)",
            "checks": {"orbit_ratio": "cases with the bound applied", "mass_drift": "all",
                       "energy_drift": "all" if self.check_energy else "none",
                       "finite": "all"},
        }

    def setup(self) -> dict:
        form_ms, prop_ms = [], []
        built = set()
        for c in self.cases:
            c.params = branch_params(c.gamma, self.omega, c.branch)
            c.phi = sample_profile(c.params, self.grid)
            c.phi_norm = sigma_norm(c.phi)
            if c.gamma in built:  # cases at one gamma share the operator and propagator
                continue
            built.add(c.gamma)
            t0 = perf_counter()
            form_operator(self.grid, c.gamma)
            t1 = perf_counter()
            linear_step(c.phi, c.gamma, self.dt)  # factors the propagator
            t2 = perf_counter()
            warm = []
            for _ in range(3):
                t3 = perf_counter()
                linear_step(c.phi, c.gamma, self.dt)
                warm.append(perf_counter() - t3)
            form_ms.append((t1 - t0) * 1e3)
            prop_ms.append((t2 - t1 - min(warm)) * 1e3)
        return {"form_operator_ms": form_ms, "propagator_ms": prop_ms}

    def prepare(self) -> None:
        for c in self.cases:
            c.trial, c.next_k = None, 0
        self.log = {}

    def trial_lines(self) -> list[str]:
        bound = BOUNDS["orbit_ratio"]
        lines = []
        for (g, b, why, k), (t, r) in self.log.items():
            note = f"bound {bound:g}"
            if why:
                note += f", not applied: {why}" + (", above it" if r > bound else "")
            lines.append(f"trial gamma={g:g} {b} k={k}: reached t={t:g}, "
                         f"max orbit ratio {r:.4f} ({note})")
        return lines

    def close(self) -> None:
        pass

    def _start_trial(self, c: Case) -> Trial:
        u0 = perturbed(c.phi, c.phi_norm, self.delta, self.seed, c.next_k)
        trial = Trial(k=c.next_k, u=u0)
        c.next_k += 1
        if self.check_energy:
            rep = report(u0, c.gamma, self.omega)
            # the energy is a difference of these halves (criterion 9)
            trial.escale = 0.5 * (abs(rep.form) + abs(rep.entropy))
        return trial

    def run_pass(self, ledger: Ledger, tracer: Tracer) -> int:
        for c in self.cases:
            self._advance(c, ledger, tracer)
        return self.steps_per_pass

    def _advance(self, c: Case, ledger: Ledger, tracer: Tracer) -> None:
        trial = c.trial
        k, step = (trial.k, trial.steps) if trial else (c.next_k, 0)
        label = f"{self.name} gamma={c.gamma:g} {c.branch.value} trial {k} from step {step}"
        kind = f"evolve gamma={c.gamma:g} {c.branch.value}"
        with ledger.operation(label, kind) as op, tracer.span("op.evolve_segment", op=op.id):
            c.trial = None  # a segment that raises ends its trial
            if trial is None:
                trial = self._start_trial(c)
            result = tracer.call("dynamics.evolve", evolve, trial.u, c.gamma, self.segment,
                                 reference=c.params)
            recs = result.records
            if trial.steps == 0:
                trial.d0, trial.m0, trial.e0 = (recs[0].orbital_distance_sigma,
                                                recs[0].mass, recs[0].energy)
            values = np.array([(r.mass, r.energy, r.orbital_distance_sigma, r.orbital_distance_w)
                               for r in recs])
            op.require("finite", bool(np.all(np.isfinite(values))), "non-finite record")
            op.at_most("mass_drift", np.max(np.abs(values[:, 0] - trial.m0)) / trial.m0,
                       BOUNDS["mass_drift"])
            if self.check_energy:
                op.at_most("energy_drift", np.max(np.abs(values[:, 1] - trial.e0)) / trial.escale,
                           BOUNDS["energy_drift"])
            ratio = float(np.max(values[:, 2])) / trial.d0
            trial.max_ratio = max(trial.max_ratio, ratio)
            if not c.ungated:
                op.at_most("orbit_ratio", ratio, BOUNDS["orbit_ratio"])
            trial.u = result.final
            trial.steps += self.segment_steps
            self.log[(c.gamma, c.branch.value, c.ungated, trial.k)] = (
                trial.steps * self.dt, trial.max_ratio)
            if trial.steps < self.horizon_steps:
                c.trial = trial
            if tracer.enabled:
                self._time_parts(c, result.final, tracer)

    def _time_parts(self, c: Case, u, tracer: Tracer) -> None:
        """Time the public parts evolve is made of, on this segment's state.
        Each part is called PART_REPEATS times in a row, as evolve calls the
        step parts in a row, so that the median is a warm-cache cost."""
        phi, dx = c.phi, self.grid.dx
        amp = np.abs(u.values)
        diff = u.values - np.exp(1j * np.angle(np.vdot(phi.values, u.values))) * phi.values
        parts = [
            ("dynamics.linear_step", linear_step, (u, c.gamma, self.dt), {}),
            ("dynamics.nonlinear_step", nonlinear_step, (u, self.dt), {}),
            ("corefn.gm_phase_rate", corefn.gm_phase_rate, (amp,), {}),
            ("fields.orbital_distance[sigma]", orbital_distance, (u, phi, Metric.SIGMA_ONLY), {}),
            ("fields.orbital_distance[w]", orbital_distance, (u, phi, Metric.FULL_W),
             {"refine": False}),
            ("corefn.luxemburg_norm", corefn.luxemburg_norm, (diff, dx), {}),
        ]
        for name, fn, args, kwargs in parts:
            for _ in range(PART_REPEATS):
                tracer.call(name, fn, *args, **kwargs)

    def step_bytes(self) -> int:
        c = self.cases[0]
        return linear_step_bytes(self.grid, c.gamma, self.dt)


def stability(seed: int) -> Stepping:
    return Stepping(
        "stability", seed, grid_n=2048, dt=2e-3, record_every=125,
        horizon_steps=25_000, segment_steps=125,
        cases=[(1.0, Branch.SYMMETRIC, ""), (2.0, Branch.SYMMETRIC, DEGENERATE),
               (3.0, Branch.ASYMMETRIC_LEFT, ""), (3.0, Branch.SYMMETRIC, "excited state")],
        check_energy=False,
    )


def trajectory(seed: int) -> Stepping:
    return Stepping(
        "trajectory", seed, grid_n=4096, dt=1e-3, record_every=5,
        horizon_steps=10_000, segment_steps=50,
        cases=[(2.0, Branch.SYMMETRIC, DEGENERATE)],
        check_energy=True,
    )


# ----------------------------------------------------------------------
# variational: minimizer, pair system, command line
# ----------------------------------------------------------------------


class Variational:
    """Least-action minimizations, seeded pair-system solves and three
    in-process CLI commands per pass; no time stepping."""

    MINIMIZE = [(1.0, Seed.SYMMETRIC), (3.0, Seed.LEFT), (3.0, Seed.RIGHT),
                (2.01, Seed.LEFT), (2.1, Seed.LEFT)]
    PAIR_GAMMAS = 32
    PAIR_RANGE = (0.5, 10.0)

    def __init__(self, seed: int, out_dir: Path):
        self.name = "variational"
        self.seed = seed
        self.out_dir = out_dir
        self.grid = Grid(20.0, 4096)
        self.omega = 0.0
        self.steps_per_pass = 0
        self.records_per_pass = 0
        self.iters_per_pass = 0
        self.tmp = None
        self.gammas = []
        self.closed = {}
        self.tails = []

    def _argv(self) -> list[list[str]]:
        d = str(self.tmp or "<tmp>")
        return [
            ["ground", "--gamma", "3", "--out", f"{d}/ground.json"],
            ["bifurcate", "--gamma-min", "1.5", "--gamma-max", "2.5", "--steps", "101",
             "--out", f"{d}/sweep.csv"],
            ["minimize", "--gamma", "3", "--seed", "left", "--out", f"{d}/minimizer.csv"],
        ]

    def inputs(self) -> dict:
        return {
            "grid": {"L": self.grid.L, "n": self.grid.n}, "omega": self.omega,
            "minimize": [{"gamma": g, "seed": s.value} for g, s in self.MINIMIZE],
            "pair_system": {"count": self.PAIR_GAMMAS, "gamma_range": list(self.PAIR_RANGE),
                            "draw": "default_rng(seed).uniform"},
            "cli": [" ".join(a) for a in self._argv()],
            "threads": 1,
        }

    def setup(self) -> dict:
        form_ms = []
        for g in sorted({g for g, _ in self.MINIMIZE}):
            t0 = perf_counter()
            form_operator(self.grid, g)
            form_ms.append((perf_counter() - t0) * 1e3)
        return {"form_operator_ms": form_ms, "propagator_ms": []}

    def prepare(self) -> None:
        self.gammas = [float(g) for g in np.random.default_rng(self.seed).uniform(
            *self.PAIR_RANGE, self.PAIR_GAMMAS)]
        self.closed, self.tails = {}, []
        for g, _ in self.MINIMIZE:
            states = ground_states(g, self.omega)
            self.closed[g] = min(action_closed_form(p) for p in states)
            self.tails += [t for p in states for t in (p.t1, p.t2)]
        self.tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=self.out_dir))

    def trial_lines(self) -> list[str]:
        return []

    def close(self) -> None:
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None

    def run_pass(self, ledger: Ledger, tracer: Tracer) -> int:
        iters = 0
        values = {}
        for gamma, seed in self.MINIMIZE:
            label = f"minimize gamma={gamma:g} seed={seed.value}"
            with ledger.operation(label) as op, tracer.span("op.minimize", op=op.id):
                res = tracer.call("fields.minimize_dgamma", minimize_dgamma, gamma, self.omega,
                                  seed=seed, grid=self.grid)
                iters += res.iterations
                values[(gamma, seed)] = res.value
                closed = self.closed[gamma]
                op.at_most("closed_form_rel_err", abs(res.value - closed) / closed,
                           BOUNDS["closed_form_rel_err"])
                if seed is Seed.RIGHT:
                    left = values.get((gamma, Seed.LEFT), math.nan)
                    op.at_most("mirror_rel_diff", abs(left - res.value) / left,
                               BOUNDS["mirror_rel_diff"])
                if tracer.enabled:
                    for name, fn in (("fields.report", report),
                                     ("fields.stationary_residual", stationary_residual)):
                        for _ in range(PART_REPEATS):
                            tracer.call(name, fn, res.field, gamma, self.omega)
        with ledger.operation("pair system at seeded gammas") as op, \
                tracer.span("op.pair_system", op=op.id):
            for g in self.gammas:
                pairs = tracer.call("stationary.solve_3s", solve_3s, g)
                op.require("pair_count", len(pairs) == (1 if g <= 2.0 else 3),
                           f"{len(pairs)} pairs at gamma={g!r}")
                op.at_most("pair_residual", max(max(stationary.pair_residuals(t1, t2, g))
                                                for t1, t2 in pairs), BOUNDS["pair_residual"])
            if tracer.enabled:
                for t in self.tails:
                    tracer.call("corefn.gamma_tail", corefn.gamma_tail, t)
        for argv in self._argv():
            with ledger.operation("lognls " + argv[0]) as op, tracer.span("op.cli", op=op.id):
                Path(argv[-1]).unlink(missing_ok=True)  # check this pass's output, not the last
                out = io.StringIO()
                with self._traced_cli(tracer), contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = tracer.call("cli.main", cli.main, argv)
                op.require("exit_code", code == 0, f"lognls {argv[0]} exited {code}")
                getattr(self, "_check_" + argv[0])(op, out.getvalue())
        self.iters_per_pass = iters
        return iters

    def _check_ground(self, op, stdout: str) -> None:
        doc = json.loads((self.tmp / "ground.json").read_text())
        op.require("ground_branches", len(doc["branches"]) == 3,
                   f"{len(doc['branches'])} branches at gamma=3")
        op.at_most("pair_residual", max(max(b["pair_residuals"]) for b in doc["branches"]),
                   BOUNDS["pair_residual"])

    def _check_bifurcate(self, op, stdout: str) -> None:
        counts: dict[float, int] = {}
        for line in (self.tmp / "sweep.csv").read_text().splitlines()[1:]:
            g = float(line.split(",", 1)[0])
            counts[g] = counts.get(g, 0) + 1
        below = [n for g, n in counts.items() if g < 2.0 - 1e-9]
        above = [n for g, n in counts.items() if g > 2.0 + 1e-9]
        op.require("sweep_branch_counts",
                   len(counts) == 101 and below and above
                   and set(below) == {1} and set(above) == {3},
                   f"counts below 2: {sorted(set(below))}, above: {sorted(set(above))}")

    def _check_minimize(self, op, stdout: str) -> None:
        rel = next((float(line.split(":", 1)[1]) for line in stdout.splitlines()
                    if line.startswith("relative difference:")), math.nan)
        op.at_most("closed_form_rel_err", abs(rel), BOUNDS["closed_form_rel_err"])
        rows = (self.tmp / "minimizer.csv").read_text().count("\n")
        op.require("minimizer_csv_rows", rows == self.grid.n + 1, f"{rows} lines")

    @contextlib.contextmanager
    def _traced_cli(self, tracer: Tracer):
        """While tracing, wrap every library function the cli module calls,
        so that a command's span has its library spans as children."""
        if not tracer.enabled:
            yield
            return
        saved = {}
        for name, fn in vars(cli).items():
            mod = getattr(fn, "__module__", "") or ""
            if inspect.isfunction(fn) and mod.startswith("lognls.") and mod != "lognls.cli":
                saved[name] = fn
                setattr(cli, name, _wrap(tracer, f"{mod.split('.')[-1]}.{name}", fn))
        try:
            yield
        finally:
            for name, fn in saved.items():
                setattr(cli, name, fn)

    def step_bytes(self) -> int:
        return 0


def _wrap(tracer: Tracer, span_name: str, fn):
    def wrapped(*args, **kwargs):
        return tracer.call(span_name, fn, *args, **kwargs)
    return wrapped


def make(name: str, seed: int, out_dir: Path):
    if name == "stability":
        return stability(seed)
    if name == "trajectory":
        return trajectory(seed)
    if name == "variational":
        return Variational(seed, out_dir)
    raise ValueError(f"unknown workload {name!r}")


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def layer_metrics(w, tracer: Tracer, setups: list[dict], n_traced: int,
                  overhead_s: float) -> dict[str, float]:
    """Per-layer numbers from the traced passes.  A layer that does no work
    on this workload reports 0."""
    def us(name):
        return _median(tracer.durations(name)) * 1e6

    per_pass = 1.0 / max(n_traced, 1)
    lin, nonlin = us("dynamics.linear_step"), us("dynamics.nonlinear_step")
    sig, wd = us("fields.orbital_distance[sigma]"), us("fields.orbital_distance[w]")
    evolve_s = sum(tracer.durations("dynamics.evolve")) * per_pass
    explained = (w.steps_per_pass * (lin + nonlin) + w.records_per_pass * (sig + wd)) * 1e-6
    minimize = tracer.durations("fields.minimize_dgamma")
    iters = w.iters_per_pass * n_traced
    form_ms = [x for s in setups for x in s["form_operator_ms"]]
    prop_ms = [x for s in setups for x in s["propagator_ms"]]
    return {
        "dynamics.linear_step_us": lin,
        "dynamics.nonlinear_step_us": nonlin,
        "corefn.gm_phase_rate_us": us("corefn.gm_phase_rate"),
        "dynamics.linear_step_bytes": float(w.step_bytes()),
        "dynamics.steps": float(w.steps_per_pass),
        "dynamics.records": float(w.records_per_pass),
        "dynamics.evolve_s": evolve_s,
        "dynamics.evolve_self_s": evolve_s - explained,
        "fields.orbital_distance_sigma_us": sig,
        "fields.orbital_distance_w_us": wd,
        "corefn.luxemburg_norm_us": us("corefn.luxemburg_norm"),
        "fields.minimize_iters": float(w.iters_per_pass),
        "fields.minimize_iter_ms": sum(minimize) / iters * 1e3 if iters else 0.0,
        "fields.report_us": us("fields.report"),
        "fields.stationary_residual_us": us("fields.stationary_residual"),
        "stationary.solve_3s_us": us("stationary.solve_3s"),
        "corefn.gamma_tail_us": us("corefn.gamma_tail"),
        "stationary.bifurcation_sweep_s": _median(tracer.durations("stationary.bifurcation_sweep")),
        "fields.form_operator_build_ms": _median(form_ms),
        "dynamics.propagator_build_ms": _median(prop_ms),
        "cli.command_s": sum(tracer.durations("cli.main")) * per_pass,
        "cli.self_s": sum(tracer.self_times("cli.main")) * per_pass,
        "trace.overhead_s": overhead_s,
    }
