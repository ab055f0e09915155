"""Time integration and the orbital-stability experiment.

The flow i u_t = H u - u log|u|^2 is split into an exact pointwise
nonlinear rotation and a Crank-Nicolson linear substep (Strang order):
the nonlinear subflow preserves |u| at every node, so

    u -> u exp(i dt log|u|^2)

solves it exactly, and the linear half-step is the Cayley transform of
the Hamiltonian H = M/dx of fields.FormOperator (tridiagonal plus a
rank-one jump term).  With A = (dt/2) H, I + iA is factored once per
run, and each step is one solve through the Cayley identity
(I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, refined once against
I + iA itself.  Both substeps preserve the discrete mass sum exactly, so
mass is conserved to solver roundoff; the recorded energy is conserved
up to the O(dt^2) splitting error.

The logarithm may be clamped with the regularized rate g_m (config.m);
by default it is used raw with the amplitude floored at 1e-14, which
agrees with g_m wherever |u| >= 1/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import corefn
from .fields import (
    DEFAULT_GRID,
    Field,
    Grid,
    Metric,
    ShiftedSolver,
    form_operator,
    orbital_distances,
    random_smooth_field,
    sample_profile,
    sigma_norm,
)
from .stationary import Branch, GroundStateParams, branch_params

__all__ = [
    "EvolutionConfig",
    "TrajectoryRecord",
    "EvolutionResult",
    "EvolutionAborted",
    "TrialResult",
    "StabilitySummary",
    "linear_step",
    "nonlinear_step",
    "evolve",
    "stability_experiment",
]


@dataclass(frozen=True)
class EvolutionConfig:
    """Time-stepping parameters.

    m is the clamping level of the logarithmic rate (None = raw log with
    a 1e-14 amplitude floor).  t_end must be an integer number of steps.
    """

    dt: float
    t_end: float
    m: float | None = None
    record_every: int = 100
    snapshot_every: int | None = None

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be finite and positive, "
                             f"got dt = {self.dt}, t_end = {self.t_end}")
        if self.record_every < 1:
            raise ValueError("record_every must be a positive integer")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be a positive integer")
        n = round(self.t_end / self.dt)
        if n < 1 or abs(n * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ValueError(
                f"t_end = {self.t_end} is not an integer multiple of dt = {self.dt}"
            )

    @property
    def nsteps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Diagnostics at one recording time."""

    time: float
    mass: float
    energy: float
    orbital_distance_sigma: float
    orbital_distance_w: float


@dataclass(frozen=True)
class EvolutionResult:
    records: list[TrajectoryRecord]
    final: Field
    snapshots: list[tuple[float, Field]]


class EvolutionAborted(RuntimeError):
    """Non-finite state encountered; carries step index and prior records."""

    def __init__(self, step: int, records):
        super().__init__(f"non-finite state at step {step}")
        self.step = step
        self.records = records


@lru_cache(maxsize=16)
def _propagator(grid: Grid, gamma: float, dt: float) -> ShiftedSolver:
    """(I + iA)^-1 with A = (dt/2) H and H = M/dx, factored once."""
    return form_operator(grid, gamma).solver(1.0, 0.5j * dt / grid.dx)


def _cn_step(solve: ShiftedSolver, values: np.ndarray) -> np.ndarray:
    # Cayley identity (I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, with one
    # step of iterative refinement: the fixed rounding of the factors would
    # otherwise drain the mass at a steady ~2e-16 per step.
    y = solve(values)
    y += solve(values - solve.matvec(y))
    return 2.0 * y - values


def linear_step(u: Field, gamma: float, dt: float) -> Field:
    """One Crank-Nicolson step of the linear flow i u_t = H u.

    Norm-preserving for any real gamma != 0 (the Cayley transform of a
    real symmetric matrix is unitary); dt = 0 returns u unchanged, and
    negative dt steps backward.
    """
    if dt == 0.0:
        return u
    return u.with_values(_cn_step(_propagator(u.grid, float(gamma), float(dt)), u.values))


def _rotate(values: np.ndarray, tau: float, m) -> np.ndarray:
    """values exp(i tau log|values|^2), the rate clamped per m."""
    return values * np.exp(1j * tau * corefn.gm_phase_rate(np.abs(values), m))


def nonlinear_step(u: Field, dt: float, m=None) -> Field:
    """Exact flow of i u_t = -u log|u|^2 over dt: a pointwise phase
    rotation at rate log|u|^2 (clamped per m), leaving |u| unchanged."""
    return u.with_values(_rotate(u.values, dt, m))


def evolve(
    u0: Field,
    gamma: float,
    config: EvolutionConfig,
    reference: GroundStateParams | None = None,
) -> EvolutionResult:
    """Strang-split evolution with diagnostics every record_every steps.

    When a reference profile is given, records carry orbital distances
    to its phase orbit in both metrics (the W distance is evaluated at
    the closed-form optimal phase of the H^1 part).  Raises
    EvolutionAborted as soon as any sample stops being finite.
    """
    if not np.all(np.isfinite(u0.values)):
        raise EvolutionAborted(0, [])
    solve = _propagator(u0.grid, float(gamma), float(config.dt))
    op = form_operator(u0.grid, gamma)
    dx = u0.grid.dx
    m = config.m
    phi = sample_profile(reference, u0.grid) if reference is not None else None

    def make_record(t: float, vals: np.ndarray) -> TrajectoryRecord:
        # the mass, and the energy (1/2) t_gamma[u] - (1/2) entropy written
        # through the clamped primitive: the conserved functional of the
        # clamped flow
        s = np.abs(vals)
        q = float(dx * np.sum(s * s))
        en = 0.5 * op.form(vals) - float(dx * np.sum(corefn.eval_Gm(s, m))) - 0.5 * q
        if phi is None:
            ds = dw = 0.0
        else:
            ds, dw = orbital_distances(u0.with_values(vals), phi)
        return TrajectoryRecord(time=t, mass=q, energy=en,
                                orbital_distance_sigma=ds, orbital_distance_w=dw)

    records = [make_record(0.0, u0.values)]
    snapshots: list[tuple[float, Field]] = []
    nrec = 0
    half = 0.5 * config.dt
    v = _rotate(u0.values, half, m)
    nsteps = config.nsteps
    for k in range(1, nsteps + 1):
        v = _cn_step(solve, v)
        if k < nsteps and k % config.record_every:
            # merge the trailing and leading half rotations (|u| unchanged)
            v = _rotate(v, config.dt, m)
            if k % 50 == 0 and not np.all(np.isfinite(v)):
                raise EvolutionAborted(k, records)
            continue
        v = _rotate(v, half, m)
        if not np.all(np.isfinite(v)):
            raise EvolutionAborted(k, records)
        records.append(make_record(k * config.dt, v))
        nrec += 1
        if config.snapshot_every and nrec % config.snapshot_every == 0:
            snapshots.append((k * config.dt, u0.with_values(v.copy())))
        if k < nsteps:
            v = _rotate(v, half, m)
    return EvolutionResult(records=records, final=u0.with_values(v), snapshots=snapshots)


# ----------------------------------------------------------------------
# stability experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    trial: int
    initial_distance: float
    max_distance: float
    ratio: float


@dataclass(frozen=True)
class StabilitySummary:
    gamma: float
    omega: float
    branch: Branch
    perturbation_size: float
    metric: Metric
    exploratory: bool
    trials: tuple[TrialResult, ...]
    max_ratio: float


def stability_experiment(
    gamma: float,
    omega: float,
    branch: Branch,
    perturbation_size: float,
    t_end: float,
    trials: int,
    rng_seed: int,
    grid: Grid = DEFAULT_GRID,
    dt: float = 1e-3,
    record_every: int = 125,
    metric: Metric = Metric.SIGMA_ONLY,
) -> StabilitySummary:
    """Perturb a standing wave and track its orbital excursion.

    Each trial adds an independent random smooth field scaled to
    perturbation_size times the profile's H^1 norm, evolves it to t_end
    and reports max-over-time orbital distance and its ratio to the
    initial distance.  Trial k depends only on (rng_seed, k): its
    perturbation draws from a generator seeded with that pair, so the
    summary is reproducible and its first k trials do not depend on the
    trial count.  A symmetric branch above the pitchfork is only an
    excited state; such runs are flagged exploratory.
    """
    if not (math.isfinite(perturbation_size) and perturbation_size > 0):
        raise ValueError(
            f"perturbation_size must be a finite positive number, got {perturbation_size}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = branch_params(gamma, omega, branch)
    phi = sample_profile(params, grid)
    phi_norm = sigma_norm(phi)
    config = EvolutionConfig(dt=dt, t_end=t_end, record_every=record_every)

    def run_trial(k: int) -> TrialResult:
        rng = np.random.default_rng((rng_seed, k))
        pert = random_smooth_field(grid, rng)
        pert_vals = pert.values * (perturbation_size * phi_norm / sigma_norm(pert))
        u0 = phi.with_values(phi.values + pert_vals)
        result = evolve(u0, gamma, config, reference=params)
        if metric is Metric.SIGMA_ONLY:
            dists = [r.orbital_distance_sigma for r in result.records]
        else:
            dists = [r.orbital_distance_w for r in result.records]
        d0 = dists[0]
        dmax = max(dists)
        return TrialResult(trial=k, initial_distance=d0, max_distance=dmax,
                           ratio=dmax / d0 if d0 > 0 else math.inf)

    results = [run_trial(k) for k in range(trials)]
    return StabilitySummary(
        gamma=gamma,
        omega=omega,
        branch=branch,
        perturbation_size=perturbation_size,
        metric=metric,
        exploratory=not params.is_ground_state,
        trials=tuple(results),
        max_ratio=max(r.ratio for r in results),
    )
