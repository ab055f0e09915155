"""Time integration and the orbital-stability experiment.

The flow i u_t = H u - u log|u|^2 is split into an exact pointwise
nonlinear rotation and a Crank-Nicolson linear substep (Strang order):
the nonlinear subflow preserves |u| at every node, so

    u -> u exp(i dt log|u|^2)

solves it exactly, and the linear half-step is the Cayley transform of
the Hamiltonian H = M/dx of fields.FormOperator (tridiagonal plus a
rank-one jump term).  With A = (dt/2) H, I + iA is factored once per
run, and each step is one solve through the Cayley identity
(I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, projected back onto the
mass of v.  The rotation keeps |u| at every node and the projection the
discrete mass sum, up to a rounding leak of ~5e-18 per step; the
recorded energy is conserved up to the O(dt^2) splitting error.

evolve allocates its state-sized arrays once per call (two complex state
buffers, one complex scratch array, one real array) and runs every
substep in them through the out arguments of _cn_step and _rotate, the
same functions linear_step and nonlinear_step call without them.

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
    ShiftedSolver,
    _derivative,
    _orbital_distances,
    form_operator,
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
    return ShiftedSolver(form_operator(grid, gamma), 1.0, 0.5j * dt / grid.dx)


def _cn_step(solve: ShiftedSolver, values: np.ndarray, out=None, work=None) -> np.ndarray:
    """One Crank-Nicolson step of values, written to out (not values) when
    it is given, with work a complex scratch array of the same shape."""
    # Cayley identity (I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, projected
    # onto the mass of v, which the factors' rounding drains by ~2e-16 a step;
    # the projection adds (sqrt(1 + c) - 1) w = c w / (1 + sqrt(1 + c)), where
    # c = m_v / m_w - 1, because a factor sqrt(1 + c) would round to exactly 1.
    # The solve's result is the step's own array, so it is updated in place.
    w = solve(values, out, work)
    np.multiply(2.0, w, out=w)
    np.subtract(w, values, out=w)
    m_w = np.vdot(w, w).real
    if m_w == 0.0:  # the zero state stays zero
        return w
    c = (np.vdot(values, values).real - m_w) / m_w
    return np.add(w, np.multiply(c / (1.0 + math.sqrt(1.0 + c)), w, out=work), out=w)


def linear_step(u: Field, gamma: float, dt: float) -> Field:
    """One Crank-Nicolson step of the linear flow i u_t = H u.

    Norm-preserving for any real gamma != 0 (the Cayley transform of a
    real symmetric matrix is unitary); dt = 0 returns u unchanged, and
    negative dt steps backward.
    """
    if dt == 0.0:
        return u
    return u.with_values(_cn_step(_propagator(u.grid, float(gamma), float(dt)), u.values))


def _rotate(values: np.ndarray, tau: float, m, out=None, rate=None) -> np.ndarray:
    """values exp(i tau log|values|^2), the rate clamped per m; written to
    out (not values) when it is given, with the amplitudes and, for
    m = None, the rate formed in the real array rate."""
    # cos and sin cost less than exp(1j r) and equal it; the product keeps the
    # factor order of values * exp(1j r), on which its rounding depends
    s = np.abs(values, out=rate)
    r = corefn._floored_log_rate(s, out=s) if m is None else corefn.gm_phase_rate(s, m)
    np.multiply(tau, r, out=r)
    e = np.empty_like(values) if out is None else out
    np.cos(r, out=e.real)
    np.sin(r, out=e.imag)
    return np.multiply(values, e, out=e)


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

    A run allocates its state-sized arrays once: two complex state
    buffers, which the Cayley solve and the phase rotation write in
    turn, one complex scratch array for the solve's jump correction and
    the mass projection, and one real array for the amplitudes and the
    rate.  Snapshots are copies, the final state is the buffer the last
    substep wrote, and u0's samples are never written.
    """
    if not np.all(np.isfinite(u0.values)):
        raise EvolutionAborted(0, [])
    solve = _propagator(u0.grid, float(gamma), float(config.dt))
    op = form_operator(u0.grid, gamma)
    dx = u0.grid.dx
    m = config.m
    phi = dphi = None
    if reference is not None:
        phi = sample_profile(reference, u0.grid).values
        dphi = _derivative(phi, u0.grid)  # the fixed reference's: once per run, not per record
    v, spare, work = (np.empty_like(u0.values) for _ in range(3))
    rate = np.empty(u0.values.shape)

    def make_record(t: float, vals: np.ndarray) -> TrajectoryRecord:
        # the mass, and the energy (1/2) t_gamma[u] - (1/2) entropy written
        # through the clamped primitive: the conserved functional of the
        # clamped flow; |vals| and its squares are taken once, and vals
        # were checked finite by the caller
        s = np.abs(vals, out=rate)
        if m is None:
            s2 = np.multiply(s, s, out=s)
            gm = corefn._P_log_of_squares(s2)  # bitwise eval_Gm(s, None)
        else:
            s2 = s * s
            gm = corefn.eval_Gm(s, m)
        q = float(dx * np.sum(s2))
        en = 0.5 * op.form(vals) - float(dx * np.sum(gm)) - 0.5 * q
        if phi is None:
            ds = dw = 0.0
        else:
            ds, dw = _orbital_distances(vals, phi, dphi, u0.grid)
        return TrajectoryRecord(time=t, mass=q, energy=en,
                                orbital_distance_sigma=ds, orbital_distance_w=dw)

    records: list[TrajectoryRecord] = []
    snapshots: list[tuple[float, Field]] = []
    nrec = k = 0
    half = 0.5 * config.dt
    nsteps = config.nsteps
    try:
        records.append(make_record(0.0, u0.values))
        v = _rotate(u0.values, half, m, v, rate)
        for k in range(1, nsteps + 1):
            # each substep writes the spare buffer and hands the old state's
            # buffer back as the next spare
            v, spare = _cn_step(solve, v, spare, work), v
            if k < nsteps and k % config.record_every:
                # merge the trailing and leading half rotations (|u| unchanged)
                v, spare = _rotate(v, config.dt, m, spare, rate), v
                if k % 50 == 0 and not np.all(np.isfinite(v)):
                    raise EvolutionAborted(k, records)
                continue
            v, spare = _rotate(v, half, m, spare, rate), v
            if not np.all(np.isfinite(v)):
                raise EvolutionAborted(k, records)
            records.append(make_record(k * config.dt, v))
            nrec += 1
            if config.snapshot_every and nrec % config.snapshot_every == 0:
                snapshots.append((k * config.dt, u0.with_values(v.copy())))
            if k < nsteps:
                v, spare = _rotate(v, half, m, spare, rate), v
    except FloatingPointError as exc:  # a blow-up under np.errstate(over="raise")
        raise EvolutionAborted(k, records) from exc
    return EvolutionResult(records=records, final=u0.with_values(v), snapshots=snapshots)


# ----------------------------------------------------------------------
# stability experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """A trial's first and largest orbital distance and their ratio, in the
    H^1 (sigma) and then the energy-space (W) distance of its records."""

    trial: int
    initial_distance_sigma: float
    max_distance_sigma: float
    ratio_sigma: float
    initial_distance_w: float
    max_distance_w: float
    ratio_w: float


@dataclass(frozen=True)
class StabilitySummary:
    gamma: float
    omega: float
    branch: Branch
    perturbation_size: float
    exploratory: bool
    trials: tuple[TrialResult, ...]
    max_ratio_sigma: float
    max_ratio_w: float


def _excursion(dists: list[float]) -> tuple[float, float, float]:
    """First value, largest value and their ratio of one distance series."""
    d0, dmax = dists[0], max(dists)
    return d0, dmax, dmax / d0 if d0 > 0 else math.inf


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
) -> StabilitySummary:
    """Perturb a standing wave and track its orbital excursion.

    Each trial adds an independent random smooth field scaled to
    perturbation_size times the profile's H^1 norm, evolves it to t_end
    and reports, in both distances evolve records, the max-over-time
    orbital distance and its ratio to the initial distance.  Trial k
    depends only on (rng_seed, k): its perturbation draws from a
    generator seeded with that pair, so the summary is reproducible and
    its first k trials do not depend on the trial count.  A symmetric
    branch above the pitchfork is only an excited state; such runs are
    flagged exploratory.
    """
    if not (math.isfinite(perturbation_size) and perturbation_size > 0):
        raise ValueError(
            f"perturbation_size must be a finite positive number, got {perturbation_size}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    params = branch_params(gamma, omega, branch)
    form_operator(grid, gamma)  # rejects a grid too coarse for gamma, as evolve does
    phi = sample_profile(params, grid)
    phi_norm = sigma_norm(phi)
    config = EvolutionConfig(dt=dt, t_end=t_end, record_every=record_every)

    def run_trial(k: int) -> TrialResult:
        rng = np.random.default_rng((rng_seed, k))
        pert = random_smooth_field(grid, rng)
        pert_vals = pert.values * (perturbation_size * phi_norm / sigma_norm(pert))
        u0 = phi.with_values(phi.values + pert_vals)
        records = evolve(u0, gamma, config, reference=params).records
        return TrialResult(k, *_excursion([r.orbital_distance_sigma for r in records]),
                           *_excursion([r.orbital_distance_w for r in records]))

    results = [run_trial(k) for k in range(trials)]
    return StabilitySummary(
        gamma=gamma,
        omega=omega,
        branch=branch,
        perturbation_size=perturbation_size,
        exploratory=not params.is_ground_state,
        trials=tuple(results),
        max_ratio_sigma=max(r.ratio_sigma for r in results),
        max_ratio_w=max(r.ratio_w for r in results),
    )
