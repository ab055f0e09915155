"""Time integration and the orbital-stability experiment.

The flow i u_t = H u - u log|u|^2 is split into an exact pointwise
nonlinear rotation and a Crank-Nicolson linear substep (Strang order):
the nonlinear subflow preserves |u| at every node, so

    u -> u exp(i dt log|u|^2)

solves it exactly, and the linear half-step is the Cayley transform of
the Hamiltonian H = M/dx of fields.FormOperator (tridiagonal plus a
rank-one jump term).  With A = (dt/2) H, the tridiagonal part of I + iA
is factored once per run as L D L^T (fields.ShiftedSolver), and each step
is one solve, two unit-bidiagonal sweeps and a product by 2/D plus the
jump correction near the origin, through the Cayley identity
(I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, projected onto a target
mass.  evolve takes one target per run, the vdot mass of its first
Crank-Nicolson input, so rounding does not accumulate in the mass;
linear_step projects onto the mass of its own input.  The rotation keeps
|u| at every node and the projection the discrete mass sum; the recorded
energy is conserved up to the O(dt^2) splitting error.

The substeps _cn_step, _phase and _rotate write to buffers their caller
owns.  evolve allocates its state-sized arrays once per call (two complex
state buffers, one complex scratch array, one complex half-step factor,
two real arrays) and runs every substep in them; linear_step and
nonlinear_step allocate theirs per call.  The rotation builds its factor
from one half-angle tangent, t = tan(theta/2), as
((1 - t^2) + 2it)/(1 + t^2).  Between records the trailing and leading
half rotations merge into one over dt; at a record both use the factor
built before it.

The rate is log|u|^2 with |u|^2 floored at the smallest normal double
(corefn._log_abs2, as in the minimizer), so the flow is scale-covariant.
The clamped nonlinearity g_m of corefn serves the paper's existence
proof and is not a stepping option.
"""

from __future__ import annotations

import math
import numbers
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
    """Time-stepping parameters; t_end must be an integer number of steps."""

    dt: float
    t_end: float
    record_every: int = 100
    snapshot_every: int | None = None

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_end < math.inf):
            raise ValueError(f"dt and t_end must be finite and positive, "
                             f"got dt = {self.dt}, t_end = {self.t_end}")
        for name in ("record_every", "snapshot_every"):
            every = getattr(self, name)
            if every is not None and not (isinstance(every, numbers.Integral) and every >= 1):
                raise ValueError(f"{name} must be a positive integer, got {every!r}")
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


# a reference profile's largest square must reach this times the smallest
# normal double, so that squares within a factor eps of it are normal
_SQUARE_MARGIN = 2.0 ** 52


# 1.5 |dt| / dx^2 = |dt/2| max(diag H) must stay below this for rounding to
# keep the Cayley system diagonally dominant (fields.ShiftedSolver)
_MAX_STIFFNESS = 2.0 ** 52


@lru_cache(maxsize=16)
def _propagator(grid: Grid, gamma: float, dt: float) -> ShiftedSolver:
    """(I + iA)^-1 with A = (dt/2) H and H = M/dx, factored once; a dt with
    1.5 |dt| / dx^2 >= _MAX_STIFFNESS raises ValueError before the
    factorization."""
    op, dx = form_operator(grid, gamma), grid.dx
    if 1.5 * abs(dt) >= _MAX_STIFFNESS * dx * dx:
        raise ValueError(
            f"dt = {dt:.6g} is too large for the grid: 1.5 |dt| / dx^2 must stay below "
            f"2^52, so |dt| < {_MAX_STIFFNESS * dx * dx / 1.5:.6g} at dx = {dx:.6g}")
    return ShiftedSolver(op, 0.5j * dt / dx)


def _cn_step(solve: ShiftedSolver, values: np.ndarray, mass: float, out: np.ndarray,
             work: np.ndarray) -> np.ndarray:
    """One Crank-Nicolson step of values, projected onto the vdot mass
    `mass` and written to out (not values), with work a complex scratch
    array of the same shape."""
    # Cayley identity (I + iA)^-1 (I - iA) v = 2 (I + iA)^-1 v - v, with the
    # factor 2 in the solver, projected onto the target mass, which the
    # factors' rounding drains by ~2e-16 a step; the projection adds
    # (sqrt(1 + c) - 1) w = c w / (1 + sqrt(1 + c)), where c = mass / m_w - 1,
    # because a factor sqrt(1 + c) would round to exactly 1.  The solve's
    # result is the step's own array, so it is updated in place.
    w = np.subtract(solve(values, out, work), values, out=out)
    m_w = np.vdot(w, w).real
    if m_w == 0.0:  # the zero state stays zero
        return w
    c = (mass - m_w) / m_w
    return np.add(w, np.multiply(c / (1.0 + math.sqrt(1.0 + c)), w, out=work), out=w)


def linear_step(u: Field, gamma: float, dt: float) -> Field:
    """One Crank-Nicolson step of the linear flow i u_t = H u.

    Norm-preserving for every 0 < gamma < inf (the Cayley transform of a
    real symmetric matrix is unitary); dt = 0 returns u unchanged, and
    negative dt steps backward.  A non-finite dt raises ValueError.
    """
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    if dt == 0.0:
        return u
    solve, out = _propagator(u.grid, float(gamma), float(dt)), np.empty_like(u.values)
    mass = np.vdot(u.values, u.values).real
    return u.with_values(_cn_step(solve, u.values, mass, out, np.empty_like(out)))


def _phase(values: np.ndarray, tau: float, out: np.ndarray, rate: np.ndarray,
           work: np.ndarray) -> np.ndarray:
    """The factor exp(i tau log|values|^2), |values|^2 floored as in
    corefn._log_abs2, written to the complex array out, with the squares
    and the rate formed in the real array rate, and work a second real
    array."""
    # the factor from t = tan(theta/2): cos theta = (1 - t^2)/(1 + t^2) and
    # sin theta = 2t/(1 + t^2), one vectorized tan where numpy's cos and sin
    # run at scalar speed.  A rounding of t turns the factor by at most one
    # of theta/2, and this form keeps its modulus within an ulp or two of 1
    # (2/(1 + t^2) - 1 biases it, and the mass drifts)
    t = corefn._log_abs2(values, out=rate)
    np.multiply(0.5 * tau, t, out=t)
    np.tan(t, out=t)
    q = np.multiply(t, t, out=work)
    np.subtract(1.0, q, out=out.real)
    q += 1.0
    np.divide(out.real, q, out=out.real)
    t += t
    np.divide(t, q, out=out.imag)
    return out


def _rotate(values: np.ndarray, tau: float, out: np.ndarray, rate: np.ndarray,
            work: np.ndarray) -> np.ndarray:
    """values exp(i tau log|values|^2), written to out (not values), with
    rate and work the real arrays of _phase."""
    # the product keeps the factor order of values * exp(1j theta), on which
    # its rounding depends
    return np.multiply(values, _phase(values, tau, out, rate, work), out=out)


def nonlinear_step(u: Field, dt: float) -> Field:
    """Exact flow of i u_t = -u log|u|^2 over dt: a pointwise phase
    rotation at rate log|u|^2 (|u|^2 floored at the smallest normal
    double), leaving |u| unchanged.  A non-finite dt raises ValueError."""
    if not math.isfinite(dt):
        raise ValueError(f"dt must be finite, got {dt}")
    n = u.grid.n
    return u.with_values(_rotate(u.values, dt, np.empty_like(u.values), np.empty(n),
                                 np.empty(n)))


def evolve(
    u0: Field,
    gamma: float,
    config: EvolutionConfig,
    reference: GroundStateParams | None = None,
) -> EvolutionResult:
    """Strang-split evolution with diagnostics every record_every steps.

    When a reference profile is given, records carry orbital distances
    to its phase orbit in both metrics (the W distance is evaluated at
    the closed-form optimal phase of the H^1 part), and a reference whose
    squares near the subnormal range (omega below about -670, where the
    ratios of those distances stop being scale-covariant) raises
    ValueError.  Raises EvolutionAborted as soon as any sample stops
    being finite.

    Every Crank-Nicolson step is projected onto one mass, the vdot mass
    of the first step's input, taken once.  Between records the trailing
    and the leading half rotation merge into one rotation over dt; at a
    record step the half-step factor exp(i (dt/2) log|u|^2) is built
    once and applied before the record and again after it, as the first
    application leaves |u| unchanged.  So a run continued from another's
    final state agrees with one longer run at rounding, not bit for bit:
    it takes its own mass target and builds its first half rotation from
    the rotated state.

    A run allocates its state-sized arrays once: two complex state
    buffers, which the Cayley solve and the phase rotation write in
    turn, one complex scratch array for the solve's jump correction and
    the mass projection, one complex array for the record's half-step
    factor, and two real arrays for the amplitudes, the rate and the
    rotation factor's tangent and its square.  Snapshots are copies, the
    final state is the buffer the last substep wrote, and u0's samples
    are never written.
    """
    if not np.all(np.isfinite(u0.values)):
        raise EvolutionAborted(0, [])
    solve = _propagator(u0.grid, float(gamma), float(config.dt))
    op = form_operator(u0.grid, gamma)
    dx = u0.grid.dx
    phi = dphi = None
    if reference is not None:
        phi = sample_profile(reference, u0.grid).values
        amax = float(np.max(np.abs(phi)))  # squared as a Python float: no overflow trap
        if amax * amax < _SQUARE_MARGIN * corefn._TINY:
            raise ValueError(f"omega = {reference.omega}: the sampled profile's squares "
                             "underflow (the largest is below 2^52 x the smallest normal double)")
        dphi = _derivative(phi, u0.grid)  # the fixed reference's: once per run, not per record
    v, spare, work, phase = (np.empty_like(u0.values) for _ in range(4))
    rate, rot_work = np.empty(u0.values.shape), np.empty(u0.values.shape)

    def make_record(t: float, vals: np.ndarray) -> TrajectoryRecord:
        # the mass, and the energy (1/2) t_gamma[u] - (1/2) entropy written
        # through the primitive of s log s^2; |vals| and its squares are
        # taken once, and vals were checked finite by the caller
        s2 = corefn._abs2(vals, out=rate)
        gm = corefn._P_log_of_squares(s2)  # bitwise eval_Gm(|vals|)
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
        v = _rotate(u0.values, half, v, rate, rot_work)
        mass = np.vdot(v, v).real  # every CN step's target: the first input's mass
        for k in range(1, nsteps + 1):
            # each substep writes the spare buffer and hands the old state's
            # buffer back as the next spare
            v, spare = _cn_step(solve, v, mass, spare, work), v
            if k < nsteps and k % config.record_every:
                # merge the trailing and leading half rotations (|u| unchanged)
                v, spare = _rotate(v, config.dt, spare, rate, rot_work), v
                if k % 50 == 0 and not np.all(np.isfinite(v)):
                    raise EvolutionAborted(k, records)
                continue
            # the trailing and the leading half rotation share one factor,
            # as the first leaves |u| unchanged
            _phase(v, half, phase, rate, rot_work)
            v, spare = np.multiply(v, phase, out=spare), v
            if not np.all(np.isfinite(v)):
                raise EvolutionAborted(k, records)
            records.append(make_record(k * config.dt, v))
            nrec += 1
            if config.snapshot_every and nrec % config.snapshot_every == 0:
                snapshots.append((k * config.dt, u0.with_values(v.copy())))
            if k < nsteps:
                v, spare = np.multiply(v, phase, out=spare), v
    except FloatingPointError as exc:  # a blow-up under np.errstate(over="raise")
        raise EvolutionAborted(k, records) from exc
    return EvolutionResult(records=records, final=u0.with_values(v), snapshots=snapshots)


# ----------------------------------------------------------------------
# stability experiment
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TrialResult:
    """A trial's first and largest orbital distance and their ratio, in the
    H^1 (sigma) and then the energy-space (W) distance of its records, and
    the conservation over its records: the largest mass drift relative to
    the first record's mass, and the largest absolute energy drift
    max|E - E_0| (not relative, as E can vanish)."""

    trial: int
    initial_distance_sigma: float
    max_distance_sigma: float
    ratio_sigma: float
    initial_distance_w: float
    max_distance_w: float
    ratio_w: float
    max_mass_drift: float
    max_energy_drift: float


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
    orbital distance and its ratio to the initial distance, and the
    largest mass and energy drift of the records.  Trial k
    depends only on (rng_seed, k): its perturbation draws from a
    generator seeded with that pair, so the summary is reproducible and
    its first k trials do not depend on the trial count.  A symmetric
    branch above the pitchfork is only an excited state; such runs are
    flagged exploratory.
    """
    if not (math.isfinite(perturbation_size) and perturbation_size > 0):
        raise ValueError(
            f"perturbation_size must be a finite positive number, got {perturbation_size}")
    if not (isinstance(trials, numbers.Integral) and trials >= 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
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
        m0, e0 = records[0].mass, records[0].energy
        return TrialResult(k, *_excursion([r.orbital_distance_sigma for r in records]),
                           *_excursion([r.orbital_distance_w for r in records]),
                           max_mass_drift=max(abs(r.mass - m0) for r in records) / m0,
                           max_energy_drift=max(abs(r.energy - e0) for r in records))

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
