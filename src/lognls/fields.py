"""Discrete fields on the punctured line and the energy functionals.

The mesh is staggered: nodes sit at cell centers x_j = -L + (j+1/2) dx,
so x = 0 is a cell edge with no unknown on it.  That matches the
function space of the problem (H^1 away from the origin): a field may
jump across 0, and its one-sided traces are obtained by extrapolation.

One structured operator drives everything.  The quadratic part of the
energy,

    t_gamma[u] = int |u'|^2 dx - (1/gamma) |u(0+) - u(0-)|^2,

is built from first differences at cell edges (trapezoid weights along
each half-line, a ghost-edge Dirichlet closure at +-L, and two-node
traces for the jump term).  That gives M = T - (1/gamma) c c^T with
u* M u = t_gamma[u]: a real symmetric tridiagonal part T, the free
Laplacian on the two half-lines, plus a rank-one jump term with the
trace stencil c, for gamma in (0, inf) (stationary._check_gamma).  The
form u* M u itself is summed over those edges (FormOperator.form),
without M u.  The same M supplies the exact gradient of the action
(divided by dx, also the stationary residual), the minimizer's implicit
step and the Hamiltonian M/dx of the Crank-Nicolson propagator.
Every shifted system with M is solved in trace coordinates: the two
nodes next to the origin are replaced by the two-node traces u(0-) and
u(0+), a change of variables v = P w under which P^T (shift + scale M) P
is tridiagonal and the jump term is the edge between the traces
(FormOperator._trace_form).  The minimizer and Newton solve each real
step's system once, in one single-column LAPACK gtsv sweep
(FormOperator.solve).  The propagator factors its complex Cayley system
once as L D L^T by the plain recurrence, which its positive definite
real part lets run without pivoting, and solves it many times with two
unit-bidiagonal BLAS ztbsv sweeps and one product by 2/D (the Cayley
identity's factor 2) between the same maps P^T and P (ShiftedSolver).
The LAPACK and BLAS routines come from scipy.linalg, which is imported
at the first tridiagonal solve (minimizer, Newton step, Morse index,
propagator), not with this module: ``import lognls`` loads numpy but
not scipy, and the ``ground`` and ``bifurcate`` commands never import
it.

The minimizer ends with Newton's method on action_gradient = 0, whose
Jacobian M + dx (omega - 2 - log u^2) is the same structure with another
diagonal, so each Newton step is one FormOperator.solve sweep.  The
projected descent selects the state; the Newton state is kept only if it
passes three checks: Morse index 1 (morse_index, by Sylvester's law of
inertia on the Jacobian's tridiagonal form in trace coordinates),
an action no higher than the descent's, and an interior residual below
RESIDUAL_TOL.  At gamma = 2 the symmetric seed returns a weak saddle of
index 2, as the discrete pitchfork lies below 2.

Mass and entropy integrals use the midpoint rule, which on this mesh
tiles each half-line exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import corefn, stationary
from .corefn import _abs2, _log_abs2
from .stationary import Branch, GroundStateParams, _check_gamma, _check_omega, branch_params

__all__ = [
    "Grid",
    "DEFAULT_GRID",
    "Field",
    "Traces",
    "FunctionalReport",
    "StationaryResidual",
    "Metric",
    "Seed",
    "MinimizeResult",
    "ConvergenceError",
    "quadratic_form",
    "mass",
    "entropy",
    "derivative",
    "derivative_norm_sq",
    "sigma_norm",
    "report",
    "action_gradient",
    "nehari_project",
    "stationary_residual",
    "morse_index",
    "orbital_distance",
    "sample_profile",
    "random_smooth_field",
    "stationary_newton",
    "minimize_dgamma",
]


@dataclass(frozen=True)
class Grid:
    """Staggered uniform mesh on [-L, L] with n cells and no node at 0."""

    L: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.L) and self.L > 0):
            raise ValueError(f"half-width L must be a finite positive number, got {self.L}")
        # stationary_residual drops 8 nodes and needs one left
        if self.n < 10 or self.n % 2:
            raise ValueError(f"n must be an even integer >= 10, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    @property
    def mid(self) -> int:
        """Index of the first node right of the origin."""
        return self.n // 2

    def nodes(self) -> np.ndarray:
        return -self.L + (np.arange(self.n) + 0.5) * self.dx


# Gaussian tails are far below double precision at +-20
DEFAULT_GRID = Grid(20.0, 4096)


@dataclass(frozen=True)
class Traces:
    """One-sided boundary data at the origin."""

    value_plus: complex
    value_minus: complex
    deriv_plus: complex
    deriv_minus: complex

    @property
    def jump(self) -> complex:
        return self.value_plus - self.value_minus

    @property
    def deriv_mean(self) -> complex:
        return 0.5 * (self.deriv_plus + self.deriv_minus)


@dataclass(frozen=True, eq=False)
class Field:
    """Complex samples on a Grid (homogeneous Dirichlet at +-L)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field samples must be finite")
        object.__setattr__(self, "values", vals)

    def with_values(self, values) -> "Field":
        return Field(self.grid, values)

    def traces(self) -> Traces:
        """Quadratic one-sided extrapolation from the 3 nearest nodes."""
        u, m, dx = self.values, self.grid.mid, self.grid.dx
        vp = (15.0 * u[m] - 10.0 * u[m + 1] + 3.0 * u[m + 2]) / 8.0
        vm = (15.0 * u[m - 1] - 10.0 * u[m - 2] + 3.0 * u[m - 3]) / 8.0
        dp = (-2.0 * u[m] + 3.0 * u[m + 1] - u[m + 2]) / dx
        dm = (2.0 * u[m - 1] - 3.0 * u[m - 2] + u[m - 3]) / dx
        return Traces(vp, vm, dp, dm)


class Metric(enum.Enum):
    """Norm used for orbital distances: H^1-type only, or with the
    Luxemburg (Orlicz) part added."""

    SIGMA_ONLY = "sigma"
    FULL_W = "w"


class Seed(enum.Enum):
    """Built-in initial guesses for the action minimizer."""

    SYMMETRIC = "symmetric"
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class FunctionalReport:
    """The six scalar functionals of one field at (gamma, omega)."""

    form: float
    mass: float
    entropy: float
    energy: float
    action: float
    nehari: float


@dataclass(frozen=True)
class StationaryResidual:
    """Interior equation residual plus the two coupling-condition residuals."""

    interior: float
    bc1: float
    bc2: float


# ----------------------------------------------------------------------
# form operator
# ----------------------------------------------------------------------


@lru_cache(maxsize=None)
def _linalg():
    """scipy.linalg (its lapack and blas), imported at the first tridiagonal
    solve: it costs about 0.3 s, which commands that solve nothing never
    pay."""
    import scipy.linalg

    return scipy.linalg


class FormOperator:
    """The quadratic form at fixed (grid, gamma) as a structured operator.

    M = T + coupling * c c^T satisfies u* M u = t_gamma[u].  T is real
    symmetric tridiagonal (``diag``, ``off``), written from the edge
    weights of the first differences; ``jump_stencil`` c is the row
    vector whose dot product with the samples is the two-node trace jump
    u(0+) - u(0-), nonzero only on the four nodes ``jump``, and
    ``coupling`` = -1/gamma.  gamma must lie in (0, inf) and exceed 2 dx.
    """

    def __init__(self, grid: Grid, gamma: float):
        _check_gamma(gamma)
        n, m, dx = grid.n, grid.mid, grid.dx
        if gamma <= 2.0 * dx:
            raise ValueError(
                f"|gamma| = {gamma} is not resolved by dx = {dx}; refine the grid"
            )
        # weight of the edge between nodes k and k+1: trapezoid rule along
        # each half-line, with no edge across the origin
        w = np.full(n - 1, dx)
        w[[m - 2, m]] = 1.5 * dx
        w[m - 1] = 0.0
        self.off = -w / (dx * dx)
        self.diag = np.zeros(n)
        self.diag[:-1] -= self.off
        self.diag[1:] -= self.off
        # Dirichlet ghost edges at -L and L: derivative +-2 u / dx, weight dx/2
        self.diag[[0, -1]] += 2.0 / dx

        self.jump = slice(m - 2, m + 2)
        self.jump_stencil = np.zeros(n)
        self.jump_stencil[self.jump] = (0.5, -1.5, 1.5, -0.5)
        # each side of the origin in trace coordinates (_trace_form): the
        # trace's row, the row of the node beyond it and the edge between them
        self._sides = ((m - 1, m - 2, m - 2), (m, m + 1, m))
        self.grid = grid
        self.coupling = -1.0 / gamma

    def apply(self, values: np.ndarray) -> np.ndarray:
        """M values."""
        out = self.diag * values
        out[:-1] += self.off * values[1:]
        out[1:] += self.off * values[:-1]
        c = self.jump_stencil[self.jump]
        out[self.jump] += (self.coupling * (c @ values[self.jump])) * c
        return out

    def form(self, values: np.ndarray) -> float:
        """values* M values from its edges, without M values:
        sum_e w_e |v_{k+1} - v_k|^2 / dx^2 over the edges (none across the
        origin), the ghost edges' (2/dx)(|v_0|^2 + |v_{n-1}|^2) and
        coupling |c . v|^2.  Every term but the last is nonnegative, so it
        cancels less than vdot(v, M v)."""
        m, dx = self.grid.mid, self.grid.dx
        d = np.subtract(values[1:], values[:-1])
        d[m - 1] = 0.0  # no edge across the origin
        # w_e / dx^2 is 1/dx on every edge and 1.5/dx on the two next to
        # the origin
        edges = np.vdot(d, d).real + 0.5 * (abs(d[m - 2]) ** 2 + abs(d[m]) ** 2)
        jump = self.jump_stencil[self.jump] @ values[self.jump]
        return float((edges + 2.0 * (abs(values[0]) ** 2 + abs(values[-1]) ** 2)) / dx
                     + self.coupling * abs(jump) ** 2)

    def solve(self, shift, scale: complex, r: np.ndarray) -> np.ndarray:
        """(shift + scale * M)^-1 r for a system that is solved only once.

        The system is solved in trace coordinates w = P^-1 v (see
        _trace_form), where P^T (shift + scale * M) P is tridiagonal: one
        single-column LAPACK gtsv call on it and P^T r, then v = P w.  The
        routine runs in the common dtype of shift, scale and r (real for
        the minimizer).  The result is an array made by this call.
        """
        return self._sweep(shift + scale * self.diag, scale, r)

    def _sweep(self, diag: np.ndarray, scale, r: np.ndarray) -> np.ndarray:
        """solve, given the diagonal shift + scale * self.diag of its
        tridiagonal part, which the sweep overwrites."""
        off = scale * self.off
        self._trace_form(diag, off, scale * self.coupling)
        (gtsv,) = _linalg().get_lapack_funcs(("gtsv",), (diag, off, r))
        b = self._to_trace(r.astype(gtsv.dtype))
        *_, w, info = gtsv(off, diag, off, b, overwrite_d=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"tridiagonal solve failed (info={info})")
        return self._from_trace(w)

    def _to_trace(self, b: np.ndarray) -> np.ndarray:
        """b = P^T b in place (see _trace_form): two entries per side."""
        for k, j, _ in self._sides:
            b[j] += b[k] / 3.0
            b[k] = 2.0 * b[k] / 3.0
        return b

    def _from_trace(self, w: np.ndarray) -> np.ndarray:
        """w = P w in place: the trace entries become samples again."""
        for k, j, _ in self._sides:
            w[k] = (2.0 * w[k] + w[j]) / 3.0
        return w

    def _trace_form(self, diag: np.ndarray, off: np.ndarray, coupling) -> None:
        """In place, turn the tridiagonal D (diag, off), which has no edge
        across the origin, into P^T (D + coupling c c^T) P.

        P maps the trace coordinates w to the samples v = P w: w = v except
        that w_{m-1} and w_m are the two-node traces u(0-) = 1.5 v_{m-1} -
        0.5 v_{m-2} and u(0+) = 1.5 v_m - 0.5 v_{m+1}.  So c^T P = e_m -
        e_{m-1}, and the result is tridiagonal: four diagonal and three
        off-diagonal entries change, and the jump term becomes the edge
        between the two traces.  It has the inertia of D + coupling c c^T
        (Sylvester's law).
        """
        for k, j, e in self._sides:
            third = diag[k] / 3.0
            diag[j] += (2.0 * off[e] + third) / 3.0
            off[e] = 2.0 * (off[e] + third) / 3.0
            diag[k] = 4.0 * third / 3.0 + coupling
        off[self.grid.mid - 1] = -coupling


class ShiftedSolver:
    """y = 2 (1 + scale * M)^-1 r for one FormOperator M and a complex
    scale: the Crank-Nicolson propagator's Cayley solver, with the Cayley
    identity's factor 2 folded into the factorization.

    The tridiagonal P^T (1 + scale * M) P of trace coordinates
    (FormOperator._trace_form) is factored once as L D L^T, L unit lower
    bidiagonal, by the plain recurrence f_k = o_k / D_k, D_{k+1} = d_{k+1}
    - f_k o_k.  For an imaginary scale (a real dt) it is complex symmetric
    with the positive definite real part P^T P, so it needs no pivoting
    (cf. Higham, Math. Comp. 67, 1998); a zero or non-finite pivot raises
    LinAlgError.  Each call maps b = P^T r, runs a unit lower and a unit
    upper BLAS ztbsv sweep, which do not divide, with a product by 2/D
    between them, and maps back v = P w, as FormOperator.solve does around
    its one gtsv sweep.  A power of two commutes with every rounding, so
    the sweeps give bitwise twice the solve with 1/D.
    """

    def __init__(self, op: FormOperator, scale: complex):
        diag, off = 1.0 + scale * op.diag, scale * op.off
        op._trace_form(diag, off, scale * op.coupling)
        # d becomes the pivots D and o L's subdiagonal, in place
        d, o = diag.tolist(), off.tolist()
        try:
            for k, o_k in enumerate(o):
                o[k] = f = o_k / d[k]
                d[k + 1] -= f * o_k
        except ZeroDivisionError:
            raise np.linalg.LinAlgError(f"zero pivot in row {k} of the Cayley "
                                        "factorization") from None
        d = np.array(d, dtype=complex)
        if not np.all(np.isfinite(d) & (d != 0.0)):
            raise np.linalg.LinAlgError("zero or non-finite pivot in the Cayley factorization")
        # one band for both sweeps: row 1 is L's subdiagonal (lower=1) and
        # row 0 L^T's superdiagonal (lower=0); the unit diagonal is not read
        self.band = np.zeros((2, op.grid.n), dtype=complex, order="F")
        self.band[1, :-1] = self.band[0, 1:] = o
        self.two_over_d = 2.0 / d
        self.tbsv = _linalg().blas.ztbsv
        self.op = op

    def __call__(self, r: np.ndarray, out: np.ndarray) -> np.ndarray:
        """2 (1 + scale * M)^-1 r, in out: r is copied there and solved in
        place (r itself is never written)."""
        np.copyto(out, r)
        y = self.tbsv(1, self.band, self.op._to_trace(out), lower=1, diag=1, overwrite_x=1)
        np.multiply(y, self.two_over_d, out=y)
        y = self.tbsv(1, self.band, y, lower=0, diag=1, overwrite_x=1)
        return self.op._from_trace(y)


@lru_cache(maxsize=64)
def form_operator(grid: Grid, gamma: float) -> FormOperator:
    return FormOperator(grid, gamma)


# ----------------------------------------------------------------------
# functionals
# ----------------------------------------------------------------------


def quadratic_form(u: Field, gamma: float) -> float:
    """Energy form int |u'|^2 dx - (1/gamma)|u(0+) - u(0-)|^2."""
    return form_operator(u.grid, gamma).form(u.values)


def mass(u: Field) -> float:
    """Squared L2 norm by the midpoint rule."""
    return float(u.grid.dx * np.sum(_abs2(u.values)))


def entropy(u: Field) -> float:
    """int |u|^2 log|u|^2 dx with the integrand extended by 0 at u = 0."""
    return float(u.grid.dx * np.sum(corefn.entropy_of_squares(_abs2(u.values))))


def derivative(u: Field) -> np.ndarray:
    """Node derivatives: centered inside each half-line, one-sided
    second-order at the four half-line end nodes."""
    return _derivative(u.values, u.grid)


def _derivative(v: np.ndarray, grid: Grid, out: np.ndarray | None = None) -> np.ndarray:
    """derivative of the samples v on grid, D v, written to out (not v),
    a contiguous array, when it is given."""
    m, n, h = grid.mid, grid.n, 2.0 * grid.dx
    du = np.empty_like(v) if out is None else out
    for lo, hi in ((0, m), (m, n)):
        inner = np.subtract(v[lo + 2 : hi], v[lo : hi - 2], out=du[lo + 1 : hi - 1])
        # numpy divides a complex array by a real h as its real and
        # imaginary parts times 1/h, at half the cost on the real view
        np.multiply(inner.view(float), 1.0 / h, out=inner.view(float))
        du[lo] = (-3.0 * v[lo] + 4.0 * v[lo + 1] - v[lo + 2]) / h
        du[hi - 1] = (3.0 * v[hi - 1] - 4.0 * v[hi - 2] + v[hi - 3]) / h
    return du


def _derivative_t(w: np.ndarray, grid: Grid) -> np.ndarray:
    """D^T w, with D the real matrix of _derivative on grid."""
    m, n = grid.mid, grid.n
    out = np.zeros_like(w)
    for lo, hi in ((0, m), (m, n)):
        # the centred rows lo+1 .. hi-2, then the two one-sided end rows
        out[lo + 2 : hi] += w[lo + 1 : hi - 1]
        out[lo : hi - 2] -= w[lo + 1 : hi - 1]
        out[lo : lo + 3] += w[lo] * np.array([-3.0, 4.0, -1.0])
        out[hi - 3 : hi] += w[hi - 1] * np.array([1.0, -4.0, 3.0])
    return out / (2.0 * grid.dx)


def derivative_norm_sq(u: Field) -> float:
    """int |u'|^2 dx (midpoint rule on node derivatives)."""
    return float(u.grid.dx * np.sum(np.abs(derivative(u)) ** 2))


def sigma_norm(u: Field) -> float:
    """H^1 norm on the punctured line: sqrt(mass + int |u'|^2)."""
    return math.sqrt(mass(u) + derivative_norm_sq(u))


def _report(op: FormOperator, values: np.ndarray, omega: float) -> FunctionalReport:
    """The six functionals of the samples `values` with the form of op;
    |values|^2 is taken once, for the mass and the entropy."""
    f = op.form(values)
    s2 = _abs2(values)
    q = float(op.grid.dx * np.sum(s2))
    e = float(op.grid.dx * np.sum(corefn.entropy_of_squares(s2)))
    nehari = f + omega * q - e
    action = 0.5 * f + 0.5 * (omega + 1.0) * q - 0.5 * e
    energy = 0.5 * f - 0.5 * e
    return FunctionalReport(form=f, mass=q, entropy=e, energy=energy, action=action, nehari=nehari)


def report(u: Field, gamma: float, omega: float) -> FunctionalReport:
    """All six functionals; action = nehari/2 + mass/2 and
    energy = form/2 - entropy/2 hold exactly by construction."""
    _check_omega(omega)
    return _report(form_operator(u.grid, gamma), u.values, omega)


def action_gradient(u: Field, gamma: float, omega: float) -> np.ndarray:
    """Gradient of the action with respect to the samples, under the real
    inner product Re sum a conj(b); matches finite differences of
    report().action."""
    _check_omega(omega)
    v = u.values
    return _gradient(form_operator(u.grid, gamma), v, omega, _log_abs2(v))


def _gradient(op: FormOperator, values: np.ndarray, omega: float,
              log_abs2: np.ndarray) -> np.ndarray:
    """action_gradient of the samples `values` with the form of op, given
    their _log_abs2."""
    return op.apply(values) + op.grid.dx * (omega - log_abs2) * values


# natural logarithms of the largest double and of the smallest positive one
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_MIN = math.log(math.ulp(0.0))


def _project(op: FormOperator, values: np.ndarray, omega: float):
    """nehari_project on the samples `values` with the form of op, and the
    action of the result: on the constraint set it is half the mass, so
    it is lambda^2 times half the mass of `values`."""
    r = _report(op, values, omega)
    if r.mass <= 0.0:
        raise ValueError("cannot project the zero field")
    # log lambda and the log of the projected mass, checked before exp: a
    # field far from the constraint set would overflow them, or flush them to 0
    log_lam = r.nehari / (2.0 * r.mass)
    log_mass = 2.0 * log_lam + math.log(r.mass)
    if not (_LOG_MIN < log_lam < _LOG_MAX and _LOG_MIN < log_mass < _LOG_MAX):
        raise ValueError(
            f"cannot project onto the constraint set: the factor exp(I/(2 mass)) = "
            f"exp({log_lam:.6g}) takes the mass to exp({log_mass:.6g}), outside the "
            f"range of doubles (I = {r.nehari:.6g}, mass = {r.mass:.6g})")
    lam = math.exp(log_lam)
    return lam * values, 0.5 * lam * lam * r.mass


def nehari_project(u: Field, gamma: float, omega: float) -> Field:
    """Rescale u -> lambda u with lambda = exp(I/(2 mass)) so that the
    scaling derivative I of the action vanishes again.

    The logarithmic nonlinearity makes this exact: under u -> lambda u
    the entropy picks up exactly log(lambda^2) * mass.
    """
    _check_omega(omega)
    return u.with_values(_project(form_operator(u.grid, gamma), u.values, omega)[0])


def stationary_residual(u: Field, gamma: float, omega: float) -> StationaryResidual:
    """How far a field is from being a standing-wave profile.

    interior: max norm of action_gradient / dx, which is
    -u'' + omega u - u log|u|^2 on the three-point stencil of the form
    operator, excluding the 2 nodes nearest the interface and each outer
    boundary.  bc1 = |u'(0+) - u'(0-)|; bc2 = |u(0+) - u(0-) + gamma u'(0)|
    with u'(0) the mean of the one-sided traces.
    """
    n, m = u.grid.n, u.grid.mid
    pde = action_gradient(u, gamma, omega) / u.grid.dx
    keep = np.ones(n, dtype=bool)
    keep[[0, 1, n - 2, n - 1, m - 2, m - 1, m, m + 1]] = False
    interior = float(np.max(np.abs(pde[keep])))
    t = u.traces()
    bc1 = abs(t.deriv_plus - t.deriv_minus)
    bc2 = abs(t.jump + gamma * t.deriv_mean)
    return StationaryResidual(interior=interior, bc1=bc1, bc2=bc2)


# ----------------------------------------------------------------------
# orbital distance
# ----------------------------------------------------------------------


def _h1_dual(phi: np.ndarray, grid: Grid) -> np.ndarray:
    """g = phi + D^T D phi for the samples phi on grid, with D the node
    derivative: D is real and linear, so the H^1 inner product
    <phi, u> + <D phi, D u> of any samples u is vdot(g, u), with no
    derivative of u."""
    return phi + _derivative_t(_derivative(phi, grid), grid)


def _phase_fit(u: np.ndarray, g: np.ndarray) -> float:
    """theta* = arg of the complex H^1 inner product of the reference and
    the samples u, given the reference's g (_h1_dual): the phase that
    minimizes the H^1 part of the distance."""
    ip = np.vdot(g, u)
    return float(np.angle(ip)) if ip != 0 else 0.0


def _distance_buffers(n: int):
    """The scratch arrays of _sigma_dist_at for n samples: the difference
    and its node derivative (complex), and its amplitudes (real)."""
    return np.empty(n, dtype=complex), np.empty(n, dtype=complex), np.empty(n)


def _sigma_dist_at(u: np.ndarray, phi: np.ndarray, theta: float, grid: Grid,
                   diff: np.ndarray, ddiff: np.ndarray, amp: np.ndarray):
    """H^1 distance from the samples u to e^{i theta} phi on grid, and the
    amplitudes |u - e^{i theta} phi| of the sample difference, in amp.
    The difference and its node derivative are written to diff and
    ddiff (_distance_buffers)."""
    np.multiply(np.exp(1j * theta), phi, out=diff)
    np.subtract(u, diff, out=diff)
    np.abs(diff, out=amp)
    _derivative(diff, grid, out=ddiff)
    return math.sqrt(grid.dx * (np.dot(amp, amp) + np.vdot(ddiff, ddiff).real)), amp


def _golden_min(f, lo: float, hi: float):
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(40):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = f(d)
    xm = 0.5 * (a + b)
    return xm, f(xm)


def orbital_distance(u: Field, phi: Field, metric: Metric = Metric.SIGMA_ONLY,
                     refine: bool = True) -> float:
    """Distance from u to the phase orbit {e^{i theta} phi}.

    The H^1 part is minimized in closed form at theta* = arg of the
    complex inner product (values plus derivatives).  For the FULL_W
    metric the Luxemburg norm of the difference is added and theta is
    refined by golden-section search in a +-0.5 rad window around
    theta* (skipped when refine is False).
    """
    if u.grid != phi.grid:
        raise ValueError("fields live on different grids")
    grid = u.grid
    theta = _phase_fit(u.values, _h1_dual(phi.values, grid))
    buffers = _distance_buffers(grid.n)
    if metric is Metric.SIGMA_ONLY:
        return _sigma_dist_at(u.values, phi.values, theta, grid, *buffers)[0]

    def objective(th: float) -> float:
        d, amp = _sigma_dist_at(u.values, phi.values, th, grid, *buffers)
        return d + corefn._gauge(amp, grid.dx)[0]

    if not refine:
        return objective(theta)
    _, best = _golden_min(objective, theta - 0.5, theta + 0.5)
    return min(best, objective(theta))


def _orbital_distances(u: np.ndarray, phi: np.ndarray, g: np.ndarray, grid: Grid,
                       buffers) -> tuple[float, float]:
    """The SIGMA_ONLY and the unrefined FULL_W orbital distance from one
    phase fit, for the samples u and phi on grid, given phi's g
    (_h1_dual) and the scratch arrays of _distance_buffers: both are
    evaluated at theta*, where the W distance is the sigma distance plus
    the Luxemburg norm of u - e^{i theta*} phi.  Equal to
    orbital_distance(u, phi, SIGMA_ONLY) and orbital_distance(u, phi,
    FULL_W, refine=False) of the Fields."""
    d, amp = _sigma_dist_at(u, phi, _phase_fit(u, g), grid, *buffers)
    return d, d + corefn._gauge(amp, grid.dx)[0]


# ----------------------------------------------------------------------
# sampling helpers
# ----------------------------------------------------------------------


def sample_profile(params: GroundStateParams, grid: Grid) -> Field:
    """Stationary profile sampled on the staggered nodes."""
    return Field(grid, stationary.profile(params, grid.nodes()))


def random_smooth_field(grid: Grid, rng: np.random.Generator,
                        center_range: tuple[float, float] = (-5.0, 5.0)) -> Field:
    """Sum of five Gaussian bumps with random centers, widths in [0.5, 2]
    and complex amplitudes; the perturbation family of the stability
    experiments."""
    x = grid.nodes()
    p = np.zeros(grid.n, dtype=complex)
    for _ in range(5):
        c = rng.uniform(*center_range)
        w = rng.uniform(0.5, 2.0)
        a = rng.standard_normal() + 1j * rng.standard_normal()
        p += a * np.exp(-0.5 * ((x - c) / w) ** 2)
    return Field(grid, p)


# ----------------------------------------------------------------------
# action minimization
# ----------------------------------------------------------------------


# projected descent: initial and largest step size, the relative action
# rise a step may make and still count as downhill, and the convergence
# tolerances on the relative action change and the interior residual
TAU0 = 0.2
TAU_MAX = 2.0
MAX_REJECTS = 8
ACTION_RISE_RTOL = 1e-12
ACTION_RTOL = 1e-10
RESIDUAL_TOL = 1e-6
# Newton finish: the descent hands over once the relative action change has
# been below HANDOVER_RTOL twice in a row.  Newton stops when its step,
# measured relative to max|u|, falls below NEWTON_STEP_RTOL or stops
# shrinking; the latter is the rounding floor when the last step taken was
# below NEWTON_STALL_RTOL (the quadratic convergence then leaves an error
# of order eps), and a stall otherwise, as is running out of
# NEWTON_MAX_ITER steps.  No residual tolerance: the residual's rounding
# floor grows like 1/dx^2.
HANDOVER_RTOL = 1e-8
NEWTON_STEP_RTOL = 1024 * np.finfo(float).eps
NEWTON_STALL_RTOL = math.sqrt(np.finfo(float).eps)
NEWTON_MAX_ITER = 30


@dataclass(frozen=True)
class MinimizeResult:
    field: Field
    value: float  # half the squared L2 norm of the minimizer
    iterations: int  # every step tried, rejected ones and Newton steps included
    residual: StationaryResidual
    action: float
    rejected: int  # steps that raised the action and were retried with a smaller tau
    forced: int  # uphill steps accepted because MAX_REJECTS retries in a row failed
    newton: int  # Newton steps tried
    index: int  # Morse index of the field, morse_index(field, gamma, omega)


class ConvergenceError(RuntimeError):
    """Minimizer or Newton's method did not reach its tolerances; result is
    the MinimizeResult of the last iterate."""

    def __init__(self, message, result: MinimizeResult):
        super().__init__(message)
        self.result = result


def _real_values(u: Field, what: str) -> np.ndarray:
    if np.any(u.values.imag):
        raise ValueError(f"{what} must be real: the minimizer and Newton's method work on "
                         "real profiles")
    return u.values.real.copy()


def morse_index(u: Field, gamma: float, omega: float) -> int:
    """Number of negative eigenvalues of the action's Hessian at the real
    profile u, on real perturbations: the Jacobian of action_gradient,
    dx L+ = M + dx (omega - 2 - log u^2) with M = T - (1/gamma) c c^T.

    By Sylvester's law of inertia it is the negative count of the
    tridiagonal matrix P^T J P of the trace coordinates (see
    FormOperator._trace_form), where J is the Jacobian.  The count is one
    LAPACK dstebz Sturm count over an interval that holds the negative
    spectrum; it is exact, so the eigenvalues it brackets are located only
    to a coarse tolerance.  The index is 1 at a ground state and 2 at the
    symmetric state above the discrete pitchfork.
    """
    op = form_operator(u.grid, gamma)
    _check_omega(omega)
    v = _real_values(u, "the profile")
    diag, off = op.diag + u.grid.dx * (omega - 2.0 - _log_abs2(v)), op.off.copy()
    op._trace_form(diag, off, op.coupling)
    # Gershgorin: every eigenvalue lies above lo
    lo = float(np.min(diag)) - 2.0 * float(np.max(np.abs(off))) - 1.0
    count, *_, info = _linalg().lapack.dstebz(diag, off, 1, lo, 0.0, 1, 1, -lo, b"E")
    if info != 0:
        raise np.linalg.LinAlgError(f"Sturm count failed (info={info})")
    return int(count)


def _newton(op: FormOperator, v: np.ndarray, omega: float):
    """Newton's method on action_gradient = 0 from the real samples v.

    Each step solves the Jacobian system, dx L+ with the form of op, in
    one FormOperator.solve sweep.  Returns the last samples, the steps
    tried and whether they converged (see NEWTON_STEP_RTOL); a step that
    did not shrink is tried but not taken.
    """
    dx = op.grid.dx
    last = math.inf
    for k in range(1, NEWTON_MAX_ITER + 1):
        log_abs2 = _log_abs2(v)
        step = op.solve(dx * (omega - 2.0 - log_abs2), 1.0, _gradient(op, v, omega, log_abs2))
        size = float(np.max(np.abs(step)) / np.max(np.abs(v)))
        if size >= last:
            return v, k, last <= NEWTON_STALL_RTOL
        v = v - step
        if size <= NEWTON_STEP_RTOL:
            return v, k, True
        last = size
    return v, k, False


def _certify(op: FormOperator, gamma: float, omega: float, v: np.ndarray,
             **counts) -> MinimizeResult:
    """The MinimizeResult of the real samples v, with their stationary
    residual and Morse index; value and action come from the complex
    samples of its field, so they are report(field)'s to the bit."""
    field = Field(op.grid, v)
    final = _report(op, field.values, omega)
    return MinimizeResult(field=field, value=0.5 * final.mass, action=final.action,
                          residual=stationary_residual(field, gamma, omega),
                          index=morse_index(field, gamma, omega), **counts)


def stationary_newton(u: Field, gamma: float, omega: float) -> MinimizeResult:
    """The discrete stationary state near the real profile u, by Newton's
    method on action_gradient = 0.

    Newton selects no branch: it converges to whichever stationary state
    is nearest, ground state or saddle, and the result's index tells them
    apart.  Its iterations and newton count the Newton steps tried, and its
    value is half the mass of the state.  A stall raises ConvergenceError
    with the MinimizeResult of the last iterate.
    """
    op = form_operator(u.grid, gamma)
    _check_omega(omega)
    v, steps, converged = _newton(op, _real_values(u, "the start"), omega)
    result = _certify(op, gamma, omega, v, iterations=steps, rejected=0, forced=0, newton=steps)
    if not converged:
        raise ConvergenceError(
            f"Newton stalled after {steps} steps at gamma={gamma}, omega={omega} "
            f"(interior residual {result.residual.interior:.3g})", result)
    return result


def _seed_values(seed, gamma: float, omega: float, grid: Grid) -> np.ndarray:
    """The seed's samples as a real profile."""
    if isinstance(seed, Field):
        if seed.grid != grid:
            raise ValueError("custom seed lives on a different grid")
        values = _real_values(seed, "custom seed")
        if mass(seed) <= 0.0:
            raise ValueError("custom seed must be nonzero")
        return values
    base = sample_profile(branch_params(gamma, omega, Branch.SYMMETRIC), grid).values.real.copy()
    if seed is Seed.SYMMETRIC:
        return base
    x = grid.nodes()
    if seed is Seed.LEFT:
        # biases the descent toward the t1 < t2 pair (mass on x > 0)
        return np.where(x > 0, 2.0, 0.5) * base
    if seed is Seed.RIGHT:
        return np.where(x > 0, 0.5, 2.0) * base
    raise ValueError(f"unknown seed {seed!r}")


def minimize_dgamma(gamma: float, omega: float, seed=Seed.SYMMETRIC,
                    grid: Grid = DEFAULT_GRID, max_iter: int = 4000) -> MinimizeResult:
    """Least action over the constraint set by projected descent, with a
    Newton finish.

    Each descent iteration takes one linearly implicit gradient step on the
    action (the stiff quadratic part and the diagonal logarithmic term
    are treated implicitly, which keeps tiny-amplitude tails stable) and
    then reprojects onto the constraint set with nehari_project.  The
    step size adapts: it grows on accepted steps and backtracks whenever
    the projected action increases, up to MAX_REJECTS times in a row,
    after which the uphill step is taken; the result counts both kinds
    of step.  Each step's shifted system is solved once, by one
    single-column gtsv sweep in trace coordinates (FormOperator.solve).
    Per step, |v|^2 of the iterate is taken
    once, and the shift 1 + tau (omega - log|v|^2) and the shifted
    diagonal are built in place in two buffers that belong to this call;
    the projection squares the step's samples once for its mass and
    entropy.

    The descent does the variational selection.  Once its relative action
    change has been below HANDOVER_RTOL twice in a row, Newton's method
    (stationary_newton) finishes on action_gradient = 0, once per run.  The
    projected Newton state is returned if it passes three checks: its
    Morse index is 1, its action has not risen above the descent's, and
    its interior stationary residual is below RESIDUAL_TOL.  Otherwise the
    descent carries on from its own iterate, as if Newton had not run,
    until the action stagnates (relative change below ACTION_RTOL twice in
    a row) with the interior residual below RESIDUAL_TOL.  The result
    counts the Newton steps tried (newton) and carries the Morse index of
    the returned field (index): 1 at a ground state, 2 at the symmetric
    seed's weak saddle at gamma = 2, as the discrete pitchfork lies below 2.

    The minimizer works on real profiles, as every ground state is
    e^{i theta} times a real one: the descent runs in real arithmetic, and
    a custom Field seed must have zero imaginary part.  Returns the
    minimizer and half its squared L2 norm, which is the least-action
    value.  After max_iter descent steps without convergence it raises
    ConvergenceError with the MinimizeResult of the last iterate.
    """
    op = form_operator(grid, gamma)
    _check_omega(omega)
    if max_iter < 1:
        raise ValueError(f"max_iter must be a positive integer, got {max_iter}")
    dx = grid.dx
    v, S = _project(op, _seed_values(seed, gamma, omega, grid), omega)
    shift, diag = np.empty(grid.n), np.empty(grid.n)
    tau = TAU0
    stall = near = 0
    rejects = 0  # in a row
    rejected = forced = newton = 0
    for it in range(1, max_iter + 1):
        # the step's diagonal shift + scale * op.diag, shift = 1 + tau (omega - log|v|^2)
        scale = tau / dx
        _log_abs2(v, out=shift)
        np.subtract(omega, shift, out=shift)
        shift *= tau
        shift += 1.0
        np.multiply(scale, op.diag, out=diag)
        diag += shift
        v_try, S_try = _project(op, op._sweep(diag, scale, v), omega)
        if S_try > S + ACTION_RISE_RTOL * abs(S):
            if rejects < MAX_REJECTS:
                tau = max(0.4 * tau, 1e-3)
                rejects += 1
                rejected += 1
                continue
            forced += 1
        rejects = 0
        rel = abs(S_try - S) / max(abs(S_try), 1e-300)
        v, S = v_try, S_try
        tau = min(1.3 * tau, TAU_MAX)
        stall = stall + 1 if rel < ACTION_RTOL else 0
        near = near + 1 if rel < HANDOVER_RTOL else 0
        if near >= 2 and not newton:
            # Newton from the descent iterate, once per run; its projected
            # state is kept if it passes the three checks, action first
            w, newton, converged = _newton(op, v, omega)
            if converged:
                w, S_newton = _project(op, w, omega)
                if S_newton <= S + ACTION_RISE_RTOL * abs(S):
                    done = _certify(op, gamma, omega, w, iterations=it + newton,
                                    rejected=rejected, forced=forced, newton=newton)
                    if done.residual.interior < RESIDUAL_TOL and done.index == 1:
                        return done
        if stall >= 2:
            done = _certify(op, gamma, omega, v, iterations=it + newton, rejected=rejected,
                            forced=forced, newton=newton)
            if done.residual.interior < RESIDUAL_TOL:
                return done
            stall = 0
    last = _certify(op, gamma, omega, v, iterations=it + newton, rejected=rejected,
                    forced=forced, newton=newton)
    raise ConvergenceError(
        f"no convergence after {last.iterations} iterations at gamma={gamma}, omega={omega} "
        f"(action {last.action:.12g}, interior residual {last.residual.interior:.3g})", last)
