"""Standing-wave profiles, the interface pair system and its bifurcation.

A standing wave e^{i omega t} phi(x) exists exactly when the two Gaussian
half-profiles

    phi(x) = e^{(omega+1)/2} e^{-(x+t1)^2/2}   (x > 0)
    phi(x) = -e^{(omega+1)/2} e^{-(x-t2)^2/2}  (x < 0)

satisfy the coupling conditions at the origin, which reduce to the pair
system

    t1 exp(-t1^2/2) = t2 exp(-t2^2/2),     1/t1 + 1/t2 = gamma.

For 0 < gamma <= 2 the only positive solution is the symmetric pair
t1 = t2 = 2/gamma (an odd profile).  At gamma = 2 a pitchfork opens: for
gamma > 2 two mirror asymmetric pairs appear, with strictly smaller
action, and the odd profile survives as an excited state.  The asymmetric
pairs come from the unique root z0 > 1 of the auxiliary function eval_h;
the pair is ((z0+1)/(gamma z0), (z0+1)/gamma) up to ordering.  One
bisection finds it, on h(1+e)/e with the root z = 1 divided out, which
keeps the pair accurate to rounding also just above the pitchfork, where
h itself is flat like e^3.

Closed forms used throughout: the profile mass is
e^{omega+1} * n_gamma(t1) with n_gamma(t) = gamma_tail(t) +
gamma_tail(sigma(t)), and for a profile on the pair system the action
equals half the mass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .corefn import SQRT_PI, gamma_tail

__all__ = [
    "Branch",
    "GroundStateParams",
    "BifurcationPoint",
    "PAIR_RESIDUAL_TOL",
    "eval_h",
    "pair_residuals",
    "solve_3s",
    "sigma_map",
    "n_gamma",
    "profile",
    "mass_closed_form",
    "action_closed_form",
    "d_gamma",
    "dgamma_lower_bound",
    "d_zero",
    "d_free_line",
    "ground_states",
    "branch_params",
    "bifurcation_sweep",
]

# acceptance tolerance on the two pair-system residuals
PAIR_RESIDUAL_TOL = 1e-10


def _check_gamma(gamma: float) -> None:
    if not (0 < gamma < math.inf):
        raise ValueError(f"gamma must be positive and finite, got {gamma}")


def _check_omega(omega: float) -> None:
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")


class Branch(enum.Enum):
    """Stationary branch labels.

    The asymmetric labels refer to the (t1, t2) ordering: AsymmetricLeft
    is the pair with t1 < t2, whose profile mass sits mostly on the
    right half-line (the x > 0 hump is centered at -t1, closer to the
    origin).  AsymmetricRight is its mirror image.
    """

    SYMMETRIC = "symmetric"
    ASYMMETRIC_LEFT = "asymmetric-left"
    ASYMMETRIC_RIGHT = "asymmetric-right"


@dataclass(frozen=True)
class GroundStateParams:
    """Parameters (gamma, omega, t1, t2) of one stationary profile."""

    gamma: float
    omega: float
    t1: float
    t2: float
    branch: Branch

    def __post_init__(self):
        _check_gamma(self.gamma)
        _check_omega(self.omega)
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError("t1, t2 must be positive")
        r1, r2 = pair_residuals(self.t1, self.t2, self.gamma)
        # written so that a NaN residual fails the gate
        if not (r1 <= PAIR_RESIDUAL_TOL and r2 <= PAIR_RESIDUAL_TOL):
            raise ValueError(
                f"(t1, t2) = ({self.t1}, {self.t2}) violates the pair system "
                f"at gamma = {self.gamma}: residuals ({r1:.3e}, {r2:.3e})"
            )
        sym = abs(self.t1 - self.t2) <= PAIR_RESIDUAL_TOL
        if sym != (self.branch is Branch.SYMMETRIC):
            raise ValueError(f"branch tag {self.branch} inconsistent with t1, t2")

    @property
    def is_ground_state(self) -> bool:
        """Symmetric profiles are ground states only up to the pitchfork."""
        if self.branch is Branch.SYMMETRIC:
            return self.gamma <= 2.0
        return True


@dataclass(frozen=True)
class BifurcationPoint:
    """All stationary branches at one value of gamma, with their actions."""

    gamma: float
    branches: tuple[GroundStateParams, ...]
    actions: tuple[float, ...]


def eval_h(t: float, gamma: float) -> float:
    """Auxiliary root function (t+1)^2 (1 - 1/t^2) - gamma^2 log(t^2).

    h(1) = 0 always; for gamma > 2 it has exactly one further zero in
    (1, inf), which parametrizes the asymmetric pair.
    """
    t = float(t)
    if t <= 0:
        raise ValueError(f"t must be positive, got {t}")
    return (t + 1.0) ** 2 * (1.0 - 1.0 / (t * t)) - gamma * gamma * math.log(t * t)


def pair_residuals(t1: float, t2: float, gamma: float) -> tuple[float, float]:
    """Absolute residuals of the two pair-system equations."""
    r1 = abs(t1 * math.exp(-0.5 * t1 * t1) - t2 * math.exp(-0.5 * t2 * t2))
    r2 = abs(1.0 / t1 + 1.0 / t2 - gamma)
    return r1, r2


# Taylor coefficients of (log1p(e) - e + e^2/2)/e^3 = sum_k (-e)^k/(k+3),
# summed below e = 0.2, where the direct form loses digits to cancellation
_R_SERIES = tuple((-1) ** k / (k + 3) for k in range(24))


def _deflated_h(e: float, gamma: float) -> float:
    """h(1+e)/e, eval_h with its root at z = 1 divided out.

    It equals -(gamma^2-4)(2-e) + e^2 K(e) with K(e) = (6+5e)/(1+e)^2 -
    2 gamma^2 R(e)/e^3 and R(e) = log1p(e) - e + e^2/2, which keeps full
    relative precision as e -> 0.  From e = 1 on, where that form cancels,
    it is (2+e)^3/(1+e)^2 - 2 gamma^2 log1p(e)/e.  h is convex on
    [1, inf), so this secant slope increases in e.
    """
    g2 = gamma * gamma
    if e >= 1.0:
        return (2.0 + e) ** 3 / (1.0 + e) ** 2 - 2.0 * g2 * math.log1p(e) / e
    if e < 0.2:
        r = 0.0
        for c in reversed(_R_SERIES):
            r = c + e * r
    else:
        r = (math.log1p(e) - e + 0.5 * e * e) / e**3
    k = (6.0 + 5.0 * e) / (1.0 + e) ** 2 - 2.0 * g2 * r
    return -(gamma - 2.0) * (gamma + 2.0) * (2.0 - e) + e * e * k


def solve_3s(gamma: float) -> list[tuple[float, float]]:
    """All positive solutions (t1, t2) of the pair system at this gamma.

    Returns [(2/gamma, 2/gamma)] for 0 < gamma <= 2 and the symmetric
    pair plus the two mirror asymmetric pairs for gamma > 2, the first
    ordered t1 < t2.  The asymmetric root z0 = 1 + e of eval_h comes from
    bisecting _deflated_h down to adjacent doubles; t2 = (2+e)/gamma and
    t1 = 1/(gamma - 1/t2), so the second pair equation holds to rounding.
    Raises RuntimeError where no pair within PAIR_RESIDUAL_TOL is found.
    """
    gamma = float(gamma)
    _check_gamma(gamma)
    tstar = 2.0 / gamma
    pairs = [(tstar, tstar)]
    if gamma > 2.0:
        lo, hi = 0.0, 1.0
        while not _deflated_h(hi, gamma) > 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise RuntimeError(
                    f"pair solver failed at gamma={gamma}: no root of h(1+e)/e below e = 1e12")
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if _deflated_h(mid, gamma) < 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        tb = (2.0 + hi) / gamma
        ta = 1.0 / (gamma - 1.0 / tb)
        pairs += [(ta, tb), (tb, ta)]
    for t1, t2 in pairs:
        r1, r2 = pair_residuals(t1, t2, gamma)
        if max(r1, r2) > PAIR_RESIDUAL_TOL:
            raise RuntimeError(
                f"pair solver failed at gamma={gamma}: residuals ({r1:.3e}, {r2:.3e})"
            )
    return pairs


def sigma_map(t: float, gamma: float) -> float:
    """Partner map sigma(t) = t/(gamma t - 1); an involution with
    1/t + 1/sigma(t) = gamma and fixed point t = 2/gamma."""
    t = float(t)
    if t <= 1.0 / gamma:
        raise ValueError(f"t must exceed the pole 1/gamma = {1.0/gamma}, got {t}")
    return t / (gamma * t - 1.0)


def n_gamma(t: float, gamma: float) -> float:
    """Tail-mass function gamma_tail(t) + gamma_tail(sigma(t)).

    Up to the factor e^{omega+1} this is the profile mass of the pair
    (t, sigma(t)); its critical points are exactly the pair-system
    solutions, with a local maximum at the symmetric point 2/gamma once
    gamma > 2.
    """
    return gamma_tail(t) + gamma_tail(sigma_map(t, gamma))


def profile(params: GroundStateParams, x):
    """Sample the stationary profile at positions x (vectorized, x != 0).

    The phase convention is real-valued with a sign change across the
    origin: positive Gaussian hump for x > 0, negative for x < 0.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa == 0.0):
        raise ValueError("the profile is defined on the punctured line; x=0 has one-sided traces only")
    amp = math.exp(0.5 * (params.omega + 1.0))
    out = np.where(
        xa > 0,
        amp * np.exp(-0.5 * (xa + params.t1) ** 2),
        -amp * np.exp(-0.5 * (xa - params.t2) ** 2),
    )
    return out.astype(complex)


def mass_closed_form(params: GroundStateParams) -> float:
    """Exact squared L2 norm of the profile: e^{omega+1} (Gamma(t1) + Gamma(t2))."""
    return math.exp(params.omega + 1.0) * (gamma_tail(params.t1) + gamma_tail(params.t2))


def action_closed_form(params: GroundStateParams) -> float:
    """Exact action of the profile, equal to half its mass.

    On the constraint set where the scaling derivative of the action
    vanishes, the action reduces to half the squared L2 norm, and the
    mass integral of the two Gaussian humps is elementary.
    """
    return 0.5 * mass_closed_form(params)


def d_gamma(gamma: float, omega: float) -> float:
    """Least action over all stationary branches at (gamma, omega)."""
    return min(bifurcation_point(gamma, omega).actions)


def dgamma_lower_bound(gamma: float, omega: float) -> float:
    """Lower bound (1/4) sqrt(pi/2) e^{omega+1} e^{-8/gamma^2} for the
    least action, valid for every gamma > 0."""
    _check_gamma(gamma)
    _check_omega(omega)
    return 0.25 * math.sqrt(math.pi / 2.0) * math.exp(omega + 1.0) * math.exp(-8.0 / (gamma * gamma))


def d_zero(omega: float) -> float:
    """Least action e^{omega+1} sqrt(pi)/4 over half-line-supported states;
    a strict upper bound for the interacting problem at every gamma."""
    _check_omega(omega)
    return math.exp(omega + 1.0) * SQRT_PI / 4.0


def d_free_line(omega: float) -> float:
    """Least action e^{omega+1} sqrt(pi)/2 of the free-line Gaussian."""
    _check_omega(omega)
    return math.exp(omega + 1.0) * SQRT_PI / 2.0


def ground_states(gamma: float, omega: float) -> list[GroundStateParams]:
    """All stationary branches at (gamma, omega), symmetric branch first."""
    pairs = solve_3s(gamma)
    tags = [Branch.SYMMETRIC, Branch.ASYMMETRIC_LEFT, Branch.ASYMMETRIC_RIGHT]
    return [
        GroundStateParams(gamma=gamma, omega=omega, t1=t1, t2=t2, branch=tag)
        for (t1, t2), tag in zip(pairs, tags)
    ]


def branch_params(gamma: float, omega: float, branch: Branch) -> GroundStateParams:
    """The requested branch, or ValueError where it does not exist."""
    for p in ground_states(gamma, omega):
        if p.branch is branch:
            return p
    raise ValueError(f"branch {branch.value} does not exist at gamma = {gamma} "
                     "(asymmetric branches require gamma > 2)")


def bifurcation_point(gamma: float, omega: float) -> BifurcationPoint:
    """Branches and their closed-form actions at a single gamma."""
    branches = tuple(ground_states(gamma, omega))
    actions = tuple(action_closed_form(p) for p in branches)
    return BifurcationPoint(gamma=gamma, branches=branches, actions=actions)


def bifurcation_sweep(
    gamma_min: float,
    gamma_max: float,
    steps: int,
    omega: float,
) -> list[BifurcationPoint]:
    """Branch data on a uniform gamma grid; the branch count jumps from
    one to three where the grid crosses gamma = 2."""
    if not (0.0 < gamma_min <= gamma_max < math.inf):
        raise ValueError(
            f"need 0 < gamma_min <= gamma_max < inf, got [{gamma_min}, {gamma_max}]")
    if steps < (1 if gamma_min == gamma_max else 2):
        raise ValueError(f"steps must be >= 2 (>= 1 for a single point), got {steps}")
    if gamma_min == gamma_max:
        grid = [gamma_min]
    else:
        grid = list(np.linspace(gamma_min, gamma_max, steps))
    return [bifurcation_point(g, omega) for g in grid]
