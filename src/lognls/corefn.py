"""Special functions for the logarithmic nonlinearity.

The nonlinear term u log|u|^2 is awkward near u = 0: the entropy density
s^2 log s^2 is neither convex nor concave and its derivative blows up.
Everything in this module is built around the standard decomposition of
that density into a difference of two convex pieces,

    F(s) = s^2 log s^2 = B(s) - A(s),

where A is the nonnegative convex branch function (quadratic-log below
s = e^-3, quadratic above) and B = F + A.  From A and B come:

* the rates A(s)/s^2 and B(s)/s^2 (_rate_A, _rate_B), each in closed form
  without forming s^2, which would underflow or overflow at extreme
  amplitudes; the pointwise maps are a(z) = z A(|z|)/|z|^2 and
  b(z) = z B(|z|)/|z|^2, with b - a = z log|z|^2,
* the rate of the Lipschitz-clamped map g_m = b_m - a_m, gm_phase_rate,
  which freezes a's rate below |z| = 1/m and b's above |z| = m, so that
  g_m(z) = z gm_phase_rate(|z|, m); any finite level m >= 1 gives finite
  values,
* the Luxemburg (gauge) norm of the Orlicz space generated by A, found by
  monotone Newton in x = max|u|/k after one sort of the amplitudes:
  summed over the samples, each branch of A(x t) is a quadratic in x
  (times log x on the low branch) whose coefficients are slice sums over
  the sorted t = |u|/max|u|, so a Newton step costs one binary search
  and four slice sums when the split moves and a few scalar operations
  when it does not, and a handful of steps reach the root to rounding,
* the Gaussian tail integral gamma_tail(t) = int_t^inf exp(-s^2) ds used
  by the closed-form ground-state masses, from libm's erfc.

All functions are pure.  The densities and rates take arrays of
amplitudes (entropy_of_squares takes their squares) and return arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entropy_density",
    "entropy_of_squares",
    "gm_phase_rate",
    "gamma_tail",
    "luxemburg_norm",
    "modular",
    "SQRT_PI",
    "A_SPLIT",
]

SQRT_PI = math.sqrt(math.pi)

# junction between the two branches of A
A_SPLIT = math.exp(-3.0)
_E3 = A_SPLIT
_E6 = A_SPLIT * A_SPLIT
# smallest positive (subnormal) double
_SUBNORMAL = math.ulp(0.0)
# smallest normal double, the floor of |v|^2 inside the logarithm
_TINY = np.finfo(float).tiny
_LOG_TINY = float(np.log(_TINY))  # _log_abs2 of every floored sample
# modular evaluations after which Newton on the Luxemburg gauge gives up
_GAUGE_MAX_EVALS = 100


def _level(m) -> float:
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(f"regularization level must be finite and >= 1, got {m}")
    return m


def entropy_density(s):
    """Entropy density s^2 log s^2 of amplitudes s >= 0, vectorized, with
    the continuous extension F(0) = 0 (also where s^2 underflows to 0)."""
    return entropy_of_squares(np.asarray(s, dtype=float) ** 2)


def entropy_of_squares(s2: np.ndarray) -> np.ndarray:
    """The entropy density s2 log s2 of squared amplitudes s2 >= 0, 0 at
    s2 = 0: the one implementation, for callers that hold the squares."""
    # one copy, logged and multiplied in place: the bits of
    # s2 * log(where(s2 > 0, s2, 1)), a numpy float for a scalar s2
    t = np.array(s2, dtype=float)
    t[~(t > 0.0)] = 1.0
    np.log(t, out=t)
    np.multiply(s2, t, out=t)
    return t if t.ndim else t[()]


def _A_arr(s):
    """Convex branch A: -s^2 log(s^2) for s <= e^-3, else 3s^2 + 4e^-3 s -
    e^-6 (array version)."""
    s = np.asarray(s, dtype=float)
    lo = -entropy_density(np.minimum(s, _E3))
    hi = 3.0 * s**2 + 4.0 * _E3 * s - _E6
    return np.where(s <= _E3, lo, hi)


def _rate_A(s):
    """A(s)/s^2 without forming s^2 (array version): -2 log s up to e^-3,
    with s floored at the smallest positive double inside the log, and
    3 + (4e^-3 - e^-6/s)/s above."""
    s = np.asarray(s, dtype=float)
    lo = -2.0 * np.log(np.clip(s, _SUBNORMAL, _E3))
    y = np.maximum(s, _E3)
    return np.where(s <= _E3, lo, 3.0 + (4.0 * _E3 - _E6 / y) / y)


def _rate_B(s):
    """B(s)/s^2 without forming s^2 (array version): 0 up to e^-3, and
    2 log s + A(s)/s^2 above."""
    s = np.asarray(s, dtype=float)
    return np.where(s <= _E3, 0.0, 2.0 * np.log(np.maximum(s, _E3)) + _rate_A(s))


def gm_phase_rate(s, m=None):
    """Real rate r with g_m(z) = z * r(|z|), vectorized over amplitudes s >= 0.

    g_m is the paper's regularization, used in its existence proof; the
    time integrator steps with the unregularized rate, which m = None
    returns: log s^2 with s^2 floored at the smallest normal double
    inside the logarithm, as in _log_abs2.
    """
    s = np.asarray(s, dtype=float)
    if m is None:
        return _log_abs2(s, np.empty_like(s))[()]  # a numpy float for a scalar s
    m = _level(m)
    # b_m's rate B(s)/s^2 is frozen above m, a_m's rate A(s)/s^2 below 1/m
    return _rate_B(np.minimum(s, m)) - _rate_A(np.maximum(s, 1.0 / m))


def _abs2(values: np.ndarray, out=None) -> np.ndarray:
    """|v|^2 of the samples, bitwise np.abs(values) ** 2: v * v when they
    are real.  Written to out when it is given."""
    if values.dtype.kind == "c":
        values = out = np.abs(values, out=out)
    return np.multiply(values, values, out=out)


def _log_abs2(values: np.ndarray, out=None) -> np.ndarray:
    """log|v|^2 of the samples with |v|^2 floored at the smallest normal
    double: the one floored logarithm, so that a zero sample gives a finite
    rate (v log|v|^2 is then 0 there).  Written to the real array out, which
    may be real values, when it is given; a 0-d values needs one."""
    a = _abs2(values, out)
    np.maximum(a, _TINY, out=a)
    return np.log(a, out=a)


# ----------------------------------------------------------------------
# Gaussian tail integral
# ----------------------------------------------------------------------

def gamma_tail(t) -> float:
    """Tail integral int_t^inf exp(-s^2) ds = (sqrt(pi)/2) erfc(t).

    Strictly decreasing, gamma_tail(0) = sqrt(pi)/2, and
    gamma_tail(t) + gamma_tail(-t) = sqrt(pi).
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t}")
    return 0.5 * SQRT_PI * math.erfc(t)


# ----------------------------------------------------------------------
# Luxemburg norm
# ----------------------------------------------------------------------

def modular(values, dx: float, k: float = 1.0) -> float:
    """The modular int A(|u|/k) dx on a uniform grid (midpoint rule)."""
    vals = np.abs(np.asarray(values))
    return float(dx * np.sum(_A_arr(vals / k)))


def luxemburg_norm(values, dx: float) -> float:
    """Gauge norm inf{k > 0 : int A(|u|/k) dx <= 1}, by Newton's method.

    With t = |u|/max|u| sorted once and x = max|u|/k, the modular
    rho(x) = dx sum A(t x) is convex and increasing in x, and C^1 where a
    sample crosses the branch junction e^-3.  The samples with t x <= e^-3
    are a prefix of t and the rest a suffix, so rho and rho' are sums of
    x^2, x^2 log x^2, x and 1 times slice sums of F(t), t^2 and t, split
    at one binary search.  Newton starts at the positive root of the
    all-quadratic continuation 3s^2 + 4e^-3 s - e^-6 of A, which lies
    below A, so it starts above the root and falls monotonically to it.
    It stops when its step falls below a few ulps of x or stops
    shrinking, and raises RuntimeError if neither happens within
    _GAUGE_MAX_EVALS (100) modular evaluations.  Dividing by max|u|
    keeps t^2 clear of overflow whatever the size of the samples, so the
    norm is homogeneous down to the smallest normal double.  The zero
    field has norm 0; dx must be positive and finite.
    """
    return _gauge(np.abs(np.asarray(values, dtype=complex)), dx)[0]


def _gauge(s: np.ndarray, dx: float) -> tuple[float, int]:
    """luxemburg_norm of the amplitudes s >= 0, and the number of modular
    evaluations Newton took."""
    if not 0.0 < dx < math.inf:
        raise ValueError(f"dx must be positive and finite, got {dx}")
    t = np.sort(s, axis=None)
    vmax = float(t[-1]) if t.size else 0.0
    if not math.isfinite(vmax):
        raise ValueError("field samples must be finite")
    if vmax == 0.0:
        return 0.0, 0
    t = t[t.searchsorted(0.0, "right"):] / vmax
    t2 = t * t
    f = entropy_of_squares(t2)
    # root of dx sum (3 (t x)^2 + 4e^-3 t x - e^-6) = 1 over the nonzero t
    a, b, c = 3.0 * float(t2.sum()), 2.0 * _E3 * float(t.sum()), _E6 * t.size + 1.0 / dx
    x = c / (b + math.sqrt(b * b + a * c))
    last = math.inf
    t_lo = t_hi = 0.0  # the split j holds while t[j - 1] <= e^-3/x < t[j]
    for evals in range(1, _GAUGE_MAX_EVALS + 1):
        if not t_lo <= _E3 / x < t_hi:  # the split moved: search and re-sum
            j = int(t.searchsorted(_E3 / x, "right"))
            t_lo = float(t[j - 1]) if j else -math.inf
            t_hi = float(t[j]) if j < t.size else math.inf
            q_lo, q_hi, l_hi = float(t2[:j].sum()), float(t2[j:].sum()), float(t[j:].sum())
            f_lo = float(f[:j].sum())
        low = f_lo + math.log(x * x) * q_lo  # sum t^2 log (t x)^2 over the prefix
        rho = dx * (x * x * (3.0 * q_hi - low) + 4.0 * _E3 * x * l_hi - _E6 * (t.size - j))
        drho = dx * (2.0 * x * (3.0 * q_hi - low - q_lo) + 4.0 * _E3 * l_hi)
        step = (rho - 1.0) / drho
        if abs(step) >= last:  # at the rounding floor of rho
            return vmax / x, evals
        x -= step
        if abs(step) <= 4.0 * math.ulp(x):
            return vmax / x, evals
        last = abs(step)
    raise RuntimeError(
        f"Luxemburg gauge: Newton did not settle in {_GAUGE_MAX_EVALS} modular evaluations")
