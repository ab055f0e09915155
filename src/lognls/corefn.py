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
  g_m(z) = z gm_phase_rate(|z|, m), and its primitive G_m, eval_Gm; any
  finite level m >= 1 gives finite values,
* the Luxemburg (gauge) norm of the Orlicz space generated by A, found by
  monotone Newton in x = max|u|/k after one sort of the amplitudes:
  summed over the samples, each branch of A(x t) is a quadratic in x
  (times log x on the low branch) whose coefficients are slice sums over
  the sorted t = |u|/max|u|, so every Newton step costs one binary search
  and four slice sums, and a handful of steps reach the root to rounding,
* the Gaussian tail integral gamma_tail(t) = int_t^inf exp(-s^2) ds used
  by the closed-form ground-state masses, from libm's erfc.

All functions are pure.  The densities, rates and eval_Gm take arrays of
amplitudes (entropy_of_squares takes their squares) and return arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entropy_density",
    "entropy_of_squares",
    "eval_Gm",
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

    For m = None the unregularized rate log s^2 is returned with the
    amplitude floored at 1e-14 inside the logarithm, which is the default
    nonlinearity of the time integrator.
    """
    s = np.asarray(s, dtype=float)
    if m is None:
        return _floored_log_rate(s)
    m = _level(m)
    # b_m's rate B(s)/s^2 is frozen above m, a_m's rate A(s)/s^2 below 1/m
    return _rate_B(np.minimum(s, m)) - _rate_A(np.maximum(s, 1.0 / m))


def _floored_log_rate(s, out=None):
    """The unregularized rate log s^2 with s floored at 1e-14, written to
    out (which may be s) when it is given."""
    a = np.maximum(s, 1e-14, out=out)
    a **= 2  # in place on an array; a numpy float stays a scalar power
    return np.log(a, out=out)


def _P_log(x):
    """Antiderivative of s log s^2, zero at 0: x^2 log(x^2)/2 - x^2/2."""
    return _P_log_of_squares(np.asarray(x, dtype=float) ** 2)


def _P_log_of_squares(x2):
    """_P_log from the squares x2 = x^2."""
    return 0.5 * entropy_of_squares(x2) - 0.5 * x2


def _P_a(x):
    """Antiderivative of a(s) = A(s)/s on [0, x]."""
    x = np.asarray(x, dtype=float)
    lo = -_P_log(np.minimum(x, _E3))
    y = np.maximum(x, _E3)
    hi = (
        -_P_log(_E3)
        + 1.5 * (y**2 - _E6)
        + 4.0 * _E3 * (y - _E3)
        - _E6 * (np.log(y) + 3.0)
    )
    return np.where(x <= _E3, lo, hi)


def _P_b(x):
    """Antiderivative of b(s) = B(s)/s = s log s^2 + a(s) on [0, x]; zero
    on [0, e^-3]."""
    return _P_log(x) + _P_a(x)


def eval_Gm(z, m=None):
    """G_m(z) = int_0^|z| g_m(s) ds, in closed form; vectorized.

    For m = None this is the unregularized primitive
    |z|^2 log(|z|^2)/2 - |z|^2/2 of s log s^2.
    """
    x = np.abs(np.asarray(z))
    if m is None:
        return _P_log(x)
    m = _level(m)
    t1 = 1.0 / m
    # int_0^x b_m: the primitive of b up to m, then b's rate frozen at m
    xb = np.minimum(x, m)
    b_part = _P_b(xb) + 0.5 * float(_rate_B(m)) * (x - xb) * (x + xb)
    # int_0^x a_m: a's rate frozen at 1/m below 1/m, then the primitive of
    # a; the difference is formed first so that values below 1/m survive
    a_part = (0.5 * float(_rate_A(t1)) * np.minimum(x, t1) ** 2
              + (_P_a(np.maximum(x, t1)) - float(_P_a(t1))))
    return b_part - a_part


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
    for evals in range(1, _GAUGE_MAX_EVALS + 1):
        j = int(t.searchsorted(_E3 / x, "right"))
        q_lo, q_hi, l_hi = float(t2[:j].sum()), float(t2[j:].sum()), float(t[j:].sum())
        low = float(f[:j].sum()) + math.log(x * x) * q_lo  # sum t^2 log (t x)^2 over the prefix
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
