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
  bisection on the gauge k after one sort of the amplitudes: summed over
  the samples, each branch of A(s/k) is a quadratic in 1/k (times log k
  on the low branch) whose coefficients are prefix or suffix sums over
  the sorted amplitudes, so every bisection step costs one binary search,
* the Gaussian tail integral gamma_tail(t) = int_t^inf exp(-s^2) ds used
  by the closed-form ground-state masses, from libm's erfc.

All functions are pure.  The densities, rates and eval_Gm take arrays of
amplitudes and return arrays.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entropy_density",
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
_TINY = float(np.finfo(float).tiny)
# smallest positive (subnormal) double
_SUBNORMAL = math.ulp(0.0)
# relative width at which the Luxemburg bisection stops
_LUX_RTOL = 1e-10


def _level(m) -> float:
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(f"regularization level must be finite and >= 1, got {m}")
    return m


def entropy_density(s):
    """Entropy density s^2 log s^2 of amplitudes s >= 0, vectorized, with
    the continuous extension F(0) = 0 (also where s^2 underflows to 0)."""
    s2 = np.asarray(s, dtype=float) ** 2
    return s2 * np.log(np.where(s2 > 0.0, s2, 1.0))


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
        return np.log(np.maximum(s, 1e-14) ** 2)
    m = _level(m)
    # b_m's rate B(s)/s^2 is frozen above m, a_m's rate A(s)/s^2 below 1/m
    return _rate_B(np.minimum(s, m)) - _rate_A(np.maximum(s, 1.0 / m))


def _P_log(x):
    """Antiderivative of s log s^2, zero at 0: x^2 log(x^2)/2 - x^2/2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * entropy_density(x) - 0.5 * x**2


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


def _sorted_modular(vals: np.ndarray, dx: float, vmax: float):
    """k -> modular(vals, dx, k), in O(log n) per k after one sort.

    With t = |u|/vmax sorted and x = vmax/k, the samples with t x <= e^-3
    are a prefix of t and the rest a suffix, and the two branches of A sum
    to
        -x^2 (sum F(t) + log(x^2) sum t^2)               over the prefix,
        3 x^2 sum t^2 + 4 e^-3 x sum t - e^-6 count      over the suffix.
    Row j of `sums` holds the prefix sums of F(t) and t^2 over t[:j] and
    the suffix sums of t^2 and t over t[j:].  Scaling by vmax keeps t^2
    clear of overflow whatever the size of the samples.
    """
    t = vals / vmax
    t.sort()
    n = t.size
    sums = np.zeros((n + 1, 4))
    np.cumsum(entropy_density(t), out=sums[1:, 0])
    t2 = t * t
    np.cumsum(t2, out=sums[1:, 1])
    np.cumsum(t2[::-1], out=sums[-2::-1, 2])
    np.cumsum(t[::-1], out=sums[-2::-1, 3])

    def modular_at(k: float) -> float:
        x = vmax / k
        x2 = x * x
        if x2 == 0.0:  # every |u|/k squares to 0, as in entropy_density
            return 0.0
        if x2 == math.inf:  # A(max |u|/k) overflows
            return math.inf
        j = int(np.searchsorted(t, _E3 / x, side="right"))
        f_lo, q_lo, q_hi, l_hi = sums[j].tolist()
        low = -x2 * (f_lo + math.log(x2) * q_lo)
        high = 3.0 * x2 * q_hi + 4.0 * _E3 * x * l_hi - _E6 * (n - j)
        return dx * (low + high)

    return modular_at


def luxemburg_norm(values, dx: float) -> float:
    """Gauge norm inf{k > 0 : int A(|u|/k) dx <= 1} by monotone bisection.

    The map k -> int A(|u|/k) is continuous and strictly decreasing
    wherever it is positive, so bisection on k converges
    unconditionally.  The amplitudes are sorted once; each bisection step
    then evaluates the modular from prefix sums (see _sorted_modular)
    with one binary search.  The bracket starts at [1e-12, max|u| n dx + 1],
    doubles its upper end until the modular is <= 1 there, and halves its
    lower end (moving the upper end down with it) until the modular
    exceeds 1 there, so the norm is exactly homogeneous down to the
    smallest normal double.  The zero field has norm 0.
    """
    vals = np.abs(np.asarray(values, dtype=complex))
    if not np.all(np.isfinite(vals)):
        raise ValueError("field samples must be finite")
    vmax = float(np.max(vals)) if vals.size else 0.0
    if vmax == 0.0:
        return 0.0
    modular_at = _sorted_modular(vals, dx, vmax)
    lo = 1e-12
    hi = vmax * (dx * vals.size) + 1.0
    while modular_at(hi) > 1.0:
        hi *= 2.0
    while modular_at(lo) <= 1.0 and lo > _TINY:
        hi, lo = lo, 0.5 * lo
    while hi - lo > _LUX_RTOL * hi:
        mid = 0.5 * (lo + hi)
        if modular_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
