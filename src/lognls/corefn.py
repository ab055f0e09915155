"""Scalar special functions for the logarithmic nonlinearity.

The nonlinear term u log|u|^2 is awkward near u = 0: the entropy density
s^2 log s^2 is neither convex nor concave and its derivative blows up.
Everything in this module is built around the standard decomposition of
that density into a difference of two convex pieces,

    F(s) = s^2 log s^2 = B(s) - A(s),

where A is the nonnegative convex branch function (quadratic-log below
s = e^-3, quadratic above) and B = F + A.  From A and B come:

* the pointwise maps a(z), b(z) with b - a = z log|z|^2,
* their Lipschitz regularizations a_m, b_m, g_m = b_m - a_m, which clamp
  the logarithm outside the band 1/m <= |z| <= m, and the integral G_m,
* the Luxemburg (gauge) norm of the Orlicz space generated by A, found by
  bisection on the gauge k after one sort of the amplitudes: summed over
  the samples, each branch of A(s/k) is a quadratic in 1/k (times log k
  on the low branch) whose coefficients are prefix or suffix sums over
  the sorted amplitudes, so every bisection step costs one binary search,
* the Gaussian tail integral gamma_tail(t) = int_t^inf exp(-s^2) ds used
  by the closed-form ground-state masses.

All functions are pure; arrays are accepted where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RegularizationLevel",
    "eval_F",
    "entropy_density",
    "eval_A",
    "eval_B",
    "eval_a",
    "eval_b",
    "eval_am",
    "eval_bm",
    "eval_gm",
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


@dataclass(frozen=True)
class RegularizationLevel:
    """Clamping level m >= 1 for the regularized nonlinearity.

    The logarithm log|z|^2 is used unchanged on 1/m <= |z| <= m and
    frozen (via a_m, b_m) outside that band.  m may be any real >= 1.
    """

    m: float

    def __post_init__(self):
        if not math.isfinite(self.m) or self.m < 1.0:
            raise ValueError(f"regularization level must be finite and >= 1, got {self.m}")


def _level(m) -> float:
    if isinstance(m, RegularizationLevel):
        return m.m
    m = float(m)
    if not math.isfinite(m) or m < 1.0:
        raise ValueError(f"regularization level must be finite and >= 1, got {m}")
    return m


def _check_scalar_nonneg(s) -> float:
    s = float(s)
    if not math.isfinite(s) or s < 0.0:
        raise ValueError(f"argument must be a finite nonnegative real, got {s}")
    return s


def entropy_density(s):
    """Entropy density s^2 log s^2 of amplitudes s >= 0, vectorized, with
    the continuous extension F(0) = 0 (also where s^2 underflows to 0)."""
    s2 = np.asarray(s, dtype=float) ** 2
    out = np.zeros_like(s2)
    nz = s2 > 0.0
    out[nz] = s2[nz] * np.log(s2[nz])
    return out


def _A_arr(s):
    """Convex branch function (array version)."""
    s = np.asarray(s, dtype=float)
    lo = -entropy_density(np.minimum(s, _E3))
    hi = 3.0 * s**2 + 4.0 * _E3 * s - _E6
    return np.where(s <= _E3, lo, hi)


def _B_arr(s):
    """B = F + A; identically zero on [0, e^-3] (array version)."""
    return entropy_density(s) + _A_arr(s)


def eval_F(s) -> float:
    """Entropy density s^2 log(s^2), continuously extended by F(0) = 0."""
    s = _check_scalar_nonneg(s)
    s2 = s * s
    if s2 == 0.0:  # s == 0, or s^2 underflows (s < ~1.5e-162)
        return 0.0
    return s2 * math.log(s2)


def eval_A(s) -> float:
    """Convex branch: -s^2 log(s^2) for s <= e^-3, else 3s^2 + 4e^-3 s - e^-6."""
    s = _check_scalar_nonneg(s)
    if s <= _E3:
        return -eval_F(s)
    return 3.0 * s * s + 4.0 * _E3 * s - _E6


def eval_B(s) -> float:
    """B(s) = F(s) + A(s); vanishes identically on [0, e^-3]."""
    s = _check_scalar_nonneg(s)
    return eval_F(s) + eval_A(s)


def _check_complex(z) -> complex:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("argument must be finite")
    return z


def eval_a(z) -> complex:
    """a(z) = z A(|z|)/|z|^2, extended by a(0) = 0."""
    z = _check_complex(z)
    r = abs(z)
    if r == 0.0:
        return 0.0j
    r2 = r * r
    if r2 == 0.0:  # r^2 underflows; on this branch A(r)/r^2 = -log r^2
        return z * (-2.0 * math.log(r))
    return z * (eval_A(r) / r2)


def eval_b(z) -> complex:
    """b(z) = z B(|z|)/|z|^2, extended by b(0) = 0; b - a = z log|z|^2."""
    z = _check_complex(z)
    r = abs(z)
    r2 = r * r
    if r2 == 0.0:  # z == 0, or r^2 underflows; B vanishes on [0, e^-3]
        return 0.0j
    return z * (eval_B(r) / r2)


def eval_am(z, m) -> complex:
    """Regularized a: equal to a(z) for |z| >= 1/m, linear (m z a(1/m)) below."""
    m = _level(m)
    z = _check_complex(z)
    r = abs(z)
    if r >= 1.0 / m:
        return eval_a(z)
    return m * z * eval_a(1.0 / m)


def eval_bm(z, m) -> complex:
    """Regularized b: equal to b(z) for |z| <= m, linear (z b(m)/m) above."""
    m = _level(m)
    z = _check_complex(z)
    r = abs(z)
    if r <= m:
        return eval_b(z)
    return (z / m) * eval_b(m)


def eval_gm(z, m) -> complex:
    """g_m(z) = b_m(z) - a_m(z); equals z log|z|^2 on 1/m <= |z| <= m."""
    return eval_bm(z, m) - eval_am(z, m)


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
    # floor the square, not s: s * s underflows to 0 below ~1.5e-162, where
    # B vanishes and the a_m rate is frozen (for m < ~6e161); the floor only
    # keeps the quotients from being 0/0
    s2 = np.maximum(s * s, _TINY)
    # b_m rate: B(s)/s^2 capped at B(m)/m^2 for s >= m
    b_rate = np.where(s <= m, _B_arr(s) / s2, eval_B(m) / (m * m))
    # a_m rate: A(s)/s^2 frozen at m^2 A(1/m) for s <= 1/m
    a_rate = np.where(s >= 1.0 / m, _A_arr(s) / s2, m * m * eval_A(1.0 / m))
    rate = b_rate - a_rate
    if rate.ndim == 0:
        return float(rate)
    return rate


def _P_log(x):
    """Antiderivative of s log s^2, zero at 0: x^2 log(x^2)/2 - x^2/2."""
    x = np.asarray(x, dtype=float)
    return 0.5 * entropy_density(x) - 0.5 * x**2


def _P_b(x):
    """Antiderivative of b(s) = B(s)/s on [0, x]; zero on [0, e^-3]."""
    x = np.asarray(x, dtype=float)
    y = np.maximum(x, _E3)
    # integral of s log s^2 + 3 s + 4 e^-3 - e^-6/s from e^-3 to y
    val = (
        _P_log(y)
        - _P_log(_E3)
        + 1.5 * (y**2 - _E6)
        + 4.0 * _E3 * (y - _E3)
        - _E6 * (np.log(y) + 3.0)
    )
    return np.where(x <= _E3, 0.0, val)


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


def eval_Gm(z, m=None):
    """G_m(z) = int_0^|z| g_m(s) ds, in closed form; vectorized.

    For m = None this is the unregularized primitive
    |z|^2 log(|z|^2)/2 - |z|^2/2 of s log s^2.
    """
    x = np.abs(np.asarray(z))
    if m is None:
        out = _P_log(x)
        return float(out) if out.ndim == 0 else out
    m = _level(m)
    t1 = 1.0 / m
    c_low = m * m * eval_A(t1)  # frozen a_m rate below 1/m
    b_m_rate = eval_B(m) / (m * m)  # frozen b_m rate above m
    # region |z| <= 1/m : int b(s) - c_low * s
    g_low = _P_b(x) - 0.5 * c_low * x**2
    g_at_t1 = float(_P_b(t1) - 0.5 * c_low * t1 * t1)
    # region 1/m <= |z| <= m : g_m = s log s^2
    xm = np.clip(x, t1, m)
    g_mid = g_at_t1 + _P_log(xm) - _P_log(t1)
    g_at_m = g_at_t1 + float(_P_log(m) - _P_log(t1))
    # region |z| >= m : g_m = b_m_rate * s - A(s)/s
    xh = np.maximum(x, m)
    g_high = g_at_m + 0.5 * b_m_rate * (xh**2 - m * m) - (_P_a(xh) - float(_P_a(m)))
    out = np.where(x <= t1, g_low, np.where(x <= m, g_mid, g_high))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# Gaussian tail integral
# ----------------------------------------------------------------------

def _erf_series(x: float) -> float:
    # erf(x) = 2/sqrt(pi) e^{-x^2} sum_k 2^k x^{2k+1} / (1*3*...*(2k+1));
    # all terms positive, no cancellation; used for 0 <= x < 1
    s = 0.0
    term = x
    k = 0
    while True:
        s += term
        k += 1
        term *= 2.0 * x * x / (2.0 * k + 1.0)
        if term < 1e-18 * s or k > 200:
            break
    return 2.0 / SQRT_PI * math.exp(-x * x) * s


def _erfc_cf(x: float, nterms: int) -> float:
    # Laplace continued fraction, evaluated bottom-up:
    # erfc(x) = e^{-x^2}/sqrt(pi) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    f = 0.0
    for k in range(nterms, 0, -1):
        f = (0.5 * k) / (x + f)
    return math.exp(-x * x) / SQRT_PI / (x + f)


def _erfc(x: float) -> float:
    if x < 0.0:
        return 2.0 - _erfc(-x)
    if x < 1.0:
        return 1.0 - _erf_series(x)
    if x * x > 745.0:  # e^{-x^2} underflows; tail below 1e-300
        return 0.0
    # the fraction needs more terms as x decreases toward 1
    return _erfc_cf(x, 300 if x < 2.0 else 120)


def gamma_tail(t) -> float:
    """Tail integral int_t^inf exp(-s^2) ds = (sqrt(pi)/2) erfc(t).

    Strictly decreasing, gamma_tail(0) = sqrt(pi)/2, and
    gamma_tail(t) + gamma_tail(-t) = sqrt(pi).
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError(f"argument must be finite, got {t}")
    if t >= 0.0:
        return 0.5 * SQRT_PI * _erfc(t)
    return SQRT_PI - 0.5 * SQRT_PI * _erfc(-t)


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


def luxemburg_norm(values, dx: float, rtol: float = 1e-10) -> float:
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
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if modular_at(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
