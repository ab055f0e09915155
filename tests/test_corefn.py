"""Scalar function layer: exact values, identities, clamping, tail integral."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erfc as scipy_erfc

from lognls import corefn
from lognls.corefn import (
    eval_Gm,
    gamma_tail,
    gm_phase_rate,
    luxemburg_norm,
    modular,
)

E3 = math.exp(-3.0)
SQRT_PI = math.sqrt(math.pi)


F, A = corefn.entropy_density, corefn._A_arr
# a(z) = z rate_A(|z|), b(z) = z rate_B(|z|), g_m(z) = z gm_phase_rate(|z|, m)
rate_A, rate_B = corefn._rate_A, corefn._rate_B


def B(s):
    """B = F + A; identically zero on [0, e^-3]."""
    return F(s) + A(s)


class TestF:
    def test_zero_and_one(self):
        assert F(0.0) == 0.0
        assert F(1.0) == 0.0

    def test_sqrt_e(self):
        # direct arithmetic: s^2 * 2 log s at s = e^{1/2}
        s = math.exp(0.5)
        assert F(s) == pytest.approx(s * s * 2.0 * math.log(s), rel=1e-14)
        assert F(s) == pytest.approx(math.e, rel=1e-14)

    def test_underflowing_square(self):
        # s^2 underflows to 0 below ~1.5e-162; F is continuous there
        assert F(1e-200) == 0.0
        assert A(1e-200) == 0.0
        assert B(1e-200) == 0.0

    def test_density_matches_masked_formula(self):
        # s^2 log s^2 where s^2 > 0 and 0 elsewhere, down to the same bits,
        # also where s^2 is subnormal or underflows to 0
        s = np.array([0.0, 1e-170, 1e-160, math.ulp(0.0), 1.0, 1e150])
        s2 = s**2
        want = np.zeros_like(s2)
        nz = s2 > 0.0
        want[nz] = s2[nz] * np.log(s2[nz])
        assert F(s).tobytes() == want.tobytes()

    def test_entropy_of_squares_matches_where_form(self):
        # the in-place form gives the bits of s2 log(where(s2 > 0, s2, 1)),
        # also at -0.0, the smallest subnormal, inf and nan, and a numpy
        # float (not a 0-d array) for a scalar
        def want(s2):
            return s2 * np.log(np.where(s2 > 0.0, s2, 1.0))

        s2 = np.array([0.0, -0.0, math.ulp(0.0), 1.0, math.inf, math.nan, 0.3, 1e300])
        with np.errstate(invalid="ignore"):
            assert corefn.entropy_of_squares(s2).tobytes() == want(s2).tobytes()
        for x in (0.0, -0.0, math.ulp(0.0), 1.0, 0.3, np.float64(2.5)):
            got = corefn.entropy_of_squares(x)
            assert type(got) is np.float64
            assert np.float64(got).tobytes() == np.float64(want(x)).tobytes()


class TestAB:
    def test_branch_junction_exact(self):
        # both branch formulas give 6 e^-6 at the junction
        lower = -E3**2 * math.log(E3**2)
        upper = 3.0 * E3**2 + 4.0 * E3 * E3 - math.exp(-6.0)
        assert lower == pytest.approx(6.0 * math.exp(-6.0), rel=1e-13)
        assert upper == pytest.approx(6.0 * math.exp(-6.0), rel=1e-13)
        assert A(E3) == pytest.approx(6.0 * math.exp(-6.0), rel=1e-13)

    def test_branch_continuity(self):
        for eps in (1e-6, 1e-8, 1e-10):
            gap = abs(A(E3 - eps) - A(E3 + eps))
            assert gap <= 1.5 * eps  # |A'(e^-3)| = 10 e^-3, so gap ~ 2 A' eps

    def test_A_zero(self):
        assert A(0.0) == 0.0

    def test_A_convex_increasing_nonneg(self):
        s = np.linspace(0.0, 3.0, 301)
        a = A(s)
        assert np.all(a >= 0.0)
        assert np.all(np.diff(a) >= 0.0)
        assert np.all(np.diff(a, 2) >= -1e-12)

    def test_B1(self):
        assert F(1.0) == 0.0
        assert B(1.0) == pytest.approx(3.0 + 4.0 * E3 - math.exp(-6.0), rel=1e-14)

    def test_B_vanishes_below_junction(self):
        for s in (0.0, 1e-8, 0.01, E3):
            assert B(s) == 0.0


class TestAB_pointwise:
    def test_zero(self):
        assert 0.0 * rate_A(0.0) == 0.0
        assert 0.0 * rate_B(0.0) == 0.0

    def test_b1_minus_a1(self):
        assert rate_B(1.0) - rate_A(1.0) == 0.0

    def test_underflowing_modulus(self):
        # |z|^2 underflows or is subnormal; a(z) = -2 z log|z| keeps full
        # precision and b(z) = 0 still holds
        for r in (1e-200, 3e-162, 1e-160, 1e-158):
            for z in (r + 0j, -r, 1j * r):
                want = -2.0 * z * math.log(r)
                assert abs(z * rate_A(abs(z)) - want) <= 1e-15 * abs(want)
                assert z * rate_B(abs(z)) == 0.0

    def test_identity_log_spaced(self):
        rng = np.random.default_rng(7)
        for r in np.logspace(-8, 3, 120):
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            want = z * np.log(r * r)
            got = z * rate_B(abs(z)) - z * rate_A(abs(z))
            scale = max(1.0, abs(want))
            assert abs(got - want) <= 1e-13 * scale

    @given(
        r=st.floats(min_value=1e-6, max_value=1e2),
        phase=st.floats(min_value=0.0, max_value=2 * math.pi),
        theta=st.floats(min_value=0.0, max_value=2 * math.pi),
    )
    @settings(max_examples=200, deadline=None)
    def test_phase_equivariance(self, r, phase, theta):
        z = r * complex(math.cos(phase), math.sin(phase))
        w = complex(math.cos(theta), math.sin(theta))
        for rate in (rate_A, rate_B):
            fz = z * rate(abs(z))
            assert abs(w * z * rate(abs(w * z)) - w * fz) <= 1e-13 * max(1.0, abs(fz))


class TestGm:
    @pytest.mark.parametrize("m", [1.0, 2.0, 10.0, 100.0])
    def test_unit_modulus_fixed(self, m):
        for theta in (0.0, 1.0, 2.5):
            z = complex(math.cos(theta), math.sin(theta))
            assert abs(z * gm_phase_rate(abs(z), m)) <= 1e-14

    @pytest.mark.parametrize("m", [1.5, 5.0, 25.0, 200.0])
    def test_equals_log_inside_band(self, m):
        rng = np.random.default_rng(11)
        radii = np.exp(rng.uniform(math.log(1.0 / m), math.log(m), 40))
        for r in radii:
            z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
            want = z * math.log(r * r)
            got = z * gm_phase_rate(abs(z), m)
            assert abs(got - want) <= 5e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", [2.0, 30.0])
    def test_small_amplitude_piece(self, m):
        # below the lower threshold: g_m(z) = b(z) - m z a(1/m), whose rate
        # is rate_B(|z|) - rate_A(1/m)
        z = (0.5 / m) * np.exp(0.3j)
        want = z * (rate_B(abs(z)) - rate_A(1.0 / m))
        got = z * gm_phase_rate(abs(z), m)
        assert abs(got - want) <= 1e-15 * max(1.0, abs(want))

    @pytest.mark.parametrize("m", [1.0, 3.0, 50.0])
    def test_continuity_at_thresholds(self, m):
        for s0 in (1.0 / m, m):
            lo, hi = s0 * (1 - 1e-9), s0 * (1 + 1e-9)
            g_lo, g_hi = lo * gm_phase_rate(lo, m), hi * gm_phase_rate(hi, m)
            assert abs(g_lo - g_hi) <= 1e-6 * max(1.0, abs(g_hi))

    def test_orthogonal_to_rotation(self):
        # Re(g_m(z) conj(i z)) = 0: the clamped term never changes |u|
        rng = np.random.default_rng(3)
        for _ in range(100):
            z = complex(rng.normal(), rng.normal())
            g = z * gm_phase_rate(abs(z), 4.0)
            assert abs((g * np.conj(1j * z)).real) <= 1e-14 * max(1.0, abs(z) ** 2)

    def test_rate_frozen_below_underflow(self):
        # s * s underflows to 0 for s < ~1.5e-162; the rate must stay the frozen one
        m = 2.0
        frozen = -m * m * A(1.0 / m)
        rate = gm_phase_rate(np.array([0.0, 1e-200, 1e-100]), m)
        assert np.all(np.isfinite(rate))
        assert rate[0] == rate[1] == pytest.approx(frozen, rel=1e-15)
        assert rate[0] == rate[2]
        assert gm_phase_rate(0.0, m) == rate[0]

    @pytest.mark.parametrize("m", [1e160, 1e200, 1e300])
    def test_finite_at_huge_levels(self, m):
        # m * m overflows and 1/m^2 underflows; no square of a level is formed
        s = np.array([0.0, 1e-250, 0.5, 2.0])
        assert np.all(np.isfinite(gm_phase_rate(s, m)))
        assert np.all(np.isfinite(eval_Gm(s, m)))
        assert np.all(np.isfinite(s * gm_phase_rate(s, m)))
        # a_m(s) = s rate_A(max(s, 1/m))
        assert np.all(np.isfinite(s * rate_A(np.maximum(s, 1.0 / m))))

    def test_level_validation(self):
        for fn in (gm_phase_rate, eval_Gm):
            for m in (0.5, math.inf, 0.9):
                with pytest.raises(ValueError, match="regularization level"):
                    fn(1.0, m)


class TestGmPrimitive:
    @pytest.mark.parametrize("m", [1.5, 5.0, 40.0])
    def test_derivative_matches_gm(self, m):
        # centered differences of the primitive against the clamped map,
        # at points bounded away from the two clamping kinks
        x = np.array([0.01, 0.7 / m, 1.3 / m, 0.8 * m, 1.4 * m, 3.0 * m])
        h = 1e-6 * np.maximum(x, 1e-3)
        fd = (eval_Gm(x + h, m) - eval_Gm(x - h, m)) / (2 * h)
        assert fd == pytest.approx(x * gm_phase_rate(x, m), rel=2e-7, abs=1e-9)

    def test_zero(self):
        assert eval_Gm(0.0, 3.0) == 0.0
        assert eval_Gm(0.0) == 0.0

    def test_unclamped_primitive(self):
        x = np.array([0.1, 1.0, 7.3])
        want = 0.5 * x * x * np.log(x * x) - 0.5 * x * x
        assert eval_Gm(x) == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_quadrature_oracle(self):
        m = 4.0
        for x in (0.1, 1.0, 6.0):
            val, err = quad(lambda s: float(s * gm_phase_rate(s, m)), 0.0, x, limit=200)
            assert eval_Gm(x, m) == pytest.approx(val, abs=max(1e-10, 10 * err))


class TestGammaTail:
    def test_at_zero(self):
        assert gamma_tail(0.0) == pytest.approx(0.5 * SQRT_PI, rel=1e-15)

    def test_far_tail(self):
        assert gamma_tail(40.0) == 0.0

    def test_t1_pinned(self):
        # adaptive-quadrature oracle over [1, 40]
        val, err = quad(lambda s: math.exp(-s * s), 1.0, 40.0, limit=200)
        assert err < 1e-12
        assert gamma_tail(1.0) == pytest.approx(val, rel=1e-13)
        assert gamma_tail(1.0) == pytest.approx(0.13940279264033098, abs=2e-16)

    def test_against_scipy(self):
        # scipy's erfc is an implementation independent of libm's
        for t in np.concatenate([np.linspace(-6, 0, 121), np.linspace(0, 5, 401),
                                 np.linspace(5, 25, 81)]):
            ref = 0.5 * SQRT_PI * float(scipy_erfc(t))
            if ref == 0.0:
                assert gamma_tail(float(t)) == 0.0
            else:
                assert gamma_tail(float(t)) == pytest.approx(ref, rel=1e-14)

    def test_strictly_decreasing(self):
        ts = np.linspace(-5, 8, 300)
        vals = [gamma_tail(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]) if b > 0)

    def test_reflection(self):
        for t in (0.2, 1.0, 3.7):
            assert gamma_tail(t) + gamma_tail(-t) == pytest.approx(SQRT_PI, rel=1e-13)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            gamma_tail(math.nan)


class TestLuxemburg:
    def test_zero_field(self):
        assert luxemburg_norm(np.zeros(64), 0.1) == 0.0

    def test_rejects_nonfinite(self):
        vals = np.ones(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError):
            luxemburg_norm(vals, 0.1)

    @pytest.mark.parametrize("dx", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_dx(self, dx):
        with pytest.raises(ValueError, match="dx must be positive and finite"):
            luxemburg_norm(np.ones(4), dx)

    def test_newton_out_of_evaluations_raises(self, monkeypatch):
        u = np.exp(-np.linspace(-4.0, 4.0, 256) ** 2)
        assert corefn._gauge(u, 0.05)[1] > 2
        monkeypatch.setattr(corefn, "_GAUGE_MAX_EVALS", 2)
        with pytest.raises(RuntimeError, match="did not settle in 2 modular evaluations"):
            luxemburg_norm(u, 0.05)

    def test_gaussian_bisection_residual(self):
        n, L = 4096, 20.0
        dx = 2 * L / n
        x = -L + (np.arange(n) + 0.5) * dx
        u = np.exp(0.5) * np.exp(-0.5 * x * x)
        k = luxemburg_norm(u, dx)
        assert k > 0
        assert abs(modular(u, dx, k) - 1.0) <= 1e-12

    def test_sandwich_on_random_fields(self):
        # min(||u||, ||u||^2) <= int A(|u|) <= max(||u||, ||u||^2)
        rng = np.random.default_rng(2024)
        n, L = 512, 10.0
        dx = 2 * L / n
        x = -L + (np.arange(n) + 0.5) * dx
        for _ in range(100):
            amp = 10.0 ** rng.uniform(-2, 2)
            u = np.zeros(n, dtype=complex)
            for _ in range(4):
                c = rng.uniform(-5, 5)
                w = rng.uniform(0.3, 2.0)
                u += (rng.normal() + 1j * rng.normal()) * np.exp(-0.5 * ((x - c) / w) ** 2)
            u *= amp
            k = luxemburg_norm(u, dx)
            mod = modular(u, dx)
            lo, hi = min(k, k * k), max(k, k * k)
            assert lo <= mod * (1 + 1e-9) + 1e-12
            assert mod <= hi * (1 + 1e-9) + 1e-12

    def test_homogeneous_below_bracket_start(self):
        # the gauge norm is exactly homogeneous, also for norms below the
        # bracket's starting lower end 1e-12
        n, L = 2048, 20.0
        dx = 2 * L / n
        x = -L + (np.arange(n) + 0.5) * dx
        u = np.exp(-0.5 * x * x) * np.exp(0.3j * x)
        k = luxemburg_norm(u, dx)
        for c in (1e-13, 1e-20, 1e-40):
            assert luxemburg_norm(c * u, dx) / c == pytest.approx(k, rel=1e-9)


def _dense_luxemburg(u, dx):
    """The gauge's root by bisection with every step a full modular(),
    down to adjacent doubles: it stops when the midpoint equals an end."""
    vmax = float(np.max(np.abs(u)))
    if vmax == 0.0:
        return 0.0
    lo, hi = 1e-12 * vmax, vmax * (dx * u.size) + 1.0
    while modular(u, dx, hi) > 1.0:
        hi *= 2.0
    while modular(u, dx, lo) <= 1.0:
        hi, lo = lo, 0.5 * lo
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if modular(u, dx, mid) > 1.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


@st.composite
def _amplitudes(draw):
    """n in [1, 4096] samples, log-uniform over a drawn sub-range of
    [1e-6, 1e3], with a drawn share of exact zeros."""
    n = draw(st.integers(min_value=1, max_value=4096))
    lo = draw(st.floats(min_value=-6.0, max_value=3.0))
    hi = draw(st.floats(min_value=lo, max_value=3.0))
    zeros = draw(st.sampled_from([0.0, 0.1, 0.5, 0.9]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    u = 10.0 ** rng.uniform(lo, hi, n)
    u[rng.uniform(size=n) < zeros] = 0.0
    return u


@given(u=_amplitudes(), dx=st.floats(min_value=1e-3, max_value=1.0))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_luxemburg_matches_dense_bisection(u, dx):
    k = luxemburg_norm(u, dx)
    assert k == pytest.approx(_dense_luxemburg(u, dx), rel=1e-12, abs=0.0)
    if k > 0.0:
        assert abs(modular(u, dx, k) - 1.0) <= 1e-12
    assert corefn._gauge(np.abs(u), dx)[1] <= 8  # modular evaluations


def _bumps(n):
    x = np.linspace(-5.0, 5.0, n)
    return np.exp(-x * x) * (1.0 + 0.5j * np.sin(3.0 * x))


@pytest.mark.parametrize("u", [
    np.array([0.7]),
    3.0 * np.eye(1, 257, 128)[0],  # one nonzero sample among zeros
    1e-300 * _bumps(65),
    1e300 * _bumps(65),
], ids=["n=1", "one-nonzero", "scale-1e-300", "scale-1e300"])
@pytest.mark.parametrize("dx", [1e-3, 0.05, 1.0])
def test_luxemburg_edge_cases(u, dx):
    k = luxemburg_norm(u, dx)
    assert k == pytest.approx(_dense_luxemburg(u, dx), rel=1e-12, abs=0.0)
    assert abs(modular(u, dx, k) - 1.0) <= 1e-12


def test_gm_matches_raw_rate_where_resolved():
    s = np.array([0.3, 1.0, 2.5])
    raw = gm_phase_rate(s, None)
    clamped = gm_phase_rate(s, 10.0)
    assert np.allclose(raw, clamped, rtol=1e-12, atol=1e-13)
