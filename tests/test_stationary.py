"""Pair system, bifurcation structure, closed forms and bounds."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from lognls.corefn import SQRT_PI, gamma_tail
from lognls.stationary import (
    Branch,
    GroundStateParams,
    _deflated_h,
    action_closed_form,
    bifurcation_sweep,
    d_free_line,
    d_gamma,
    d_zero,
    dgamma_lower_bound,
    eval_h,
    ground_states,
    mass_closed_form,
    n_gamma,
    pair_residuals,
    profile,
    sigma_map,
    solve_3s,
)


def tail_oracle(t: float) -> float:
    val, _ = quad(lambda s: math.exp(-s * s), t, 40.0, limit=200)
    return val


class TestH:
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 3.0, 7.5])
    def test_root_at_one(self, gamma):
        assert eval_h(1.0, gamma) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0, 5.0])
    def test_derivative_at_one(self, gamma):
        eps = 1e-6
        fd = (eval_h(1.0 + eps, gamma) - eval_h(1.0 - eps, gamma)) / (2 * eps)
        assert fd == pytest.approx(2.0 * (4.0 - gamma * gamma), abs=1e-3)

    def test_sign_bracket_gamma3(self):
        assert eval_h(3.0, 3.0) < 0.0
        assert eval_h(5.0, 3.0) > 0.0

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            eval_h(0.0, 2.0)
        with pytest.raises(ValueError):
            eval_h(-1.0, 2.0)


def test_hump_function_peaks_at_one():
    # t e^{-t^2/2} has its unique maximum at t = 1, value e^{-1/2};
    # this is what makes the bracket logic of the pair solver valid
    t = np.linspace(1e-3, 6.0, 20000)
    f = t * np.exp(-0.5 * t * t)
    assert abs(t[np.argmax(f)] - 1.0) < 1e-3
    assert np.max(f) == pytest.approx(math.exp(-0.5), rel=1e-6)


class TestSolvePairSystem:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.99, 2.0])
    def test_single_branch(self, gamma):
        sols = solve_3s(gamma)
        assert len(sols) == 1
        t1, t2 = sols[0]
        assert t1 == t2 == pytest.approx(2.0 / gamma, abs=1e-12)

    # the last seven sit just above the pitchfork, where eval_h is flat
    # like (z - 1)^3 and the pair is only as good as the deflated bisection
    @pytest.mark.parametrize("gamma", [
        2.01, 2.5, 3.0, 5.0, 10.0,
        *(2.0 + k * math.ulp(2.0) for k in (9, 17, 29, 35, 36)), 2.0 + 2.399e-12, 2.0 + 1e-11])
    def test_three_branches(self, gamma):
        sols = solve_3s(gamma)
        assert len(sols) == 3
        for t1, t2 in sols:
            r1, r2 = pair_residuals(t1, t2, gamma)
            assert max(r1, r2) <= 1e-10
        tstar = 2.0 / gamma
        (a1, a2), (b1, b2) = sols[1], sols[2]
        assert (a1, a2) == (b2, b1)
        assert min(a1, a2) < tstar < max(a1, a2)

    def test_gamma_one(self):
        assert solve_3s(1.0) == [(2.0, 2.0)]

    @pytest.mark.parametrize("gamma", [1e19, 1e100, 1e160, 1e300])
    def test_extreme_gamma_fails_cleanly(self, gamma):
        with pytest.raises(RuntimeError, match="pair solver failed"):
            solve_3s(gamma)

    def test_rejects(self):
        with pytest.raises(ValueError):
            solve_3s(0.0)
        with pytest.raises(ValueError):
            solve_3s(-3.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                solve_3s(bad)


class TestMpmathOracle:
    """The asymmetric pair against the root of h(1+e)/e at 55 digits."""

    @staticmethod
    def exact_pair(gamma: float) -> tuple:
        g = mpmath.mpf(gamma)
        e0 = mpmath.sqrt(3 * (g * g - 4) / 5)  # root of the quadratic model

        def deflated(e):
            return (2 + e) ** 3 / (1 + e) ** 2 - 2 * g * g * mpmath.log1p(e) / e

        lo, hi = e0 / 4, 4 * e0 + 1
        e = mpmath.findroot(deflated, (lo, hi), solver="anderson")
        return (2 + e) / (g * (1 + e)), (2 + e) / g

    @pytest.mark.parametrize("delta", np.logspace(-13, 1, 40))
    def test_pair_matches_oracle(self, delta):
        gamma = 2.0 + delta
        with mpmath.workdps(55):
            x1, x2 = self.exact_pair(gamma)
            t1, t2 = solve_3s(gamma)[1]
            err = max(abs((t1 - x1) / x1), abs((t2 - x2) / x2))
        assert err <= (1e-15 if delta <= 1.0 else 5e-15)

    def test_deflated_h_matches_eval_h(self):
        # eval_h is a difference of two terms, so compare on their scale
        for gamma in (2.0 + 1e-9, 2.5, 3.0, 7.5):
            for e in np.logspace(-1, 1, 25):
                z = 1.0 + e
                scale = (z + 1.0) ** 2 + gamma * gamma * math.log(z * z)
                assert abs(e * _deflated_h(e, gamma) - eval_h(z, gamma)) <= 1e-14 * scale


class TestSigma:
    def test_fixed_point(self):
        for gamma in (0.7, 2.0, 4.0):
            t = 2.0 / gamma
            assert sigma_map(t, gamma) == pytest.approx(t, rel=1e-14)

    def test_involution_and_sum(self):
        gamma = 2.3
        for t in np.linspace(1.0 / gamma + 0.01, 10.0, 50):
            s = sigma_map(t, gamma)
            assert sigma_map(s, gamma) == pytest.approx(t, rel=1e-12)
            assert 1.0 / t + 1.0 / s == pytest.approx(gamma, rel=1e-13)

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            sigma_map(0.5, 2.0)


class TestNGamma:
    def test_symmetric_point(self):
        assert n_gamma(1.0, 2.0) == pytest.approx(2.0 * gamma_tail(1.0), rel=1e-14)

    @pytest.mark.parametrize("gamma", [2.5, 3.0, 5.0])
    def test_critical_at_pair_solutions(self, gamma):
        h = 1e-6
        for t, _ in solve_3s(gamma):
            dn = (n_gamma(t + h, gamma) - n_gamma(t - h, gamma)) / (2 * h)
            assert abs(dn) <= 1e-6

    def test_symmetric_point_is_local_max(self):
        gamma, h = 3.0, 1e-4
        t = 2.0 / gamma
        second = n_gamma(t + h, gamma) - 2 * n_gamma(t, gamma) + n_gamma(t - h, gamma)
        assert second < 0.0


class TestProfile:
    def params(self, gamma, omega=0.0, branch=0):
        return ground_states(gamma, omega)[branch]

    def test_symmetric_profile_is_odd(self):
        p = self.params(2.0)
        x = np.linspace(0.1, 6.0, 50)
        assert np.allclose(profile(p, -x), -profile(p, x), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("gamma,branch", [(2.0, 0), (3.0, 0), (3.0, 1), (5.0, 2)])
    def test_interface_conditions_in_closed_form(self, gamma, branch):
        # hand-computed one-sided data of the two Gaussian pieces
        p = self.params(gamma, 0.3, branch)
        amp = math.exp(0.5 * (p.omega + 1.0))
        vp = amp * math.exp(-0.5 * p.t1**2)
        vm = -amp * math.exp(-0.5 * p.t2**2)
        dp = -p.t1 * amp * math.exp(-0.5 * p.t1**2)
        dm = -p.t2 * amp * math.exp(-0.5 * p.t2**2)
        assert dp == pytest.approx(dm, rel=1e-12)  # derivative continuity
        assert vp - vm == pytest.approx(-gamma * dp, rel=1e-12)  # jump condition

    def test_omega_shift_scales_amplitude(self):
        delta = 0.7
        x = np.linspace(-4, 4, 101)
        x = x[x != 0]
        lo = profile(self.params(2.0, 0.0), x)
        hi = profile(self.params(2.0, delta), x)
        assert np.allclose(hi, math.exp(delta / 2.0) * lo, rtol=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            profile(self.params(2.0), 0.0)


class TestClosedForms:
    def test_free_line_value(self):
        assert d_free_line(0.0) == pytest.approx(math.e * SQRT_PI / 2.0, rel=1e-15)

    def test_action_from_tail_oracle(self):
        # mass of the two Gaussian humps, via adaptive quadrature
        for gamma, branch in ((2.0, 0), (3.0, 1)):
            p = ground_states(gamma, 0.0)[branch]
            want_mass = math.e * (tail_oracle(p.t1) + tail_oracle(p.t2))
            assert mass_closed_form(p) == pytest.approx(want_mass, rel=1e-12)
            assert action_closed_form(p) == pytest.approx(0.5 * want_mass, rel=1e-12)

    def test_action_symmetric_gamma2(self):
        p = ground_states(2.0, 0.0)[0]
        assert action_closed_form(p) == pytest.approx(math.e * tail_oracle(1.0), rel=1e-12)

    def test_asymmetric_action_smaller(self):
        pts = ground_states(3.0, 0.0)
        assert action_closed_form(pts[1]) < action_closed_form(pts[0])
        assert action_closed_form(pts[1]) == pytest.approx(
            action_closed_form(pts[2]), rel=1e-14
        )

    def test_numeric_action_integral(self):
        # full action from quadrature of the profile itself
        p = ground_states(3.0, 0.0)[1]

        def density(x):
            v = profile(p, x)
            return abs(v) ** 2

        m_num = quad(density, -30, -1e-12, limit=400)[0] + quad(density, 1e-12, 30, limit=400)[0]
        assert action_closed_form(p) == pytest.approx(0.5 * m_num, rel=1e-9)


class TestBounds:
    def test_lower_bound_limit(self):
        assert dgamma_lower_bound(1e9, 0.0) == pytest.approx(
            0.25 * math.sqrt(math.pi / 2.0) * math.e, rel=1e-6
        )

    def test_lower_bound_rejects_bad_gamma(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                dgamma_lower_bound(bad, 0.0)

    def test_lower_bound_monotone(self):
        gs = np.linspace(0.3, 10.0, 40)
        vals = [dgamma_lower_bound(g, 0.0) for g in gs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0, 5.0])
    def test_bound_below_action(self, gamma):
        assert dgamma_lower_bound(gamma, 0.0) < d_gamma(gamma, 0.0)

    def test_half_line_values(self):
        assert d_zero(-1.0) == pytest.approx(SQRT_PI / 4.0, rel=1e-15)
        assert d_zero(0.3) == pytest.approx(0.5 * d_free_line(0.3), rel=1e-15)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0, 3.0, 5.0, 20.0])
    def test_dgamma_below_half_line(self, gamma):
        assert d_gamma(gamma, 0.0) < d_zero(0.0)


class TestSweep:
    def test_single_branch_region(self):
        for pt in bifurcation_sweep(1.0, 1.9, 10, 0.0):
            assert len(pt.branches) == 1

    def test_three_branch_region(self):
        for pt in bifurcation_sweep(2.1, 5.0, 10, 0.0):
            assert len(pt.branches) == 3
            acts = pt.actions
            assert acts[1] < acts[0] and acts[2] < acts[0]

    def test_pitchfork_closes(self):
        gaps = []
        for k in range(1, 7):
            gamma = 2.0 + 10.0 ** (-k)
            (t1, t2) = solve_3s(gamma)[1]
            gaps.append(abs(t2 - t1))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            bifurcation_sweep(-1.0, 2.0, 5, 0.0)
        with pytest.raises(ValueError):
            bifurcation_sweep(3.0, 2.0, 5, 0.0)
        for lo, hi in ((1.0, math.inf), (1.0, math.nan), (math.nan, 2.0)):
            with pytest.raises(ValueError, match="gamma_max < inf"):
                bifurcation_sweep(lo, hi, 5, 0.0)


class TestParamsValidation:
    def test_bad_pair_rejected(self):
        with pytest.raises(ValueError):
            GroundStateParams(gamma=2.0, omega=0.0, t1=1.0, t2=1.5, branch=Branch.SYMMETRIC)

    @pytest.mark.parametrize("gamma, t, branch", [(math.nan, 1.0, Branch.SYMMETRIC),
                                                  (2.0, math.nan, Branch.ASYMMETRIC_LEFT)])
    def test_nan_rejected(self, gamma, t, branch):
        # every comparison with NaN is False, so NaN must fail each check
        with pytest.raises(ValueError):
            GroundStateParams(gamma=gamma, omega=0.0, t1=t, t2=t, branch=branch)

    def test_branch_tag_mismatch(self):
        with pytest.raises(ValueError):
            GroundStateParams(gamma=2.0, omega=0.0, t1=1.0, t2=1.0,
                              branch=Branch.ASYMMETRIC_LEFT)

    def test_ground_state_flag(self):
        assert ground_states(1.5, 0.0)[0].is_ground_state
        pts = ground_states(3.0, 0.0)
        assert not pts[0].is_ground_state
        assert pts[1].is_ground_state and pts[2].is_ground_state
