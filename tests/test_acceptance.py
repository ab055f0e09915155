"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from lognls.corefn import SQRT_PI, eval_a, eval_b, eval_gm, gamma_tail
from lognls.dynamics import EvolutionConfig, evolve, stability_experiment
from lognls.fields import (
    Field,
    Grid,
    Metric,
    Seed,
    action_gradient,
    derivative_norm_sq,
    entropy,
    mass,
    minimize_dgamma,
    nehari_project,
    quadratic_form,
    random_smooth_field,
    report,
    sample_profile,
    stationary_residual,
)
from lognls.corefn import luxemburg_norm as lux_raw
from lognls.corefn import modular
from lognls.stationary import (
    Branch,
    action_closed_form,
    d_free_line,
    d_zero,
    dgamma_lower_bound,
    ground_states,
    n_gamma,
    pair_residuals,
    sigma_map,
    solve_3s,
)

SINGLE_GAMMAS = (0.5, 1.0, 1.99, 2.0)
TRIPLE_GAMMAS = (2.01, 2.5, 3.0, 5.0, 10.0)
COMPARISON_GRID = tuple((g, w) for g in (2.1, 3.0, 5.0) for w in (-1.0, 0.0, 1.0))


def gate(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {desc} {detail}"


def test_criterion_1_pair_system_structure():
    ok = True
    detail = ""
    for g in SINGLE_GAMMAS + TRIPLE_GAMMAS:
        sols = solve_3s(g)
        want = 1 if g <= 2.0 else 3
        if len(sols) != want:
            ok, detail = False, f"gamma={g} returned {len(sols)} solutions"
            break
        worst = max(max(pair_residuals(t1, t2, g)) for t1, t2 in sols)
        if worst > 1e-10:
            ok, detail = False, f"gamma={g} residual {worst:.2e}"
            break
    gate(1, "pair-system solution counts and residuals <= 1e-10", ok, detail)


def test_criterion_2_symmetric_branch_exact():
    worst = 0.0
    for g in SINGLE_GAMMAS + TRIPLE_GAMMAS:
        t1, t2 = solve_3s(g)[0]
        worst = max(worst, abs(t1 - 2.0 / g), abs(t2 - 2.0 / g))
    gate(2, "symmetric branch t1 = t2 = 2/gamma to 1e-12", worst <= 1e-12,
         f"worst deviation {worst:.2e}")


def test_criterion_3_straddle():
    ok = True
    for g in TRIPLE_GAMMAS:
        t1, t2 = solve_3s(g)[1]
        if not (min(t1, t2) < 2.0 / g < max(t1, t2)):
            ok = False
    gate(3, "asymmetric pairs straddle 2/gamma", ok)


def test_criterion_4_action_ordering():
    worst_margin = math.inf
    for g, w in COMPARISON_GRID:
        t1 = solve_3s(g)[1][0]
        asym = math.exp(w + 1.0) * n_gamma(t1, g)
        sym = math.exp(w + 1.0) * n_gamma(2.0 / g, g)
        worst_margin = min(worst_margin, (sym - asym) / sym)
    gate(4, "asymmetric action strictly below symmetric action",
         worst_margin > 1e-6, f"smallest relative margin {worst_margin:.3e}")


def test_criterion_5_bounds_chain():
    ok = True
    detail = ""
    for g, w in COMPARISON_GRID:
        dg = min(action_closed_form(p) for p in ground_states(g, w))
        lo = dgamma_lower_bound(g, w)
        mid = d_zero(w)
        hi = d_free_line(w)
        if not (lo <= dg < mid < hi):
            ok, detail = False, f"gamma={g} omega={w}: {lo:.4g} {dg:.4g} {mid:.4g} {hi:.4g}"
            break
    gate(5, "bounds chain lower <= d_gamma < half-line < free-line", ok, detail)


def test_criterion_6_residual_second_order():
    params = ground_states(3.0, 0.0)[1]
    sizes = (1024, 2048, 4096, 8192)
    rows = []
    for n in sizes:
        g = Grid(20.0, n)
        r = stationary_residual(sample_profile(params, g), 3.0, 0.0)
        rows.append((g.dx, r.interior, r.bc1, r.bc2))
    logdx = np.log([r[0] for r in rows])
    slopes = [np.polyfit(logdx, np.log([r[k] for r in rows]), 1)[0] for k in (1, 2, 3)]
    ok = all(1.7 <= s <= 2.3 for s in slopes)
    gate(6, "stationarity residuals decay at second order",
         ok, "slopes interior/bc1/bc2 = " + ", ".join(f"{s:.2f}" for s in slopes))


def test_criterion_7_linear_spectrum():
    gamma = 2.0
    g = Grid(20.0, 8192)
    x = g.nodes()
    psi = Field(g, np.sign(x) * np.exp(-2.0 * np.abs(x) / gamma) + 0j)
    ray = quadratic_form(psi, gamma) / mass(psi)
    err = abs(ray - (-4.0 / gamma**2))
    gate(7, "bound-state Rayleigh quotient within 1e-4 of -4/gamma^2",
         err <= 1e-4, f"error {err:.2e}")


def test_criterion_8_variational_recovery():
    grid = Grid(20.0, 4096)
    r1 = minimize_dgamma(1.0, 0.0, seed=Seed.SYMMETRIC, grid=grid)
    c1 = action_closed_form(ground_states(1.0, 0.0)[0])
    left = minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=grid)
    right = minimize_dgamma(3.0, 0.0, seed=Seed.RIGHT, grid=grid)
    c3 = action_closed_form(ground_states(3.0, 0.0)[1])
    e1 = abs(r1.value - c1) / c1
    e3 = abs(left.value - c3) / c3
    mirror = abs(left.value - right.value) / left.value
    ok = e1 < 0.01 and e3 < 0.01 and mirror <= 1e-8
    gate(8, "minimizer matches closed forms (1%) and mirror seeds agree (1e-8)",
         ok, f"rel errors {e1:.2e}, {e3:.2e}; mirror {mirror:.2e}")


def test_criterion_9_conservation():
    gamma, omega = 2.0, 0.0
    grid = Grid(20.0, 4096)
    params = ground_states(gamma, omega)[0]
    u0 = sample_profile(params, grid)

    def drifts(dt):
        cfg = EvolutionConfig(dt=dt, t_end=10.0, record_every=200)
        recs = evolve(u0, gamma, cfg).records
        m0, e0 = recs[0].mass, recs[0].energy
        dm = max(abs(r.mass - m0) for r in recs) / m0
        de = max(abs(r.energy - e0) for r in recs)
        return dm, de

    rep = report(u0, gamma, omega)
    escale = 0.5 * (abs(rep.form) + abs(rep.entropy))  # the energy is a
    # difference of these two halves; at omega = 0 it is itself ~ 0
    dm, de = drifts(1e-3)
    _, de_half = drifts(5e-4)
    ratio = de / de_half
    ok = dm <= 1e-10 and de / escale <= 1e-6 and 3.0 <= ratio <= 5.0
    gate(9, "mass drift <= 1e-10, energy drift <= 1e-6, halving gains ~4x",
         ok, f"mass {dm:.2e}, energy {de / escale:.2e}, ratio {ratio:.2f}")


def test_criterion_10_orbital_stability():
    grid = Grid(20.0, 2048)
    common = dict(omega=0.0, perturbation_size=1e-2, t_end=50.0, trials=8,
                  rng_seed=0, grid=grid, dt=2e-3, record_every=125,
                  metric=Metric.SIGMA_ONLY)
    gated = [
        (1.0, Branch.SYMMETRIC),
        (2.0, Branch.SYMMETRIC),
        (3.0, Branch.ASYMMETRIC_LEFT),
    ]
    ok = True
    parts = []
    for gamma, branch in gated:
        s = stability_experiment(gamma=gamma, branch=branch, **common)
        parts.append(f"gamma={gamma} {branch.value}: max ratio {s.max_ratio:.2f}")
        if s.max_ratio > 10.0:
            ok = False
    excited = stability_experiment(gamma=3.0, branch=Branch.SYMMETRIC, **common)
    print(f"      exploratory (not gated): gamma=3 symmetric excited state "
          f"max ratio {excited.max_ratio:.2f} over {len(excited.trials)} trials")
    gate(10, "perturbed ground states stay within 10x of the initial distance",
         ok, "; ".join(parts))


def test_criterion_11_property_suites():
    rng = np.random.default_rng(2025)
    grid = Grid(20.0, 2048)
    failures = []

    # logarithmic Sobolev inequality, 200 fields x 4 alphas
    alphas = (0.5, 1.0, math.sqrt(math.pi / 2.0), 2.0)
    for k in range(200):
        u = random_smooth_field(grid, rng)
        q, kin, ent = mass(u), derivative_norm_sq(u), entropy(u)
        for alpha in alphas:
            rhs = (alpha**2 / math.pi) * kin + (math.log(2 * q) - 1 - math.log(alpha)) * q
            if ent > rhs + 1e-8:
                failures.append(f"log-Sobolev case {k}")

    # trace bound, 100 (field, gamma) cases
    for k in range(25):
        u = random_smooth_field(grid, rng)
        t = u.traces()
        q, kin = mass(u), derivative_norm_sq(u)
        for gamma in (0.5, 1.0, 2.0, 5.0):
            if abs(t.jump) ** 2 / gamma > (8.0 / gamma**2) * q + 0.5 * kin + 1e-8:
                failures.append(f"trace bound case {k}")

    # Orlicz sandwich, 100 fields
    for k in range(100):
        amp = 10.0 ** rng.uniform(-2, 2)
        u = amp * random_smooth_field(grid, rng).values
        knorm = lux_raw(u, grid.dx)
        mod = modular(u, grid.dx)
        lo, hi = min(knorm, knorm**2), max(knorm, knorm**2)
        if not (lo <= mod * (1 + 1e-9) + 1e-12 and mod <= hi * (1 + 1e-9) + 1e-12):
            failures.append(f"sandwich case {k}")

    # projection idempotence, 100 fields
    for k in range(100):
        u = random_smooth_field(grid, rng)
        v1 = nehari_project(u, 2.0, 0.0)
        v2 = nehari_project(v1, 2.0, 0.0)
        if not np.allclose(v1.values, v2.values, rtol=1e-12, atol=1e-14):
            failures.append(f"idempotence case {k}")

    # gradient vs centered finite differences, 100 directions
    small = Grid(10.0, 512)
    for k in range(25):
        u = random_smooth_field(small, rng, center_range=(-4, 4))
        gradient = action_gradient(u, 2.0, 0.25)
        for _ in range(4):
            v = random_smooth_field(small, rng, center_range=(-4, 4)).values
            eps = 1e-6
            plus = report(u.with_values(u.values + eps * v), 2.0, 0.25).action
            minus = report(u.with_values(u.values - eps * v), 2.0, 0.25).action
            fd = (plus - minus) / (2 * eps)
            want = float(np.sum(gradient * np.conj(v)).real)
            if abs(fd - want) > 1e-6 * max(abs(want), 1e-8):
                failures.append(f"gradient case {k}")

    # pointwise identity b - a = z log|z|^2, 120 points
    for k in range(120):
        r = 10.0 ** rng.uniform(-8, 3)
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        want = z * math.log(r * r)
        if abs((eval_b(z) - eval_a(z)) - want) > 1e-13 * max(1.0, abs(want)):
            failures.append(f"b-a case {k}")

    # clamped map agrees with the raw logarithm inside its band, 150 points
    for k in range(150):
        m = 10.0 ** rng.uniform(0, 2.2)
        r = math.exp(rng.uniform(math.log(1.0 / m), math.log(m)))
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        want = z * math.log(r * r)
        if abs(eval_gm(z, m) - want) > 5e-13 * max(1.0, abs(want)):
            failures.append(f"g_m band case {k}")

    # phase equivariance, 120 points
    for k in range(120):
        r = 10.0 ** rng.uniform(-6, 2)
        z = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        w = np.exp(1j * rng.uniform(0, 2 * np.pi))
        for fn in (eval_a, eval_b, lambda s: eval_gm(s, 4.0)):
            if abs(fn(w * z) - w * fn(z)) > 1e-13 * max(1.0, abs(fn(z))):
                failures.append(f"equivariance case {k}")

    gate(11, "randomized property suites (>=100 cases each)",
         not failures, f"{len(failures)} failures" if failures else "all held")
