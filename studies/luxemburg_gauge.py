"""How the Luxemburg gauge's Newton solve behaves on seeded amplitude
families.

    python studies/luxemburg_gauge.py [--seed S] [--random N] [--out FILE]

For each family the study runs the gauge on every amplitude set and
writes the largest and the mean number of modular evaluations Newton
took, the largest |rho(k) - 1| with rho(k) = modular(u, dx, k), and the
largest relative gap between k and the dense root: a bisection with a
full modular() at every step, run until its midpoint equals an end of
the bracket.  The families are

* random   - N sets drawn as tests/test_corefn.py's Hypothesis strategy
             draws them: n in [1, 4096] samples, log-uniform over a
             sub-range of [1e-6, 1e3], a share of exact zeros, dx in
             [1e-3, 1];
* trajectory, stability - the amplitudes |u - e^{i theta} phi| that
             `evolve` records pass to the gauge, on the grids of the
             perfbench workloads of those names (one seeded perturbed
             trial per case, over the first steps of its horizon).

Everything is seeded, so the numbers repeat exactly; the JSON carries the
run manifest of ``perfbench/manifest.py``.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from manifest import manifest, pin_blas_threads  # noqa: E402

# (name, grid n, dt, record_every, steps, cases): the perfbench grids,
# each case's trial stepped over its first `steps` steps
GRIDS = [
    ("trajectory", 4096, 1e-3, 5, 500, [(2.0, "symmetric")]),
    ("stability", 2048, 2e-3, 125, 2500,
     [(1.0, "symmetric"), (2.0, "symmetric"), (3.0, "asymmetric-left"), (3.0, "symmetric")]),
]
DELTA = 1e-2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0, help="seed of every family (default 0)")
    p.add_argument("--random", type=int, default=2000,
                   help="amplitude sets in the random family (default 2000)")
    p.add_argument("--out", type=Path, default=Path("luxemburg_gauge.json"), help="JSON to write")
    args = p.parse_args(argv)
    if args.random < 1:
        p.error("--random must be at least 1")
    return args


def dense_root(modular, amp, dx: float) -> float:
    """The gauge by bisection on full modular() evaluations, down to
    adjacent doubles."""
    vmax = float(amp.max())
    lo, hi = 1e-12 * vmax, vmax * (dx * amp.size) + 1.0
    while modular(amp, dx, hi) > 1.0:
        hi *= 2.0
    while modular(amp, dx, lo) <= 1.0:
        hi, lo = lo, 0.5 * lo
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if modular(amp, dx, mid) > 1.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def random_sets(seed: int, count: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 4097))
        lo = rng.uniform(-6.0, 3.0)
        hi = rng.uniform(lo, 3.0)
        amp = 10.0 ** rng.uniform(lo, hi, n)
        amp[rng.uniform(size=n) < rng.choice([0.0, 0.1, 0.5, 0.9])] = 0.0
        yield amp, float(rng.uniform(1e-3, 1.0))


def record_sets(seed: int, grid_n: int, dt: float, record_every: int, steps: int, cases):
    """The record amplitudes of one perturbed trial per case, stepped in
    record_every segments (which agrees with one evolve call at rounding:
    each call takes its own mass target)."""
    import numpy as np

    from lognls import fields
    from lognls.dynamics import EvolutionConfig, evolve
    from lognls.stationary import Branch, branch_params

    grid = fields.Grid(20.0, grid_n)
    segment = EvolutionConfig(dt=dt, t_end=record_every * dt, record_every=record_every)
    for gamma, branch in cases:
        params = branch_params(gamma, 0.0, Branch(branch))
        phi = fields.sample_profile(params, grid)
        g = fields._h1_dual(phi.values, grid)
        buffers = fields._distance_buffers(grid.n)
        pert = fields.random_smooth_field(grid, np.random.default_rng((seed, 0)))
        scale = DELTA * fields.sigma_norm(phi) / fields.sigma_norm(pert)
        u = phi.with_values(phi.values + pert.values * scale)
        for k in range(steps // record_every + 1):
            if k:
                u = evolve(u, gamma, segment).final
            theta = fields._phase_fit(u.values, g)
            amp = fields._sigma_dist_at(u.values, phi.values, theta, grid, *buffers)[1]
            yield amp.copy(), grid.dx


def family(sets) -> dict:
    from lognls import corefn

    evals, residual, gap = [], 0.0, 0.0
    for amp, dx in sets:
        if not amp.any():
            continue
        k, count = corefn._gauge(amp, dx)
        evals.append(count)
        residual = max(residual, abs(corefn.modular(amp, dx, k) - 1.0))
        gap = max(gap, abs(k / dense_root(corefn.modular, amp, dx) - 1.0))
    return {"sets": len(evals), "max_evals": max(evals), "mean_evals": sum(evals) / len(evals),
            "max_abs_rho_minus_1": residual, "max_rel_gap_to_dense_root": gap}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    results = {"random": family(random_sets(args.seed, args.random))}
    inputs = {"random": {"sets": args.random}}
    for name, grid_n, dt, record_every, steps, cases in GRIDS:
        results[name] = family(record_sets(args.seed, grid_n, dt, record_every, steps, cases))
        inputs[name] = {"grid_n": grid_n, "L": 20.0, "dt": dt, "record_every": record_every,
                        "steps": steps, "delta": DELTA, "omega": 0.0,
                        "cases": [{"gamma": g, "branch": b} for g, b in cases]}
    doc = {
        "study": "luxemburg_gauge",
        "what": "modular evaluations of the gauge's Newton solve, |rho(k) - 1| and the "
                "relative gap to the dense bisection root, per amplitude family",
        "results": results,
        "manifest": manifest(ROOT, args.seed, "luxemburg_gauge", inputs),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, r in results.items():
        print(f"{name:10s} {r['sets']:5d} sets: evals max {r['max_evals']} mean "
              f"{r['mean_evals']:.2f}, |rho-1| <= {r['max_abs_rho_minus_1']:.2e}, "
              f"gap <= {r['max_rel_gap_to_dense_root']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
