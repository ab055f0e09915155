"""Where the time of one minimizer iteration goes, part by part, for two
trees timed alternately in one interpreter.

    python studies/minimize_parts.py BASE CHANGE [--out FILE]

BASE and CHANGE are lognls checkouts (each with ``src/lognls``).  One
interpreter loads both packages, under the names ``lognls_base`` and
``lognls_change``, as ``studies/step_ab.py`` does, so that the two
trees' numbers are taken side by side on the same machine state.

The parts are those of one descent iteration of ``minimize_dgamma`` at
the 2.01-left case on Grid(20, 4096), perfbench's slowest minimization:
the first step, from the projected seed at tau = TAU0, where the step
system I + tau L-(v) is positive definite.  They are the build of the
shift and the shifted diagonal (eight passes, three of them the floored
log|v|^2, as the minimizer runs them); the trace form (scale * off and
``FormOperator._trace_form``); the map P^T with the copy of r it maps;
the LAPACK ptsv and gtsv sweeps on the trace form, as
``_definite_sweep`` and ``_sweep`` call them; the map P back; the step's
whole solve as each tree's minimizer runs it (``_definite_sweep`` where
the tree has it, else ``_sweep``) and the pivoted ``_sweep`` on its own;
the pieces of ``fields._report`` (the form from edges, the squares, the
two sums and the entropy of the squares), the product lambda * v of the
projection and the whole projection; and the whole iteration (build,
solve and projection).  A part that overwrites its inputs runs after
copies that restore them, and the copies' time, timed as its own part,
is subtracted.  Each part is timed in ROUNDS rounds as the best of
REPEATS batches of CALLS calls, the two trees alternating first and
second between rounds.

It also times the five ``variational`` minimizations of perfbench on
Grid(20, 4096), each as the best of MIN_REPEATS runs in each of ROUNDS
rounds, alternated the same way, and counts per tree each case's
(iterations, newton, index), its descent steps and the steps on which
ptsv found a leading minor that is not positive and the pivoted sweep
ran instead (null for a tree without ``_definite_sweep``), in one
untimed run.

The JSON written to FILE has, per part and per minimization, both
trees' median and quartiles (us for a part, ms for a minimization), the
change's median relative to the base's and the rounds the change won,
the counts, and the run manifest of ``perfbench/manifest.py`` for each
tree.  BLAS runs on one thread.  It takes about 20 s on a 2-vCPU VM and
is not part of the test suite.  A part can read apart between the
trees with the same code on both sides: the build, which is this
study's own code, read +16.9 % in one run and -15.6 % in the next, each
in every round.  So a part's gap says little below ~17 %; the whole
iteration and the minimizations tell the trees apart.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(HERE))

from manifest import manifest, pin_blas_threads  # noqa: E402
from step_ab import load, quartiles  # noqa: E402

ROUNDS, REPEATS, CALLS, MIN_REPEATS = 15, 5, 100, 3
N, GAMMA, SEED = 4096, 2.01, "left"
# perfbench's variational minimizations, on its grid (L = 20, n = 4096)
MINIMIZE = [(1.0, "symmetric"), (3.0, "left"), (3.0, "right"), (2.01, "left"), (2.1, "left")]


def per_call_us(call) -> float:
    """The fastest of REPEATS batches of CALLS calls, in us per call."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(CALLS):
            call()
        best = min(best, perf_counter() - t0)
    return best / CALLS * 1e6


def best_ms(call) -> float:
    """The fastest of MIN_REPEATS runs of call, in ms."""
    best = float("inf")
    for _ in range(MIN_REPEATS):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best * 1e3


def iteration_parts(lib) -> dict:
    """name -> (call, name of the part whose time is subtracted, or None)
    for one descent iteration of lib's minimizer; a part lib does not
    have is left out."""
    import numpy as np

    fields = importlib.import_module(lib.__name__ + ".fields")
    corefn = importlib.import_module(lib.__name__ + ".corefn")
    grid = fields.Grid(20.0, N)
    op, n, dx = fields.form_operator(grid, GAMMA), grid.n, grid.dx
    lapack = fields._linalg().lapack
    v = fields._project(op, fields._seed_values(fields.Seed(SEED), GAMMA, 0.0, grid), 0.0)[0]
    tau = fields.TAU0
    scale, coupling = tau / dx, tau / dx * op.coupling
    shift, diag = np.empty(n), np.empty(n)

    def build():
        corefn._log_abs2(v, out=shift)
        np.subtract(0.0, shift, out=shift)
        np.multiply(shift, tau, out=shift)
        np.add(shift, 1.0, out=shift)
        np.multiply(scale, op.diag, out=diag)
        np.add(diag, shift, out=diag)

    # the step's intermediates, saved from one run
    build()
    d_step = diag.copy()
    d_trace, e_trace = d_step.copy(), scale * op.off
    op._trace_form(d_trace, e_trace, coupling)
    b_trace = op._to_trace(v.copy())
    w = lapack.dptsv(d_trace, e_trace, b_trace)[2]
    step = op._from_trace(w.copy())
    r = fields._report(op, step, 0.0)
    lam = math.exp(r.nehari / (2.0 * r.mass))  # as _project takes it
    s2 = corefn._abs2(step)
    ent = corefn.entropy_of_squares(s2)
    d, e, b = np.empty(n), np.empty(n - 1), np.empty(n)

    def restore_trace():
        np.copyto(d, d_trace)
        np.copyto(e, e_trace)
        np.copyto(b, b_trace)

    def ptsv():
        restore_trace()
        lapack.dptsv(d, e, b, overwrite_d=1, overwrite_e=1, overwrite_b=1)

    def gtsv():
        restore_trace()
        lapack.dgtsv(e, d, e, b, overwrite_d=1, overwrite_b=1)

    def trace_form():
        np.copyto(d, d_step)
        op._trace_form(d, scale * op.off, coupling)

    def to_trace():
        op._to_trace(v.copy())

    def from_trace():
        np.copyto(b, w)
        op._from_trace(b)

    def restore_diag():
        np.copyto(diag, d_step)

    def solver(sweep):
        def call():
            np.copyto(diag, d_step)
            return sweep(diag, scale, v)
        return call

    definite = getattr(op, "_definite_sweep", None)
    # the step's solve as this tree's minimizer runs it
    solve = solver(op._sweep) if definite is None else solver(definite)

    def iteration():
        build()
        fields._project(op, solve(), 0.0)

    parts = {
        "copies restoring the trace form and P^T r": (restore_trace, None),
        "copy restoring the diagonal": (restore_diag, None),
        "build: shift and diagonal (8 passes)": (build, None),
        "trace form (scale * off, _trace_form)": (trace_form, "copy restoring the diagonal"),
        "map P^T with the copy of r": (to_trace, None),
        "ptsv sweep": (ptsv, "copies restoring the trace form and P^T r"),
        "gtsv sweep": (gtsv, "copies restoring the trace form and P^T r"),
        "map P": (from_trace, "copy restoring the diagonal"),
        "solve as the minimizer runs it": (solve, "copy restoring the diagonal"),
        "_sweep (pivoted, whole)": (solver(op._sweep), "copy restoring the diagonal"),
        "report: form": (lambda: op.form(step), None),
        "report: squares": (lambda: corefn._abs2(step), None),
        "report: mass sum": (lambda: float(dx * np.sum(s2)), None),
        "report: entropy of squares": (lambda: corefn.entropy_of_squares(s2), None),
        "report: entropy sum": (lambda: float(dx * np.sum(ent)), None),
        "report (whole)": (lambda: fields._report(op, step, 0.0), None),
        "lambda * v": (lambda: lam * step, None),
        "projection (whole)": (lambda: fields._project(op, step, 0.0), None),
        "whole iteration (build, solve, projection)": (iteration, None),
    }
    return parts


def minimizations(lib) -> dict:
    """name -> zero-argument call running one of lib's MINIMIZE cases."""
    fields = importlib.import_module(lib.__name__ + ".fields")
    grid = fields.Grid(20.0, N)
    return {f"gamma={gamma:g} seed={seed}":
            (lambda gamma=gamma, seed=seed:
             fields.minimize_dgamma(gamma, 0.0, seed=fields.Seed(seed), grid=grid))
            for gamma, seed in MINIMIZE}


def counts(lib, calls: dict) -> dict:
    """Per minimization, its (iterations, newton, index), its descent steps
    and the steps on which ptsv failed (None for a tree without
    _definite_sweep), from one run with _definite_sweep wrapped."""
    cls = importlib.import_module(lib.__name__ + ".fields").FormOperator
    sweep, fallbacks = getattr(cls, "_definite_sweep", None), [0]

    def wrapped(self, diag, scale, r):
        w = sweep(self, diag, scale, r)
        fallbacks[0] += w is None
        return w

    out = {}
    if sweep is not None:
        cls._definite_sweep = wrapped
    try:
        for case, call in calls.items():
            fallbacks[0] = 0
            r = call()
            out[case] = {"iterations": r.iterations, "newton": r.newton, "index": r.index,
                         "descent_steps": r.iterations - r.newton,
                         "fallbacks": None if sweep is None else fallbacks[0]}
    finally:
        if sweep is not None:
            cls._definite_sweep = sweep
    return out


def alternate(calls: dict, measure, trees) -> dict:
    """Per name, each tree's ROUNDS measurements of calls[name][tree], the
    trees alternating first and second between rounds."""
    for per_tree in calls.values():  # warm up
        for call in per_tree.values():
            call()
    runs = {name: {k: [] for k in trees} for name in calls}
    for r in range(ROUNDS):
        order = trees if r % 2 == 0 else trees[::-1]
        for name, per_tree in calls.items():
            for k in order:
                if k in per_tree:
                    runs[name][k].append(measure(per_tree[k]))
    return runs


def summary(runs: dict, unit: str) -> dict:
    """Both trees' median and quartiles, the relative change of the median
    and the rounds the change won, from alternate()'s runs of one name."""
    out = {f"{k}_{unit}": statistics.median(xs) if xs else None for k, xs in runs.items()}
    out.update({f"{k}_quartiles_{unit}": quartiles(xs) if xs else None
                for k, xs in runs.items()})
    base, change = runs["base"], runs["change"]
    if base and change:
        out["relative"] = statistics.median(change) / statistics.median(base) - 1.0
        out["change_wins"] = sum(c < b for b, c in zip(base, change))
    out["rounds"] = ROUNDS
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree measured as the base")
    p.add_argument("change", type=Path, help="source tree measured as the change")
    p.add_argument("--out", type=Path, default=Path("minimize_parts.json"), help="JSON to write")
    args = p.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "lognls" / "fields.py").is_file():
            p.error(f"{tree} has no src/lognls/fields.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    names = tuple(trees)
    libs = {k: load(f"lognls_{k}", tree / "src") for k, tree in trees.items()}

    by_tree = {k: iteration_parts(lib) for k, lib in libs.items()}
    part_names = list(dict.fromkeys(name for k in names for name in by_tree[k]))
    calls = {name: {k: by_tree[k][name][0] for k in names if name in by_tree[k]}
             for name in part_names}
    runs = alternate(calls, per_call_us, names)
    parts = {}
    for name in part_names:
        minus = next(by_tree[k][name][1] for k in names if name in by_tree[k])
        net = {k: [x - m for x, m in zip(runs[name][k], runs[minus][k])] if minus else
               runs[name][k] for k in names}
        parts[name] = {**summary(net, "us"), "less": minus}

    by_tree = {k: minimizations(lib) for k, lib in libs.items()}
    tallies = {k: counts(libs[k], by_tree[k]) for k in names}
    calls = {case: {k: by_tree[k][case] for k in names} for case in by_tree["base"]}
    runs = alternate(calls, best_ms, names)
    total = {k: [sum(xs) for xs in zip(*(runs[case][k] for case in calls))] for k in names}
    minimize = {case: {**summary(runs[case], "ms"), "counts": {k: tallies[k][case]
                                                                for k in names}}
                for case in calls}
    iterations = {k: sum(tallies[k][case]["iterations"] for case in calls) for k in names}
    minimize["all five"] = {
        **summary(total, "ms"), "iterations": iterations,
        "us_per_iteration": {k: statistics.median(total[k]) / iterations[k] * 1e3
                             for k in names}}

    for name, p in parts.items():
        base, change = p["base_us"], p["change_us"]
        print(f"{name:<48} " + "  ".join("      -   " if x is None else f"{x:8.2f}us"
                                          for x in (base, change))
              + ("" if "relative" not in p else
                 f"  ({p['relative']:+.1%}, change faster in {p['change_wins']} of {ROUNDS})"))
    for case, m in minimize.items():
        print(f"minimize {case}: {m['base_ms']:.2f} -> {m['change_ms']:.2f} ms "
              f"({m['relative']:+.1%}, change faster in {m['change_wins']} of {ROUNDS})"
              + ("" if "counts" not in m else
                 f", fallbacks {m['counts']['change']['fallbacks']} of "
                 f"{m['counts']['change']['descent_steps']} steps"))
    inputs = {"n": N, "gamma": GAMMA, "seed": SEED, "minimize": MINIMIZE, "rounds": ROUNDS,
              "repeats": REPEATS, "calls": CALLS, "minimize_repeats": MIN_REPEATS}
    doc = {
        "study": "minimize_parts",
        "what": "per-part times of one descent iteration of minimize_dgamma (the first "
                "2.01-left step at n = 4096), in us per call, and of perfbench's five "
                "variational minimizations, in ms, both trees in one interpreter, alternated "
                "per round: median and quartiles over rounds of the best of repeated batches; "
                "'less' names the part whose time was subtracted (restoring copies); "
                "relative = change median / base median - 1; counts from one untimed run",
        "parts": parts,
        "minimize": minimize,
        "manifest": {k: manifest(tree, 0, "minimize_parts", inputs) for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
