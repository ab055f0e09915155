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
system I + tau L-(v) is positive definite.  Each tree's parts are the
code its minimizer runs.  A tree whose ``fields._project`` takes a log
buffer carries the iterate as (s, lambda, log s^2): its build is
``fields._step_shift`` from the projection's log s^2 plus the shifted
diagonal, its step solves for s, and its projection writes the log of
the step.  Either signature of ``_step_shift`` is timed: from the log
alone, which the projection always writes, or with the step s too, from
the log the projection returns.  A tree without a log buffer solves for
v = lambda s, and its build is this study's copy of the eight passes
such a tree runs, three of them the floored log|v|^2.  The other parts
are the trace form (scale * off and ``FormOperator._trace_form``); the
map P^T with the copy of r it maps; the LAPACK ptsv and gtsv sweeps on
the trace form, as ``_definite_sweep`` and ``FormOperator.solve`` call
them; the map P back; the step's whole solve as each tree's minimizer
runs it (``_definite_sweep`` where the tree has it, else ``_sweep``) and
the pivoted ``FormOperator.solve`` on its own, which also builds its
diagonal; the pieces of the projection (the form from edges, the
squares, the mass sum; then either the entropy of the squares, its sum
and the product lambda * v, or the floor of the squares at ulp(0) or
their min, their log, the squares times their log and its sum) and the
whole projection; and the whole iteration (build, solve and
projection).  A part that overwrites its
inputs runs after copies that restore them, and the copies' time, timed
as its own part, is subtracted.  Each part is timed in ROUNDS rounds as
the best of REPEATS batches of CALLS calls, the two trees alternating
first and second between rounds.  Every round allocates each part's
arrays afresh: with one allocation for the whole run, a part whose code
is the same on both sides read up to 17 % apart, either tree ahead, in
every round of a run (where the arrays fell mattered more than the
tree); allocated per round, they read within 5.2 % in three runs, one
of them with the same tree on both sides.

It also times the five ``variational`` minimizations of perfbench on
Grid(20, 4096), each as the best of MIN_REPEATS runs in each of ROUNDS
rounds, alternated the same way, and counts per tree each case's
(iterations, newton, index), its descent steps, the steps on which
ptsv found a leading minor that is not positive and the pivoted sweep
ran instead (null for a tree without ``_definite_sweep``), the steps
whose shift was built from lambda s rather than from log s^2 (for a
tree whose ``_step_shift`` takes s, else null) and the renormalizations
s <- lambda s of a tree whose ``_step_shift`` takes the log alone (else
null), in one untimed run.

The JSON written to FILE has, per part and per minimization, both
trees' median and quartiles (us for a part, ms for a minimization), the
change's median relative to the base's and the rounds the change won,
the counts, and the run manifest of ``perfbench/manifest.py`` for each
tree.  BLAS runs on one thread.  It takes about 15 s on a 2-vCPU VM and
is not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
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
from step_ab import alternate, load, part_line, part_summaries, summary  # noqa: E402

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
    have is left out.  Every array the parts read or write is allocated
    by this call."""
    import numpy as np

    fields = importlib.import_module(lib.__name__ + ".fields")
    corefn = importlib.import_module(lib.__name__ + ".corefn")
    grid = fields.Grid(20.0, N)
    op, n, dx = fields.form_operator(grid, GAMMA), grid.n, grid.dx
    lapack = fields._linalg().lapack
    project = fields._project
    # a tree whose projection takes a log buffer carries the iterate as
    # (s, lambda, log s^2) and solves for s; the others form v = lambda s
    carried = "log_s2" in inspect.signature(project).parameters
    s = fields._seed_values(fields.Seed(SEED), GAMMA, 0.0, grid)
    tau = fields.TAU0
    scale, coupling = tau / dx, tau / dx * op.coupling
    shift, diag, spare, logs = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    if carried:
        lam, *returned = project(op, s, 0.0, logs)
        r = s
        if "s" in inspect.signature(fields._step_shift).parameters:
            # the projection returns its log, or None where the shift is
            # built from lambda s
            def step_shift():
                fields._step_shift(shift, s, lam, returned[1], tau, 0.0)
        else:
            def step_shift():
                fields._step_shift(shift, logs, lam, tau, 0.0)

        def build():
            step_shift()
            np.multiply(scale, op.diag, out=diag)
            np.add(diag, shift, out=diag)

        def projection(step):
            return project(op, step, 0.0, spare)
    else:
        r = project(op, s, 0.0)[0]

        def build():  # the eight passes of a tree without _step_shift
            corefn._log_abs2(r, out=shift)
            np.subtract(0.0, shift, out=shift)
            np.multiply(shift, tau, out=shift)
            np.add(shift, 1.0, out=shift)
            np.multiply(scale, op.diag, out=diag)
            np.add(diag, shift, out=diag)

        def projection(step):
            return project(op, step, 0.0)

    # the step's intermediates, saved from one run
    build()
    d_step = diag.copy()
    d_trace, e_trace = d_step.copy(), scale * op.off
    op._trace_form(d_trace, e_trace, coupling)
    b_trace = op._to_trace(r.copy())
    w = lapack.dptsv(d_trace, e_trace, b_trace)[2]
    step = op._from_trace(w.copy())
    s2 = corefn._abs2(step)
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
        op._to_trace(r.copy())

    def from_trace():
        np.copyto(b, w)
        op._from_trace(b)

    def restore_diag():
        np.copyto(diag, d_step)

    def solver(sweep):
        def call():
            np.copyto(diag, d_step)
            return sweep(diag, scale, r)
        return call

    definite = getattr(op, "_definite_sweep", None)
    # the step's solve as this tree's minimizer runs it
    solve = solver(op._sweep) if definite is None else solver(definite)

    def pivoted():
        op.solve(shift, scale, r)

    def iteration():
        build()
        projection(solve())

    parts = {
        "copies restoring the trace form and P^T r": (restore_trace, None),
        "copy restoring the diagonal": (restore_diag, None),
        "build: shift and diagonal": (build, None),
        "trace form (scale * off, _trace_form)": (trace_form, "copy restoring the diagonal"),
        "map P^T with the copy of r": (to_trace, None),
        "ptsv sweep": (ptsv, "copies restoring the trace form and P^T r"),
        "gtsv sweep": (gtsv, "copies restoring the trace form and P^T r"),
        "map P": (from_trace, "copy restoring the diagonal"),
        "solve as the minimizer runs it": (solve, "copy restoring the diagonal"),
        "pivoted solve (FormOperator.solve, whole)": (pivoted, None),
        "projection: form": (lambda: op.form(step), None),
        "projection: squares": (lambda: corefn._abs2(step), None),
        "projection: mass sum": (lambda: float(dx * np.sum(s2)), None),
    }
    if carried:
        floored = np.maximum(s2, corefn._SUBNORMAL)
        log_step = np.log(floored)
        prod = s2 * log_step
        if hasattr(fields, "_functionals"):  # the squares floored at ulp(0), then logged
            parts["projection: floor of the squares"] = (
                lambda: np.maximum(s2, corefn._SUBNORMAL, out=spare), None)
        else:  # the min of the squares decides whether they are logged
            parts["projection: min of the squares"] = (lambda: float(np.min(s2)), None)
        parts.update({
            "projection: log of the squares": (lambda: np.log(floored, out=spare), None),
            "projection: squares times their log": (lambda: np.multiply(s2, log_step, out=spare),
                                                    None),
            "projection: entropy sum": (lambda: float(dx * np.sum(prod)), None),
        })
    else:
        ent = corefn.entropy_of_squares(s2)
        rep = fields._report(op, step, 0.0)
        lam_step = math.exp(rep.nehari / (2.0 * rep.mass))  # as _project takes it
        parts.update({
            "projection: entropy of squares": (lambda: corefn.entropy_of_squares(s2), None),
            "projection: entropy sum": (lambda: float(dx * np.sum(ent)), None),
            "projection: lambda * v": (lambda: lam_step * step, None),
        })
    parts["projection (whole)"] = (lambda: projection(step), None)
    parts["whole iteration (build, solve, projection)"] = (iteration, None)
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
    """Per minimization, its (iterations, newton, index), its descent steps,
    the steps on which ptsv failed (None for a tree without
    _definite_sweep), and, for a tree whose _step_shift takes the step s,
    the steps whose shift was built from lambda s, not from the
    projection's log s^2, or else, for a tree with _step_shift, the
    renormalizations s <- lambda s (None otherwise), from one run with the
    sweep, the shift, the projection and Newton wrapped.  A
    renormalization is a projection besides the seed's, each descent
    step's and that of a converged Newton state."""
    fields = importlib.import_module(lib.__name__ + ".fields")
    cls = fields.FormOperator
    sweep, build = getattr(cls, "_definite_sweep", None), getattr(fields, "_step_shift", None)
    project, newton = fields._project, getattr(fields, "_newton", None)
    from_s = build is not None and "s" in inspect.signature(build).parameters
    tally = {}

    def wrapped_sweep(self, diag, scale, r):
        w = sweep(self, diag, scale, r)
        tally["fallbacks"] += w is None
        return w

    def wrapped_build(out, *args):
        tally["shift_from_lambda_s"] += from_s and args[2] is None
        return build(out, *args)

    def wrapped_project(*args):
        tally["projections"] += 1
        return project(*args)

    def wrapped_newton(*args):
        result = newton(*args)
        tally["projections"] -= result[2]  # a converged Newton state is projected
        return result

    wrapped = [(cls, "_definite_sweep", sweep, wrapped_sweep),
               (fields, "_step_shift", build, wrapped_build),
               (fields, "_project", project, wrapped_project),
               (fields, "_newton", newton, wrapped_newton)]
    out = {}
    for owner, name, original, wrapper in wrapped:
        if original is not None:
            setattr(owner, name, wrapper)
    try:
        for case, call in calls.items():
            tally.update(fallbacks=0, shift_from_lambda_s=0, projections=0)
            r = call()
            steps = r.iterations - r.newton
            out[case] = {"iterations": r.iterations, "newton": r.newton, "index": r.index,
                         "descent_steps": steps,
                         "fallbacks": None if sweep is None else tally["fallbacks"],
                         "shift_from_lambda_s": tally["shift_from_lambda_s"] if from_s else None,
                         "renormalized": None if build is None or from_s else
                             tally["projections"] - 1 - steps}
    finally:
        for owner, name, original, _ in wrapped:
            if original is not None:
                setattr(owner, name, original)
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

    parts = part_summaries(iteration_parts, libs, per_call_us, ROUNDS, "us")

    by_tree = {k: minimizations(lib) for k, lib in libs.items()}
    tallies = {k: counts(libs[k], by_tree[k]) for k in names}
    calls = {case: {k: by_tree[k][case] for k in names} for case in by_tree["base"]}
    runs = alternate(lambda: calls, best_ms, names, ROUNDS)
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
        print(part_line(name, p, 48))
    for case, m in minimize.items():
        c = m.get("counts", {}).get("change")
        print(f"minimize {case}: {m['base_ms']:.2f} -> {m['change_ms']:.2f} ms "
              f"({m['relative']:+.1%}, change faster in {m['change_wins']} of {ROUNDS})"
              + ("" if c is None else
                 f", fallbacks {c['fallbacks']}, shifts from lambda s "
                 f"{c['shift_from_lambda_s']} and renormalized {c['renormalized']} of "
                 f"{c['descent_steps']} steps"))
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
