"""Where the time of one Strang step and of one record goes, part by part,
for two trees timed alternately in one interpreter.

    python studies/step_parts.py BASE CHANGE [--out FILE]

BASE and CHANGE are lognls checkouts (each with ``src/lognls``).  One
interpreter loads both packages, under the names ``lognls_base`` and
``lognls_change``, as ``studies/step_ab.py`` does, so that the two
trees' numbers are taken side by side on the same machine state.

Times, on each library's own buffers, each part of one merged step of
``evolve`` (a step between records) and of one record, at (n, dt) =
(2048, 2e-3), criterion 10's grid, and (4096, 1e-3), the CLI default.
The state is the gamma = 2 symmetric profile on Grid(20, n) plus
perfbench's trial-0 perturbation of relative H^1 size 1e-2 at SEED,
stepped WARMUP steps by ``evolve``; the record's orbital distances are
to that profile.

The step's parts are those of ``dynamics._cn_step`` (the copy, the map
P^T to trace coordinates, the lower sweep, the product by 2/D, the upper
sweep, the map P back, the subtraction), the projection onto the mass
target, which ``evolve`` runs at records and every ``_CHECK_EVERY`` steps
only, and each pass of the merged rotation ``dynamics._rotate`` over dt.
A pass that would change its own input (the two maps and the two sweeps)
runs after a copy that restores it, and the copy's time is subtracted;
every other pass reads inputs saved from one run of the step, so it can
repeat.  The record's parts are the shared half factor, its product,
the mass and energy of ``fields._report`` and their pieces (the form
from edge differences among them; the entropy of the squares and its
sum, or, in a tree with ``fields._functionals``, the floor of the
squares at ulp(0), its log, the squares times it and its sum), and the
orbital distances and their
pieces: the phase fit as one ``vdot`` with the cached reference's g,
the difference from the fitted reference, its amplitudes, its node
derivative, the sums and the Luxemburg gauge.  The finiteness of a
recorded state is read off the projection, a step part, and the
reference that ``evolve`` takes from ``dynamics._reference`` is timed
uncached, as a run's first call builds it.  Each part, and the
whole step and record as ``evolve`` runs them, is timed in ROUNDS
rounds as the best of REPEATS batches of CALLS calls, the two trees
alternating first and second between rounds, on arrays allocated
afresh for every round (``step_ab.part_summaries``); a part that a tree
does not have is left out of its runs.

The JSON written to FILE has, per case and part, both trees' median and
quartiles over the rounds in microseconds per call, the change's median
relative to the base's and the rounds the change won, and the run
manifest of ``perfbench/manifest.py`` for each tree.  BLAS runs on one
thread.  The inputs are deterministic, the timings are not; it takes
about a minute and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(HERE))

from manifest import manifest, pin_blas_threads  # noqa: E402
from step_ab import load, part_line, part_summaries  # noqa: E402

ROUNDS, REPEATS, CALLS, SEED, DELTA, WARMUP = 7, 5, 200, 0, 1e-2, 100
CASES = [(2048, 2e-3), (4096, 1e-3)]
GAMMA, BRANCH = 2.0, "symmetric"


def per_call_us(call) -> float:
    """The fastest of REPEATS batches of CALLS calls, in us per call."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        for _ in range(CALLS):
            call()
        best = min(best, perf_counter() - t0)
    return best / CALLS * 1e6


def case_parts(lib, n: int, dt: float) -> dict:
    """lib's step and record parts at (n, dt): {"step": parts, "record":
    parts}, each a dict of name -> (call, name of a part whose time is
    subtracted, or None).  Every array the parts read or write is
    allocated by this call."""
    import numpy as np

    corefn, dynamics, fields, stationary = (
        importlib.import_module(f"{lib.__name__}.{m}")
        for m in ("corefn", "dynamics", "fields", "stationary"))

    grid = fields.Grid(20.0, n)
    params = stationary.branch_params(GAMMA, 0.0, stationary.Branch(BRANCH))
    phi = fields.sample_profile(params, grid)
    pert = fields.random_smooth_field(grid, np.random.default_rng((SEED, 0)))
    u0 = phi.with_values(phi.values + pert.values * (DELTA * fields.sigma_norm(phi)
                                                     / fields.sigma_norm(pert)))
    config = dynamics.EvolutionConfig(dt=dt, t_end=WARMUP * dt, record_every=WARMUP)
    v = dynamics.evolve(u0, GAMMA, config).final.values.copy()
    solve = dynamics._propagator(grid, GAMMA, dt)
    op, dx, half = fields.form_operator(grid, GAMMA), grid.dx, 0.5 * dt
    mass = np.vdot(v, v).real
    out, out2, work, ph = (np.empty_like(v) for _ in range(4))
    rate, rot_work = np.empty(n), np.empty(n)

    # the step's intermediates, saved from one run
    b_trace = op._to_trace(v.copy())
    y_lower = solve.tbsv(1, solve.band, b_trace.copy(), lower=1, diag=1, overwrite_x=1)
    y_2d = y_lower * solve.two_over_d
    y_upper = solve.tbsv(1, solve.band, y_2d.copy(), lower=0, diag=1, overwrite_x=1)
    y_solved = solve(v, np.empty_like(v))
    w = y_solved - v
    s = np.abs(w)
    s2 = s * s
    floored = np.maximum(s2, corefn._TINY)
    logged = np.log(floored)
    scaled = 0.5 * dt * logged
    t = np.tan(scaled)
    q = t * t
    re = 1.0 - q
    q1 = q + 1.0
    t2 = t + t
    phase = dynamics._phase(w, dt, np.empty_like(w), np.empty(n), np.empty(n))

    def restore(src):
        return lambda: np.copyto(out, src)

    def sweep(src, lower):
        def call():
            np.copyto(out, src)
            solve.tbsv(1, solve.band, out, lower=lower, diag=1, overwrite_x=1)
        return call

    def trace_map(src, apply):
        def call():
            np.copyto(out, src)
            apply(out)
        return call

    w_proj = w.copy()
    step = {
        "copy": (restore(v), None),
        "map P^T (to trace coordinates)": (trace_map(v, op._to_trace), "copy"),
        "lower sweep": (sweep(b_trace, 1), "copy"),
        "product by 2/D": (lambda: np.multiply(y_lower, solve.two_over_d, out=out), None),
        "upper sweep": (sweep(y_2d, 0), "copy"),
        "map P (back to the samples)": (trace_map(y_upper, op._from_trace), "copy"),
        "subtraction": (lambda: np.subtract(y_solved, v, out=out), None),
        "projection (records and every _CHECK_EVERY steps)":
            (lambda: dynamics._project(w_proj, mass, work), None),
        "rotation: abs": (lambda: np.abs(w, out=rate), None),
        "rotation: square": (lambda: np.multiply(s, s, out=rate), None),
        "rotation: floor": (lambda: np.maximum(s2, corefn._TINY, out=rate), None),
        "rotation: log": (lambda: np.log(floored, out=rate), None),
        "rotation: scale": (lambda: np.multiply(0.5 * dt, logged, out=rate), None),
        "rotation: tan": (lambda: np.tan(scaled, out=rate), None),
        "rotation: t^2": (lambda: np.multiply(t, t, out=rot_work), None),
        "rotation: 1 - t^2": (lambda: np.subtract(1.0, q, out=ph.real), None),
        "rotation: 1 + t^2": (lambda: np.add(q, 1.0, out=rot_work), None),
        "rotation: real part": (lambda: np.divide(re, q1, out=ph.real), None),
        "rotation: 2t": (lambda: np.add(t, t, out=rate), None),
        "rotation: imaginary part": (lambda: np.divide(t2, q1, out=ph.imag), None),
        "rotation: complex product": (lambda: np.multiply(w, phase, out=out), None),
        "whole step (_cn_step, then _rotate over dt)":
            (lambda: dynamics._rotate(dynamics._cn_step(solve, v, out), dt, out2, rate,
                                      rot_work), None),
    }

    u = v  # the recorded state
    phi_v, g = dynamics._reference(params, grid)
    buffers = fields._distance_buffers(n)
    diff, ddiff, amp = buffers
    theta = fields._phase_fit(u, g)
    e = np.exp(1j * theta)
    fields._sigma_dist_at(u, phi_v, theta, grid, *buffers)
    edge = np.subtract(u[1:], u[:-1])
    u2 = corefn._abs2(u)

    def difference():
        np.multiply(e, phi_v, out=out)
        np.subtract(u, out, out=out)

    def whole_record():
        dynamics._project(w_proj, mass, work)
        dynamics._phase(w_proj, half, ph, rate, rot_work)
        np.multiply(w_proj, ph, out=out)
        fields._report(op, out, 0.0)
        fields._orbital_distances(out, phi_v, g, grid, buffers)
        np.multiply(out, ph, out=out2)

    record = {
        "half factor (_phase over dt/2)": (lambda: dynamics._phase(u, half, ph, rate, rot_work),
                                           None),
        "product by the half factor (twice a record)":
            (lambda: np.multiply(u, phase, out=out), None),
        "report: form": (lambda: op.form(u), None),
        "report: form: edge differences": (lambda: np.subtract(u[1:], u[:-1], out=edge), None),
        "report: form: edge sum (vdot)": (lambda: np.vdot(edge, edge), None),
        "report: squares": (lambda: corefn._abs2(u), None),
        "report: mass sum": (lambda: float(dx * np.sum(u2)), None),
    }
    if hasattr(fields, "_functionals"):  # the squares times their floored log
        u2_floored = np.maximum(u2, corefn._SUBNORMAL)
        log_u2 = np.log(u2_floored)
        ent = u2 * log_u2
        record.update({
            "report: floor of the squares":
                (lambda: np.maximum(u2, corefn._SUBNORMAL, out=rate), None),
            "report: log of the floored squares": (lambda: np.log(u2_floored, out=rate), None),
            "report: squares times their log": (lambda: np.multiply(u2, log_u2, out=rate),
                                                None),
        })
    else:
        ent = corefn.entropy_of_squares(u2)
        record["report: entropy of squares"] = (lambda: corefn.entropy_of_squares(u2), None)
    record.update({
        "report: entropy sum": (lambda: float(dx * np.sum(ent)), None),
        "report (whole)": (lambda: fields._report(op, u, 0.0), None),
        "distances: phase fit (one vdot)": (lambda: fields._phase_fit(u, g), None),
        "distances: difference": (difference, None),
        "distances: amplitudes": (lambda: np.abs(diff, out=rate), None),
        "distances: derivative of the difference":
            (lambda: fields._derivative(diff, grid, out=out), None),
        "distances: sums": (lambda: np.dot(amp, amp) + np.vdot(ddiff, ddiff).real, None),
        "distances: sigma distance": (lambda: fields._sigma_dist_at(u, phi_v, theta, grid,
                                                                     *buffers), None),
        "distances: Luxemburg gauge": (lambda: corefn._gauge(amp, dx), None),
        "distances (whole)": (lambda: fields._orbital_distances(u, phi_v, g, grid, buffers),
                              None),
        "whole record (as evolve runs it)": (whole_record, None),
        "reference, uncached (once per run and grid)":
            (lambda: dynamics._reference.__wrapped__(params, grid), None),
    })
    return {"step": step, "record": record}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree measured as the base")
    p.add_argument("change", type=Path, help="source tree measured as the change")
    p.add_argument("--out", type=Path, default=Path("step_parts.json"), help="JSON to write")
    args = p.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "lognls" / "dynamics.py").is_file():
            p.error(f"{tree} has no src/lognls/dynamics.py")
    pin_blas_threads()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    libs = {k: load(f"lognls_{k}", tree / "src") for k, tree in trees.items()}
    cases = {}
    for n, dt in CASES:
        name = f"n={n} dt={dt:g}"
        cases[name] = {kind: part_summaries(lambda lib, kind=kind: case_parts(lib, n, dt)[kind],
                                            libs, per_call_us, ROUNDS, "us")
                       for kind in ("step", "record")}
        for kind in ("step", "record"):
            print(f"{name}, {kind}:")
            for part, r in cases[name][kind].items():
                print("  " + part_line(part, r, 52))
    inputs = {"cases": CASES, "gamma": GAMMA, "branch": BRANCH, "delta": DELTA,
              "warmup_steps": WARMUP, "rounds": ROUNDS, "repeats": REPEATS, "calls": CALLS}
    doc = {
        "study": "step_parts",
        "what": "per-part times of one merged Strang step and of one record of evolve, in "
                "us per call, both trees in one interpreter, alternated per round: median "
                "and quartiles over rounds of the best of repeated batches; 'less' names the "
                "part whose time was subtracted (a restoring copy); relative = change median "
                "/ base median - 1",
        "cases": cases,
        "manifest": {k: manifest(tree, SEED, "step_parts", inputs) for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
