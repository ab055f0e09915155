"""Both trees' Strang stepping, timed alternately in one interpreter.

    python studies/step_ab.py BASE CHANGE [--out FILE]

BASE and CHANGE are lognls checkouts (each with ``src/lognls``).  One
interpreter loads both packages, under the names ``lognls_base`` and
``lognls_change``, and builds in each the ``evolve`` segments of
perfbench's stepping workloads:

* ``trajectory``: the gamma = 2 symmetric profile on Grid(20, 4096),
  dt = 1e-3, 50 steps with a record every 5;
* ``stability``: the four criterion-10 cases (gamma = 1 symmetric, 2
  symmetric, 3 asymmetric-left, 3 symmetric) on Grid(20, 2048),
  dt = 2e-3, 125 steps with a record at the end;

each from the sampled profile plus perfbench's trial-0 perturbation of
relative H^1 size 1e-2 at SEED, recording orbital distances to the
profile; each (workload, gamma, branch) is one segment.  After one
warm-up call per segment and tree (which factors the propagators), each
of ROUNDS rounds times every segment on both trees, in an order that
alternates between rounds, as the best of REPEATS calls.  The JSON
written to FILE has, per segment, both trees' median and quartiles in
ms, the change's median relative to the base's and the rounds the
change won, and the run manifest of ``perfbench/manifest.py`` for each
tree.  BLAS runs on one thread.  It takes about half a minute and is not
part of the test suite.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from manifest import manifest, pin_blas_threads  # noqa: E402

ROUNDS, REPEATS, SEED, DELTA = 30, 5, 0, 1e-2
# (segment, grid n, dt, steps, record_every, [(gamma, branch), ...])
SEGMENTS = [
    ("trajectory", 4096, 1e-3, 50, 5, [(2.0, "symmetric")]),
    ("stability", 2048, 2e-3, 125, 125, [(1.0, "symmetric"), (2.0, "symmetric"),
                                         (3.0, "asymmetric-left"), (3.0, "symmetric")]),
]


def load(name: str, src: Path):
    """The lognls package under src, imported as the package `name`."""
    pkg = src / "lognls"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def segment_calls(lib) -> dict:
    """Per segment name, a zero-argument call running its evolve in lib."""
    import numpy as np

    fields = importlib.import_module(lib.__name__ + ".fields")
    dynamics = importlib.import_module(lib.__name__ + ".dynamics")
    stationary = importlib.import_module(lib.__name__ + ".stationary")
    calls = {}
    for workload, n, dt, steps, every, cases in SEGMENTS:
        grid = fields.Grid(20.0, n)
        config = dynamics.EvolutionConfig(dt=dt, t_end=steps * dt, record_every=every)
        for gamma, branch in cases:
            params = stationary.branch_params(gamma, 0.0, stationary.Branch(branch))
            phi = fields.sample_profile(params, grid)
            pert = fields.random_smooth_field(grid, np.random.default_rng((SEED, 0)))
            u0 = phi.with_values(phi.values + pert.values * (DELTA * fields.sigma_norm(phi)
                                                             / fields.sigma_norm(pert)))
            calls[f"{workload} gamma={gamma:g} {branch}"] = (
                lambda u0=u0, gamma=gamma, params=params, config=config:
                dynamics.evolve(u0, gamma, config, reference=params))
    return calls


def best_of(call) -> float:
    """The fastest of REPEATS runs of call, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = perf_counter()
        call()
        best = min(best, perf_counter() - t0)
    return best


def quartiles(xs) -> list[float]:
    return [float(q) for q in statistics.quantiles(xs, n=4)]


def alternate(make_calls, measure, trees, rounds: int) -> dict:
    """Per name, each tree's `rounds` measurements of calls[name][tree],
    the trees alternating first and second between rounds, where calls =
    make_calls() is made anew for the warm-up and for every round; a tree
    that calls[name] lacks is skipped."""
    for per_tree in make_calls().values():  # warm up
        for call in per_tree.values():
            call()
    runs = {}
    for r in range(rounds):
        order = trees if r % 2 == 0 else trees[::-1]
        for name, per_tree in make_calls().items():
            for k in order:
                if k in per_tree:
                    runs.setdefault(name, {t: [] for t in trees})[k].append(
                        measure(per_tree[k]))
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
    out["rounds"] = max(len(xs) for xs in runs.values())
    return out


def part_summaries(make_parts, libs: dict, measure, rounds: int, unit: str) -> dict:
    """Per part, summary() of both trees' times net of the part they
    subtract, with "less" naming that part, where make_parts(lib) gives
    lib's parts as name -> (call, name of the part whose time is
    subtracted, or None).  The parts are made anew for the warm-up and for
    every round of alternate(), so each round's calls read and write
    arrays allocated for that round; a part that a tree lacks is left out
    of its runs."""
    trees = tuple(libs)
    by_tree = {k: make_parts(lib) for k, lib in libs.items()}
    names = list(dict.fromkeys(name for k in trees for name in by_tree[k]))

    def calls():
        fresh = {k: make_parts(lib) for k, lib in libs.items()}
        return {name: {k: fresh[k][name][0] for k in trees if name in fresh[k]}
                for name in names}

    runs = alternate(calls, measure, trees, rounds)
    out = {}
    for name in names:
        minus = next(by_tree[k][name][1] for k in trees if name in by_tree[k])
        net = {k: [x - m for x, m in zip(runs[name][k], runs[minus][k])] if minus else
               runs[name][k] for k in trees}
        out[name] = {**summary(net, unit), "less": minus}
    return out


def part_line(name: str, p: dict, width: int) -> str:
    """One printed row of a part_summaries() entry: both trees' medians,
    the relative change and the rounds the change won."""
    return (f"{name:<{width}} " + "  ".join("      -   " if x is None else f"{x:8.2f}us"
                                          for x in (p["base_us"], p["change_us"]))
            + ("" if "relative" not in p else
               f"  ({p['relative']:+.1%}, change faster in {p['change_wins']} of "
               f"{p['rounds']})"))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree measured as the base")
    p.add_argument("change", type=Path, help="source tree measured as the change")
    p.add_argument("--out", type=Path, default=Path("step_ab.json"), help="JSON to write")
    args = p.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "lognls" / "dynamics.py").is_file():
            p.error(f"{tree} has no src/lognls/dynamics.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    libs = {k: load(f"lognls_{k}", tree / "src") for k, tree in trees.items()}
    by_tree = {k: segment_calls(lib) for k, lib in libs.items()}
    calls = {name: {k: by_tree[k][name] for k in trees} for name in by_tree["base"]}
    # the warm-up factors the propagators
    times = alternate(lambda: calls, lambda call: best_of(call) * 1e3, tuple(trees), ROUNDS)
    segments = {}
    for name, t in times.items():
        s = segments[name] = {**summary(t, "ms"), "runs_ms": t}
        print(f"{name}: {s['base_ms']:.3f} -> {s['change_ms']:.3f} ms ({s['relative']:+.1%}), "
              f"change faster in {s['change_wins']} of {ROUNDS} rounds")
    inputs = {"segments": SEGMENTS, "rounds": ROUNDS, "repeats": REPEATS, "seed": SEED,
              "delta": DELTA}
    doc = {
        "study": "step_ab",
        "what": "evolve segments of perfbench's trajectory and stability workloads, both "
                "trees in one interpreter, alternated per round; best of repeats calls per "
                "round, in ms; relative = change median / base median - 1",
        "segments": segments,
        "manifest": {k: manifest(tree, SEED, "step_ab", inputs) for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
