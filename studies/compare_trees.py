"""Bitwise comparison of two source trees' outputs: sha256 hashes of the
time stepper's, the minimizer's and the README commands' results.

    python studies/compare_trees.py BASE CHANGE [--out FILE]

BASE and CHANGE are lognls checkouts (each with ``src/lognls``).  For
each tree, one new interpreter imports lognls from that tree's ``src``
and hashes the library probes:

* ``evolve`` on the cases in EVOLVE_CASES (records, final state and
  snapshots, each hashed on its own bytes);
* one ``stability_experiment``;
* the five ``variational`` minimizations of perfbench (iterations,
  Newton steps, Morse index, value, action and field of each);
* one minimization from the free-line Gaussian seed of FREE_GAUSSIAN,
  whose descent meets step systems that are not positive definite;
* ``stationary_newton`` and ``morse_index`` from the sampled symmetric
  branch on the cases in NEWTON (the same counts and fields, and the
  index of the start);
* a chain of public ``nonlinear_step`` and ``linear_step`` calls as in
  STEPS (every state of the chain);
* one ``linear_step`` at each large dt of LARGE_DT, dt = +-40 and just
  below the stiffness bound of ``dynamics._propagator``, on its grids;
* the Luxemburg gauge ``corefn._gauge`` (norm and modular evaluations)
  on the amplitude sets of GAUGE, drawn by numpy alone
  (``luxemburg_gauge.random_sets``), so that both trees see the same
  inputs whatever their time stepper does;

then each README command in COMMANDS runs in a new interpreter of its
own, and its stdout, its stderr and the file it writes are hashed.
Files go to a temporary directory, which is removed at the end; the
probe interpreter also saves the arrays it hashed there (``np.savez``).

The JSON written to FILE has, per probe, both trees' hashes and whether
they are equal, the overall verdict ``all_equal``, and the run manifest
of ``perfbench/manifest.py`` for each tree.  A library probe whose hashes
differ also gets ``max_rel_diff``: the largest, over the arrays it hashed,
of max|a - b| / max|a| with a the base tree's array (null when the
shapes differ); a minimizer or Newton probe that differs also gets
``counts``, both trees' (iterations, newton, index).  Every ``evolve``
records probe gets ``mass_drift``: each tree's largest relative record
mass drift, max|m - m_0| / m_0, equal hashes or not.  BLAS runs on one
thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from cli_startup import COMMANDS as README_COMMANDS  # noqa: E402
from manifest import manifest, pin_blas_threads  # noqa: E402

# (name, grid n, gamma, branch, dt, steps, record_every, snapshot_every):
# each starts from the branch's profile plus a seeded perturbation of
# relative H^1 size 1e-2 and records orbital distances to the profile
EVOLVE_CASES = [
    ("n2048-g1-sym-rec125", 2048, 1.0, "symmetric", 2e-3, 1250, 125, 2),
    ("n4096-g2-sym-rec5", 4096, 2.0, "symmetric", 1e-3, 300, 5, 10),
    ("n2048-g3-left-rec7", 2048, 3.0, "asymmetric-left", 2e-3, 350, 7, 5),
    ("n512-g3-left-rec1", 512, 3.0, "asymmetric-left", 2e-3, 200, 1, 20),
    ("n4096-g2-sym-rec100", 4096, 2.0, "symmetric", 1e-3, 300, 100, None),
    ("n2048-g3-left-rec125", 2048, 3.0, "asymmetric-left", 2e-3, 1250, 125, None),
]
STABILITY = dict(gamma=3.0, omega=0.0, branch="asymmetric-left", perturbation_size=1e-2,
                 t_end=0.5, trials=2, rng_seed=0, grid_n=1024, dt=2e-3, record_every=25)
# perfbench's variational minimizations, on its grid (L = 20, n = 4096)
MINIMIZE = [(1.0, "symmetric"), (3.0, "left"), (3.0, "right"), (2.01, "left"), (2.1, "left")]
# a minimization whose step systems are mostly indefinite: the free-line
# Gaussian e^{1/2} e^{-x^2/2} as a custom seed on Grid(20, grid_n), next to
# the even stationary state, where L- has a negative eigenvalue; ptsv fails
# on 14 of the descent's 15 steps and the pivoted sweep solves them
FREE_GAUSSIAN = dict(gamma=1.0, grid_n=256)
# (gamma, grid n) of the Newton probes at omega = 0: the symmetric saddle
# above the pitchfork, and either side of the discrete pitchfork at n = 2048
NEWTON = [(2.01, 1024), (3.0, 1024), (1.9999, 2048), (2.0, 2048)]
# the substep chain: each step is nonlinear_step then linear_step over dt,
# from the perturbed asymmetric-left profile
STEPS = dict(gamma=3.0, grid_n=2048, dt=2e-3, steps=20)
# one linear_step of a seeded complex state on each grid (L, n) at gamma,
# for dt = +-40 and for the largest |dt| below the stiffness bound
LARGE_DT = dict(gamma=2.0, grids=[(1.0, 10), (1.0, 256)], dts=(40.0, -40.0))
# luxemburg_gauge.random_sets(seed, count): the gauge study's random family
GAUGE = dict(seed=0, count=2000)

# the README commands that write a result, each with its --out file; the
# stability command takes minutes and is left out
COMMANDS = {k: v for k, v in README_COMMANDS.items() if k != "stability"}

# imports lognls from argv[1] (and fails if another copy answers), then
# runs the code that follows
PRELUDE = ("import sys; sys.path.insert(0, sys.argv[1]); import lognls; "
           "lognls.__file__.startswith(sys.argv[1]) or sys.exit("
           "'lognls imported from ' + lognls.__file__); ")
PROBES = (PRELUDE + f"sys.path.insert(0, {str(HERE)!r}); "
          "import compare_trees; compare_trees.probe(sys.argv[2])")
COMMAND = PRELUDE + "import lognls.cli; sys.exit(lognls.cli.main(sys.argv[2:]))"
# the library probes' arrays, in each tree's temporary directory
ARRAYS = "probe_arrays.npz"
# the probes that hash a MinimizeResult, whose first array is
# (iterations, newton, index)
RESULT_PROBES = ("minimize ", "newton ")


def digest(*parts) -> str:
    """sha256 over the bytes of each part (arrays by their raw bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        b = part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes()
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def probe(arrays_file: str) -> None:
    """Print the library probes' hashes as one JSON object, and save the
    arrays each hashed to arrays_file, under the keys "<probe>#<k>" (run
    in the tree's own interpreter)."""
    import numpy as np

    from luxemburg_gauge import random_sets

    from lognls import corefn, fields
    from lognls.dynamics import (EvolutionConfig, evolve, linear_step, nonlinear_step,
                                 stability_experiment)
    from lognls.stationary import Branch, branch_params

    out, arrays = {}, {}

    def put(name, *parts, tag=""):
        """Hash parts as probe name and keep them for max_rel_diff."""
        arrays.update((f"{name}#{k}", np.asarray(a)) for k, a in enumerate(parts))
        out[name] = tag + digest(*parts)

    def put_result(name, res, tag=""):
        put(name, np.array([res.iterations, res.newton, res.index]),
            np.array([res.value, res.action]), res.field.values, tag=tag)

    def perturbed(params, grid):
        """The sampled profile plus a seeded perturbation of relative H^1
        size 1e-2."""
        phi = fields.sample_profile(params, grid)
        pert = fields.random_smooth_field(grid, np.random.default_rng((7, grid.n)))
        return phi.with_values(
            phi.values + pert.values * (1e-2 * fields.sigma_norm(phi) / fields.sigma_norm(pert)))

    for name, n, gamma, branch, dt, steps, every, snap in EVOLVE_CASES:
        grid = fields.Grid(20.0, n)
        params = branch_params(gamma, 0.0, Branch(branch))
        u0 = perturbed(params, grid)
        res = evolve(u0, gamma, EvolutionConfig(dt=dt, t_end=steps * dt, record_every=every,
                                                snapshot_every=snap), reference=params)
        # one array per record field, so that each gets its own relative difference
        put(f"evolve {name} records", *np.array(
            [(r.time, r.mass, r.energy, r.orbital_distance_sigma, r.orbital_distance_w)
             for r in res.records]).T)
        put(f"evolve {name} final", res.final.values)
        put(f"evolve {name} snapshots", np.array([t for t, _ in res.snapshots]),
            *(f.values for _, f in res.snapshots))
    kw = dict(STABILITY)
    grid = fields.Grid(20.0, kw.pop("grid_n"))
    summary = stability_experiment(**{**kw, "branch": Branch(kw["branch"])}, grid=grid)
    put("stability_experiment", *np.array(
        [[getattr(t, f) for f in ("initial_distance_sigma", "max_distance_sigma", "ratio_sigma",
                                  "initial_distance_w", "max_distance_w", "ratio_w")]
         for t in summary.trials]).T)
    for gamma, seed in MINIMIZE:
        put_result(f"minimize gamma={gamma:g} seed={seed}",
                   fields.minimize_dgamma(gamma, 0.0, seed=fields.Seed(seed),
                                          grid=fields.Grid(20.0, 4096)))
    grid, gamma = fields.Grid(20.0, FREE_GAUSSIAN["grid_n"]), FREE_GAUSSIAN["gamma"]
    x = grid.nodes()
    put_result(f"minimize free gaussian gamma={gamma:g} n={grid.n}",
               fields.minimize_dgamma(gamma, 0.0, seed=fields.Field(
                   grid, np.exp(0.5) * np.exp(-0.5 * x * x)), grid=grid))
    for gamma, n in NEWTON:
        u = fields.sample_profile(branch_params(gamma, 0.0, Branch.SYMMETRIC),
                                  fields.Grid(20.0, n))
        try:
            put_result(f"newton gamma={gamma:g} n={n}", fields.stationary_newton(u, gamma, 0.0))
        except fields.ConvergenceError as err:  # a stall hashes its last iterate
            put_result(f"newton gamma={gamma:g} n={n}", err.result, tag="stalled ")
        put(f"morse_index gamma={gamma:g} n={n}", np.array([fields.morse_index(u, gamma, 0.0)]))
    grid, dt = fields.Grid(20.0, STEPS["grid_n"]), STEPS["dt"]
    params = branch_params(STEPS["gamma"], 0.0, Branch.ASYMMETRIC_LEFT)
    u, states = perturbed(params, grid), []
    for _ in range(STEPS["steps"]):
        u = linear_step(nonlinear_step(u, dt), STEPS["gamma"], dt)
        states.append(u.values)
    put("steps", *states)
    for L, n in LARGE_DT["grids"]:
        grid = fields.Grid(L, n)
        rng = np.random.default_rng(n)
        u = fields.Field(grid, rng.standard_normal(n) + 1j * rng.standard_normal(n))
        below = math.nextafter(2.0**52 * grid.dx * grid.dx / 1.5, 0.0)
        for name, dt in [*((f"{dt:+g}", dt) for dt in LARGE_DT["dts"]),
                         ("+below bound", below), ("-below bound", -below)]:
            put(f"linear_step L={L:g} n={n} dt={name}",
                linear_step(u, LARGE_DT["gamma"], dt).values)
    gauges = [corefn._gauge(amp, dx) for amp, dx in random_sets(GAUGE["seed"], GAUGE["count"])]
    put("gauge random", np.array([k for k, _ in gauges]), np.array([e for _, e in gauges]))
    np.savez(arrays_file, **arrays)
    print(json.dumps(out))


def tree_hashes(src: Path, tmp: Path) -> dict:
    """Every probe's hash for the tree whose sources are src; the library
    probes' arrays go to tmp/ARRAYS."""
    proc = subprocess.run([sys.executable, "-c", PROBES, str(src), str(tmp / ARRAYS)],
                          capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise RuntimeError(f"probes failed for {src}: {proc.stderr}")
    hashes = json.loads(proc.stdout)
    for name, argv in COMMANDS.items():
        out_file = tmp / argv[argv.index("--out") + 1]
        out_file.unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-c", COMMAND, str(src), *argv], cwd=tmp,
                              capture_output=True, timeout=1800)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} exited {proc.returncode}: {proc.stderr.decode()}")
        hashes[f"cli {name} stdout"] = digest(proc.stdout)
        hashes[f"cli {name} stderr"] = digest(proc.stderr)
        hashes[f"cli {name} file"] = digest(out_file.read_bytes())
    return hashes


def max_rel_diffs(base_file: Path, change_file: Path, names) -> dict:
    """Per probe in names, the largest max|a - b| / max|a| over the arrays
    it hashed, a saved by the base tree and b by the change; None when the
    two trees hashed different shapes."""
    import numpy as np

    out = {}
    with np.load(base_file) as base, np.load(change_file) as change:
        for name in names:
            keys = sorted(k for k in base.files if k.startswith(name + "#"))
            if keys != sorted(k for k in change.files if k.startswith(name + "#")) or any(
                    base[k].shape != change[k].shape for k in keys):
                out[name] = None
                continue
            worst = 0.0
            for k in keys:
                a, b = base[k], change[k]
                diff = float(np.max(np.abs(a - b), initial=0.0))
                scale = float(np.max(np.abs(a), initial=0.0))
                worst = max(worst, diff / scale if scale else (math.inf if diff else 0.0))
            out[name] = worst
    return out


def result_counts(base_file: Path, change_file: Path, names) -> dict:
    """Per probe in names (each in RESULT_PROBES), both trees'
    (iterations, newton, index)."""
    import numpy as np

    with np.load(base_file) as base, np.load(change_file) as change:
        return {name: {"base": base[f"{name}#0"].tolist(), "change": change[f"{name}#0"].tolist()}
                for name in names}


def mass_drifts(base_file: Path, change_file: Path, names) -> dict:
    """Per evolve records probe in names, both trees' max|m - m_0| / m_0
    over the recorded masses (the records' second array)."""
    import numpy as np

    def drift(m):
        return float(np.max(np.abs(m - m[0])) / m[0])

    with np.load(base_file) as base, np.load(change_file) as change:
        return {name: {"base": drift(base[f"{name}#1"]), "change": drift(change[f"{name}#1"])}
                for name in names}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree measured as the base")
    p.add_argument("change", type=Path, help="source tree measured as the change")
    p.add_argument("--out", type=Path, default=Path("compare_trees.json"), help="JSON to write")
    args = p.parse_args(argv)
    for tree in (args.base, args.change):
        if not (tree / "src" / "lognls" / "cli.py").is_file():
            p.error(f"{tree} has no src/lognls/cli.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    trees = {"base": args.base, "change": args.change}
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="compare-trees-") as tmp:
        for k, tree in trees.items():
            (Path(tmp) / k).mkdir()
            hashes[k] = tree_hashes(tree.resolve() / "src", Path(tmp) / k)
            print(f"{k}: {len(hashes[k])} probes hashed", flush=True)
        probes = {name: {"base": hashes["base"].get(name), "change": hashes["change"].get(name),
                         "equal": hashes["base"].get(name) == hashes["change"].get(name)}
                  for name in sorted(hashes["base"].keys() | hashes["change"].keys())}
        differ = [name for name, p in probes.items()
                  if not p["equal"] and not name.startswith("cli ")]
        files = Path(tmp) / "base" / ARRAYS, Path(tmp) / "change" / ARRAYS
        for name, rel in max_rel_diffs(*files, differ).items():
            probes[name]["max_rel_diff"] = rel
        for name, counts in result_counts(
                *files, [name for name in differ if name.startswith(RESULT_PROBES)]).items():
            probes[name]["counts"] = counts
        for name, drift in mass_drifts(*files, [name for name in probes if name.startswith(
                "evolve ") and name.endswith(" records")]).items():
            probes[name]["mass_drift"] = drift
    inputs = {"evolve": EVOLVE_CASES, "stability_experiment": STABILITY,
              "minimize": MINIMIZE, "free_gaussian": FREE_GAUSSIAN, "newton": NEWTON,
              "steps": STEPS, "large_dt": LARGE_DT, "gauge": GAUGE, "cli": COMMANDS}
    doc = {
        "study": "compare_trees",
        "what": "sha256 of the evolve, stability_experiment, minimizer, Newton, Morse index, "
                "substep-chain, large-dt linear_step and Luxemburg gauge results and of the "
                "README commands' stdout, stderr and files, one fresh interpreter per tree "
                "for the library probes and one per "
                "command; max_rel_diff = max over a probe's arrays of max|a - b| / max|a| "
                "(a the base tree's) where a library probe differs; counts = both trees' "
                "(iterations, newton, index) where a minimizer or Newton probe differs; "
                "mass_drift = both trees' max|m - m_0| / m_0 over each evolve probe's records",
        "all_equal": all(p["equal"] for p in probes.values()),
        "probes": probes,
        "manifest": {k: manifest(tree.resolve(), 0, "compare_trees", inputs)
                     for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, p in probes.items():
        if "mass_drift" in p:
            print(f"mass drift: {name} {p['mass_drift']['base']:.3g} -> "
                  f"{p['mass_drift']['change']:.3g}")
        if not p["equal"]:
            rel, counts = p.get("max_rel_diff"), p.get("counts")
            print(f"differs: {name}" + ("" if rel is None else f" (max rel diff {rel:.3g})")
                  + ("" if counts is None else
                     f" (iterations, newton, index) {counts['base']} -> {counts['change']}"))
    print(f"{sum(p['equal'] for p in probes.values())} of {len(probes)} probes equal")
    return 0 if doc["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
