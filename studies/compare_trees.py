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

then each README command in COMMANDS runs in a new interpreter of its
own, and its stdout, its stderr and the file it writes are hashed.
Files go to a temporary directory, which is removed at the end.

The JSON written to FILE has, per probe, both trees' hashes and whether
they are equal, the overall verdict ``all_equal``, and the run manifest
of ``perfbench/manifest.py`` for each tree.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from manifest import manifest, pin_blas_threads  # noqa: E402

# (name, grid n, gamma, branch, dt, steps, record_every, m, snapshot_every):
# each starts from the branch's profile plus a seeded perturbation of
# relative H^1 size 1e-2 and records orbital distances to the profile
EVOLVE_CASES = [
    ("n2048-g1-sym-rec125", 2048, 1.0, "symmetric", 2e-3, 1250, 125, None, 2),
    ("n4096-g2-sym-rec5", 4096, 2.0, "symmetric", 1e-3, 300, 5, None, 10),
    ("n2048-g3-left-m4-rec7", 2048, 3.0, "asymmetric-left", 2e-3, 350, 7, 4.0, 5),
    ("n512-g3-left-rec1", 512, 3.0, "asymmetric-left", 2e-3, 200, 1, None, 20),
    ("n4096-g2-sym-rec100", 4096, 2.0, "symmetric", 1e-3, 300, 100, None, None),
    ("n2048-g3-left-rec125", 2048, 3.0, "asymmetric-left", 2e-3, 1250, 125, None, None),
]
STABILITY = dict(gamma=3.0, omega=0.0, branch="asymmetric-left", perturbation_size=1e-2,
                 t_end=0.5, trials=2, rng_seed=0, grid_n=1024, dt=2e-3, record_every=25)
# perfbench's variational minimizations, on its grid (L = 20, n = 4096)
MINIMIZE = [(1.0, "symmetric"), (3.0, "left"), (3.0, "right"), (2.01, "left"), (2.1, "left")]

# the README commands that write a result, each with its --out file
COMMANDS = {
    "ground": ["ground", "--gamma", "3", "--omega", "0", "--out", "ground3.json"],
    "bifurcate": ["bifurcate", "--gamma-min", "1.5", "--gamma-max", "2.5", "--steps", "101",
                  "--out", "sweep.csv"],
    "minimize": ["minimize", "--gamma", "3", "--seed", "left", "--out", "minimizer.csv"],
    "evolve": ["evolve", "--gamma", "2", "--dt", "1e-3", "--t-end", "10", "--out", "traj.csv"],
}

# imports lognls from argv[1] (and fails if another copy answers), then
# runs the code that follows
PRELUDE = ("import sys; sys.path.insert(0, sys.argv[1]); import lognls; "
           "lognls.__file__.startswith(sys.argv[1]) or sys.exit("
           "'lognls imported from ' + lognls.__file__); ")
PROBES = (PRELUDE + f"sys.path.insert(0, {str(HERE)!r}); "
          "import compare_trees; compare_trees.probe()")
COMMAND = PRELUDE + "import lognls.cli; sys.exit(lognls.cli.main(sys.argv[2:]))"


def digest(*parts) -> str:
    """sha256 over the bytes of each part (arrays by their raw bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for part in parts:
        b = part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes()
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()


def probe() -> None:
    """Print the library probes' hashes as one JSON object (run in the
    tree's own interpreter)."""
    import numpy as np

    from lognls import fields
    from lognls.dynamics import EvolutionConfig, evolve, stability_experiment
    from lognls.stationary import Branch, branch_params

    out = {}
    for name, n, gamma, branch, dt, steps, every, m, snap in EVOLVE_CASES:
        grid = fields.Grid(20.0, n)
        params = branch_params(gamma, 0.0, Branch(branch))
        phi = fields.sample_profile(params, grid)
        pert = fields.random_smooth_field(grid, np.random.default_rng((7, n)))
        u0 = phi.with_values(
            phi.values + pert.values * (1e-2 * fields.sigma_norm(phi) / fields.sigma_norm(pert)))
        res = evolve(u0, gamma, EvolutionConfig(dt=dt, t_end=steps * dt, m=m, record_every=every,
                                                snapshot_every=snap), reference=params)
        out[f"evolve {name} records"] = digest(np.array(
            [(r.time, r.mass, r.energy, r.orbital_distance_sigma, r.orbital_distance_w)
             for r in res.records]))
        out[f"evolve {name} final"] = digest(res.final.values)
        out[f"evolve {name} snapshots"] = digest(
            np.array([t for t, _ in res.snapshots]), *(f.values for _, f in res.snapshots))
    kw = dict(STABILITY)
    grid = fields.Grid(20.0, kw.pop("grid_n"))
    summary = stability_experiment(**{**kw, "branch": Branch(kw["branch"])}, grid=grid)
    out["stability_experiment"] = digest(np.array(
        [[getattr(t, f) for f in ("initial_distance_sigma", "max_distance_sigma", "ratio_sigma",
                                  "initial_distance_w", "max_distance_w", "ratio_w")]
         for t in summary.trials]))
    for gamma, seed in MINIMIZE:
        res = fields.minimize_dgamma(gamma, 0.0, seed=fields.Seed(seed),
                                     grid=fields.Grid(20.0, 4096))
        out[f"minimize gamma={gamma:g} seed={seed}"] = digest(
            np.array([res.iterations, res.newton, res.index]),
            np.array([res.value, res.action]), res.field.values)
    print(json.dumps(out))


def tree_hashes(src: Path, tmp: Path) -> dict:
    """Every probe's hash for the tree whose sources are src."""
    proc = subprocess.run([sys.executable, "-c", PROBES, str(src)], capture_output=True,
                          text=True, timeout=1800)
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
    inputs = {"evolve": EVOLVE_CASES, "stability_experiment": STABILITY,
              "minimize": MINIMIZE, "cli": COMMANDS}
    doc = {
        "study": "compare_trees",
        "what": "sha256 of the evolve, stability_experiment and minimizer results and of "
                "the README commands' stdout, stderr and files, one fresh interpreter per tree "
                "for the library probes and one per command",
        "all_equal": all(p["equal"] for p in probes.values()),
        "probes": probes,
        "manifest": {k: manifest(tree.resolve(), 0, "compare_trees", inputs)
                     for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, p in probes.items():
        if not p["equal"]:
            print(f"differs: {name}")
    print(f"{sum(p['equal'] for p in probes.values())} of {len(probes)} probes equal")
    return 0 if doc["all_equal"] else 1


if __name__ == "__main__":
    sys.exit(main())
