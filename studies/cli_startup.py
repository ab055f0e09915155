"""Fresh-process wall time of the README ``lognls`` commands, two source
trees side by side.

    python studies/cli_startup.py BASE CHANGE [--pairs N] [--out FILE]

BASE and CHANGE are lognls checkouts (each with ``src/lognls``).  Each
pair runs every command once per tree, each run in a new interpreter
that imports lognls from that tree's ``src``; the tree that runs first
alternates from pair to pair.  A run's time is the wall time of its
process, interpreter start-up included.  Files the commands write go to
a temporary directory, which is removed at the end.

The JSON written to FILE has, per command and tree, the run times, their
median and quartiles, and whether stdout, stderr and the output file
were the same bytes in every run; per command, the ratio of the medians
and the number of pairs the change won.  It carries the run manifest of
``perfbench/manifest.py`` for each tree.  BLAS runs on one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from manifest import manifest, pin_blas_threads  # noqa: E402

# the five commands of README.md's "Command line" section, with the file
# each one writes
COMMANDS = {
    "ground": ["ground", "--gamma", "3", "--omega", "0", "--out", "ground3.json"],
    "bifurcate": ["bifurcate", "--gamma-min", "1.5", "--gamma-max", "2.5", "--steps", "101",
                  "--out", "sweep.csv"],
    "minimize": ["minimize", "--gamma", "3", "--seed", "left", "--out", "minimizer.csv"],
    "evolve": ["evolve", "--gamma", "2", "--dt", "1e-3", "--t-end", "10", "--out", "traj.csv"],
    "stability": ["stability", "--gamma", "3", "--branch", "asymmetric-left", "--trials", "8",
                  "--grid-n", "2048", "--dt", "2e-3", "--rng-seed", "0", "--out", "stab.json"],
}

# imports lognls from argv[1] (and fails if another copy answers), then
# runs the command in argv[2:]
LAUNCH = ("import sys; sys.path.insert(0, sys.argv[1]); import lognls.cli; "
          "sys.exit(lognls.cli.main(sys.argv[2:]) if lognls.cli.__file__.startswith(sys.argv[1]) "
          "else 'lognls imported from ' + lognls.cli.__file__)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("base", type=Path, help="source tree measured as the base")
    p.add_argument("change", type=Path, help="source tree measured as the change")
    p.add_argument("--pairs", type=int, default=5, help="alternated pairs of runs (default 5)")
    p.add_argument("--out", type=Path, default=Path("cli_startup.json"), help="JSON to write")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2, to give quartiles")
    for tree in (args.base, args.change):
        if not (tree / "src" / "lognls" / "cli.py").is_file():
            p.error(f"{tree} has no src/lognls/cli.py")
    return args


def run_once(src: Path, argv: list[str], cwd: Path) -> tuple[float, str]:
    """Wall seconds of one fresh-process run, and a digest of the bytes it
    wrote: stdout, stderr and its --out file."""
    out_file = cwd / argv[argv.index("--out") + 1]
    out_file.unlink(missing_ok=True)
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", LAUNCH, str(src.resolve()), *argv],
                          cwd=cwd, capture_output=True, timeout=600)
    wall = time.perf_counter() - t
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr.decode()}")
    h = hashlib.sha256()
    for part in (proc.stdout, proc.stderr, out_file.read_bytes()):
        h.update(hashlib.sha256(part).digest())
    return wall, h.hexdigest()


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return {"runs_s": times, "median_s": median, "q1_s": q1, "q3_s": q3}


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    trees = {"base": args.base, "change": args.change}
    times = {c: {k: [] for k in trees} for c in COMMANDS}
    digests = {c: {k: set() for k in trees} for c in COMMANDS}
    with tempfile.TemporaryDirectory(prefix="cli-startup-") as tmp:
        for k in trees:
            (Path(tmp) / k).mkdir()
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for name, argv in COMMANDS.items():
                for k in order:
                    wall, digest = run_once(trees[k] / "src", argv, Path(tmp) / k)
                    times[name][k].append(wall)
                    digests[name][k].add(digest)
                print(f"pair {pair + 1}/{args.pairs} {name}: "
                      + ", ".join(f"{k} {times[name][k][-1]:.3f} s" for k in trees), flush=True)
    results = {}
    for name in COMMANDS:
        base, change = times[name]["base"], times[name]["change"]
        results[name] = {
            "argv": COMMANDS[name],
            "base": summary(base),
            "change": summary(change),
            "median_ratio": statistics.median(base) / statistics.median(change),
            "change_faster_pairs": sum(c < b for b, c in zip(base, change)),
            "same_bytes_every_run": {k: len(digests[name][k]) == 1 for k in trees},
            "same_bytes_both_trees": digests[name]["base"] == digests[name]["change"],
        }
    doc = {
        "study": "cli_startup",
        "what": "fresh-process wall time of the README lognls commands, interpreter "
                "start-up included; median_ratio is base median over change median",
        "pairs": args.pairs,
        "results": results,
        "manifest": {k: manifest(tree.resolve(), 0, "cli_startup", {"pairs": args.pairs})
                     for k, tree in trees.items()},
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    for name, r in results.items():
        print(f"{name:10s} base {r['base']['median_s']:.3f} s, change "
              f"{r['change']['median_s']:.3f} s, ratio {r['median_ratio']:.2f}, change "
              f"faster in {r['change_faster_pairs']}/{args.pairs}, "
              f"same bytes {r['same_bytes_both_trees']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
