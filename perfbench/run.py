"""Benchmark runner for lognls: one workload, one seed, one process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stability --seed 1 --seconds 30 --trace 0

Workloads: stability, trajectory, variational (see workloads.py and
README.md).  It pins BLAS to one thread, imports lognls from ./src, sets
the workload up SETUP_REPEATS times from cold caches, then repeats passes
of fixed work for --seconds seconds, timing every operation, then a fixed
probe, and checking every output against the acceptance bounds.  Between
passes it times SETUP_REPEATS imports of lognls in fresh interpreters.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs untraced passes for the first half of the time and
traced passes for the second, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The full result (manifest, checks, pass
times and, when traced, every span) is written to
perfbench/out/<workload>-seed<seed>-trace<t>.json.

Exit status: 0 when the run completed (failed checks show in the result),
2 when the checkout holds no lognls sources.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stability", "trajectory", "variational")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def time_import(src: Path) -> float:
    """Seconds a fresh interpreter takes to import lognls from src; the
    interpreter's own start-up is not counted."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import lognls; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


# The probe's time on the reference core: end-to-end times are reported
# as if every operation had run on a core where the probe takes this long.
REFERENCE_S = 1e-3


def make_probe():
    """A fixed piece of work of the kinds lognls does (a banded complex
    solve, a phase rotation of 2048 points, a scalar loop), written in the
    benchmark's own code so that no change to lognls can alter it.  It is
    timed after every operation, to gauge how fast the host ran then."""
    import math

    import numpy as np
    from scipy.linalg import solve_banded

    n = 2048
    band = np.zeros((3, n), complex)
    band[0, 1:] = band[2, :-1] = -1.0
    band[1] = 4.0 + 1.0j
    v0 = np.linspace(0.5, 1.5, n) + 0j

    def probe() -> float:
        t = time.perf_counter()
        v = v0
        for _ in range(3):
            v = solve_banded((1, 1), band, 4.0 * v)
            v = v * np.exp(0.01j * np.log(np.abs(v) ** 2))
            acc = 0.0
            for k in range(100):
                acc += math.exp(-k * 1e-3)
        return time.perf_counter() - t

    return probe


def run_passes(w, ledger, tracer, seconds: float, trace: bool, imports: int):
    """Repeat passes until `seconds` have elapsed; with tracing, the passes
    of the second half are traced.  Between passes, `imports` fresh-interpreter
    imports are timed at even intervals over the run.  Returns (untraced, traced) lists of
    (wall seconds, solver steps) and the import times."""
    untraced, traced, import_s = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(import_s) < imports and elapsed >= len(import_s) * seconds / imports:
            import_s.append(time_import(ROOT / "src"))
            continue
        if elapsed >= seconds and untraced and (traced or not trace):
            break
        tracer.enabled = trace and bool(untraced) and elapsed >= seconds / 2
        ledger.timing = not tracer.enabled
        t0 = time.perf_counter()
        steps = w.run_pass(ledger, tracer)
        (traced if tracer.enabled else untraced).append((time.perf_counter() - t0, steps))
    tracer.enabled = False
    return untraced, traced, import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    from manifest import manifest, pin_blas_threads

    pin_blas_threads()
    package = ROOT / "src" / "lognls" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from the root of a lognls checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import lognls
    if Path(lognls.__file__).resolve() != package.resolve():
        print(f"error: imported lognls from {lognls.__file__}, not {package}", file=sys.stderr)
        return 2

    import workloads as wl
    from tracing import Ledger, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    w = wl.make(args.workload, args.seed, out_dir)
    ledger, tracer = Ledger(), Tracer()
    ledger.probe = make_probe()
    setups = []
    try:
        for _ in range(wl.SETUP_REPEATS):
            wl.clear_caches()
            t = time.perf_counter()
            detail = w.setup()
            detail["total_s"] = time.perf_counter() - t
            setups.append(detail)
        w.prepare()
        untraced, traced, imports = run_passes(w, ledger, tracer, args.seconds,
                                               bool(args.trace), wl.SETUP_REPEATS)
    finally:
        w.close()

    walls = [d for d, _ in untraced]
    # On a shared host the speed of the core drifts by up to 1.7x from
    # minute to minute; operations and the probe after each slow down
    # together, so their ratio holds where either time alone does not.
    scale = REFERENCE_S / statistics.fmean(ledger.probes)
    op_s = sum(sum(v) for v in ledger.times.values()) / len(untraced)
    setup_s = statistics.fmean(imports) + statistics.fmean(s["total_s"] for s in setups)
    if args.trace:
        overhead = statistics.median(d for d, _ in traced) - statistics.median(walls)
        values = wl.layer_metrics(w, tracer, setups, len(traced), overhead)
        kind = "per_layer"
    else:
        values = {
            "wall_s": op_s * scale,
            "steps_per_s": statistics.median(s for _, s in untraced) / (op_s * scale),
            "setup_s": setup_s * scale,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        kind = "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}

    info = manifest(ROOT, args.seed, args.workload, w.inputs())
    print(f"# lognls benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# manifest " + json.dumps(info, sort_keys=True))
    print(f"# probe: {len(ledger.probes)} runs, mean {statistics.fmean(ledger.probes):.6f} s "
          f"(reference {REFERENCE_S:g} s), so measured times are scaled by {scale:.4f}")
    print(f"# setup: mean of {len(imports)} imports in fresh interpreters "
          f"{statistics.fmean(imports):.4f} s + mean of {len(setups)} cold set-ups "
          f"{statistics.fmean(s['total_s'] for s in setups):.4f} s, measured")
    print(f"# passes: {len(untraced)} untraced, operations {op_s:.4f} s per pass measured"
          + (f", {len(traced)} traced" if args.trace else ""))
    for name, v in ledger.times.items():
        print(f"# operation {name}: {len(v)} timed, mean {statistics.fmean(v):.5f} s, "
              f"fastest {min(v):.5f} s, measured")
    for line in w.trial_lines():
        print("# " + line)
    for name, c in sorted(ledger.checks.items()):
        margin = (f"worst {c['worst']:.6g} <= bound {c['bound']:.6g}, "
                  if c["bound"] is not None else "")
        print(f"check {name}: {margin}{c['n']} checked, {c['failed']} failed "
              f"{'PASS' if not c['failed'] else 'FAIL'}")
    for f in ledger.failures[:20]:
        print(f"FAILED op {f['op']} ({f['name']}): {'; '.join(f['why'])}")
    print(f"operations: attempted {ledger.attempted}, failed {ledger.failed}, "
          f"error_rate {ledger.failed / max(ledger.attempted, 1):.6g}")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")

    result = {
        "manifest": info,
        "imports_s": imports,
        "setups": setups,
        "passes": {"untraced": untraced, "traced": traced},
        "op_times": ledger.times,
        "probe_s": ledger.probes,
        "reference_s": REFERENCE_S,
        "checks": ledger.checks,
        "trials": w.trial_lines(),
        "failures": ledger.failures,
        "metrics": metrics,
        "spans": tracer.spans,
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"# result written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
