"""Criterion 9's conservation case at four step sizes: mass drift,
energy drift and the energy drift's halving ratios.

    python studies/criterion9_order.py [--out FILE]

Criterion 9 (tests/test_acceptance.py) evolves the sampled ground state
at gamma = 2, omega = 0 on Grid(20, 4096) to t_end = 10, records every
200 steps, and gates the mass drift at dt = 1e-3, the energy drift at
dt = 1e-3 and the ratio of the energy drifts at dt = 1e-3 and 5e-4,
which must lie in [3, 5] for a second-order splitting.  This study runs
the same case at dt = 1e-3, 5e-4, 2.5e-4 and 1.25e-4 and writes, per
dt, the largest relative mass drift, the largest energy drift (absolute
and over criterion 9's energy scale (|form| + |entropy|)/2) and the
energy drift over dt^2, and the three halving ratios.  A second-order drift gives
ratios near 4 and a constant drift/dt^2.  If drift/dt^2 still grows as
dt falls, the case is not yet in that regime at dt = 1e-3, and the first
ratio sits below 4 for that reason; the later ratios then lie nearer 4.
Rounding moves the drifts by a few percent at dt = 5e-4, so rotation
factors that are equal in exact arithmetic read different first ratios.

Everything is deterministic; the JSON carries the run manifest of
``perfbench/manifest.py``.  BLAS runs on one thread.  It takes about a
minute and is not part of the test suite.
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

# criterion 9's case; only the list of step sizes goes beyond it
GAMMA, OMEGA, L, N, T_END, RECORD_EVERY = 2.0, 0.0, 20.0, 4096, 10.0, 200
DTS = (1e-3, 5e-4, 2.5e-4, 1.25e-4)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--out", type=Path, default=Path("criterion9_order.json"),
                   help="JSON to write")
    return p.parse_args(argv)


def drifts(u0, dt: float) -> tuple[float, float]:
    """Criterion 9's largest relative mass drift and largest energy drift
    over the records of one run at step dt."""
    from lognls.dynamics import EvolutionConfig, evolve

    recs = evolve(u0, GAMMA, EvolutionConfig(dt=dt, t_end=T_END,
                                             record_every=RECORD_EVERY)).records
    m0, e0 = recs[0].mass, recs[0].energy
    return (max(abs(r.mass - m0) for r in recs) / m0,
            max(abs(r.energy - e0) for r in recs))


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    from lognls.fields import Grid, report, sample_profile
    from lognls.stationary import ground_states

    u0 = sample_profile(ground_states(GAMMA, OMEGA)[0], Grid(L, N))
    rep = report(u0, GAMMA, OMEGA)
    escale = 0.5 * (abs(rep.form) + abs(rep.entropy))
    runs = []
    for dt in DTS:
        dm, de = drifts(u0, dt)
        runs.append({"dt": dt, "steps": round(T_END / dt), "mass_drift": dm,
                     "energy_drift": de, "energy_drift_over_scale": de / escale,
                     "energy_drift_over_dt2": de / (dt * dt)})
        print(f"dt {dt:.2e}: mass {dm:.3e}, energy {de:.3e} ({de / escale:.3e} of scale), "
              f"energy/dt^2 {de / (dt * dt):.4g}", flush=True)
    ratios = [a["energy_drift"] / b["energy_drift"] for a, b in zip(runs, runs[1:])]
    for a, b, r in zip(DTS, DTS[1:], ratios):
        print(f"halving ratio {a:g} -> {b:g}: {r:.4f}")
    inputs = {"gamma": GAMMA, "omega": OMEGA, "L": L, "grid_n": N, "t_end": T_END,
              "record_every": RECORD_EVERY, "dts": list(DTS)}
    doc = {
        "study": "criterion9_order",
        "what": "criterion 9's case (gamma = 2, n = 4096, t_end = 10, records every 200 "
                "steps) at four dt: largest relative mass drift, largest energy drift, "
                "and the energy drift's ratio at each halving of dt (criterion 9 gates "
                "the first in [3, 5])",
        "energy_scale": escale,
        "runs": runs,
        "halving_ratios": {f"{a:g}/{b:g}": r for a, b, r in zip(DTS, DTS[1:], ratios)},
        "manifest": manifest(ROOT, 0, "criterion9_order", inputs),
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
