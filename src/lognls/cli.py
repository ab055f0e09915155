"""Command-line front end: ground, bifurcate, minimize, evolve, stability.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure.
Options may also be supplied through a ``key = value`` config file
(--config); explicit flags win over file entries.  All numeric output is
printed with 17 significant digits and files are written atomically.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
from dataclasses import asdict
from functools import lru_cache

import numpy as np

from .dynamics import EvolutionConfig, evolve, stability_experiment
from .fields import (
    DEFAULT_GRID,
    ConvergenceError,
    Field,
    Grid,
    Seed,
    minimize_dgamma,
    report,
    sample_profile,
    stationary_residual,
)
from .stationary import (
    Branch,
    action_closed_form,
    bifurcation_sweep,
    branch_params,
    d_gamma,
    d_zero,
    dgamma_lower_bound,
    ground_states,
    mass_closed_form,
    pair_residuals,
)

BRANCH_NOTE = (
    "branch labels follow the (t1, t2) ordering: asymmetric-left has t1 < t2 "
    "(profile mass concentrated on the right half-line); asymmetric-right is "
    "its mirror image"
)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; remap to the usage code 1
    def error(self, message):
        raise UsageError(message)

    # argparse takes a token such as -5e-1 or -inf for an unknown flag, so
    # "--omega -inf" would fail with "expected one argument"; no flag here
    # is spelled like a number, so a token that parses as one is a value
    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def fmt(x) -> str:
    return format(float(x), ".17g")


def _json_text(obj, indent=0) -> str:
    """Deterministic JSON with 17-significant-digit floats and sorted keys.
    JSON has no inf or NaN, so a non-finite float raises FloatingPointError,
    a numerical failure."""
    pad = "  " * indent
    pad1 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad1}"{k}": {_json_text(obj[k], indent + 1)}' for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad1}{_json_text(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise FloatingPointError(f"non-finite value {obj} cannot be written as JSON")
        return fmt(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialize {type(obj)}")


def _umask() -> int:
    """The process umask; it can only be read by setting it."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def write_atomic(path: str, text: str) -> None:
    """Write via a temp file and rename, so failures leave no partial file.
    The file gets the mode open() would give it (0666 less the umask), not
    the 0600 of the temp file."""
    d = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".lognls-")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.chmod(tmp, 0o666 & ~_umask())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


@lru_cache(maxsize=4)
def _csv_template(grid: Grid) -> str:
    """field_csv's text on grid with the node column filled in and a
    "%.17g" slot for each value ("%.17g" writes no "%")."""
    return "x,re_u,im_u\n" + "%.17g,%%.17g,%%.17g\n" * grid.n % tuple(grid.nodes().tolist())


def field_csv(field: Field) -> str:
    """x,re_u,im_u rows, every number in "%.17g", which on Python floats
    gives the digits of fmt.  The node column is formatted once per grid
    (the last few grids are kept); each call formats only the values."""
    # real and imaginary parts interleaved, in row order
    parts = np.ascontiguousarray(field.values).view(float)
    return _csv_template(field.grid) % tuple(parts.tolist())


def load_config_file(path: str) -> dict[str, str]:
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, val = line.split("=", 1)
                out[key.strip().replace("-", "_")] = val.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return out


# options whose value names one of a fixed set; merge_options maps the
# name to its value
_CHOICES = {
    "branch": {b.value: b for b in Branch},
    "seed": {s.value: s for s in Seed},
}


def merge_options(args: argparse.Namespace, defaults: dict) -> dict:
    """defaults < config file < explicit flags (flags parse to non-None).
    Every value takes the type of its default; a choice option's name is
    replaced by the value it names."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        filemap = load_config_file(args.config)
        for key, val in filemap.items():
            if key not in defaults:
                raise UsageError(f"unknown config key '{key}'")
            merged[key] = type(defaults[key])(val)
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key, choices in _CHOICES.items():
        if key in merged:
            if merged[key] not in choices:
                raise UsageError(
                    f"{key} must be one of {sorted(choices)}, got '{merged[key]}'")
            merged[key] = choices[merged[key]]
    return merged


def _grid(opt) -> Grid:
    return Grid(opt["grid_l"], opt["grid_n"])


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

GROUND_DEFAULTS = dict(gamma=2.0, omega=0.0, grid_n=DEFAULT_GRID.n,
                       grid_l=DEFAULT_GRID.L, out="")


def cmd_ground(opt) -> int:
    gamma, omega = opt["gamma"], opt["omega"]
    states = ground_states(gamma, omega)  # validates gamma before any output
    # an overflowing e^(omega+1), or sampled squares that overflow in the
    # functionals, also fail before any output
    closed = [(action_closed_form(p), mass_closed_form(p)) for p in states]
    grid = _grid(opt)
    profiles = [sample_profile(p, grid) for p in states]
    sampled = [(report(f, gamma, omega), stationary_residual(f, gamma, omega))
               for f in profiles]
    branches = []
    print(f"# ground states at gamma={fmt(gamma)} omega={fmt(omega)}")
    print(f"# {BRANCH_NOTE}")
    for params, (action, mass), (rep, res) in zip(states, closed, sampled):
        r1, r2 = pair_residuals(params.t1, params.t2, gamma)
        branches.append(
            {
                "branch": params.branch.value,
                "t1": params.t1,
                "t2": params.t2,
                "pair_residuals": [r1, r2],
                "action_closed_form": action,
                "mass_closed_form": mass,
                "report": asdict(rep),
                "stationary_residual": asdict(res),
            }
        )
        print(
            f"{params.branch.value}: t1={fmt(params.t1)} t2={fmt(params.t2)} "
            f"action={fmt(action)} "
            f"residuals=({fmt(res.interior)}, {fmt(res.bc1)}, {fmt(res.bc2)})"
        )
    doc = {
        "command": "ground",
        "gamma": gamma,
        "omega": omega,
        "grid": {"L": grid.L, "n": grid.n},
        "branch_convention": BRANCH_NOTE,
        "branches": branches,
    }
    if opt["out"]:
        write_atomic(opt["out"], _json_text(doc) + "\n")
    return 0


BIFURCATE_DEFAULTS = dict(gamma_min=1.0, gamma_max=3.0, steps=41, omega=0.0, out="")


def cmd_bifurcate(opt) -> int:
    gmin, gmax = opt["gamma_min"], opt["gamma_max"]
    points = bifurcation_sweep(gmin, gmax, opt["steps"], opt["omega"])
    lines = ["gamma,branch,t1,t2,action"]
    transition = None
    prev_gamma = None
    for pt in points:
        if transition is None and len(pt.branches) == 3:
            transition = (prev_gamma, pt.gamma)
        prev_gamma = pt.gamma
        for params, action in zip(pt.branches, pt.actions):
            lines.append(
                f"{fmt(pt.gamma)},{params.branch.value},{fmt(params.t1)},"
                f"{fmt(params.t2)},{fmt(action)}"
            )
    if opt["out"]:
        write_atomic(opt["out"], "\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    if transition is None:
        print(f"# no branch-count transition in [{fmt(gmin)}, {fmt(gmax)}]")
    elif transition[0] is None:
        print(f"# three branches already present at gamma={fmt(transition[1])}")
    else:
        print(
            f"# symmetry breaking detected in ({fmt(transition[0])}, {fmt(transition[1])}]"
        )
    return 0


MINIMIZE_DEFAULTS = dict(
    gamma=2.0, omega=0.0, seed="symmetric", grid_n=DEFAULT_GRID.n,
    grid_l=DEFAULT_GRID.L, max_iter=4000, out="",
)


def cmd_minimize(opt) -> int:
    gamma, omega = opt["gamma"], opt["omega"]
    result = minimize_dgamma(gamma, omega, seed=opt["seed"], grid=_grid(opt),
                             max_iter=opt["max_iter"])
    closed = d_gamma(gamma, omega)
    bound = dgamma_lower_bound(gamma, omega)
    half_line = d_zero(omega)
    print(f"least action (half squared L2 norm): {fmt(result.value)}")
    print(f"closed form minimum over branches:   {fmt(closed)}")
    print(f"relative difference:                 {fmt((result.value - closed) / closed)}")
    print(f"lower bound:                         {fmt(bound)}")
    print(f"half-line upper bound:               {fmt(half_line)}")
    print(
        f"iterations={result.iterations} rejected={result.rejected} forced={result.forced} "
        f"newton={result.newton} index={result.index} "
        f"interior_residual={fmt(result.residual.interior)}"
    )
    if not (bound <= result.value < half_line):
        print("warning: computed value escapes the analytic bracket", file=sys.stderr)
    if result.index != 1:
        print(f"warning: the computed state has Morse index {result.index}, not 1, so it is "
              "not the discrete least action", file=sys.stderr)
    if opt["out"]:
        write_atomic(opt["out"], field_csv(result.field))
    return 0


EVOLVE_DEFAULTS = dict(
    gamma=2.0, omega=0.0, branch="symmetric", grid_n=DEFAULT_GRID.n,
    grid_l=DEFAULT_GRID.L, dt=1e-3, t_end=10.0, record_every=100,
    snapshot_every=0, snapshot_prefix="", out="",
)


def cmd_evolve(opt) -> int:
    if (opt["snapshot_every"] > 0) != bool(opt["snapshot_prefix"]):
        # one without the other would copy snapshots and write none
        raise UsageError("--snapshot-every (a positive number of records) and "
                         "--snapshot-prefix must be given together")
    gamma, omega = opt["gamma"], opt["omega"]
    config = EvolutionConfig(
        dt=opt["dt"], t_end=opt["t_end"],
        record_every=opt["record_every"], snapshot_every=opt["snapshot_every"] or None,
    )
    params = branch_params(gamma, omega, opt["branch"])
    u0 = sample_profile(params, _grid(opt))
    result = evolve(u0, gamma, config, reference=params)
    lines = ["t,mass,energy,dist_sigma,dist_w"]
    for r in result.records:
        lines.append(
            f"{fmt(r.time)},{fmt(r.mass)},{fmt(r.energy)},"
            f"{fmt(r.orbital_distance_sigma)},{fmt(r.orbital_distance_w)}"
        )
    if opt["out"]:
        write_atomic(opt["out"], "\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    for t, field in result.snapshots:
        write_atomic(f"{opt['snapshot_prefix']}_t{fmt(t)}.csv", field_csv(field))
    m0 = result.records[0].mass
    drift = max(abs(r.mass - m0) for r in result.records) / m0
    print(f"# mass drift (relative): {fmt(drift)}")
    return 0


STABILITY_DEFAULTS = dict(
    gamma=2.0, omega=0.0, branch="symmetric", delta=1e-2, t_end=50.0,
    trials=8, rng_seed=0, grid_n=DEFAULT_GRID.n, grid_l=DEFAULT_GRID.L,
    dt=1e-3, record_every=125, out="",
)


def cmd_stability(opt) -> int:
    summary = stability_experiment(
        gamma=opt["gamma"],
        omega=opt["omega"],
        branch=opt["branch"],
        perturbation_size=opt["delta"],
        t_end=opt["t_end"],
        trials=opt["trials"],
        rng_seed=opt["rng_seed"],
        grid=_grid(opt),
        dt=opt["dt"],
        record_every=opt["record_every"],
    )
    doc = {
        "command": "stability",
        "gamma": summary.gamma,
        "omega": summary.omega,
        "branch": summary.branch.value,
        "branch_convention": BRANCH_NOTE,
        "perturbation_size": summary.perturbation_size,
        "mode": "exploratory (excited state; no stability claim)"
        if summary.exploratory
        else "gated",
        "rng_seed": opt["rng_seed"],
        "trials": [asdict(t) for t in summary.trials],
        "max_ratio_sigma": summary.max_ratio_sigma,
        "max_ratio_w": summary.max_ratio_w,
    }
    text = _json_text(doc) + "\n"
    if opt["out"]:
        write_atomic(opt["out"], text)
    else:
        print(text, end="")
    print(f"# max ratio over {len(summary.trials)} trials: sigma {fmt(summary.max_ratio_sigma)}, "
          f"w {fmt(summary.max_ratio_w)}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------


COMMANDS = {
    "ground": (cmd_ground, GROUND_DEFAULTS, "classify all standing-wave branches"),
    "bifurcate": (cmd_bifurcate, BIFURCATE_DEFAULTS, "sweep gamma and emit branch data"),
    "minimize": (cmd_minimize, MINIMIZE_DEFAULTS, "variational least-action search"),
    "evolve": (cmd_evolve, EVOLVE_DEFAULTS, "evolve a standing wave and record diagnostics"),
    "stability": (cmd_stability, STABILITY_DEFAULTS,
                  "random-perturbation orbital stability runs"),
}


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """One subcommand per COMMANDS entry, with one --key-with-dashes flag
    per key of its defaults table, parsed to the type of the default.

    Built once per process: every call, and so every main() call, returns
    the same parser.  parse_args keeps no state in it between calls; each
    returns a new namespace in which an option not given is None.
    """
    parser = _Parser(prog="lognls",
                     description="Ground states and stability of the logarithmic "
                                 "Schrodinger equation with a delta-prime defect")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key, default in defaults.items():
            choices = _CHOICES.get(key)
            metavar = "{" + ",".join(sorted(choices)) + "}" if choices else None
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=type(default),
                           metavar=metavar)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        func, defaults, _ = COMMANDS[args.command]
        # overflow, invalid value or 0-division anywhere: a failure, not inf/NaN
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return func(merge_options(args, defaults))
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # ConvergenceError, EvolutionAborted and every ArithmeticError
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if isinstance(exc, ConvergenceError):
            r = exc.result
            print(
                f"  last action {fmt(r.action)}, interior residual "
                f"{fmt(r.residual.interior)} after {r.iterations} iterations "
                f"(rejected={r.rejected} forced={r.forced} newton={r.newton} index={r.index})",
                file=sys.stderr,
            )
        return 2


if __name__ == "__main__":
    sys.exit(main())
