"""Command-line contracts: exit codes, file formats, determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lognls import cli
from lognls.dynamics import EvolutionConfig, evolve
from lognls.fields import ConvergenceError, Field, Grid, Seed, minimize_dgamma, sample_profile
from lognls.stationary import Branch, branch_params, d_gamma


def run(argv):
    return cli.main(argv)


class TestGround:
    def test_single_branch(self, tmp_path, capsys):
        out = tmp_path / "ground.json"
        code = run(["ground", "--gamma", "2", "--omega", "0",
                    "--grid-n", "1024", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["branches"]) == 1
        b = doc["branches"][0]
        assert b["branch"] == "symmetric"
        assert b["stationary_residual"]["interior"] <= 1e-3
        assert max(b["pair_residuals"]) <= 1e-10

    def test_output_mode_follows_umask(self, tmp_path):
        out = tmp_path / "ground.json"
        old = os.umask(0o022)
        try:
            code = run(["ground", "--gamma", "2", "--grid-n", "256", "--out", str(out)])
        finally:
            os.umask(old)
        assert code == 0
        assert out.stat().st_mode & 0o777 == 0o644

    def test_three_branches_action_order(self, tmp_path):
        out = tmp_path / "g3.json"
        assert run(["ground", "--gamma", "3", "--grid-n", "1024", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert len(doc["branches"]) == 3
        acts = {b["branch"]: b["action_closed_form"] for b in doc["branches"]}
        assert acts["asymmetric-left"] < acts["symmetric"]
        assert acts["asymmetric-right"] < acts["symmetric"]

    def test_negative_gamma_usage_error(self, capsys):
        assert run(["ground", "--gamma", "-1"]) == 1
        assert "gamma must be positive" in capsys.readouterr().err

    def test_bad_flag_usage_error(self):
        assert run(["ground", "--bogus", "1"]) == 1

    def test_grid_too_small_usage_error(self, capsys):
        # an 8-node grid leaves the stationary residual no node to measure
        assert run(["ground", "--grid-n", "8", "--grid-l", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: n must be an even integer >= 10, got 8")

    def test_unsolvable_gamma_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "ground.json"
        assert run(["ground", "--gamma", "1e300", "--out", str(out)]) == 2
        cap = capsys.readouterr()
        assert cap.err.startswith("numerical failure: pair solver failed")
        assert cap.out == ""
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["ground", "--gamma", "nan"],
                                      ["ground", "--gamma", "inf"],
                                      ["bifurcate", "--gamma-max", "inf"],
                                      ["bifurcate", "--gamma-min", "nan"]])
    def test_nonfinite_gamma_usage_error(self, argv, capsys):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "gamma" in err
        assert "Traceback" not in err


class TestBifurcate:
    def test_transition_detected(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = run(["bifurcate", "--gamma-min", "1.5", "--gamma-max", "2.5",
                    "--steps", "101", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "gamma,branch,t1,t2,action"
        msg = capsys.readouterr().out
        match = re.search(r"\((\S+), (\S+)\]", msg)
        assert match, msg
        lo, hi = float(match.group(1)), float(match.group(2))
        # one grid spacing (0.01) around the pitchfork at gamma = 2
        assert lo < hi
        assert 2.0 - 0.011 <= lo and hi <= 2.0 + 0.011

    def test_just_above_pitchfork(self, capsys):
        # Newton's polish of the asymmetric pair diverges at this gamma
        assert run(["bifurcate", "--gamma-min", "2.000000000002399",
                    "--gamma-max", "2.000000000002399", "--steps", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert [r.split(",")[1] for r in rows[1:4]] == [
            "symmetric", "asymmetric-left", "asymmetric-right"]

    def test_single_point(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["bifurcate", "--gamma-min", "3", "--gamma-max", "3",
                    "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 1 + 3  # header plus one row per branch

    def test_unwritable_output_leaves_nothing(self, tmp_path):
        target = tmp_path / "missing-dir" / "sweep.csv"
        assert run(["bifurcate", "--gamma-min", "1", "--gamma-max", "2",
                    "--steps", "3", "--out", str(target)]) == 1
        assert not target.exists()
        assert not list(tmp_path.iterdir())

    def test_invalid_range(self, capsys):
        for bad in (["--gamma-min", "3", "--gamma-max", "2"],
                    ["--gamma-min", "0", "--gamma-max", "2"],
                    ["--gamma-min", "-1", "--gamma-max", "2"],
                    ["--gamma-min", "1", "--gamma-max", "2", "--steps", "1"]):
            assert run(["bifurcate", *bad]) == 1
            assert capsys.readouterr().err.startswith("error: ")


class TestMinimize:
    def test_matches_closed_form(self, tmp_path, capsys):
        out = tmp_path / "field.csv"
        code = run(["minimize", "--gamma", "1", "--grid-n", "1024",
                    "--out", str(out)])
        assert code == 0
        msg = capsys.readouterr().out
        rel = float(re.search(r"relative difference:\s+(\S+)", msg).group(1))
        assert abs(rel) < 0.01
        # the closed form is stationary.d_gamma; the step counts are the result's
        r = minimize_dgamma(1.0, 0.0, grid=Grid(20.0, 1024))
        assert r.newton > 0 and r.index == 1
        closed = cli.fmt(d_gamma(1.0, 0.0))
        assert f"closed form minimum over branches:   {closed}\n" in msg
        assert (f"\niterations={r.iterations} rejected={r.rejected} forced={r.forced} "
                f"newton={r.newton} index=1 "
                f"interior_residual={cli.fmt(r.residual.interior)}\n") in msg
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,re_u,im_u"
        assert len(lines) == 1 + 1024

    @pytest.mark.parametrize("argv, warning", [
        # the defaults: the symmetric state at gamma = 2 is a weak saddle on
        # the grid, as the discrete pitchfork lies below 2
        ([], "warning: the computed state has Morse index 2, not 1, so it is not the "
             "discrete least action\n"),
        (["--gamma", "3", "--seed", "left"], ""),
    ], ids=["defaults", "gamma3-left"])
    def test_saddle_warning(self, argv, warning, capsys):
        assert run(["minimize", *argv, "--grid-n", "1024"]) == 0
        out, err = capsys.readouterr()
        index = 2 if warning else 1
        assert f" index={index} " in out
        assert err == warning

    def test_nonpositive_max_iter_usage_error(self, capsys):
        assert run(["minimize", "--grid-n", "256", "--max-iter", "-1"]) == 1
        assert "error: max_iter must be a positive integer" in capsys.readouterr().err

    def test_nonconvergence_exit_code(self, capsys):
        code = run(["minimize", "--gamma", "3", "--grid-n", "1024",
                    "--max-iter", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err
        with pytest.raises(ConvergenceError) as info:
            minimize_dgamma(3.0, 0.0, grid=Grid(20.0, 1024), max_iter=2)
        r = info.value.result
        assert (f"  last action {cli.fmt(r.action)}, interior residual "
                f"{cli.fmt(r.residual.interior)} after 2 iterations "
                f"(rejected={r.rejected} forced={r.forced} newton=0 index={r.index})\n") in err


class TestEvolve:
    def test_trajectory_csv(self, tmp_path):
        out = tmp_path / "traj.csv"
        code = run(["evolve", "--gamma", "2", "--grid-n", "1024",
                    "--dt", "1e-3", "--t-end", "0.2", "--record-every", "50",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,mass,energy,dist_sigma,dist_w"
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        assert len(rows) == 1 + 4
        m0 = rows[0][1]
        assert all(abs(r[1] - m0) <= 1e-10 * m0 for r in rows)

    def test_snapshots_written(self, tmp_path):
        out = tmp_path / "traj.csv"
        prefix = tmp_path / "snap"
        code = run(["evolve", "--gamma", "2", "--grid-n", "1024",
                    "--dt", "1e-2", "--t-end", "0.5", "--record-every", "10",
                    "--snapshot-every", "2", "--snapshot-prefix", str(prefix),
                    "--out", str(out)])
        assert code == 0
        snaps = sorted(tmp_path.glob("snap_t*.csv"))
        assert len(snaps) == 2
        header = snaps[0].read_text().splitlines()[0]
        assert header == "x,re_u,im_u"

    def test_missing_branch_usage_error(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["evolve", "--gamma", "1", "--branch", "asymmetric-left",
                    "--grid-n", "512", "--t-end", "0.01", "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: branch asymmetric-left does not exist at gamma = 1.0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_m_flag_removed(self, tmp_path, capsys):
        # the time stepper runs the raw logarithm only, so there is no
        # clamping level to set
        args = ["evolve", "--grid-n", "64", "--grid-l", "10", "--t-end", "0.01"]
        assert run(args + ["--m", "4"]) == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --m")
        cfg = tmp_path / "m.cfg"
        cfg.write_text("m = 4\n")
        assert run(args + ["--config", str(cfg)]) == 1
        assert "error: unknown config key 'm'" in capsys.readouterr().err


# below omega ~ -745 the sampled profile's squares underflow to 0 although
# its samples do not; from about -670 down they near the subnormal range,
# where the ratios leave their scale-covariant values (at -700 stability
# printed 2.14 against 2.53), so evolve rejects the profile there
_TINY_RUN = ["--t-end", "0.01", "--grid-n", "64", "--grid-l", "10", "--dt", "1e-3",
             "--record-every", "5"]


@pytest.mark.parametrize("command, extra", [("evolve", []), ("stability", ["--trials", "1"])])
def test_underflowing_profile_rejected(command, extra, tmp_path, capsys):
    out = tmp_path / "result"
    for omega in ("-760", "-700"):
        assert run([command, "--omega", omega, *_TINY_RUN, *extra, "--out", str(out)]) == 1
        assert run([command, "--omega", omega, *_TINY_RUN, *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"error: omega = {omega}") == 2
        assert captured.err.count("underflow") == 2
        assert "Traceback" not in captured.err
        assert not out.exists()
    assert run([command, "--omega", "-660", *_TINY_RUN, *extra, "--out", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("argv", [["evolve", "--t-end", "inf"],
                                  ["evolve", "--dt", "nan"],
                                  ["stability", "--t-end", "inf"],
                                  ["stability", "--dt", "nan"]])
def test_nonfinite_time_step_usage_error(argv, capsys):
    assert run(argv + ["--grid-n", "256"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dt and t_end must be finite and positive")
    assert "Traceback" not in err


def test_step_too_large_for_grid_usage_error(capsys):
    # beyond 1.5 dt / dx^2 = 2^52 the Cayley system cannot be factored
    # without row interchanges: a usage error naming the bound
    assert run(["evolve", "--dt", "1e305", "--t-end", "1e305"]) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith("error: dt = 1e+305 is too large for the grid: "
                              "1.5 |dt| / dx^2 must stay below 2^52, so |dt| < 2.86331e+11")
    assert cap.out == ""


@pytest.mark.parametrize("argv, code", [(["bifurcate", "--omega", "nan"], 1),
                                        (["ground", "--omega=-inf"], 1),
                                        (["ground", "--omega", "nan"], 1),
                                        (["ground", "--omega", "800"], 2),
                                        (["ground", "--omega", "705", "--grid-n", "256"], 2)])
def test_nonfinite_or_overflowing_omega(argv, code, tmp_path, capsys):
    # a non-finite omega is rejected before any output; e^(omega+1)
    # overflowing the closed-form mass, or the squares of the sampled
    # profile overflowing the functionals, is a numerical failure, also
    # before any output and without a RuntimeWarning
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv + ["--out", str(out)]) == code
    cap = capsys.readouterr()
    if code == 1:
        assert cap.err.startswith("error: omega must be finite")
    else:
        assert cap.err.startswith("numerical failure: ")
    assert cap.out == ""
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "RuntimeWarning" not in cap.err
    assert "Traceback" not in cap.err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["ground", "--grid-l", "1e-300"],
                                  ["evolve", "--grid-l", "1e300", "--t-end", "0.01"]])
def test_extreme_half_width_numerical_failure(argv, capsys):
    # 1/dx^2 or the squares of the sampled nodes overflow: a numerical
    # failure with a message, not a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--grid-n", "16"]) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("numerical failure: ")
    assert cap.out == ""


@pytest.mark.parametrize("command", ["evolve", "stability"])
def test_unresolved_gamma_usage_error(command, capsys):
    # dx = 12500 is coarser than gamma = 2: both commands reject the grid,
    # stability before its perturbation's norm can vanish between the nodes
    assert run([command, "--grid-n", "16", "--grid-l", "1e5"]) == 1
    cap = capsys.readouterr()
    assert cap.err.startswith("error: |gamma| = 2.0 is not resolved by dx = 12500.0")
    assert cap.out == ""


@pytest.mark.parametrize("command", [["evolve"], ["stability", "--trials", "1"]])
def test_overflowing_flow_reports_its_step(command, capsys):
    # the squares of the omega = 705 profile overflow in the first record:
    # the flow aborts at step 0 and says so, not with numpy's bare message
    argv = command + ["--omega", "705", "--grid-n", "256", "--t-end", "0.01"]
    assert run(argv) == 2
    cap = capsys.readouterr()
    assert cap.err.startswith("numerical failure: non-finite state at step 0")
    assert cap.out == ""


class TestStability:
    ARGS = ["stability", "--gamma", "2", "--grid-n", "512", "--grid-l", "10",
            "--dt", "2.5e-3", "--t-end", "0.5", "--trials", "2",
            "--rng-seed", "11", "--record-every", "50"]

    def test_byte_identical_given_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(self.ARGS + ["--out", str(a)]) == 0
        assert run(self.ARGS + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_contents(self, tmp_path):
        out = tmp_path / "s.json"
        assert run(self.ARGS + ["--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["mode"] == "gated"
        assert len(doc["trials"]) == 2
        assert "metric" not in doc
        for name in ("sigma", "w"):
            assert doc["max_ratio_" + name] == max(t["ratio_" + name] for t in doc["trials"])
            for t in doc["trials"]:
                assert t["ratio_" + name] == t["max_distance_" + name] / t["initial_distance_" + name]
        # each trial's conservation over its records
        for t in doc["trials"]:
            assert 0.0 <= t["max_mass_drift"] <= 1e-14
            assert 0.0 <= t["max_energy_drift"] <= 1e-6

    def test_excited_run_labeled_exploratory(self, tmp_path):
        out = tmp_path / "e.json"
        args = ["stability", "--gamma", "3", "--branch", "symmetric",
                "--grid-n", "512", "--grid-l", "10", "--dt", "2.5e-3",
                "--t-end", "0.1", "--trials", "1", "--rng-seed", "0",
                "--record-every", "20", "--out", str(out)]
        assert run(args) == 0
        assert "exploratory" in json.loads(out.read_text())["mode"]

    def test_threads_flag_removed(self, capsys):
        assert run(self.ARGS + ["--threads", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_metric_flag_removed(self, tmp_path, capsys):
        # both distances are reported, so there is no metric to choose
        assert run(self.ARGS + ["--metric", "w"]) == 1
        assert capsys.readouterr().err.startswith("error: unrecognized arguments: --metric")
        cfg = tmp_path / "metric.cfg"
        cfg.write_text("metric = w\n")
        assert run(self.ARGS + ["--config", str(cfg)]) == 1
        assert "error: unknown config key 'metric'" in capsys.readouterr().err

    def test_missing_branch_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        args = ["stability", "--gamma", "1.5", "--branch", "asymmetric-right",
                "--grid-n", "512", "--t-end", "0.01", "--trials", "1",
                "--out", str(out)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "error: branch asymmetric-right does not exist at gamma = 1.5" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def test_file_applies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gamma = 3.0\ngrid_n = 1024   # comment\n")
        out = tmp_path / "g.json"
        assert run(["ground", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["branches"]) == 3
        out2 = tmp_path / "g2.json"
        assert run(["ground", "--config", str(cfg), "--gamma", "1.5",
                    "--out", str(out2)]) == 0
        doc = json.loads(out2.read_text())
        assert doc["gamma"] == 1.5
        assert len(doc["branches"]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("gampa = 3.0\n")
        assert run(["ground", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("command", ["bifurcate", "stability"])
    def test_threads_key_rejected(self, command, tmp_path, capsys):
        cfg = tmp_path / "threads.cfg"
        cfg.write_text("threads = 2\n")
        assert run([command, "--config", str(cfg)]) == 1
        assert "error: unknown config key 'threads'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line", [("evolve", "branch = bogus"),
                                               ("minimize", "seed = bogus"),
                                               ("stability", "branch = x")])
    def test_bad_choice_rejected(self, command, line, tmp_path, capsys):
        cfg = tmp_path / "choice.cfg"
        cfg.write_text(line + "\n")
        assert run([command, "--config", str(cfg), "--grid-n", "256"]) == 1
        err = capsys.readouterr().err
        key = line.split()[0]
        assert err.startswith(f"error: {key} must be one of")

    def test_missing_file_rejected(self, tmp_path):
        assert run(["ground", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_float_format_is_17_significant_digits(tmp_path):
    out = tmp_path / "one.csv"
    assert run(["bifurcate", "--gamma-min", "3", "--gamma-max", "3",
                "--out", str(out)]) == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    for tok in (row[0], row[2], row[3], row[4]):
        assert tok == format(float(tok), ".17g")
    # round-trip exactness: 17 significant digits preserve the double
    assert float(row[2]) == float(format(float(row[2]), ".17g"))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, np.float64(math.inf)])
def test_json_text_refuses_non_finite(bad):
    # JSON has no inf or NaN: the writer raises a numerical failure (exit 2)
    # instead of emitting text that json.loads rejects
    doc = {"ok": [1.5, 2], "ratio": bad}
    with pytest.raises(FloatingPointError, match="non-finite value"):
        cli._json_text(doc)
    doc["ratio"] = 1e300
    assert json.loads(cli._json_text(doc)) == {"ok": [1.5, 2], "ratio": 1e300}


def test_field_csv_matches_per_value_format():
    # one "%.17g" row format over Python floats writes the digits of fmt,
    # signed zeros, subnormals and extremes included
    g = Grid(3.0, 16)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(16) * 10.0 ** rng.integers(-300, 300, 16) + 1j * rng.standard_normal(16)
    vals[:6] = [0.0, -0.0, complex(5e-324, -0.0), complex(-1.7976931348623157e308, 1e-310), 1 / 3,
                complex(-1.2345e300, 9.87e299)]
    field = Field(g, vals)
    want = ["x,re_u,im_u"] + [f"{cli.fmt(x)},{cli.fmt(u.real)},{cli.fmt(u.imag)}"
                              for x, u in zip(g.nodes(), field.values)]
    assert cli.field_csv(field) == "\n".join(want) + "\n"
    # the same bytes as one "%" per row
    rows = zip(g.nodes().tolist(), field.values.real.tolist(), field.values.imag.tolist())
    per_row = "".join("%.17g,%.17g,%.17g\n" % r for r in rows)
    assert cli.field_csv(field) == "x,re_u,im_u\n" + per_row


def test_field_csv_cached_node_column(tmp_path):
    # the node column is formatted once per grid: in one process, files for
    # grids n = 256 and 1024 in turn, from a real minimizer field and from
    # complex evolve snapshots, are the bytes of per-value "%.17g"
    def per_value(field):
        rows = zip(field.grid.nodes(), field.values.real, field.values.imag)
        return "x,re_u,im_u\n" + "".join("%.17g,%.17g,%.17g\n" % tuple(map(float, r))
                                         for r in rows)

    params = branch_params(3.0, 0.0, Branch.ASYMMETRIC_LEFT)
    config = EvolutionConfig(dt=1e-2, t_end=0.04, record_every=2, snapshot_every=1)
    for n in (256, 1024, 256):
        grid = Grid(20.0, n)
        out = tmp_path / f"min{n}.csv"
        assert run(["minimize", "--gamma", "3", "--seed", "left", "--grid-n", str(n),
                    "--out", str(out)]) == 0
        field = minimize_dgamma(3.0, 0.0, seed=Seed.LEFT, grid=grid).field
        assert not np.any(field.values.imag)
        assert out.read_text() == per_value(field)
        prefix = tmp_path / f"snap{n}"
        assert run(["evolve", "--gamma", "3", "--branch", "asymmetric-left", "--grid-n", str(n),
                    "--dt", "1e-2", "--t-end", "0.04", "--record-every", "2",
                    "--snapshot-every", "1", "--snapshot-prefix", str(prefix),
                    "--out", str(tmp_path / "traj.csv")]) == 0
        snapshots = evolve(sample_profile(params, grid), 3.0, config, reference=params).snapshots
        assert len(snapshots) == 2
        for t, field in snapshots:
            assert np.any(field.values.imag)
            text = (tmp_path / f"snap{n}_t{cli.fmt(t)}.csv").read_text()
            assert text == per_value(field)


def test_reused_parser_leaks_no_option():
    # main() reuses one parser per process; each call's exit code, stdout
    # and stderr are those of the same argv run in a fresh interpreter, so
    # no value (here --max-iter 2) carries over into the next call
    src = os.path.dirname(os.path.dirname(cli.__file__))
    launch = ("import sys; sys.path.insert(0, sys.argv[1]); import lognls.cli; "
              "sys.exit(lognls.cli.main(sys.argv[2:]))")
    calls = [["minimize", "--grid-n", "256", "--max-iter", "2"],
             ["minimize", "--grid-n", "256", "--bogus", "1"],
             ["minimize", "--grid-n", "256"],
             ["ground", "--gamma", "3", "--grid-n", "256"]]
    alone = [subprocess.run([sys.executable, "-c", launch, src, *argv], capture_output=True,
                            text=True) for argv in calls]
    assert [p.returncode for p in alone] == [2, 1, 0, 0]
    for argv, p in zip(calls, alone):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert (code, out.getvalue(), err.getvalue()) == (p.returncode, p.stdout, p.stderr)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, code, message", [
    (["ground", "--omega", "-5e-1", "--grid-n", "64", "--grid-l", "8"], 0, ""),
    (["ground", "--omega", "-inf"], 1, "omega must be finite"),
    (["ground", "--omega", "-nan"], 1, "omega must be finite"),
    (["bifurcate", "--gamma-min", "-1e-3"], 1, "need 0 < gamma_min"),
], ids=["exponent", "minus-inf", "minus-nan", "negative-gamma-min"])
def test_negative_number_as_separate_token(argv, code, message, capsys):
    # a value that parses as a float reaches its option, not argparse's
    # "expected one argument"
    assert run(argv) == code
    err = capsys.readouterr().err
    assert message in err
    assert "expected one argument" not in err


# ----------------------------------------------------------------------
# fuzzing the option layer: parse and merge only, no command runs
# ----------------------------------------------------------------------

def _not_help_or_config(token):
    # argparse reads these as --help (which exits) or as an abbreviated
    # --config followed by an arbitrary path; the test passes --config itself
    return re.match(r"-h|--[hc]", token) is None


_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n\r"),
                max_size=10).filter(_not_help_or_config)
_VALUE = st.one_of(
    st.sampled_from(["0", "1", "-1", "2.5", "1e-3", "nan", "inf", "-inf", "1e999", "",
                     "symmetric", "left", "asymmetric-left", "x"]),
    st.integers(-10**6, 10**6).map(str),
    st.integers(1, 10**4).map(str),
    st.floats().map(repr),
    _TEXT,
)


@st.composite
def _argv_and_config(draw):
    """A command, its flags and config lines: mostly its own keys, some
    unknown ones ('threads', 'bogus') and some arbitrary text."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus"]))
    keys = [*cli.COMMANDS.get(command, (None, {}))[1], "threads", "bogus"]
    key = st.sampled_from(keys)
    flag = key.map(lambda k: "--" + k.replace("_", "-"))
    line = st.tuples(key, _VALUE).map(lambda kv: "%s = %s" % kv)
    flags = draw(st.lists(st.tuples(st.one_of(flag, flag, flag, _TEXT), _VALUE), max_size=4))
    config = draw(st.none() | st.lists(st.one_of(line, line, line, _TEXT), max_size=4))
    return [command, *(tok for pair in flags for tok in pair)], config


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(case=_argv_and_config())
def test_option_layer_fuzz(case):
    # every flag list and config file either merges to typed options or is
    # rejected with UsageError or ValueError, which main maps to exit 1
    argv, config = case
    with tempfile.TemporaryDirectory() as d:
        if config is not None:
            path = os.path.join(d, "run.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("\n".join(config) + "\n")
            argv += ["--config", path]
        try:
            args = cli.build_parser().parse_args(argv)
            defaults = cli.COMMANDS[args.command][1]
            opt = cli.merge_options(args, defaults)
        except (cli.UsageError, ValueError):
            return
    assert set(opt) == set(defaults)
    for key, default in defaults.items():
        if key in cli._CHOICES:
            assert opt[key] in cli._CHOICES[key].values()
        else:
            assert type(opt[key]) is type(default)


# ----------------------------------------------------------------------
# fuzzing whole commands on tiny grids
# ----------------------------------------------------------------------

# per option: values that run, then boundary and invalid ones, drawn one
# time in eight; the grid is at most 64 nodes, a run at most 0.02 time
# units, 2 trials or 50 minimizer iterations, so every command takes
# milliseconds
_RUN_VALUES = {
    "gamma": (["0.5", "1", "2", "2.0000001", "3"], ["-1", "0", "nan", "inf", "1e300"]),
    "omega": (["-1", "0", "1"], ["-inf", "nan", "705", "800"]),
    "gamma_min": (["0.5", "1.9", "2"], ["nan", "0", "3"]),
    "gamma_max": (["2.1", "3"], ["1", "1e300", "inf"]),
    "steps": (["2", "5"], ["-1", "0", "1"]),
    "seed": (["symmetric", "left", "right"], ["bogus"]),
    "branch": (["symmetric", "asymmetric-left", "asymmetric-right"], ["bogus"]),
    "grid_n": (["16", "32", "64"], ["-2", "0", "7", "8", "10"]),
    "grid_l": (["1", "2", "4"], ["-1", "0", "nan", "inf", "1e-300", "20", "1e300"]),
    "max_iter": (["1", "10", "50"], ["-5", "0"]),
    "dt": (["1e-3", "5e-3"], ["-1e-3", "0", "nan", "0.02", "1"]),
    "t_end": (["0.01", "0.02"], ["-1", "0", "nan", "1e-3"]),
    "record_every": (["1", "5"], ["-1", "0"]),
    "snapshot_every": (["0", "1", "3"], ["-1"]),
    "delta": (["1e-2", "1"], ["-1", "0", "nan", "1e300"]),
    "trials": (["1", "2"], ["-1", "0"]),
    "rng_seed": (["0", "7"], ["-1"]),
}
# options whose default would make a run long; always given
_RUN_REQUIRED = {"grid_n", "grid_l", "t_end", "trials", "max_iter"}


@st.composite
def _run_argv(draw):
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    argv = [command]
    for key in cli.COMMANDS[command][1]:
        if key not in _RUN_VALUES:  # out, snapshot_prefix: no files
            continue
        if key in _RUN_REQUIRED or draw(st.booleans()):
            valid, odd = _RUN_VALUES[key]
            values = odd if draw(st.integers(0, 7)) == 0 else valid
            flag, value = f"--{key.replace('_', '-')}", draw(st.sampled_from(values))
            # as one token or two; either way "-inf" is read as a value
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(argv=_run_argv())
def test_command_fuzz(argv):
    # a whole command either runs, is rejected as a usage error or reports
    # a numerical failure; no exception (RuntimeWarning included) escapes
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
