"""Smoke test of the benchmark itself.

Runs a one-second instance of every workload, traced and untraced, and
shows that a deliberately violated bound, or an operation that raises, is
counted as a failure and not as a pass.  Run from the root of the
repository:

    python -m pytest perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_checks_outputs_and_prints_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC[kind]}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float) and math.isfinite(m["value"])
    if trace == "0":
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


@pytest.fixture
def workdir():
    """An empty directory inside the checkout, under the git-ignored perfbench/out."""
    (HERE / "out").mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="smoke-", dir=HERE / "out"))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_without_sources_exits_nonzero_and_prints_no_result(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, workdir / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(workdir, "--workload", "stability", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    return workloads


def _one_stability_pass(workloads, workdir):
    from tracing import Ledger, Tracer

    w = workloads.make("stability", 3, workdir)
    w.setup()
    w.prepare()
    ledger = Ledger()
    w.run_pass(ledger, Tracer())
    return w, ledger


def test_violated_bound_counts_as_failure(workloads, monkeypatch, workdir):
    monkeypatch.setitem(workloads.BOUNDS, "mass_drift", 0.0)
    w, ledger = _one_stability_pass(workloads, workdir)
    assert ledger.attempted == len(w.cases)
    assert ledger.failed == ledger.attempted
    assert ledger.checks["mass_drift"]["failed"] == ledger.attempted
    assert ledger.checks["orbit_ratio"]["failed"] == 0


def test_orbit_ratio_bound_fails_only_the_cases_it_applies_to(workloads, monkeypatch, workdir):
    monkeypatch.setitem(workloads.BOUNDS, "orbit_ratio", 0.0)
    w, ledger = _one_stability_pass(workloads, workdir)
    applied = [c for c in w.cases if not c.ungated]
    assert [(c.gamma, c.branch.value) for c in applied] == \
        [(1.0, "symmetric"), (3.0, "asymmetric-left")]
    assert ledger.failed == ledger.checks["orbit_ratio"]["failed"] == len(applied)
    reported = [line for line in w.trial_lines() if "not applied" in line]
    assert len(reported) == len(w.cases) - len(applied)
    assert all(line.endswith("above it)") for line in reported)


def test_raising_operation_counts_as_failure():
    from tracing import Ledger

    ledger = Ledger()
    with ledger.operation("passes") as op:
        op.at_most("value", 1.0, 2.0)
    with ledger.operation("raises"):
        raise RuntimeError("boom")
    with ledger.operation("nan") as op:
        op.at_most("value", math.nan, 2.0)
    assert (ledger.attempted, ledger.failed) == (3, 2)
    assert [f["name"] for f in ledger.failures] == ["raises", "nan"]
