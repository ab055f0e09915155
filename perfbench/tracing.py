"""Operation ledger and in-memory span tracer for the lognls benchmark.

The ledger counts operations (one evolve segment, one minimization, one
pair-system batch or one CLI command), times each one, and summarizes the
checks made on their outputs.  An operation fails if it raises or if any
of its checks fails; a failed check is never skipped.

The tracer records spans (name, start, end, parent span, operation id)
around the calls the benchmark makes into lognls.  Spans are kept in
memory and written out with the result at the end of the run.  When
tracing is off, `call` and `span` add one attribute test per call.
"""

from __future__ import annotations

import math
import traceback
from contextlib import contextmanager
from time import perf_counter


class Operation:
    """Checks made on one operation's outputs."""

    def __init__(self, ledger: "Ledger", op_id: int, name: str):
        self.ledger = ledger
        self.id = op_id
        self.name = name
        self.ok = True
        self.notes: list[str] = []

    def at_most(self, check: str, value, bound: float) -> None:
        """Require value <= bound; NaN fails."""
        value = float(value)
        ok = value <= bound
        entry = self.ledger._entry(check, bound)
        if math.isnan(value) or (not math.isnan(entry["worst"]) and value > entry["worst"]):
            entry["worst"] = value
        self._count(entry, ok, f"{check}: {value:.6g} > bound {bound:.6g}")

    def require(self, check: str, ok: bool, detail: str = "") -> None:
        """Require a condition that has no numeric margin."""
        self._count(self.ledger._entry(check, None), bool(ok), f"{check}: {detail}")

    def _count(self, entry: dict, ok: bool, note: str) -> None:
        entry["n"] += 1
        if not ok:
            entry["failed"] += 1
            self.ok = False
            self.notes.append(note)


class Ledger:
    """Attempted and failed operations, and a summary of every check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}
        self.failures: list[dict] = []
        self.timing = True  # record operation wall times (off during traced passes)
        self.times: dict[str, list[float]] = {}
        self.probe = None  # when set, called after each timed operation
        self.probes: list[float] = []

    def _entry(self, check: str, bound) -> dict:
        entry = self.checks.get(check)
        if entry is None:
            entry = {"bound": bound, "worst": -math.inf if bound is not None else None,
                     "n": 0, "failed": 0}
            self.checks[check] = entry
        return entry

    @contextmanager
    def operation(self, name: str, kind: str | None = None):
        """One operation; its wall time, checks included, is recorded under
        `kind` (operations of one kind do the same work)."""
        op = Operation(self, self.attempted, name)
        self.attempted += 1
        t0 = perf_counter()
        try:
            yield op
        except Exception as exc:  # a raising operation is a failed one; the run goes on
            op.ok = False
            op.notes.append("raised " + "".join(traceback.format_exception_only(exc)).strip())
        if self.timing:
            self.times.setdefault(kind or name, []).append(perf_counter() - t0)
            if self.probe is not None:
                self.probes.append(self.probe())
        if not op.ok:
            self.failed += 1
            self.failures.append({"op": op.id, "name": name, "why": op.notes})


class Tracer:
    """Spans around calls into the package, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _open(self, name: str, op) -> dict:
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        rec = {"id": len(self.spans), "name": name, "parent": parent, "op": op,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op=None):
        if not self.enabled:
            yield
            return
        rec = self._open(name, op)
        try:
            yield
        finally:
            self._close(rec)

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs), inside a span when tracing is on."""
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = self._open(name, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self, name: str) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        child = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = child.get(s["parent"], 0.0) + s["end"] - s["start"]
        return [s["end"] - s["start"] - child.get(s["id"], 0.0)
                for s in self.spans if s["name"] == name]
