"""In-memory span recorder that wraps the isac_mi bindings the package calls through.

A span is (id, parent, name, thread, start_ns, end_ns) plus an optional
per-call detail (solver iterations, PGA trace length, Monte Carlo trial
count).  Spans are packed into one flat integer array so that a traced PGA
run, which makes about a million calls, stays small in memory; they are
written out once, when the run ends.  Nothing under src/ is changed: the
shims replace module attributes (for example `isac_mi.fixedpoint.inv_herm`)
and the CorrelationOps methods, and leaving the context puts the originals back.
"""

from __future__ import annotations

import csv
import gzip
import itertools
import threading
import time
from array import array
from pathlib import Path

import isac_mi.cli
import isac_mi.fixedpoint
import isac_mi.mi
import isac_mi.model
import isac_mi.montecarlo
import isac_mi.optimizer
from isac_mi.correlation import CorrelationOps

_FIELDS = 6  # id, parent, name index, thread id, start_ns, end_ns


def _iterations(args, result, exc):
    """Iterations of a fixed-point solve, from the result or its ConvergenceError."""
    if exc is not None:
        return getattr(exc, "iterations", None), True
    return result.iterations, False


def _mc_trials(args, result, exc):
    return args[3], exc is not None


def _pga_steps(args, result, exc):
    """Accepted ascent steps of one pga call (trace rows after the start row)."""
    if exc is not None:
        return None, True
    return len(result[1].rows) - 1, False


# (owner, attribute, span name, detail) for every binding the package calls through.
_BINDINGS = (
    (isac_mi.cli, "load_config", "cli.load_config", None),
    (isac_mi.cli, "run_verify", "cli.run_verify", None),
    (isac_mi.cli, "run_tradeoff", "cli.run_tradeoff", None),
    (isac_mi.cli, "generate_scenario", "model.generate_scenario", None),
    (isac_mi.cli, "weighted_mi", "mi.weighted_mi", None),
    (isac_mi.cli, "mi_curves", "montecarlo.mi_curves", _mc_trials),
    (isac_mi.cli, "pga", "optimizer.pga", _pga_steps),
    (isac_mi.model, "generate_scenario", "model.generate_scenario", None),
    (isac_mi.mi, "weighted_mi", "mi.weighted_mi", None),
    (isac_mi.mi, "solve_sensing", "fixedpoint.solve_sensing", _iterations),
    (isac_mi.mi, "solve_comm", "fixedpoint.solve_comm", _iterations),
    (isac_mi.mi, "shannon_sensing", "mi.shannon", None),
    (isac_mi.mi, "shannon_comm", "mi.shannon", None),
    (isac_mi.mi, "inv_herm", "linalg.inv_herm", None),
    (isac_mi.mi, "effective_los", "model.effective_los", None),
    (isac_mi.fixedpoint, "inv_herm", "linalg.inv_herm", None),
    (isac_mi.fixedpoint, "min_eigval", "linalg.min_eigval", None),
    (isac_mi.fixedpoint, "effective_los", "model.effective_los", None),
    (isac_mi.optimizer, "weighted_mi", "mi.weighted_mi", None),
    (isac_mi.optimizer, "gradient", "optimizer.gradient", None),
    (isac_mi.optimizer, "inv_herm", "linalg.inv_herm", None),
    (isac_mi.montecarlo, "sample_channels", "montecarlo.sample_channels", None),
) + tuple(
    (CorrelationOps, method, f"correlation.{method}", None)
    for method in (
        "eta", "eta_tilde", "tau", "tau_tilde", "eta_w", "eta_tilde_w", "tau_w", "tau_tilde_w"
    )
)


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.spans = array("q")
        self.details: dict[int, tuple] = {}  # span id -> (value, failed)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for owner, attr, name, detail in _BINDINGS:
            self._wrap(owner, attr, name, detail)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, owner, attr, name, detail) -> None:
        original = getattr(owner, attr)
        if name not in self.names:
            self.names.append(name)
        name_idx = self.names.index(name)
        local, ids, spans, details = self._local, self._ids, self.spans, self.details
        clock = time.perf_counter_ns

        def shim(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [0])
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            result = error = None
            start = clock()
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                thread = local.__dict__.get("tid")
                if thread is None:
                    thread = local.tid = threading.get_native_id()
                spans.extend((span_id, parent, name_idx, thread, start, end))
                if detail is not None:
                    details[span_id] = detail(args, result, error)

        setattr(owner, attr, shim)
        self._undo.append((owner, attr, original))

    def mark(self) -> int:
        """Number of spans recorded so far; pass boundaries for `rows`."""
        return len(self.spans) // _FIELDS

    def rows(self, begin: int, end: int):
        """Spans [begin, end) as (id, parent, name, thread, start_ns, end_ns) tuples."""
        s = self.spans
        for i in range(begin * _FIELDS, end * _FIELDS, _FIELDS):
            yield s[i], s[i + 1], self.names[s[i + 2]], s[i + 3], s[i + 4], s[i + 5]

    def write(self, path: Path, passes: list[tuple[int, int]]) -> None:
        """Write every span of the traced passes as gzipped CSV; `detail` is
        the solver iterations, PGA accepted steps or Monte Carlo trials of a call."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as fh:
            out = csv.writer(fh)
            out.writerow(
                ("run_id", "pass", "id", "parent", "name", "thread", "start_ns", "end_ns", "detail", "failed")
            )
            for number, (begin, end) in enumerate(passes):
                for row in self.rows(begin, end):
                    detail = self.details.get(row[0], ("", ""))
                    out.writerow((self.run_id, number, *row, *detail))
