"""Workloads, correctness gate and metrics of the isac-mi benchmark.

Three workloads drive the entry points users call:

* verify-mc      `isac-mi verify` (closed form vs Monte Carlo) on the headline
                 scenario at -10/0/10 dB with the default 10k trials.  Monte
                 Carlo is nearly all of the work; the solves converge quickly.
* solve-highsnr  library `weighted_mi` cold solves at the points where the
                 damped Picard iteration is slowest or fails.  No Monte Carlo.
* pga-tradeoff   `isac-mi tradeoff` on the square 8-antenna scenario: PGA with
                 continuation over a short rho grid, i.e. many nearby re-solves
                 plus the gradient and Armijo backtracking.

One pass runs a workload once from config to outputs.  A pass is made of
timed units (one CLI call, or one library solve) that are timed one by one,
so that a run can take the median of each unit over its passes.  Each
operation in a unit (a verify row, a solve, a frontier point) becomes an
Outcome that the gate compares with the outputs stored in reference.json.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import isac_mi
from isac_mi import cli, fixedpoint, mi, model
from isac_mi._linalg import SingularMatrixError

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

MI_REL_TOL = 1e-8  # the ROADMAP's closed-form agreement gate
SELF_CONSISTENCY_TOL = 1e-10  # acceptance criterion 4
SETUP_PROBES = 7
HEADLINE_SEED = 7  # the default config's scenario seed, where the high-SNR defect was found
VERIFY_VARIANTS = 8  # verify-mc scenario seeds HEADLINE_SEED .. HEADLINE_SEED + 7

@dataclass
class Outcome:
    """One operation of a pass: its name, MI outputs, and where it failed if it did."""

    name: str
    values: dict[str, float] = field(default_factory=dict)
    stage: str = ""
    error: str = ""
    fixed_points: tuple = ()  # kept for the self-consistency check of solve-highsnr


def _shape(d: dict) -> str:
    return (
        f"{d['n_t']}/{d['n_r']}/{d['n_u']} L={d['num_scatter']} m={d['m']} n_s={d['n_s']} "
        f"kappa={d['rician_kappa']:g}"
    )


def _run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the isac-mi entry point in-process; returns (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, " ".join(err.getvalue().split())


class _CliWorkload:
    """A workload that runs one isac-mi subcommand on a generated config file."""

    name = ""
    command = ""
    cli_flags: tuple[str, ...] = ()
    scenario: dict = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.out = OUT_DIR / f"{self.name}-seed{seed}"
        self.config_path = self.out / "config.json"
        self.csv_path = self.out / f"{self.command}.csv"

    def config(self) -> dict:
        raise NotImplementedError

    def write_inputs(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config(), indent=1) + "\n", encoding="utf-8")

    def prepare(self) -> None:
        """What a user's process does before the work: parse config, build the scenario."""
        cfg = cli.load_config(str(self.config_path))
        model.generate_scenario(cfg.dims, cfg.rician_kappa, cfg.seed, cfg.geometry)

    def units(self) -> list:
        return [self.run_cli]

    def run_cli(self) -> list[Outcome]:
        self.csv_path.unlink(missing_ok=True)
        code, stderr = _run_cli([self.command, "--config", str(self.config_path), *self.cli_flags])
        rows = []
        if self.csv_path.exists():
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                rows = [{k: float(v) for k, v in r.items()} for r in csv.DictReader(fh)]
        return self.outcomes(code, stderr, rows)

    def outcomes(self, code: int, stderr: str, rows: list[dict]) -> list[Outcome]:
        raise NotImplementedError

    def accept_unreferenced(self, outcome: Outcome) -> str:
        return ""


class VerifyMc(_CliWorkload):
    name = "verify-mc"
    command = "verify"
    # The CLI's fast mode (2000 trials): one call takes ~3 s on 2 workers, so
    # a run holds about ten and their median is steadier on a shared host.
    cli_flags = ("--fast",)
    snr_grid = (-10.0, 0.0, 10.0)

    def __init__(self, seed: int):
        super().__init__(seed)
        # Varying the scenario changes the Monte Carlo draws but not their cost.
        self.scenario = {
            "n_t": 16, "n_r": 16, "n_u": 16, "num_scatter": 2, "m": 16, "n_s": 16,
            "rician_kappa": 1.0, "seed": HEADLINE_SEED + seed % VERIFY_VARIANTS,
        }

    def config(self) -> dict:
        return {
            "scenario": self.scenario,
            "noise": {"snr_db_grid": list(self.snr_grid)},
            "output": {"directory": str(self.out)},
        }

    def op_name(self, snr: float) -> str:
        return f"{self.name} {_shape(self.scenario)} scenario_seed={self.scenario['seed']} snr={snr:g}dB"

    def outcomes(self, code, stderr, rows):
        by_snr = {r["snr_db"]: r for r in rows}
        threshold = cli.parse_config(self.config()).gap_threshold
        out = []
        for snr in self.snr_grid:
            o = Outcome(self.op_name(snr))
            row = by_snr.get(snr)
            if row is None:
                o.stage, o.error = f"cli exit {code}", stderr or "no output row"
            else:
                o.values = {
                    k: row[k] for k in ("i_s_closed_bits", "i_s_mc_bits", "i_c_closed_bits", "i_c_mc_bits")
                }
                gap = max(row["i_s_rel_gap"], row["i_c_rel_gap"])
                if gap >= threshold:
                    o.stage = "closed form vs Monte Carlo"
                    o.error = f"relative gap {gap:.3e} >= {threshold:g} (cli exit {code})"
            out.append(o)
        return out


class PgaTradeoff(_CliWorkload):
    name = "pga-tradeoff"
    command = "tradeoff"
    snr_db = 10.0
    rho_grid = (0.0, 0.5, 1.0)
    # PGA cost swings by tens of percent with the scenario or the random start
    # (see BASELINE.md), more than any bound allows, so the seed does not
    # change this workload's inputs: it is pinned to the criterion-8 scenario.
    scenario = {
        "n_t": 8, "n_r": 8, "n_u": 8, "num_scatter": 2, "m": 8, "n_s": 8,
        "rician_kappa": 1.0, "seed": HEADLINE_SEED,
    }

    def config(self) -> dict:
        return {
            "scenario": self.scenario,
            "noise": {"snr_db": self.snr_db},
            "run": {"rho_grid": list(self.rho_grid)},
            "output": {"directory": str(self.out)},
        }

    def op_name(self, rho: float) -> str:
        return f"{self.name} {_shape(self.scenario)} scenario_seed={self.scenario['seed']} snr={self.snr_db:g}dB rho={rho:g}"

    def outcomes(self, code, stderr, rows):
        by_rho = {r["rho"]: r for r in rows}
        out = []
        for rho in self.rho_grid:
            o = Outcome(self.op_name(rho))
            row = by_rho.get(rho)
            if code != 0 or row is None:
                o.stage, o.error = f"cli exit {code}", stderr or "no output row"
            else:
                o.values = {k: row[k] for k in ("i_s_bits", "i_c_bits", "weighted_bits")}
            out.append(o)
        return out


@dataclass(frozen=True)
class SolvePoint:
    label: str
    dims: dict
    kappa: float
    snr_db: float


_HEADLINE = {"n_t": 16, "n_r": 16, "n_u": 16, "num_scatter": 2, "m": 16, "n_s": 16}


class SolveHighSnr:
    """Cold `weighted_mi` solves with the default beamformer where Picard is slowest."""

    name = "solve-highsnr"
    rho = cli.parse_config({}).rho
    # Every point keeps the scenario it was found on; the headline point at
    # 40 dB and the kappa=0.05, L=4 point raise ConvergenceError today and
    # stay in the workload as named failures.
    points = (
        SolvePoint("headline", _HEADLINE, 1.0, 20.0),
        SolvePoint("headline", _HEADLINE, 1.0, 30.0),
        SolvePoint("headline", _HEADLINE, 1.0, 40.0),
        SolvePoint("non-square", {"n_t": 32, "n_r": 16, "n_u": 8, "num_scatter": 2, "m": 8, "n_s": 64}, 1.0, 30.0),
        SolvePoint("rayleigh-like", {**_HEADLINE, "num_scatter": 4, "n_s": 64}, 0.05, 30.0),
    )

    def __init__(self, seed: int):
        self.seed = seed
        # The seed sets the order of the independent solves; their cost is set
        # by the point itself (iteration count), so the scenario stays pinned.
        self.order = list(self.points)
        random.Random(seed).shuffle(self.order)

    def write_inputs(self) -> None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)

    def _scenario(self, p: SolvePoint):
        dims = model.SystemDims(**p.dims)
        stats = model.generate_scenario(dims, p.kappa, HEADLINE_SEED)
        return stats, model.default_beamformer(dims, float(dims.n_t))

    def prepare(self) -> None:
        for p in self.points:
            self._scenario(p)

    def op_name(self, p: SolvePoint) -> str:
        return f"{self.name} {p.label} {_shape({**p.dims, 'rician_kappa': p.kappa})} scenario_seed={HEADLINE_SEED} snr={p.snr_db:g}dB"

    def units(self) -> list:
        return [functools.partial(self.solve, p) for p in self.order]

    def solve(self, p: SolvePoint) -> list[Outcome]:
        o = Outcome(self.op_name(p))
        stats, w_bf = self._scenario(p)
        noise = model.NoiseConfig(p.snr_db)
        try:
            report, fp_s, fp_c = mi.weighted_mi(stats, w_bf, noise, self.rho, return_fixed_points=True)
        except fixedpoint.ConvergenceError as exc:
            o.stage, o.error = f"{exc.branch} fixed point", f"ConvergenceError: {exc}"
        except (SingularMatrixError, mi.NonRealShannonError) as exc:
            o.stage, o.error = type(exc).__name__, str(exc)
        else:
            o.values = {"i_s": float(report.i_s), "i_c": float(report.i_c)}
            o.fixed_points = (stats, w_bf, noise, fp_s, fp_c)
        return [o]

    def accept_unreferenced(self, outcome: Outcome) -> str:
        """A point with no reference value must satisfy its own equations."""
        stats, w_bf, noise, fp_s, fp_c = outcome.fixed_points
        res = max(
            fixedpoint.residual_sensing(fp_s, stats, w_bf, fixedpoint.SpectralPoint.from_noise_power(noise.sigma_s2)),
            fixedpoint.residual_comm(fp_c, stats, w_bf, fixedpoint.SpectralPoint.from_noise_power(noise.sigma_c2)),
        )
        if res > SELF_CONSISTENCY_TOL:
            return f"self-consistency residual {res:.3e} > {SELF_CONSISTENCY_TOL:g}"
        return ""


WORKLOADS = {w.name: w for w in (VerifyMc, SolveHighSnr, PgaTradeoff)}


def make_workload(name: str, seed: int):
    return WORKLOADS[name](seed)


# --- correctness gate --------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def check(workload, outcomes: list[Outcome], reference: dict) -> tuple[list[str], float, int]:
    """Compare a pass with the stored reference.

    Returns (failure lines, largest relative MI deviation, correctness misses).
    Closed-form and Monte Carlo MIs must match to MI_REL_TOL; a PGA frontier
    value may not fall below its reference by more than PgaOptions.epsilon.
    An operation that raised or exited nonzero is a failure but not a miss:
    it produced no wrong number.
    """
    table = reference.get(workload.name, {})
    epsilon_bits = isac_mi.PgaOptions().epsilon / math.log(2.0)
    failures, worst, misses = [], 0.0, 0
    for o in outcomes:
        if o.error:
            failures.append(f"{o.name} stage={o.stage}: {o.error}")
            continue
        ref = table.get(o.name)
        if ref is None:
            problem = "no reference output stored for this operation"
        elif "values" not in ref:
            problem = workload.accept_unreferenced(o)
        else:
            problem = ""
            dev = max(abs(o.values[k] - r) / abs(r) for k, r in ref["values"].items())
            worst = max(worst, dev)
            if isinstance(workload, PgaTradeoff):
                floor = ref["values"]["weighted_bits"] - epsilon_bits
                if o.values["weighted_bits"] < floor:
                    problem = f"weighted MI {o.values['weighted_bits']:.12g} bits below reference floor {floor:.12g}"
            elif dev > MI_REL_TOL:
                problem = f"MI deviates from reference by {dev:.3e} (> {MI_REL_TOL:g} relative)"
        if problem:
            misses += 1
            failures.append(f"{o.name} stage=reference: {problem}")
    return failures, worst, misses


def reference_entry(o: Outcome) -> dict:
    if o.error:
        return {"error": f"stage={o.stage}: {o.error}"}
    return {"values": o.values}


# --- measurement -------------------------------------------------------------


def _cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def timed_pass(workload) -> tuple[list[Outcome], list[float], list[float]]:
    """Run every unit of one pass; returns its outcomes and each unit's wall and CPU time."""
    outcomes, walls, cpus = [], [], []
    for unit in workload.units():
        cpu0, t0 = _cpu_s(), time.perf_counter()
        outcomes += unit()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
    return outcomes, walls, cpus


def pass_time(unit_times: list[list[float]]) -> float:
    """Time of one pass as the sum over its units of each unit's median over passes.

    Shared hosts have slow phases (a 2-vCPU Xeon VM ran ~40% slower for up
    to 20 s at a time); a per-unit median drops a unit that ran in one.
    """
    return sum(statistics.median(t) for t in zip(*unit_times))


def measure_setup(workload_name: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import isac_mi, parse the config and
    build the scenario(s), run one after another."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload_name, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        # No timeout: Popen.wait(timeout) polls in sleeps of up to 50 ms,
        # which would quantize the measurement; a blocking wait does not.
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def env_facts() -> dict:
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "isac_mi": isac_mi.__version__,
        "threads": {
            k: os.environ.get(k)
            for k in ("ISAC_MI_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


# --- per-layer metrics from spans --------------------------------------------


def layer_metrics(tracer, passes: list[tuple[int, int]]) -> dict[str, float]:
    """Per-pass layer metrics from the spans of the traced passes.

    Self time is a span's duration minus its direct children's, which run in
    the same thread and inside it.  Spans are stored in end order, so every
    child is seen before its parent.
    """
    n = len(passes)
    calls, total_ns, self_ns = Counter(), defaultdict(int), defaultdict(int)
    child_ns, child_corr, child_evals = defaultdict(int), defaultdict(int), defaultdict(int)
    details = defaultdict(list)  # span name -> [(value, failed)]
    nested_corr = evals = 0
    for begin, end in passes:
        for span_id, parent, name, _thread, start, stop in tracer.rows(begin, end):
            d = stop - start
            calls[name] += 1
            total_ns[name] += d
            self_ns[name] += d - child_ns.pop(span_id, 0)
            child_ns[parent] += d
            corr_inside, evals_inside = child_corr.pop(span_id, 0), child_evals.pop(span_id, 0)
            if name.startswith("correlation."):
                nested_corr += corr_inside
                child_corr[parent] += 1
            elif name == "mi.weighted_mi":
                child_evals[parent] += 1
            elif name == "optimizer.pga":
                evals += evals_inside
            if span_id in tracer.details:
                details[name].append(tracer.details[span_id])

    def per_pass(x):
        return x / n

    def s(ns):
        return ns / 1e9 / n

    sens, comm = details["fixedpoint.solve_sensing"], details["fixedpoint.solve_comm"]
    iters_s = sum(v for v, _ in sens if v is not None)
    iters_c = sum(v for v, _ in comm if v is not None)
    iters = iters_s + iters_c
    solve_ns = total_ns["fixedpoint.solve_sensing"] + total_ns["fixedpoint.solve_comm"]
    corr_calls = sum(c for k, c in calls.items() if k.startswith("correlation.")) - nested_corr
    corr_self = sum(v for k, v in self_ns.items() if k.startswith("correlation."))
    steps = sum(v for v, _ in details["optimizer.pga"] if v is not None)
    trials = sum(v for v, _ in details["montecarlo.mi_curves"])
    return {
        "fixedpoint.solve_sensing.iters": per_pass(iters_s),
        "fixedpoint.solve_comm.iters": per_pass(iters_c),
        "fixedpoint.max_iters": float(max([v for v, _ in sens + comm if v is not None], default=0)),
        "fixedpoint.s_per_iter": solve_ns / 1e9 / iters if iters else 0.0,
        "fixedpoint.solve_sensing.self_s": s(self_ns["fixedpoint.solve_sensing"]),
        "fixedpoint.solve_comm.self_s": s(self_ns["fixedpoint.solve_comm"]),
        "fixedpoint.failures": per_pass(sum(1 for _, failed in sens + comm if failed)),
        "linalg.inv_herm.calls": per_pass(calls["linalg.inv_herm"]),
        "linalg.inv_herm.self_s": s(self_ns["linalg.inv_herm"]),
        "linalg.inv_herm.per_iter": calls["linalg.inv_herm"] / iters if iters else 0.0,
        "linalg.min_eigval.calls": per_pass(calls["linalg.min_eigval"]),
        "correlation.calls": per_pass(corr_calls),
        "correlation.self_s": s(corr_self),
        "mi.weighted_mi.calls": per_pass(calls["mi.weighted_mi"]),
        "mi.weighted_mi.s": s(total_ns["mi.weighted_mi"]),
        "mi.shannon.self_s": s(self_ns["mi.shannon"]),
        "optimizer.pga.calls": per_pass(calls["optimizer.pga"]),
        "optimizer.outer_iters": per_pass(steps),
        "optimizer.evals": per_pass(evals),
        "optimizer.accept_ratio": steps / evals if evals else 0.0,
        "optimizer.gradient.calls": per_pass(calls["optimizer.gradient"]),
        "optimizer.gradient.self_s": s(self_ns["optimizer.gradient"]),
        "montecarlo.mi_curves.s": s(total_ns["montecarlo.mi_curves"]),
        "montecarlo.trials": per_pass(trials),
        "montecarlo.s_per_trial": total_ns["montecarlo.mi_curves"] / 1e9 / trials if trials else 0.0,
        "montecarlo.draws_per_trial": calls["montecarlo.sample_channels"] / trials if trials else 0.0,
        "model.generate_scenario.s": s(total_ns["model.generate_scenario"]),
        "model.effective_los.calls": per_pass(calls["model.effective_los"]),
        "cli.load_config.s": s(total_ns["cli.load_config"]),
        "cli.run_verify.s": s(total_ns["cli.run_verify"]),
        "cli.run_tradeoff.s": s(total_ns["cli.run_tradeoff"]),
    }
