"""Smoke test of the benchmark harness on tiny inputs (a few seconds).

Checks that every metric a run prints is declared in BENCHMARK.json with the
unit it is printed with, that the last line is the JSON result with its four
keys, and that a failure forced through the config (a solver max_iter too
small to converge) is counted in fail_frac and named.
"""

import json
from pathlib import Path

import pytest

import harness
import run

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
TINY = {"n_t": 4, "n_r": 4, "n_u": 4, "num_scatter": 2, "m": 4, "n_s": 4, "rician_kappa": 1.0}


class TinyVerify(harness.VerifyMc):
    cli_flags = ()  # keep the config's trial count
    solver = {}

    def __init__(self, seed):
        super().__init__(seed)
        self.scenario = {**TINY, "seed": 11}

    def config(self):
        return {**super().config(), "run": {"trials": 50, "gap_threshold": 0.5, "solver": self.solver}}


class StarvedVerify(TinyVerify):
    solver = {"max_iter": 3}


@pytest.fixture
def isolated(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    monkeypatch.setattr(harness, "measure_setup", lambda name, seed: [0.25, 0.5, 0.75])


def _run(workload, trace, reference, capsys):
    result = run.run(workload, 0.2, trace, reference)
    section = "per_layer" if trace else "end_to_end"
    run.report(result, UNITS, [m["name"] for m in SPEC[section]])
    lines = capsys.readouterr().out.strip().split("\n")
    return result, lines[:-1], json.loads(lines[-1])


def _reference(workload):
    workload.write_inputs()
    outcomes, _, _ = harness.timed_pass(workload)
    return {workload.name: {o.name: harness.reference_entry(o) for o in outcomes}}


@pytest.mark.parametrize("trace", [False, True])
def test_every_printed_metric_is_declared_with_its_unit(isolated, capsys, trace):
    workload = TinyVerify(0)
    result, described, last = _run(workload, trace, _reference(workload), capsys)

    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 3
    section = "per_layer" if trace else "end_to_end"
    assert set(last["metrics"]) == {m["name"] for m in SPEC[section]}
    for name, metric in last["metrics"].items():
        assert metric["unit"] == UNITS[name]
    printed = [line.split() for line in described if line.startswith("# metric ")]
    assert printed
    for _, _, name, value, unit in printed:
        assert UNITS.get(name) == unit, name
        float(value)
    if trace:
        assert last["metrics"]["montecarlo.draws_per_trial"]["value"] == 2.0
        assert last["metrics"]["montecarlo.trials"]["value"] == 50.0
    else:
        assert {"fail_frac", "mi_rel_err"} <= {p[2] for p in printed}


def test_forced_solver_failure_is_counted_and_named(isolated, capsys):
    reference = _reference(TinyVerify(0))
    result, described, last = _run(StarvedVerify(0), False, reference, capsys)

    assert last["failed"] == last["attempted"] > 0
    assert result["metrics"]["fail_frac"] == 1.0
    failures = [line for line in described if line.startswith("# fail ")]
    assert len(failures) == len(StarvedVerify.snr_grid)
    for line, snr in zip(failures, StarvedVerify.snr_grid):
        assert f"verify-mc 4/4/4 L=2 m=4 n_s=4 kappa=1 scenario_seed=11 snr={snr:g}dB" in line
        assert "stage=cli exit 2" in line and "did not converge after 3 iterations" in line
