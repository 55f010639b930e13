"""Run one isac-mi benchmark workload and print its metrics.

    python3 bench/run.py --workload verify-mc --seed 0 --seconds 36 --trace 0

The workload is run in passes for about `--seconds` seconds (at least one
pass; a pass is not started when the last one says it would end late).
`--trace 0` reports the end-to-end metrics of BENCHMARK.json: wall and CPU
time of a pass (each timed unit's median over the passes, summed), peak
memory, and set-up time measured in separate fresh interpreters.
`--trace 1` alternates untraced and traced passes and reports the per-layer
metrics from spans recorded around calls into each isac_mi module, plus the
tracing overhead.  Every pass is checked against bench/reference.json.

Lines starting with `#` describe the run (machine facts, failures and each
metric with its unit); the last line is one JSON object with the keys
correct, attempted, failed and metrics.  A result file and, for a traced
run, the spans are written under .bench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pin_environment() -> None:
    """Single-threaded BLAS; the package's own pool at nproc, set explicitly."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["ISAC_MI_THREADS"] = str(len(os.sched_getaffinity(0)))
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, src)


def run(workload, seconds: float, trace: bool, reference: dict) -> dict:
    import harness

    workload.write_inputs()
    result = {"workload": workload.name, "seed": workload.seed, "trace": int(trace)}
    if not trace:
        setup = harness.measure_setup(workload.name, workload.seed)
        result["setup_times_s"] = setup

    walls = {False: [], True: []}
    cpus, failures, worst, attempted, failed, misses = [], [], 0.0, 0, 0, 0
    tracer, spans = None, []
    if trace:
        from tracer import Tracer

        tracer = Tracer(f"{workload.name}-seed{workload.seed}-pid{os.getpid()}")
    # Pass kinds cycle (untraced, traced); a pass is not started when the last
    # pass of its kind says it would end after `seconds`, once each kind ran.
    kinds = (False, True) if trace else (False,)
    last: dict[bool, float] = {}
    start = time.perf_counter()
    for i in itertools.count():
        traced = kinds[i % len(kinds)]
        if len(last) == len(kinds) and time.perf_counter() - start + last[traced] > seconds:
            break
        if traced:
            begin = tracer.mark()
            with tracer:
                outcomes, wall, cpu = harness.timed_pass(workload)
            spans.append((begin, tracer.mark()))
        else:
            outcomes, wall, cpu = harness.timed_pass(workload)
            cpus.append(cpu)
        walls[traced].append(wall)
        lines, dev, bad = harness.check(workload, outcomes, reference)
        attempted += len(outcomes)
        failed += len(lines)
        misses += bad
        worst = max(worst, dev)
        failures.extend(line for line in lines if line not in failures)
        last[traced] = sum(wall)

    quality = {"fail_frac": failed / attempted, "mi_rel_err": worst}
    if trace:
        metrics = harness.layer_metrics(tracer, spans)
        metrics.update(quality)
        metrics["trace.wall_s"] = harness.pass_time(walls[True])
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - harness.pass_time(walls[False])
    else:
        metrics = {
            "wall_s": harness.pass_time(walls[False]),
            "setup_s": statistics.median(setup),
            "cpu_s": harness.pass_time(cpus),
            "peak_rss_mb": harness.peak_rss_mb(),
            **quality,
        }
    result.update(
        env=harness.env_facts(),
        passes={"untraced_wall_s": walls[False], "traced_wall_s": walls[True], "cpu_s": cpus},
        failures=failures,
        correct=misses == 0,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
    )
    harness.OUT_DIR.mkdir(parents=True, exist_ok=True)
    stem = harness.OUT_DIR / f"{workload.name}-seed{workload.seed}"
    Path(f"{stem}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace:
        tracer.write(Path(f"{stem}-spans.csv.gz"), spans)
    return result


def report(result: dict, units: dict[str, str], result_metrics: list[str]) -> None:
    """Print the run description, then the JSON result line last."""
    print("# env " + json.dumps(result["env"], sort_keys=True))
    for line in result["failures"]:
        print("# fail " + line)
    for name, value in result["metrics"].items():
        print(f"# metric {name} {value!r} {units[name]}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": result["metrics"][name], "unit": units[name]}
                    for name in result_metrics
                },
            }
        )
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "isac_mi" / "__init__.py").is_file():
        print("bench: no isac_mi sources under src/ in this checkout", file=sys.stderr)
        return 2
    pin_environment()
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(harness.WORKLOADS)}")
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = run(
        harness.make_workload(args.workload, args.seed),
        args.seconds,
        bool(args.trace),
        harness.load_reference(),
    )
    report(result, units, [m["name"] for m in spec[section]])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
