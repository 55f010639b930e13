"""Regenerate bench/reference.json: the outputs of every operation of every
workload input, from one untraced pass each at the current commit.

    python3 bench/make_reference.py

verify-mc has one input per scenario variant; the other workloads' inputs do
not depend on the seed.  Failed operations are stored with their error, so
the gate keeps reporting them.  Only regenerate at a commit whose outputs are
known to be right: the gate compares every later run against this file.
"""

import json
import sys

import run

run.pin_environment()

import harness  # noqa: E402  (needs the pinned environment)


def main() -> int:
    seeds = {"verify-mc": range(harness.VERIFY_VARIANTS), "solve-highsnr": [0], "pga-tradeoff": [0]}
    reference = {}
    for name, workload_seeds in seeds.items():
        table = reference.setdefault(name, {})
        for seed in workload_seeds:
            workload = harness.make_workload(name, seed)
            workload.write_inputs()
            outcomes, walls, _ = harness.timed_pass(workload)
            for o in outcomes:
                table[o.name] = harness.reference_entry(o)
                print(f"{sum(walls):7.2f}s {o.name}: {table[o.name]}", file=sys.stderr)
    harness.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
