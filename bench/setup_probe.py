"""Set-up of one workload in a fresh interpreter: import isac_mi, parse the
config and build the scenario(s), then exit.  bench/run.py times whole runs of
this script to measure setup_s; it expects PYTHONPATH to name src/.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import harness

harness.make_workload(sys.argv[1], int(sys.argv[2])).prepare()
