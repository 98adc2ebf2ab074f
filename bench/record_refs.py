#!/usr/bin/env python3
"""Record the reference outputs the correctness gate compares against.

    python3 bench/record_refs.py [WORKLOAD ...]

Runs every workload once per CLI seed in REF_SEEDS, from the repository root
and with the benchmark's child environment, and stores the CSV, the JSON
sidecar and the exit code under bench/refs/<workload>/. Rerun it only when a
change moves the outputs on purpose, and say so in that change.
"""

import json
import subprocess
import sys

from gate import REFS, reference_paths
from run import ROOT, child_env
from workloads import REF_SEEDS, WORKLOADS


def record(workload) -> None:
    (REFS / workload.name).mkdir(parents=True, exist_ok=True)
    codes = {}
    for seed in REF_SEEDS:
        csv_path, _ = reference_paths(workload.name, seed)
        argv = [sys.executable, "-m", "sde_longtime.cli"]
        argv += workload.cli_args(seed, str(csv_path))
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=600)
        if proc.returncode not in (0, 1):
            raise SystemExit(f"{workload.name} seed {seed}: exit code "
                             f"{proc.returncode}; not recording a failed run")
        codes[str(seed)] = proc.returncode
        print(f"{workload.name} seed {seed}: exit {proc.returncode}", flush=True)
    (REFS / workload.name / "exit_codes.json").write_text(
        json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or list(WORKLOADS):
        record(WORKLOADS[name])
