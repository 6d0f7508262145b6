"""Check that the traced counts repeat exactly between two runs on one seed.

    python3 perfbench/determinism.py --seed 0 [--workload torsion ...]

Each workload is traced twice, each time in a fresh process, and every call
count and work count (input generators, basis elements, coefficient bits,
syzygy columns, entry-ideal generators and the ratios built from them) must
agree.  These are the figures that compare across machines.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import tracer
from run import WORKLOAD_NAMES

RUN = Path(__file__).resolve().parent / "run.py"


def traced_counts(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in tracer.deterministic_names()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", nargs="*", choices=WORKLOAD_NAMES,
                        default=list(WORKLOAD_NAMES))
    args = parser.parse_args(argv)
    code = 0
    for workload in args.workload:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        diffs = [name for name in first if first[name] != second[name]]
        for name in diffs:
            print(f"{workload}: {name} differs: {first[name]} vs {second[name]}")
        print(f"{workload}: {len(first) - len(diffs)} of {len(first)} counts identical")
        code = code or (1 if diffs else 0)
    return code


if __name__ == "__main__":
    sys.exit(main())
