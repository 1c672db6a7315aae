"""Pin the expected outputs of a workload for input cases ``0 .. PIN_POOL-1``.

Run from the repository root::

    python3 perfbench/pin.py --workload rmq-large [--first 0 --last 31] [--out FILE]

RMQ and DP operations pin the frontier fingerprint of their run (or
``error:<type>`` when the run raises).  ``figure1-coord`` pins the digest of
every cell of the *sequential* in-process run, which the coordinator run
must reproduce.  Existing entries of other input cases are kept, so two
processes can pin disjoint ranges into two files that are then merged.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def expected_outputs(name: str, seed: int) -> dict:
    workload = workloads.WORKLOADS[name]()
    if name == "figure1-coord":
        result = workload.run_in_process(workloads.figure1_spec(seed))
    else:
        result = workload.single_pass(seed)
    return {operation.key: operation.output for operation in result.operations}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=workloads.PIN_POOL - 1)
    parser.add_argument("--out", help="pin file (default: pins/<workload>.json)")
    args = parser.parse_args()
    path = args.out or os.path.join(HERE, "pins", f"{args.workload}.json")
    data = {"pool": workloads.PIN_POOL, "seeds": {}}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    for seed in range(args.first, args.last + 1):
        data["seeds"][str(seed)] = expected_outputs(args.workload, seed)
        print(args.workload, seed, data["seeds"][str(seed)], flush=True)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
