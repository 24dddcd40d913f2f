"""Print the expected summary of every operation of a workload as JSON.

    python3 perfbench/expect.py --workload exact --seed 1

The values come from ``reference``, which never imports gridlabel. run.py
runs this in a child process so that its own memory stays small.
"""

from __future__ import annotations

import argparse
import json
import sys

import reference
import specs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=specs.LIBRARY_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    ops = specs.ops(args.workload, args.seed)
    inputs = specs.exact_inputs(args.seed) if args.workload == "exact" else None
    json.dump({repr(op): reference.expected(op, inputs)
               for op in ops if op[0] != "search"}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
