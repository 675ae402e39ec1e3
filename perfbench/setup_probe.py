"""Set-up probe: a fresh interpreter imports currents_lab and readies one run's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

The benchmark times this process from spawn to exit as ``setup_s``.
"""

import sys

from workloads import WORKLOADS, load_library


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    lib = load_library()
    workload = WORKLOADS[name]
    workload.parse(lib, workload.plans(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
