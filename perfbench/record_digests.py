"""Record the stdout digest of every report the benchmark can make.

Run it from the root of a checkout of the commit whose reports are the
reference, and only there:

    python3 perfbench/record_digests.py

Every workload draws its reports from a fixed catalogue (the benchmark seed
only orders it), so the digests cover every seed.  A report that fails its
checks is not recorded; the script then exits 1 and writes nothing.
"""

from __future__ import annotations

import json
import platform
import shlex
import sys

from run import DIGESTS, Runner, git_rev
from workloads import WORKLOADS, load_library


def main() -> int:
    runner = Runner(load_library(), reference={})
    digests: dict[str, str] = {}
    for workload in WORKLOADS.values():
        plans = workload.plans(0)
        for plan in plans:
            result = runner.run(plan)
            key = shlex.join(plan.argv)
            if result.problems:
                print(f"{key}: {'; '.join(result.problems)}", file=sys.stderr)
                return 1
            digests[key] = runner.seen[key]
        print(f"{workload.name}: {len(plans)} reports", flush=True)
    record = {"git_rev": git_rev(), "python": platform.python_version(), "digests": digests}
    DIGESTS.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
