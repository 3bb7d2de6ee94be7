"""Record the outputs of the default seed that must not move: perfbench/reference.json.

    python3 perfbench/record_reference.py

Run it only when a change is meant to alter these outputs, and say so.
"""

import json
import sys

import run
import workloads as wl


def main() -> int:
    ref = {"seed": wl.DEFAULT_SEED, "mu_rtol": wl.MU_RTOL, "mu_atol": wl.MU_ATOL,
           "workloads": {}, "stdout_sha256": {}}
    for workload in wl.WORKLOADS:
        result, runner = run.run_workload(workload, wl.DEFAULT_SEED, 0.0, trace=False)
        if not result["correct"]:
            sys.stderr.write(f"{workload}: outputs fail their checks, nothing recorded\n")
            return 1
        ref["workloads"][workload] = runner.records
        ref["stdout_sha256"][workload] = runner.stdout_sha256
    with open(run.REFERENCE, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
