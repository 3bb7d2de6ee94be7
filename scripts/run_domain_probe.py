#!/usr/bin/env python3
"""Probe the valid domain: `stability` over a (d, gamma, rho0) grid, in process.

Every valid input should certify a verdict (exit 0) or fail cleanly (exit 2,
one "numerical failure:" line that names its cause), within a time budget
and without a warning.  Each argv runs `lanemden.cli.main` with warnings
raised as errors and an alarm at BUDGET seconds; anything that escapes main (a
warning, an uncaught exception, the alarm) is reported with exit -1.  The
default grid is 272 argv: d in {3, 4, 7, 12, 30}, gamma in {1, 1.0001, 1.2,
1.5, 2(d-1)/d, 1.99, 2} ("threshold" below stands for 2(d-1)/d, and is
skipped where it equals a listed gamma, as 1.5 at d = 4) and eight rho0 from
1 + 1e-12 to 1e150.  Prints one CSV row per argv:
d,gamma,rho0,exit,seconds,verdict,theorem,cause: verdict is the one printed
on exit 0, theorem is Stable where gamma >= 2(d-1)/d (the paper proves every
liquid star linearly stable there) and blank elsewhere,
and cause is stderr's first line where the exit is not 0.  At the end,
stderr reports how many exit-0 rows print a verdict that contradicts their
theorem cell.
"""

import argparse
import contextlib
import csv
import io
import json
import signal
import sys
import time
import warnings

from lanemden import cli
from lanemden.config import stability_threshold

DIMS = "3,4,7,12,30"
GAMMAS = "1,1.0001,1.2,1.5,threshold,1.99,2"
RHO0S = "1.000000000001,1.0000001,1.5,1e3,1e8,1e20,1e60,1e150"
BUDGET = 15.0  # seconds an argv may take before the alarm stops it


class OverBudget(BaseException):
    """Raised by the alarm: a BaseException, so that no handler in the package catches it."""


def _alarm(signum, frame):
    raise OverBudget()


def grid(dims: str = DIMS, gammas: str = GAMMAS, rho0s: str = RHO0S):
    """(d, gamma, rho0) strings of the grid, gamma "threshold" read as 2(d-1)/d.

    A threshold equal to a listed gamma is skipped, so no argv repeats
    (2(d-1)/d is 1.5 at d = 4).
    """
    listed = [float(g) for g in gammas.split(",") if g != "threshold"]
    for d in (int(x) for x in dims.split(",")):
        threshold = 2.0 * (d - 1) / d
        for g in gammas.split(","):
            if g == "threshold" and threshold in listed:
                continue
            gamma = repr(threshold) if g == "threshold" else g
            for rho0 in rho0s.split(","):
                yield str(d), gamma, rho0


def theorem(d: str, gamma: str) -> str:
    """The verdict the theorem gives: Stable where gamma >= 2(d-1)/d, "" (none) elsewhere."""
    return "Stable" if float(gamma) >= stability_threshold(int(d)) else ""


def probe(d: str, gamma: str, rho0: str, mesh: int, budget: float):
    """One `stability` argv in process: (exit code, seconds, stderr, verdict).

    The exit code is main's, or -1 when a warning, an exception or the
    budget's alarm escapes it; stderr then names what escaped.  verdict is
    the one stdout prints on exit 0, "" otherwise.
    """
    argv = ["stability", "--d", d, "--gamma", gamma, "--rho0", rho0, "--mesh", str(mesh)]
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
    except OverBudget:
        code = -1
        err.write(f"over the budget of {budget:g} s\n")
    except Exception as exc:  # what escaped main is the finding
        code = -1
        err.write(f"escaped main: {type(exc).__name__}: {exc}\n")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - t0
    return code, seconds, err.getvalue(), json.loads(out.getvalue())["verdict"] if code == 0 else ""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dims", default=DIMS, help="comma-separated dimensions")
    parser.add_argument("--gammas", default=GAMMAS, help="comma-separated gammas, or threshold")
    parser.add_argument("--rho0s", default=RHO0S, help="comma-separated central densities")
    parser.add_argument("--mesh", type=int, default=256)
    args = parser.parse_args()

    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(["d", "gamma", "rho0", "exit", "seconds", "verdict", "theorem", "cause"])
    contradicted = decided = 0
    for d, gamma, rho0 in grid(args.dims, args.gammas, args.rho0s):
        code, seconds, err, verdict = probe(d, gamma, rho0, args.mesh, BUDGET)
        stated = theorem(d, gamma)
        if code == 0 and stated:
            decided += 1
            contradicted += verdict != stated
        out.writerow([d, gamma, rho0, code, f"{seconds:.3f}", verdict, stated,
                      err.splitlines()[0] if code != 0 and err else ""])
        sys.stdout.flush()
    print(f"theorem: {contradicted} of {decided} exit-0 rows with a theorem cell contradict it",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
