"""Benchmark of the lanemden CLI: sweep, transition and verify workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

Each run is one fresh Python process.  It times how long a fresh interpreter
takes to import lanemden, then calls ``lanemden.cli.main(argv)`` in-process on
the workload's seeded argv, pass after pass, until ``--seconds`` is used up,
capturing and checking stdout.  Call times are normalised by the host's speed
(see hostspeed.py).  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced passes with passes in which every public function of the
package is wrapped in spans, and prints the per-layer metrics.  Diagnostics go
to stderr; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before numpy loads, here and in every child process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import workloads as wl
from hostspeed import REFERENCE_S, Probe
from tracing import Tracer, layer_metrics, layer_split, per_layer_unit

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
PINNED_BASELINE = ROOT / "tests" / "data" / "critical_density_baseline.json"
CHILD_TIMEOUT_S = 120

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MiB"}
RAW, NORMALISED = 0, 1  # fields of a call's timing


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def time_import(env: Dict[str, str]) -> float:
    """Seconds from spawning a fresh interpreter until it has imported lanemden."""
    code = "import lanemden, sys; sys.stdout.write('1'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                          cwd=ROOT) as proc:
        marker = proc.stdout.read(1)
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if marker != b"1" or proc.returncode != 0:
        raise RuntimeError(f"import lanemden failed in a child process (exit {proc.returncode})")
    return elapsed


def setup_seconds(repeats: int) -> float:
    """Median of several fresh-interpreter imports (the first in a checkout also compiles)."""
    env = child_env()
    return statistics.median(time_import(env) for _ in range(repeats))


def parse_importtime(text: str) -> Dict[str, float]:
    """Cumulative seconds of lanemden and of scipy (outermost scipy entries) from -X importtime."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        level = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((level, name.strip(), int(cum) * 1e-6))
    parent: List[Optional[int]] = [None] * len(rows)
    stack: List[int] = []
    for i in range(len(rows) - 1, -1, -1):  # a parent is printed after its children
        while stack and rows[stack[-1]][0] >= rows[i][0]:
            stack.pop()
        parent[i] = stack[-1] if stack else None
        stack.append(i)

    def is_scipy(i):
        return rows[i][1] == "scipy" or rows[i][1].startswith("scipy.")

    def under_scipy(i):
        p = parent[i]
        while p is not None:
            if is_scipy(p):
                return True
            p = parent[p]
        return False

    lanemden = [cum for level, name, cum in rows if name == "lanemden"]
    scipy = sum(rows[i][2] for i in range(len(rows)) if is_scipy(i) and not under_scipy(i))
    return {"startup.import_s": lanemden[0] if lanemden else 0.0, "startup.scipy_import_s": scipy}


def startup_layers(repeats: int) -> Dict[str, float]:
    env = child_env()
    runs = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lanemden"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        runs.append(parse_importtime(proc.stderr))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


class Runner:
    """Runs passes of one workload through the CLI and checks every output."""

    def __init__(self, workload: str, invocations, reference: Optional[list], pinned_crit: float):
        import lanemden.cli

        self.cli = lanemden.cli
        self.workload = workload
        self.invocations = invocations
        self.reference = reference
        self.pinned_crit = pinned_crit
        self.probe = Probe()
        self.attempted = 0
        self.failed = 0
        self.items_per_pass = 0
        self.failures: List[str] = []
        self.hashes: Optional[List[str]] = None
        self.records: List[dict] = []

    def _main(self, argv) -> tuple:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(list(argv))  # looked up each call, so the tracer sees it
        return rc, buf.getvalue()

    def one_pass(self) -> List[Tuple[float, float]]:
        """Run and check every invocation once; (raw, normalised) seconds of each call."""
        results = [self.probe.timed(self._main, inv.argv) for inv in self.invocations]
        hashes = [hashlib.sha256(out.encode()).hexdigest() for (_, out), _, _ in results]
        if self.hashes is None:
            self.hashes = hashes
        refs = self.reference or [None] * len(self.invocations)
        if len(refs) != len(self.invocations):
            self._count(f"reference holds {len(refs)} invocations, "
                        f"workload {len(self.invocations)}", False)
            refs = [None] * len(self.invocations)
        self.records = []
        self.items_per_pass = 0
        for inv, ref, ((rc, out), _, _), digest, first in zip(
                self.invocations, refs, results, hashes, self.hashes):
            outcome = wl.CHECKS[self.workload](inv, rc, out, ref, self.pinned_crit)
            outcome.check(f"{' '.join(inv.argv)}: stdout differs from the first pass",
                          digest == first)
            self.items_per_pass += outcome.items
            self.records.append(outcome.record)
            for label, ok in outcome.checks:
                self._count(label, ok)
        return [(raw, norm) for _, raw, norm in results]

    def _count(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)

    def passes(self, budget_s: float, tracer: Optional[Tracer] = None):
        """Untraced passes, each followed by a traced one when a tracer is given.

        At least one round; another only while it is expected to fit in the
        budget.  Alternating puts both kinds of pass under the same host load.
        """
        untraced, traced = [], []
        start = time.perf_counter()
        with self.probe.running():
            while True:
                untraced.append(self.one_pass())
                if tracer is not None:
                    with tracer.installed():
                        traced.append(self.one_pass())
                spent = time.perf_counter() - start
                if spent + spent / len(untraced) > budget_s:
                    return untraced, traced

    def warm_up(self) -> None:
        """One cheap call of the same command, so lazy imports are not timed."""
        small = {
            "sweep": ["scan", "--d", "3", "--gamma", "1.25", "--rho0-min", "2", "--rho0-max", "4",
                      "--points", "2", "--mesh", "64"],
            "transition": ["critical", "--d", "3", "--gamma", "1.25", "--rho0-min", "1.01",
                           "--rho0-max", "1e6", "--mesh", "64", "--tol-rho", "0.5"],
            "verify": ["verify", "--suite", "singular"],
        }[self.workload]
        self._main(small)

    @property
    def stdout_sha256(self) -> str:
        return hashlib.sha256("".join(self.hashes or []).encode()).hexdigest()


def pass_seconds(passes, kind: int = NORMALISED) -> float:
    """Seconds of one pass: the sum over its calls of each call's median over the passes."""
    return sum(statistics.median(call[kind] for call in column) for column in zip(*passes))


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def load_reference(path: Path, workload: str, seed: int, sizes: wl.Sizes) -> Optional[list]:
    """Recorded outputs apply to the default seed at full size only."""
    if seed != wl.DEFAULT_SEED or sizes != wl.FULL:
        return None
    with open(path) as f:
        return json.load(f)["workloads"][workload]


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 sizes: wl.Sizes = wl.FULL, reference: Optional[list] = None):
    """One benchmark run: the result printed as the last stdout line, and the runner."""
    with open(PINNED_BASELINE) as f:
        pinned_crit = float(json.load(f)["rho0_crit"])
    invocations = wl.INPUTS[workload](seed, sizes)

    if trace:
        metrics = startup_layers(sizes.setup_repeats)
    else:
        setup = setup_seconds(sizes.setup_repeats)
    sys.path.insert(0, str(SRC))
    runner = Runner(workload, invocations, reference, pinned_crit)
    sys.stderr.write(json.dumps({"environment": environment()}) + "\n")
    runner.warm_up()

    if trace:
        tracer = Tracer()
        untraced, traced = runner.passes(seconds, tracer)
        wall, traced_wall = pass_seconds(untraced), pass_seconds(traced)
        covered = sum(s.duration for s in tracer.spans if s.parent is None)
        metrics.update(layer_metrics(tracer.spans, len(traced)))
        metrics["trace.overhead_frac"] = traced_wall / wall - 1.0
        metrics["trace.toplevel_frac"] = (
            covered / sum(raw for p in traced for raw, _ in p) * traced_wall / wall)
        split = layer_split(tracer.spans, len(traced), pass_seconds(traced, RAW))
        sys.stderr.write(json.dumps({
            "layer_split": split, "passes": len(traced),
            "sweep_row_samples": sum(s.name == "harness.sweep_row" for s in tracer.spans),
        }) + "\n")
        units = {k: per_layer_unit(k) for k in metrics}
    else:
        times, _ = runner.passes(seconds)
        wall = pass_seconds(times)
        metrics = {
            "setup_s": setup,
            "wall_s": wall,
            "items_per_s": runner.items_per_pass / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = E2E_UNITS
        sys.stderr.write(json.dumps({
            "passes": len(times), "raw_pass_s": pass_seconds(times, RAW),
            "host_slowdown": statistics.median(runner.probe.samples) / REFERENCE_S,
        }) + "\n")

    sys.stderr.write(json.dumps({
        "workload": workload, "seed": seed, "stdout_sha256": runner.stdout_sha256,
        "failed_fraction": runner.failed / max(runner.attempted, 1),
    }) + "\n")
    for label in runner.failures[:20]:
        sys.stderr.write(f"FAILED {label}\n")
    result = {
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, runner


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, sizes: wl.Sizes = wl.FULL) -> int:
    args = parse_args(argv)
    if not (SRC / "lanemden" / "__init__.py").is_file():
        sys.stderr.write(f"no lanemden sources under {SRC}: run from a checkout of the repo\n")
        return 2
    reference = load_reference(REFERENCE, args.workload, args.seed, sizes)
    result, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                             sizes=sizes, reference=reference)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
