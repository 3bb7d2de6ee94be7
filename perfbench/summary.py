"""Run the benchmark over several seeds and workloads and summarise each metric.

    python3 perfbench/summary.py                       # every workload, default seed
    python3 perfbench/summary.py --seeds 0-9 --workloads sweep
    python3 perfbench/summary.py --seeds 0-4 --trace 1

For each workload and metric it prints the median, the quartiles and their
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
then one JSON line holding the same figures.  Exits 1 if any run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0, "values": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="0", help="e.g. 0-9 or 1,4,7")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    ok = True
    report = {}
    for workload in args.workloads.split(","):
        values, units = {}, {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            if result is None or not result["correct"]:
                ok = False
                sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                if result is None:
                    continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        report[workload] = {}
        for name, vals in values.items():
            s = summarise(vals)
            s["unit"], s["bound"] = units[name], bounds.get(name)
            report[workload][name] = s
            bound = f"{s['bound']:.3f}" if s["bound"] else "-"
            print(f"{workload:<11}{name:<44}{s['median']:>14.6g} {s['unit']:<9}"
                  f"q1 {s['q1']:<12.6g}q3 {s['q3']:<12.6g}spread {s['spread']:<8.4f}bound {bound}")
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
