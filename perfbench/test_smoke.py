"""Smoke test of the benchmark at tiny size (about half a minute).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def printed():
    """The last stdout line of one tiny run per workload and trace mode."""
    out = {}
    for workload in wl.WORKLOADS:
        for trace in (0, 1):
            argv = ["--workload", workload, "--seconds", "0", "--trace", str(trace)]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert run.main(argv, sizes=wl.TINY) == 0
            out[workload, trace] = json.loads(buf.getvalue().strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(printed, workload, trace, group):
    result = printed[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[group]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _corrupt(workload, records):
    bad = copy.deepcopy(records)
    if workload == "sweep":
        row = bad[0]["rows"][0]
        row[2] = "Unstable" if row[2] == "Stable" else "Stable"
        bad[1]["rows"][-1][1] *= 1.0 + 1e-3  # mu* outside the stated tolerance
    elif workload == "transition":
        bad[0]["rho0_crit"] = bad[0]["rho0_crit"] * (1.0 + 1e-12)
    else:
        name = next(iter(bad[0]["checks"]))
        bad[0]["checks"][name] = False
    return bad


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_corrupted_reference_trips_failed_fraction(workload):
    clean, runner = run.run_workload(workload, wl.DEFAULT_SEED, 0.0, False, sizes=wl.TINY)
    assert clean["failed"] == 0
    same, _ = run.run_workload(workload, wl.DEFAULT_SEED, 0.0, False, sizes=wl.TINY,
                               reference=runner.records)
    assert same["failed"] == 0 and same["attempted"] > clean["attempted"]
    bad, _ = run.run_workload(workload, wl.DEFAULT_SEED, 0.0, False, sizes=wl.TINY,
                              reference=_corrupt(workload, runner.records))
    assert not bad["correct"] and bad["failed"] / bad["attempted"] > 0.0


def test_inputs_are_seeded_and_stay_in_their_regimes():
    assert wl.sweep_inputs(3) == wl.sweep_inputs(3) != wl.sweep_inputs(4)
    assert wl.transition_inputs(3) == wl.transition_inputs(3) != wl.transition_inputs(4)
    for seed in range(200):
        for inv in wl.sweep_inputs(seed):
            lo, hi = wl.regime_intervals(inv.d)[inv.regime]
            assert lo - 5e-4 <= float(inv.gamma) <= hi + 5e-4
            assert (float(inv.gamma) >= wl.stability_threshold(inv.d)) == (inv.regime == "stable")
        for inv in wl.transition_inputs(seed):
            assert float(inv.gamma) < wl.stability_threshold(inv.d) - 0.019


def test_importtime_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     scipy._lib",
        "import time:       200 |        300 |   scipy",
        "import time:        50 |         50 |     scipy.special",
        "import time:       400 |        450 |   scipy.integrate",
        "import time:        10 |        800 | lanemden",
    ])
    got = run.parse_importtime(text)
    assert got["startup.import_s"] == pytest.approx(800e-6)
    assert got["startup.scipy_import_s"] == pytest.approx(750e-6)


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
