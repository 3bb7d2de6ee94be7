"""Each script under scripts/ runs end to end on a tiny input and prints parseable CSV."""

import csv
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"

# tiny inputs: a few stars on a coarse mesh, or a short tail
ARGS = {
    "run_mass_radius.py": ["--points", "4", "--mesh", "128", "--rho0-max", "100"],
    "run_phase_diagram.py": ["--points", "2", "--mesh", "128", "--rho0-max", "100"],
    "run_tail_study.py": ["--rmax", "100"],
    "run_domain_probe.py": ["--dims", "3", "--gammas", "1.5,threshold", "--rho0s", "1.5,1e150", "--mesh", "64"],
}

# the columns every data row must hold, by header
HEADERS = {
    "run_mass_radius.py": "rho0,R,M,mu_star,verdict,mass_slope",
    "run_phase_diagram.py": "rho0,R,M,mu_star,verdict",
    "run_tail_study.py": "r,v1,v2,rel_dev_v1",
    "run_domain_probe.py": "d,gamma,rho0,exit,seconds,cause",
}
TEXT_COLUMNS = {"verdict", "mass_slope", "cause"}


def test_every_script_has_a_tiny_input():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(ARGS)


def _run(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *ARGS[name]], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)


def _blocks(text):
    """The CSV blocks of text: comment lines start with '#', blank lines separate blocks."""
    blocks, current = [], []
    for line in text.splitlines() + [""]:
        if line.startswith("#"):
            continue
        if line.strip():
            current.append(line)
        elif current:
            blocks.append(list(csv.DictReader(io.StringIO("\n".join(current)))))
            current = []
    return blocks


@pytest.mark.parametrize("name", sorted(ARGS))
def test_script_prints_csv(name):
    out = _run(name)
    assert out.returncode == 0, out.stderr
    blocks = _blocks(out.stdout)
    assert blocks and all(blocks)
    columns = HEADERS[name].split(",")
    for rows in blocks:
        for row in rows:
            assert list(row) == columns
            for key, value in row.items():
                if key not in TEXT_COLUMNS:
                    float(value)
    if name == "run_phase_diagram.py":
        assert len(blocks) == 7 and all(len(rows) == 2 for rows in blocks)
    if name == "run_domain_probe.py":
        (rows,) = blocks
        assert [(row["gamma"], row["rho0"], row["exit"]) for row in rows] == [
            ("1.5", "1.5", "0"), ("1.5", "1e150", "0"), ("1.3333333333333333", "1.5", "0"),
            ("1.3333333333333333", "1e150", "2")]
        assert rows[-1]["cause"].startswith("numerical failure: ")
    if name == "run_mass_radius.py":
        (rows,) = blocks
        assert len(rows) == 4 and {row["verdict"] for row in rows} <= {"Stable", "Unstable"}


def _domain_probe():
    spec = importlib.util.spec_from_file_location("run_domain_probe", SCRIPTS / "run_domain_probe.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# what an exit 2 of the reduced probe grid may name as its cause
PROBE_CAUSES = (
    "eigensolver failed to certify",  # gamma = 2(d-1)/d at large rho0 (q = 0)
    "underflows float64",  # the Taylor seed radius at large d and rho0
    "non-finite pencil entries",  # the pencil overflows
)


def test_domain_probe_grid_exits_cleanly():
    # stability --mesh 64 in process over d in {3, 7, 30}, gamma in {1, 1.5,
    # 2(d-1)/d, 2} and four rho0 up to 1e150, warnings raised as errors:
    # each argv certifies or fails with one line that names its cause, in
    # under 2 s
    probe = _domain_probe()
    exits = []
    for d, gamma, rho0 in probe.grid("3,7,30", "1,1.5,threshold,2", "1.0000001,1.5,1e8,1e150"):
        code, seconds, err = probe.probe(d, gamma, rho0, mesh=64, budget=2.0)
        label = (d, gamma, rho0)
        assert code in (0, 2), (label, err)
        assert seconds < 2.0, label
        if code == 0:
            assert err == "", (label, err)
        else:
            (line,) = err.splitlines()
            assert line.startswith("numerical failure: "), (label, err)
            assert any(cause in line for cause in PROBE_CAUSES), (label, err)
        exits.append(code)
    assert len(exits) == 48 and 0 < exits.count(2) < 12


def test_domain_probe_default_grid_has_no_duplicates():
    # 2(d-1)/d is 1.5 at d = 4, a listed gamma: the threshold is skipped there
    argv = list(_domain_probe().grid())
    assert len(argv) == len(set(argv)) == 272
    assert argv.count(("4", "1.5", "1e150")) == 1
