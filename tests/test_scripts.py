"""Each script under scripts/ runs end to end on a tiny input and prints parseable CSV."""

import csv
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
}

# the columns every data row must hold, by header
HEADERS = {
    "run_mass_radius.py": "rho0,R,M,mu_star,verdict,mass_slope",
    "run_phase_diagram.py": "rho0,R,M,mu_star,verdict",
    "run_tail_study.py": "r,v1,v2,rel_dev_v1",
}
TEXT_COLUMNS = {"verdict", "mass_slope"}


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
    if name == "run_mass_radius.py":
        (rows,) = blocks
        assert len(rows) == 4 and {row["verdict"] for row in rows} <= {"Stable", "Unstable"}
