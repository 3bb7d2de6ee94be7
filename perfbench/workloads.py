"""Seeded CLI inputs for the three workloads and the checks on their outputs.

The program only ever sees the generated argv.  Every check is one entry of
``attempted``; a failing one is one entry of ``failed``.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 0
WORKLOADS = ("sweep", "transition", "verify")
RHO0_MIN, RHO0_MAX = "1.01", "1e6"
PINNED = (3, "1.25")  # the regression line of tests/data/critical_density_baseline.json

# tolerance on mu* against the recorded reference: |mu - mu_ref| <= RTOL |mu_ref| + ATOL
MU_RTOL = 1e-6
MU_ATOL = 1e-3

VERIFY_CHECKS = (
    "explicit", "pohozaev", "decay", "buchdahl", "singular",
    "fixed-point", "tail", "radius-limit", "q-symmetry", "strongform",
)


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload holds."""

    sweep_points: int = 8
    sweep_mesh: int = 2048
    critical_mesh: int = 8192
    critical_dims: Tuple[int, ...] = (4, 5)  # one seeded line per entry
    setup_repeats: int = 5


FULL = Sizes()
TINY = Sizes(sweep_points=3, sweep_mesh=512, critical_mesh=2048, critical_dims=(),
             setup_repeats=1)


def support_threshold(d: int) -> float:
    return 2.0 * d / (d + 2.0)


def stability_threshold(d: int) -> float:
    return 2.0 * (d - 1.0) / d


def regime_intervals(d: int) -> Dict[str, Tuple[float, float]]:
    """gamma ranges of the three regimes, kept clear of the thresholds.

    Below 2(d-1)/d the upper end stays 0.02 away so that the sign change of
    mu* lies well inside [1.01, 1e6] (it moves to large rho0 as gamma nears
    the threshold).
    """
    s, t = support_threshold(d), stability_threshold(d)
    return {
        "infinite": (1.0, s - 0.005),
        "compact": (s + 0.005, t - 0.02),
        "stable": (t + 0.001, 2.0),
    }


@dataclass(frozen=True)
class Invocation:
    argv: Tuple[str, ...]
    d: int = 0
    gamma: str = ""
    regime: str = ""
    pinned: bool = False


def _gamma_draw(rng: random.Random, lo: float, hi: float) -> str:
    return f"{lo + (hi - lo) * rng.random():.3f}"


def sweep_inputs(seed: int, sizes: Sizes = FULL) -> List[Invocation]:
    rng = random.Random(f"sweep:{seed}")
    out = []
    for d in (3, 4, 5):
        for regime, (lo, hi) in regime_intervals(d).items():
            gamma = _gamma_draw(rng, lo, hi)
            argv = ("scan", "--d", str(d), "--gamma", gamma,
                    "--rho0-min", RHO0_MIN, "--rho0-max", RHO0_MAX,
                    "--points", str(sizes.sweep_points), "--mesh", str(sizes.sweep_mesh))
            out.append(Invocation(argv, d, gamma, regime))
    return out


def _critical(d: int, gamma: str, mesh: int, pinned: bool = False) -> Invocation:
    argv = ("critical", "--d", str(d), "--gamma", gamma,
            "--rho0-min", RHO0_MIN, "--rho0-max", RHO0_MAX, "--mesh", str(mesh))
    return Invocation(argv, d, gamma, "", pinned)


def transition_inputs(seed: int, sizes: Sizes = FULL) -> List[Invocation]:
    rng = random.Random(f"transition:{seed}")
    out = [_critical(PINNED[0], PINNED[1], sizes.critical_mesh, pinned=True)]
    for d in sizes.critical_dims:
        gamma = _gamma_draw(rng, 1.0, stability_threshold(d) - 0.02)
        out.append(_critical(d, gamma, sizes.critical_mesh))
    return out


def verify_inputs(seed: int, sizes: Sizes = FULL) -> List[Invocation]:
    """The suite fixes its own inputs; the seed is ignored."""
    return [Invocation(("verify", "--suite", "all"))]


INPUTS = {"sweep": sweep_inputs, "transition": transition_inputs, "verify": verify_inputs}


@dataclass
class Outcome:
    """Checks on one invocation's output, its item count and its must-not-move record."""

    items: int = 0
    checks: List[Tuple[str, bool]] = field(default_factory=list)
    record: dict = field(default_factory=dict)

    def check(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))


def _mu_close(mu: float, ref: float) -> bool:
    return abs(mu - ref) <= MU_RTOL * abs(ref) + MU_ATOL


def _argv_label(inv: Invocation) -> str:
    return " ".join(inv.argv)


def check_sweep(inv: Invocation, rc: int, stdout: str, ref: Optional[dict], _pinned) -> Outcome:
    o = Outcome()
    label = _argv_label(inv)
    try:
        rows = list(csv.reader(io.StringIO(stdout)))
        header, body = rows[0], rows[1:]
        parsed = [(r[0], float(r[3]), r[4]) for r in body]
    except (IndexError, ValueError):
        o.check(f"{label}: unreadable CSV (exit {rc})", False)
        return o
    o.check(f"{label}: exit {rc}, header {header}",
            rc == 0 and header == ["rho0", "R", "M", "mu_star", "verdict"]
            and len(parsed) == int(inv.argv[inv.argv.index("--points") + 1]))
    o.items = len(parsed)
    o.record = {"argv": list(inv.argv), "rows": [list(p) for p in parsed]}
    for rho0, mu, verdict in parsed:
        o.check(f"{label}: rho0={rho0} verdict {verdict}", verdict != "Error")
        if inv.regime == "stable":
            o.check(f"{label}: rho0={rho0} must be Stable, got {verdict}", verdict == "Stable")
    if inv.regime != "stable":
        pattern = "".join({"Stable": "S", "Unstable": "U"}.get(v, "?") for _, _, v in parsed)
        o.check(f"{label}: verdicts {pattern} must read S...SU...U",
                re.fullmatch(r"S+U+", pattern) is not None)
    if ref is not None:
        o.check(f"{label}: argv differs from the reference", ref["argv"] == list(inv.argv))
        for got, want in zip(parsed, ref["rows"]):
            o.check(f"{label}: rho0={got[0]} got ({got[1]!r}, {got[2]}), "
                    f"reference ({want[1]!r}, {want[2]})",
                    got[0] == want[0] and got[2] == want[2] and _mu_close(got[1], want[1]))
        o.check(f"{label}: {len(parsed)} rows, reference {len(ref['rows'])}",
                len(parsed) == len(ref["rows"]))
    return o


def check_transition(inv: Invocation, rc: int, stdout: str, ref: Optional[dict],
                     pinned_crit: float) -> Outcome:
    o = Outcome()
    label = _argv_label(inv)
    try:
        res = json.loads(stdout)
        crit, (lo, hi) = float(res["rho0_crit"]), res["bracket"]
        mu_lo, mu_hi, iters = float(res["mu_lo"]), float(res["mu_hi"]), int(res["iterations"])
    except (ValueError, KeyError, TypeError):
        o.check(f"{label}: unreadable JSON (exit {rc})", False)
        return o
    o.items = iters + 2  # both bracket ends plus one star per bisection step
    o.record = {"argv": list(inv.argv), "rho0_crit": crit, "mu_lo": mu_lo, "mu_hi": mu_hi,
                "iterations": iters}
    o.check(f"{label}: exit {rc}", rc == 0)
    o.check(f"{label}: need mu_lo > 0 > mu_hi, got {mu_lo!r}, {mu_hi!r}", mu_lo > 0.0 > mu_hi)
    o.check(f"{label}: rho0_crit {crit!r} outside its bracket [{lo!r}, {hi!r}]",
            lo < crit < hi and hi - lo <= 1e-3 * 0.5 * (hi + lo))
    if inv.pinned:
        o.check(f"{label}: rho0_crit {crit!r}, pinned {pinned_crit!r}", crit == pinned_crit)
    if ref is not None:
        o.check(f"{label}: argv differs from the reference", ref["argv"] == list(inv.argv))
        o.check(f"{label}: got ({crit!r}, {iters}), reference "
                f"({ref['rho0_crit']!r}, {ref['iterations']})",
                crit == ref["rho0_crit"] and iters == ref["iterations"])
        o.check(f"{label}: mu_lo/mu_hi {mu_lo!r}/{mu_hi!r} vs reference "
                f"{ref['mu_lo']!r}/{ref['mu_hi']!r}",
                _mu_close(mu_lo, ref["mu_lo"]) and _mu_close(mu_hi, ref["mu_hi"]))
    return o


def check_verify(inv: Invocation, rc: int, stdout: str, ref: Optional[dict], _pinned) -> Outcome:
    o = Outcome()
    try:
        report = json.loads(stdout)
        checks = {c["name"]: bool(c["passed"]) for c in report["checks"]}
    except (ValueError, KeyError, TypeError):
        o.check(f"verify: unreadable JSON (exit {rc})", False)
        return o
    o.items = len(checks)
    o.record = {"argv": list(inv.argv), "checks": checks}
    o.check(f"verify: exit {rc}, passed {report.get('passed')}",
            rc == 0 and report.get("passed") is True)
    o.check(f"verify: checks {sorted(checks)}", sorted(checks) == sorted(VERIFY_CHECKS))
    for name, passed in checks.items():
        o.check(f"verify: check {name} failed", passed)
    if ref is not None:
        o.check(f"verify: checks {checks} vs reference {ref['checks']}", checks == ref["checks"])
    return o


CHECKS = {"sweep": check_sweep, "transition": check_transition, "verify": check_verify}
