"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines even
for passing criteria).
"""

import json
import math
import pathlib
import time

import numpy as np
import pytest

from lanemden import (
    StarConfig,
    assemble,
    build_sl_data,
    buchdahl_bounds,
    classify_stability,
    critical_density,
    decay_bound,
    fixed_points,
    gas_read,
    graded_mesh,
    instability_witness,
    jacobian_spectrum,
    liquid_radius,
    phase_trajectory,
    pohozaev_residual,
    profile_to_phase,
    quadratic_form,
    radius_limit,
    singular_star,
    tail_convergence_rate,
    vector_field,
)
from lanemden.config import stability_threshold
from lanemden.spectral import UNSTABLE

from conftest import get_gas, get_liquid, get_profile

BASELINE_PATH = pathlib.Path(__file__).parent / "data" / "critical_density_baseline.json"

BATTERY = [(d, g, rho0) for d in (3, 4, 5) for g in (1.0, 1.2, 1.5, 2.0) for rho0 in (1.0, 10.0)]

PHASE_DIAGRAM_STABLE_HIGH = [
    (d, g, rho0)
    for d in (3, 4, 5)
    for g in (stability_threshold(d), min(stability_threshold(d) + 0.1, 2.0))
    for rho0 in (1.1, 10.0, 1e3)
]
PHASE_DIAGRAM_SMALL = [(3, g, 1.01) for g in (1.05, 1.2, 1.3)]
PHASE_DIAGRAM_LARGE = [(3, g, 1e6) for g in (1.05, 1.2, 1.3)]


def _report(num, name, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = detail if not failures else "; ".join(failures)
    print(f"ACCEPTANCE {num} ({name}): {status}" + (f" — {tail}" if tail else ""), flush=True)
    assert not failures, f"criterion {num} failed: {tail}"


def test_criterion_1_explicit_solution_oracle():
    failures = []
    t0 = time.perf_counter()
    radius = None
    worst = 0.0
    for C in (1.0, 32.0):
        run = gas_read(StarConfig(3, 1.2, C), tol=1e-10, r_max=5.0)
        profile = run.profile()
        q = (2 * math.pi / 9) * C ** (4 / 5)
        exact = C * (1 + q * profile.radii**2) ** -2.5
        err = float(np.max(np.abs(profile.rho - exact) / exact))
        worst = max(worst, err)
        if err > 1e-6:
            failures.append(f"C={C}: max relative error {err:.3e} > 1e-6")
        if C == 32.0:
            radius = liquid_radius(run)
            exact_R = math.sqrt(27 / (32 * math.pi))
            if abs(radius - exact_R) / exact_R > 1e-6:
                failures.append(f"R relative error {abs(radius-exact_R)/exact_R:.3e} > 1e-6")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, "explicit-solution oracle", failures,
            f"max rel err {worst:.2e}, R={radius:.8f}, {elapsed:.2f}s")


def test_criterion_2_pohozaev_battery():
    failures = []
    t0 = time.perf_counter()
    worst = 0.0
    for d, g, rho0 in BATTERY:
        res = float(np.max(np.abs(pohozaev_residual(get_gas(d, g, rho0), get_profile(d, g, rho0).radii))))
        worst = max(worst, res)
        if res > 1e-5:
            failures.append(f"(d={d}, gamma={g}, rho0={rho0}): residual {res:.3e} > 1e-5")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    _report(2, "Pohozaev identity", failures, f"worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_decay_and_buchdahl_bounds():
    tol = 1e-10
    failures = []
    worst = -math.inf
    for d, g, rho0 in BATTERY:
        profile = get_profile(d, g, rho0)
        slack = float(np.max(profile.rho / decay_bound(profile.config, profile.radii))) - 1.0
        worst = max(worst, slack)
        if slack > 10 * tol:
            failures.append(f"decay violated at (d={d}, gamma={g}, rho0={rho0}): {slack:.2e}")
        if g < 2.0:
            v1b, v2b = buchdahl_bounds(d, g)
            traj = phase_trajectory(profile)
            s1 = float(np.max(traj.v1 / v1b)) - 1.0
            worst = max(worst, s1)
            if s1 > 10 * tol:
                failures.append(f"v1 bound violated at (d={d}, gamma={g}, rho0={rho0}): {s1:.2e}")
            if v2b is not None:
                s2 = float(np.max(traj.v2 / v2b)) - 1.0
                worst = max(worst, s2)
                if s2 > 10 * tol:
                    failures.append(
                        f"v2 bound violated at (d={d}, gamma={g}, rho0={rho0}): {s2:.2e}"
                    )
    _report(3, "decay and Buchdahl bounds", failures, f"max slack {worst:.2e}")


def test_criterion_4_singular_star_and_fixed_point():
    failures = []
    for d, g in ((3, 1.0), (3, 1.2), (4, 1.2), (5, 1.5)):
        star = singular_star(d, g)
        for r in (0.5, 1.0, 2.0):
            res = abs(star.ode_residual(r))
            if res > 1e-12:
                failures.append(f"singular residual (d={d}, gamma={g}, r={r}): {res:.2e}")
        _, vs = fixed_points(d, g)
        fnorm = float(np.linalg.norm(vector_field(vs, d, g)))
        if fnorm > 1e-12:
            failures.append(f"||F(v*)|| (d={d}, gamma={g}): {fnorm:.2e}")
    _, vs = fixed_points(3, 1.0)
    if abs(vs[0] - 1 / (2 * math.pi)) > 1e-12 or abs(vs[1] - 2.0) > 1e-12:
        failures.append(f"v*(3,1) = {vs} != (1/2pi, 2)")
    rep = jacobian_spectrum(3, 1.0)
    lam = max(rep.eigenvalues, key=lambda z: z.imag)
    if abs(lam - complex(-0.5, math.sqrt(7) / 2)) > 1e-12:
        failures.append(f"eigenvalue {lam} != -1/2 + sqrt(7)/2 i")
    _report(4, "singular star and fixed point", failures)


def test_criterion_5_tail_theorem():
    failures = []
    details = []
    for g in (1.0, 1.1):
        run, profile = get_gas(3, g, 1.0, r_max=1e3), get_profile(3, g, 1.0, r_max=1e3)
        _, vs = fixed_points(3, g)
        state = profile_to_phase(run, profile.r_end)
        rel_dev = abs(state.v1 - vs[0]) / vs[0]
        fit = tail_convergence_rate(profile)
        details.append(f"gamma={g}: rel dev {rel_dev:.3e}, fitted c {fit.exponent:.3f}")
        if rel_dev > 1e-2:
            failures.append(f"gamma={g}: |u1(rmax)-v1*|/v1* = {rel_dev:.3e} > 1e-2")
        if not fit.exponent > 0:
            failures.append(f"gamma={g}: fitted exponent {fit.exponent:.3f} <= 0")
    _report(5, "tail theorem", failures, "; ".join(details))


def test_criterion_6_radius_limit():
    failures = []
    base = gas_read(StarConfig(3, 1.1, 1.0), r_max=1e3)
    r_inf = radius_limit(3, 1.1)
    devs = []
    for kappa in (1e2, 1e3, 1e4, 1e5, 1e6):
        scaled = base.read(kappa)
        devs.append(abs(scaled.liquid_radius - r_inf) / r_inf)
    if devs[-1] > 0.05:
        failures.append(f"|R_kappa - R_inf|/R_inf at kappa=1e6: {devs[-1]:.3e} > 0.05")
    for i in range(len(devs) - 1):
        if not devs[i + 1] < devs[i]:
            failures.append(
                f"deviation not decreasing at kappa=1e{i+3}: {devs[i+1]:.3e} >= {devs[i]:.3e}"
            )
    _report(6, "radius limit", failures,
            "deviations " + ", ".join(f"{x:.3e}" for x in devs))


@pytest.fixture(scope="module")
def phase_diagram_results():
    t0 = time.perf_counter()
    results = {}
    for d, g, rho0 in PHASE_DIAGRAM_STABLE_HIGH + PHASE_DIAGRAM_SMALL + PHASE_DIAGRAM_LARGE:
        profile = get_liquid(d, g, rho0)
        results[(d, g, rho0)] = classify_stability(profile, mesh_size=2048, tol_eig=1e-8)
    return results, time.perf_counter() - t0


def test_criterion_7_stability_phase_diagram(phase_diagram_results):
    results, elapsed = phase_diagram_results
    failures = []
    for d, g, rho0 in PHASE_DIAGRAM_STABLE_HIGH:
        mu = results[(d, g, rho0)].mu_star
        if not mu > 0:
            failures.append(f"(a) mu*(d={d}, gamma={g:.4f}, rho0={rho0}) = {mu:.3e} <= 0")
    for d, g, rho0 in PHASE_DIAGRAM_SMALL:
        mu = results[(d, g, rho0)].mu_star
        if not mu > 0:
            failures.append(f"(b) mu*(d={d}, gamma={g}, rho0={rho0}) = {mu:.3e} <= 0")
    for d, g, rho0 in PHASE_DIAGRAM_LARGE:
        mu = results[(d, g, rho0)].mu_star
        if not mu < 0:
            failures.append(f"(c) mu*(d={d}, gamma={g}, rho0={rho0}) = {mu:.3e} >= 0")
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _report(7, "stability phase diagram", failures,
            f"{len(results)} configurations, {elapsed:.1f}s")


def test_criterion_8_witness_soundness(phase_diagram_results):
    results, _ = phase_diagram_results
    failures = []
    cases = {1.05: 3, 1.2: 2, 1.3: 1}
    values = []
    for d, g, rho0 in PHASE_DIAGRAM_LARGE:
        profile = get_liquid(d, g, rho0)
        value = instability_witness(profile, cases[g])
        values.append(f"case {cases[g]} (gamma={g}): {value:.3e}")
        if value < 0 and results[(d, g, rho0)].verdict != UNSTABLE:
            failures.append(
                f"witness negative ({value:.3e}) but verdict {results[(d, g, rho0)].verdict}"
            )
        if not value < 0:
            failures.append(f"witness for gamma={g} not negative: {value:.3e}")
    _report(8, "witness soundness", failures, "; ".join(values))


def test_criterion_9_mesh_convergence_and_symmetry():
    failures = []
    details = []
    for d, g, rho0 in ((3, 1.4, 10.0), (3, 1.25, 1e4)):
        profile = get_liquid(d, g, rho0)
        mu_2048 = classify_stability(profile, mesh_size=2048).mu_star
        mu_4096 = classify_stability(profile, mesh_size=4096).mu_star
        rel = abs(mu_4096 - mu_2048) / abs(mu_4096)
        details.append(f"(gamma={g}, rho0={rho0}): rel change {rel:.2e}")
        if rel > 1e-4:
            failures.append(f"(gamma={g}, rho0={rho0}): |mu(4096)-mu(2048)|/|mu| = {rel:.2e} > 1e-4")
    data = build_sl_data(get_liquid(3, 1.25, 1e4))
    nodes = graded_mesh(data.R, 2048)
    rng = np.random.default_rng(11)
    c1 = rng.standard_normal(len(nodes))
    c2 = rng.standard_normal(len(nodes))
    a = quadratic_form(data, c1, c2, nodes)
    b = quadratic_form(data, c2, c1, nodes)
    sym = abs(a - b) / max(abs(a), abs(b))
    if sym > 1e-12:
        failures.append(f"Q symmetry defect {sym:.2e} > 1e-12")
    op = assemble(data, 2048)
    K = np.diag(op.k_diag) + np.diag(op.k_off, 1) + np.diag(op.k_off, -1)
    sym_K = abs(K - K.T).max() / abs(K).max()
    if sym_K > 1e-12:
        failures.append(f"K symmetry defect {sym_K:.2e} > 1e-12")
    _report(9, "mesh convergence and symmetry", failures, "; ".join(details))


def test_criterion_10_critical_density_search():
    failures = []
    result = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=2048, tol_eig=1e-8)
    lo, hi = result.bracket
    if not (result.mu_lo > 0 > result.mu_hi):
        failures.append(f"sign change not certified: mu_lo={result.mu_lo:.3e}, mu_hi={result.mu_hi:.3e}")
    width = (hi - lo) / result.rho0_crit
    if width > 1e-3:
        failures.append(f"bracket relative width {width:.2e} > 1e-3")

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())["rho0_crit"]
        drift = abs(result.rho0_crit - baseline) / baseline
        if drift > 1e-3:
            failures.append(
                f"rho0_crit {result.rho0_crit:.6f} drifted {drift:.2e} from baseline {baseline:.6f}"
            )
        detail = f"rho0_crit={result.rho0_crit:.6f}, baseline drift {drift:.2e}"
    else:
        BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "d": 3,
                    "gamma": 1.25,
                    "bracket_lo": 1.01,
                    "bracket_hi": 1e6,
                    "tol_rho": 1e-3,
                    "rho0_crit": result.rho0_crit,
                },
                indent=2,
            )
            + "\n"
        )
        detail = f"rho0_crit={result.rho0_crit:.6f} (baseline recorded)"
    _report(10, "critical-density search", failures, detail)
