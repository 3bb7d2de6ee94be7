"""The in-house DOP853 stepper against scipy's solve_ivp (used here as an oracle)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853

import lanemden
from lanemden import StarConfig, dop853, integrate_gas_profile, steady
from lanemden.harness import PROFILE_BATTERY

LIQUID_STARS = [(3, 1.25, 50.0), (3, 1.25, 1e4), (4, 1.4, 1e6), (5, 1.1, 1.01), (3, 1.0, 1e3)]

CASES = [((d, g, rho0), dict(r_max=20.0)) for d, g, rho0 in PROFILE_BATTERY] + [
    (star, dict(r_max=50.0, stop_at_liquid=True)) for star in LIQUID_STARS
]


def test_tableau_matches_scipy_bitwise():
    n = scipy_dop853.N_STAGES
    pairs = [
        (dop853.A, scipy_dop853.A),
        (dop853.B, scipy_dop853.A[n, :n]),
        (dop853.C, scipy_dop853.C),
        (dop853.E3, scipy_dop853.E3),
        (dop853.E5, scipy_dop853.E5),
        (dop853.D, scipy_dop853.D),
    ]
    for ours, theirs in pairs:
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def _captured_run(monkeypatch, star, kwargs):
    """Integrate one star and return the stepper's inputs and its solution."""
    calls = []
    solve = dop853.solve

    def spy(*args, **kw):
        sol = solve(*args, **kw)
        calls.append((args, kw, sol))
        return sol

    monkeypatch.setattr(steady.dop853, "solve", spy)
    profile = integrate_gas_profile(StarConfig(*star), tol=1e-10, **kwargs)
    (args, kw, sol), = calls
    return profile, args, kw, sol


def _reference(args, kw):
    """solve_ivp DOP853 on the same problem, events and tolerances."""
    rhs, t0, y0, t_bound = args
    events = []
    for level, terminal in kw["events"]:
        event = lambda r, y, level=level: y[0] - level
        event.terminal = terminal
        event.direction = -1
        events.append(event)
    return solve_ivp(
        lambda r, y: rhs(r, y[0], y[1]),
        (t0, t_bound),
        y0,
        method="DOP853",
        rtol=kw["rtol"],
        atol=kw["atol"],
        dense_output=True,
        events=events,
    )


@pytest.mark.parametrize("star,kwargs", CASES, ids=[str(c[0]) for c in CASES])
def test_matches_solve_ivp(monkeypatch, star, kwargs):
    profile, args, kw, sol = _captured_run(monkeypatch, star, kwargs)
    ref = _reference(args, kw)
    assert ref.status >= 0

    # event radii to 1e-12 relative, the same events fired
    assert len(sol.event_roots) == len(ref.t_events)
    for ours, theirs in zip(sol.event_roots, ref.t_events):
        assert len(ours) == len(theirs)
        for a, b in zip(ours, theirs):
            assert abs(a - b) <= 1e-12 * abs(b)
    assert abs(sol.n_steps - (len(ref.t) - 1)) <= 0.1 * (len(ref.t) - 1)
    assert abs(sol.nfev - ref.nfev) <= 0.1 * ref.nfev

    # dense output on the profile's grid.  The last step of a compact star
    # straddles the surface, where w^alpha has a kink, so its polynomial is
    # only good to the integration tolerance; everywhere before it the two
    # solutions agree to rounding amplified along the run
    r = profile.radii[(profile.radii >= sol.ts[0]) & (profile.radii <= min(sol.ts[-1], ref.t[-1]))]
    ours, theirs = sol(r), ref.sol(r)
    size = np.max(np.abs(theirs), axis=1, keepdims=True)
    err = np.abs(ours - theirs) / size
    assert err.max() <= 1e-10
    kink = profile.gas_radius is not None
    smooth = r < (sol.t_old[-1] if kink else np.inf)
    assert err[:, smooth].max() <= 1e-12


@pytest.mark.parametrize("star", LIQUID_STARS, ids=str)
def test_non_terminal_events_leave_the_steps_alone(monkeypatch, star):
    # extra crossings between the seed and the liquid surface only record
    # roots: the steps, their dense output and the RHS count stay bit for bit
    _, args, kw, sol = _captured_run(monkeypatch, star, dict(r_max=50.0, stop_at_liquid=True))
    seed, surface = args[2][0], kw["events"][0][0]
    levels = [(surface + f * (seed - surface), False) for f in (0.9, 0.5, 0.1, 1e-6)]
    more = dop853.solve(*args, rtol=kw["rtol"], atol=kw["atol"], events=levels + kw["events"])
    for name in ("ts", "t_old", "h", "y_old", "coeffs"):
        assert getattr(more, name).tobytes() == getattr(sol, name).tobytes(), name
    assert more.nfev == sol.nfev
    assert more.event_roots[len(levels):] == sol.event_roots
    roots = [r for (r,) in more.event_roots[:len(levels)]]
    assert roots == sorted(roots) and roots[-1] < sol.ts[-1]


def test_floor_event_stops_isothermal_star(monkeypatch):
    # gamma = 1 has no surface: the run ends where h falls to -660
    _, _, kw, sol = _captured_run(monkeypatch, (3, 1.0, 1.0), dict(r_max=1e200))
    assert kw["events"] == [(-660.0, True)]
    (floor,), = sol.event_roots
    assert sol.ts[-1] == floor
    assert sol(np.array([floor]))[0, 0] == pytest.approx(-660.0, abs=1e-9)


def test_compact_surface_event():
    profile = integrate_gas_profile(StarConfig(3, 1.3, 0.5), r_max=20.0)
    assert profile.gas_radius is not None and profile.gas_radius < 20.0
    assert profile.radii[-1] == profile.gas_radius
    assert profile.enthalpy[-1] == 0.0


def test_events_fire_on_downward_crossings_only():
    # a = cos t falls through 0 at pi/2 + 2 pi k and rises at 3 pi/2 + 2 pi k;
    # the non-terminal event records every fall, the terminal one stops at
    # the first fall through -0.5, at 2 pi/3
    sol = dop853.solve(lambda t, a, b: (b, -a), 0.0, (1.0, 0.0), 15.0, rtol=1e-11, atol=1e-14,
                       events=[(0.0, False), (-0.5, True)])
    (falls, stop) = sol.event_roots
    assert falls == pytest.approx([np.pi / 2], abs=1e-10)
    assert stop == pytest.approx([2 * np.pi / 3], abs=1e-10)
    assert sol.ts[-1] == stop[0]
    sol = dop853.solve(lambda t, a, b: (b, -a), 0.0, (1.0, 0.0), 15.0, rtol=1e-11, atol=1e-14,
                       events=[(0.0, False)])
    assert sol.event_roots[0] == pytest.approx([np.pi / 2, 5 * np.pi / 2, 9 * np.pi / 2], abs=1e-10)
    assert sol.ts[-1] == 15.0


def test_step_size_underflow_raises():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step size must collapse there
    with pytest.raises(RuntimeError, match="step size"):
        dop853.solve(lambda t, a, b: (a * a, 0.0), 0.0, (1.0, 0.0), 2.0, rtol=1e-10, atol=1e-12)


def test_non_finite_state_raises():
    # a constant slope that overflows the state: the error estimate stays 0
    with pytest.raises(RuntimeError, match="non-finite"):
        dop853.solve(lambda t, a, b: (1e300, 0.0), 0.0, (1.7e308, 0.0), 1e12, rtol=1e-10, atol=1e-300)


def test_oscillator_closed_form():
    # a'' = -a through a few periods: the dense output follows cos and -sin
    sol = dop853.solve(lambda t, a, b: (b, -a), 0.0, (1.0, 0.0), 20.0, rtol=1e-11, atol=1e-14)
    t = np.linspace(0.0, 20.0, 501)
    assert np.max(np.abs(sol(t) - np.array([np.cos(t), -np.sin(t)]))) <= 1e-9
    assert sol.ts[-1] == 20.0 and sol.event_roots == ()


def test_import_leaves_scipy_integrate_out():
    code = "import sys, lanemden; print('scipy.integrate' in sys.modules)"
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"
