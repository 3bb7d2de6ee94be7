"""Tests of the in-house DOP853 stepper.

It is checked against scipy's solve_ivp (used here as an oracle) and, bit for
bit, against its own earlier loop form.
"""

import ast
import math
import os
from collections import Counter
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_dop853
from scipy.optimize import brentq

import lanemden
from lanemden import StarConfig, dop853, gas_read, liquid_read, spectral, steady
from lanemden.harness import PROFILE_BATTERY

LIQUID_STARS = [(3, 1.25, 50.0), (3, 1.25, 1e4), (4, 1.4, 1e6), (5, 1.1, 1.01), (3, 1.0, 1e3)]

CASES = [((d, g, rho0), dict(r_max=20.0)) for d, g, rho0 in PROFILE_BATTERY] + [
    (star, dict(r_max=50.0, liquid=True)) for star in LIQUID_STARS
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


def _spy_on_solve(monkeypatch):
    """A list that collects (args, kwargs, solution) of every dop853.solve call."""
    calls = []
    solve = dop853.solve

    def spy(*args, **kw):
        sol = solve(*args, **kw)
        calls.append((args, kw, sol))
        return sol

    monkeypatch.setattr(steady.dop853, "solve", spy)
    return calls


def _star_rhs(config):
    """The star's right-hand side, written out here in Python: (e', m') at (r, e, m).

    e' = -c m / r^(d-1) and m' = 4 pi r^(d-1) rho(e), rho(e) being
    exp(h) at gamma = 1 and w^(1/(gamma-1)) for w > 0, 0 elsewhere: the
    reference the stepper's source is checked against, so it does not read
    that source.
    """
    d, c = config.d, config.slope_factor
    if config.isothermal:
        rho = math.exp
    else:
        alpha = 1.0 / (config.gamma - 1.0)
        rho = lambda w: w**alpha if w > 0.0 else 0.0

    def rhs(r, e, m):
        rd = r ** (d - 1)
        return -c * m / rd, 4.0 * math.pi * rd * rho(e)

    return rhs


def _problem(config, args):
    """(rhs, t0, y0, t_bound) of a star's dop853.solve call, rhs the star's own (_star_rhs)."""
    _, _, t0, y0, t_bound = args
    return _star_rhs(config), t0, y0, t_bound


def _captured_run(monkeypatch, star, kwargs):
    """Integrate one star: its profile, (rhs, t0, y0, t_bound), the stepper's options and solution.

    kwargs with liquid=True reads the star with liquid_read, otherwise with
    gas_read, and samples it (RunStar.profile).
    """
    calls = _spy_on_solve(monkeypatch)
    kwargs = dict(kwargs)
    read = liquid_read if kwargs.pop("liquid", False) else gas_read
    profile = read(StarConfig(*star), tol=1e-10, **kwargs).profile()
    (args, kw, sol), = calls
    return profile, _problem(profile.config, args), kw, sol


def _read_levels(config, stop):
    """The levels a star's run is read at: its stop and rho = 1.

    On a gas run with gamma > 1 the stop is w = 0, the compact surface.
    """
    levels = [stop]
    if config.rho_center > 1.0:
        levels.append(config.boundary_enthalpy)
    return list(dict.fromkeys(levels))


def _reference(problem, kw, levels):
    """solve_ivp DOP853 on the same problem and tolerances, with an event per level.

    Each event fires on a downward crossing; the one at the stop level is terminal.
    """
    rhs, t0, y0, t_bound = problem
    events = []
    for level in levels:
        event = lambda r, y, level=level: y[0] - level
        event.terminal = level == kw["stop"]
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
    profile, problem, kw, sol = _captured_run(monkeypatch, star, kwargs)
    levels = _read_levels(profile.config, kw["stop"])
    ref = _reference(problem, kw, levels)
    assert ref.status >= 0

    # each level's first fall to 1e-12 relative, and the same levels fall
    for level, theirs in zip(levels, ref.t_events):
        ours = sol.crossing(level)
        assert (ours is None) == (len(theirs) == 0), level
        if ours is not None:
            assert abs(ours - theirs[0]) <= 1e-12 * abs(theirs[0])
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
    smooth = r < (sol.ts[-2] if kink else np.inf)
    assert err[:, smooth].max() <= 1e-12


def test_floor_event_stops_isothermal_star(monkeypatch):
    # gamma = 1 has no surface: the run ends after the step where h falls
    # through -660, and the profile at that root
    profile, _, kw, sol = _captured_run(monkeypatch, (3, 1.0, 1.0), dict(r_max=1e200))
    assert kw["stop"] == -660.0
    floor = sol.crossing(-660.0)
    assert sol.ts[-2] <= floor <= sol.ts[-1] and sol.ys[-2, 0] >= -660.0 >= sol.ys[-1, 0]
    assert profile.radii[-1] == floor
    assert sol(np.array([floor]))[0, 0] == pytest.approx(-660.0, abs=1e-9)


def test_compact_surface_event():
    profile = gas_read(StarConfig(3, 1.3, 0.5), r_max=20.0).profile()
    assert profile.gas_radius is not None and profile.gas_radius < 20.0
    assert profile.radii[-1] == profile.gas_radius
    assert profile.enthalpy[-1] == 0.0


OSCILLATOR = "fa = b\nfb = -a"


def _cosine(t0=0.0, t_bound=15.0, stop=None):
    """a = cos t, b = -sin t: a falls through 0 at pi/2 + 2 pi k and rises at 3 pi/2 + 2 pi k."""
    return dop853.solve(OSCILLATOR, {}, t0, (math.cos(t0), -math.sin(t0)), t_bound,
                        rtol=1e-11, atol=1e-14, stop=stop)


def test_events_fire_on_downward_crossings_only():
    # crossing returns the first fall and only that, and skips rises
    sol = _cosine()
    assert sol.ts[-1] == 15.0
    assert sol.crossing(0.0) == pytest.approx(np.pi / 2, abs=1e-10)
    assert sol.crossing(-0.5) == pytest.approx(2 * np.pi / 3, abs=1e-10)
    assert _cosine(t0=np.pi).crossing(0.0) == pytest.approx(5 * np.pi / 2, abs=1e-10)
    # the run starts at a = 1, below 1.5: no step starts at or above it
    assert sol.crossing(1.5) is None


def test_stop_ends_the_run_at_its_root():
    # the run is the free run's steps up to the one that falls through the
    # stop; crossing finds the root inside that last step
    free, sol = _cosine(), _cosine(stop=-0.5)
    n = sol.n_steps
    assert n < free.n_steps and sol.ts.tobytes() == free.ts[:n + 1].tobytes()
    assert sol.ys.tobytes() == free.ys[:n + 1].tobytes()
    assert sol.ys[-2, 0] >= -0.5 >= sol.ys[-1, 0] and not (sol.ys[:-2, 0] <= -0.5).any()
    root = sol.crossing(-0.5)
    assert root == free.crossing(-0.5) == pytest.approx(2 * np.pi / 3, abs=1e-10)
    assert sol.ts[-2] < root < sol.ts[-1]
    assert sol.crossing(0.0) == pytest.approx(np.pi / 2, abs=1e-10)


def test_stop_on_a_step_boundary_keeps_the_step():
    # a stop one ulp below a step's start value has its root on that
    # boundary; the step that falls through it is kept all the same
    free = _cosine()
    k = 8
    stop = math.nextafter(float(free.ys[k, 0]), -math.inf)
    sol = _cosine(stop=stop)
    assert sol.n_steps == k + 1 and sol.ts.tobytes() == free.ts[:k + 2].tobytes()
    assert sol.crossing(stop) == free.ts[k]
    ref = _reference_solve(lambda t, a, b: (b, -a), 0.0, (math.cos(0.0), -math.sin(0.0)), 15.0,
                           rtol=1e-11, atol=1e-14, events=[(stop, True)])
    assert len(ref["h"]) == k  # the reference drops that step
    _assert_bitwise(sol, ref, [stop])


def test_non_finite_start_raises():
    # a non-finite start makes the step size NaN, and the rejection loop
    # would never exit; the right-hand side gives up after 10^4 calls, so
    # that a stepper which spins fails here instead of hanging
    calls = Counter()

    def bounded(slope):
        def rhs(t, a, b):
            calls["rhs"] += 1
            assert calls["rhs"] < 10_000, "the stepper did not stop"
            return slope(a, b)
        return rhs

    cases = [(lambda a, b: (b, -a), y0) for y0 in ((math.nan, 0.0), (math.inf, 0.0), (0.0, -math.inf))]
    cases.append((lambda a, b: (math.nan, 0.0), (1.0, 0.0)))
    for slope, y0 in cases:
        calls.clear()
        with pytest.raises(RuntimeError, match="non-finite start"):
            dop853.solve("fa, fb = f(t, a, b)", dict(f=bounded(slope)), 0.0, y0, 1.0, rtol=1e-10, atol=1e-12)


def test_step_size_underflow_raises():
    # y' = y^2, y(0) = 1 blows up at t = 1: the step size must collapse there
    with pytest.raises(RuntimeError, match="step size"):
        dop853.solve("fa = a * a\nfb = 0.0", {}, 0.0, (1.0, 0.0), 2.0, rtol=1e-10, atol=1e-12)


def test_non_finite_state_raises():
    # a constant slope that overflows the state: the error estimate stays 0
    with pytest.raises(RuntimeError, match="non-finite"):
        dop853.solve("fa = 1e300\nfb = 0.0", {}, 0.0, (1.7e308, 0.0), 1e12, rtol=1e-10, atol=1e-300)


def test_step_budget(monkeypatch):
    # the budget sits above the slowest known run, the (3, 1 + 1e-9, 10) gas star
    assert dop853.MAX_STEPS > 313_657
    # a run of exactly MAX_STEPS steps is kept bit for bit; one more step raises
    free = _cosine()
    n = free.n_steps
    monkeypatch.setattr(dop853, "MAX_STEPS", n)
    assert _cosine().ts.tobytes() == free.ts.tobytes()
    monkeypatch.setattr(dop853, "MAX_STEPS", n - 1)
    with pytest.raises(RuntimeError, match=rf"step budget exhausted: {n - 1} accepted steps"):
        _cosine()
    # the budget fails a star's integration as any other RuntimeError does
    monkeypatch.setattr(dop853, "MAX_STEPS", 5)
    with pytest.raises(RuntimeError, match=r"\(dop853.MAX_STEPS\)"):
        liquid_read(StarConfig(3, 1.25, 50.0)).profile()


@pytest.mark.parametrize("run", [
    lambda: _cosine(),
    lambda: _cosine(stop=0.0),
    lambda: steady.integrate_line(StarConfig(3, 1.25, 50.0)).sol,
], ids=["cosine", "cosine-stop", "star"])
def test_records_packed_in_blocks_keep_the_bits(monkeypatch, run):
    # a run packs its step records into float64 blocks as it goes; blocks of
    # 3 and 1 steps, one that the last step fills and one that leaves a single
    # step over give the bits of the run that never fills a block
    whole = run()
    assert whole.n_steps < dop853.RECORD_BLOCK
    for block in (3, whole.n_steps, whole.n_steps - 1, 1):
        monkeypatch.setattr(dop853, "RECORD_BLOCK", block)
        blocked = run()
        for name in ("ts", "ys", "h", "coeffs"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), (block, name)
        assert blocked.nfev == whole.nfev


def test_oscillator_closed_form():
    # a'' = -a through a few periods: the dense output follows cos and -sin
    sol = dop853.solve(OSCILLATOR, {}, 0.0, (1.0, 0.0), 20.0, rtol=1e-11, atol=1e-14)
    t = np.linspace(0.0, 20.0, 501)
    assert np.max(np.abs(sol(t) - np.array([np.cos(t), -np.sin(t)]))) <= 1e-9
    assert sol.ts[-1] == 20.0


# scipy modules that lanemden replaced with its own code or never needed.
# Where numpy's bundled OpenBLAS exports dpttrf/dpttrs, no scipy module at
# all may load; elsewhere spectral takes them from scipy.linalg.lapack, and
# only scipy.linalg may load.
UNLOADED_SCIPY = ("scipy.integrate", "scipy.interpolate", "scipy.optimize", "scipy.sparse", "scipy.special")

# tiny runs of the commands, so that a lazy import inside them shows too
TINY_COMMANDS = [
    ["scan", "--d", "3", "--gamma", "1.25", "--rho0-min", "2", "--rho0-max", "50", "--points", "2",
     "--mesh", "64"],
    ["critical", "--d", "3", "--gamma", "1.25", "--rho0-min", "40", "--rho0-max", "60", "--mesh", "64",
     "--tol-rho", "0.1"],
    ["profile", "--d", "3", "--gamma", "1.25", "--rho0", "10"],
    ["verify", "--suite", "singular"],
]


@pytest.mark.parametrize("commands", [[], TINY_COMMANDS], ids=["after-import", "after-commands"])
def test_import_leaves_scipy_modules_out(commands):
    code = (
        "import contextlib, io, sys, lanemden\n"
        "from lanemden import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded = ast.literal_eval(out.stdout.strip())
    if spectral._openblas_lapack() is not None:
        assert loaded == []
    else:
        assert [m for m in UNLOADED_SCIPY if m in loaded] == []


@pytest.mark.parametrize("commands", [[], TINY_COMMANDS], ids=["after-import", "after-commands"])
def test_import_leaves_numpy_polynomial_out(commands):
    # steady holds the two Gauss-Legendre rules it uses as literals
    code = (
        "import contextlib, io, sys, lanemden\n"
        "from lanemden import cli\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert ast.literal_eval(out.stdout.strip()) == []


def test_step_loops_compiled_on_first_use():
    # importing the package compiles no step loop; a run compiles its
    # source's loop once per process: the w-form at gamma = 1.25, the h-form
    # at gamma = 1
    code = (
        "import contextlib, io, lanemden\n"
        "from lanemden import cli, dop853\n"
        "compiled = [dop853._compiled.cache_info().currsize]\n"
        "for gamma in ('1.25', '1', '1.25', '1'):\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        assert cli.main(['profile', '--d', '3', '--gamma', gamma, '--rho0', '10']) == 0\n"
        "    compiled.append(dop853._compiled.cache_info().currsize)\n"
        "print(compiled)"
    )
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert ast.literal_eval(out.stdout.strip()) == [0, 1, 2, 2, 2]


def test_callable_parameter_keeps_the_bits():
    # a source that calls a Python right-hand side steps as the same
    # right-hand side written as source does
    inline = _cosine(stop=-0.5)
    called = dop853.solve("fa, fb = f(t, a, b)", dict(f=lambda t, a, b: (b, -a)), 0.0, (1.0, -0.0), 15.0,
                          rtol=1e-11, atol=1e-14, stop=-0.5)
    for name in ("ts", "ys", "h", "coeffs"):
        assert getattr(called, name).tobytes() == getattr(inline, name).tobytes(), name
    assert called.nfev == inline.nfev


@pytest.mark.parametrize("name", ["_h", "t", "fa", "not a name"])
def test_parameter_names_that_clash_are_refused(name):
    with pytest.raises(ValueError, match="parameter name"):
        dop853.solve(OSCILLATOR, {name: 1.0}, 0.0, (1.0, 0.0), 1.0, rtol=1e-10, atol=1e-12)


# The loop-form stepper that the generated step loops replaced, kept as a
# bitwise reference: a Python right-hand side called at each stage (for a
# star, _star_rhs, not the library's source), stage sums accumulated in
# loops over the sparse tableau rows, every level's crossings found inside
# the loop (one _dense_coefficients call per hit, a terminal level ending
# the run), and dense output gathered step-major, (n, 7, 2), and nested by a
# generic Horner loop.


def _reference_coefficients(records):
    n = len(records)
    h = records[:, 1, None]
    dy = records[:, 4:6] - records[:, 2:4]
    k = records[:, dop853._K0:].reshape(n, 2, dop853.N_STAGES_EXTENDED)
    f_old, f_new = k[:, :, 0], k[:, :, dop853.N_STAGES]
    out = np.empty((n, dop853.INTERPOLATOR_POWER, 2))
    out[:, 0] = dy
    out[:, 1] = h * f_old - dy
    out[:, 2] = 2.0 * dy - h * (f_new + f_old)
    for i, row in enumerate(dop853._D):
        acc = np.zeros((n, 2))
        for j, c in row:
            acc += c * k[:, :, j]
        out[:, 3 + i] = h * acc
    return out


def _reference_horner(coeffs, x):
    y = 0.0
    for i in range(dop853.INTERPOLATOR_POWER - 1, -1, -1):
        y = (y + coeffs[i]) * (x if i % 2 == 0 else 1.0 - x)
    return y


def _reference_solve(rhs, t0, y0, t_bound, rtol, atol, events=()):
    n_stages, n_ext, eps = dop853.N_STAGES, dop853.N_STAGES_EXTENDED, dop853.EPS
    t, t_bound = float(t0), float(t_bound)
    rtol = max(float(rtol), 100.0 * eps)
    a, b = (float(v) for v in y0)
    fa, fb = rhs(t, a, b)
    h_abs = dop853._initial_step(rhs, (), t, a, b, fa, fb, t_bound, rtol, atol)
    nfev = 2
    rows, cs = dop853._ROWS, dop853._C
    ka, kb = [0.0] * n_ext, [0.0] * n_ext
    levels = [float(level) for level, _ in events]
    g = [a - level for level in levels]
    roots = [[] for _ in events]
    records, ts = [], [t]
    while t < t_bound:
        min_step = 10.0 * (math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise RuntimeError("step size underflow")
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            ka[0], kb[0] = fa, fb
            for s in range(1, n_stages):
                sa = sb = 0.0
                for j, c in rows[s]:
                    sa += c * ka[j]
                    sb += c * kb[j]
                ka[s], kb[s] = rhs(t + cs[s] * h, a + sa * h, b + sb * h)
            sa = sb = 0.0
            for j, c in rows[n_stages]:
                sa += c * ka[j]
                sb += c * kb[j]
            a_new, b_new = a + h * sa, b + h * sb
            fa_new, fb_new = rhs(t + h, a_new, b_new)
            ka[n_stages], kb[n_stages] = fa_new, fb_new
            nfev += n_stages
            scale_a = atol + max(abs(a), abs(a_new)) * rtol
            scale_b = atol + max(abs(b), abs(b_new)) * rtol
            e5a = e5b = e3a = e3b = 0.0
            for j, c in dop853._E5:
                e5a += c * ka[j]
                e5b += c * kb[j]
            for j, c in dop853._E3:
                e3a += c * ka[j]
                e3b += c * kb[j]
            e5a, e5b, e3a, e3b = e5a / scale_a, e5b / scale_b, e3a / scale_a, e3b / scale_b
            err5 = e5a * e5a + e5b * e5b
            err3 = e3a * e3a + e3b * e3b
            if err5 == 0.0 and err3 == 0.0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5 / math.sqrt((err5 + 0.01 * err3) * 2.0)
            if error_norm < 1.0:
                if error_norm == 0.0:
                    factor = dop853.MAX_FACTOR
                else:
                    factor = min(dop853.MAX_FACTOR, dop853.SAFETY * error_norm**dop853.ERROR_EXPONENT)
                if rejected:
                    factor = min(1.0, factor)
                h_abs *= factor
                break
            h_abs *= max(dop853.MIN_FACTOR, dop853.SAFETY * error_norm**dop853.ERROR_EXPONENT)
            rejected = True
        if not (math.isfinite(a_new) and math.isfinite(b_new)):
            raise RuntimeError("non-finite state")
        for s in range(n_stages + 1, n_ext):
            sa = sb = 0.0
            for j, c in rows[s]:
                sa += c * ka[j]
                sb += c * kb[j]
            ka[s], kb[s] = rhs(t + cs[s] * h, a + sa * h, b + sb * h)
        nfev += n_ext - n_stages - 1
        records.append((t, h, a, b, a_new, b_new, *ka, *kb))
        stop = None
        if levels:
            g_new = [a_new - level for level in levels]
            hits = [i for i in range(len(levels)) if g[i] >= 0.0 and g_new[i] <= 0.0]
            if hits:
                poly = _reference_coefficients(np.array(records[-1:]))[0, :, 0].tolist()
                t_old, a_old = t, a

                def crossing(r, level):
                    return _reference_horner(poly, (r - t_old) / h) + a_old - level

                found = sorted(
                    (brentq(crossing, t_old, t_new, args=(levels[i],), xtol=4 * eps, rtol=4 * eps), i)
                    for i in hits
                )
                for root, i in found:
                    roots[i].append(root)
                    if events[i][1]:
                        stop = root
                        break
            g = g_new
        t, a, b, fa, fb = t_new, a_new, b_new, fa_new, fb_new
        if stop is not None:
            if len(ts) > 1 and stop == ts[-1]:
                records.pop()
            else:
                ts.append(stop)
            break
        ts.append(t)
    rec = np.array(records)
    return dict(ts=np.array(ts), t_old=rec[:, 0], h=rec[:, 1], y_old=rec[:, 2:4],
                coeffs=_reference_coefficients(rec),
                event_roots=tuple(tuple(r) for r in roots), nfev=nfev)


def _reference_eval(ref, t):
    seg = np.searchsorted(ref["ts"], t, side="left") - 1
    np.clip(seg, 0, len(ref["h"]) - 1, out=seg)
    x = ((t - ref["t_old"][seg]) / ref["h"][seg])[:, None]
    y = _reference_horner(ref["coeffs"][seg].transpose(1, 0, 2), x)
    y += ref["y_old"][seg]
    return y.T


def _hex(roots):
    return [None if r is None else float(r).hex() for r in roots]


def _assert_bitwise(sol, ref, levels):
    """sol matches the reference run with one event per level, bit for bit.

    The reference ends its steps at the terminal root, or drops the step
    that found it when the root is that step's start; sol keeps the step.
    """
    n = len(ref["h"])
    assert sol.n_steps - n in (0, 1) and sol.ts[-1] >= ref["ts"][-1]
    assert sol.ts[:n].tobytes() == ref["t_old"].tobytes()
    assert sol.h[:n].tobytes() == ref["h"].tobytes()
    assert sol.ys[:n].tobytes() == ref["y_old"].tobytes()
    assert sol.coeffs[:, :, :n].tobytes() == np.ascontiguousarray(ref["coeffs"].transpose(1, 2, 0)).tobytes()
    # each level's first fall, read off the finished run, is the in-loop root
    want = [roots[0] if roots else None for roots in ref["event_roots"]]
    assert _hex([sol.crossing(level) for level in levels]) == _hex(want)
    assert sol.nfev == ref["nfev"]
    # every step boundary up to the terminal root, the root, and every midpoint, ascending
    r = np.sort(np.concatenate([ref["ts"], ref["t_old"] + 0.5 * ref["h"]]))
    assert sol(r).tobytes() == np.ascontiguousarray(_reference_eval(ref, r)).tobytes()


BITWISE_CASES = {
    "floor-gamma=1": ((3, 1.0, 1.0), dict(r_max=1e200)),
    "gamma=2": ((3, 2.0, 5.0), dict(r_max=50.0, liquid=True)),
    "compact-surface": ((3, 1.3, 0.5), dict(r_max=20.0)),
    "d=30": ((30, 1.9, 1e15), dict(r_max=50.0, liquid=True)),
    "rho0=1+1e-9": ((3, 1.25, 1.0 + 1e-9), dict(r_max=50.0, liquid=True)),
    "gamma=1-liquid": ((3, 1.0, 50.0), dict(r_max=50.0, liquid=True)),
    "rejected-steps": ((3, 1.5, 0.5), dict(r_max=20.0)),
}


@pytest.mark.parametrize("name", list(BITWISE_CASES))
def test_straight_line_stepper_matches_loop_reference_bitwise(monkeypatch, name):
    star, kwargs = BITWISE_CASES[name]
    profile, problem, kw, sol = _captured_run(monkeypatch, star, kwargs)
    levels = _read_levels(profile.config, kw["stop"])
    events = [(level, level == kw["stop"]) for level in levels]
    ref = _reference_solve(*problem, rtol=kw["rtol"], atol=kw["atol"], events=events)
    _assert_bitwise(sol, ref, levels)
    if name == "rejected-steps":
        accepted = (dop853.N_STAGES_EXTENDED - 1) * sol.n_steps
        assert sol.nfev - 2 - accepted >= 10 * dop853.N_STAGES


def test_line_run_matches_loop_reference_bitwise(monkeypatch):
    # the loop reference finds 8 levels below the top star inside the run,
    # two of them a rounding apart so that they fall in one step; the line
    # run stops at the top star's surface only and finds them afterwards
    top = StarConfig(3, 1.25, 1e4)
    densities = [1.5, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0, 1000.0 * (1 + 1e-9)]
    calls = _spy_on_solve(monkeypatch)
    line = steady.integrate_line(top)
    (args, kw, sol), = calls
    levels = [(x / top.rho_center) ** (1.0 - top.gamma) for x in densities] + [kw["stop"]]
    events = [(level, level == kw["stop"]) for level in levels]
    ref = _reference_solve(*_problem(top, args), rtol=kw["rtol"], atol=kw["atol"], events=events)
    _assert_bitwise(sol, ref, levels)
    roots = [sol.crossing(level) for level in levels[:8]]
    steps = np.searchsorted(sol.ts, roots)
    assert None not in roots and len(set(steps.tolist())) < 8
    for x, root in zip(densities, roots):
        lam = (x / top.rho_center) ** (1.0 - top.gamma / 2.0)
        assert line.read(x).liquid_radius == root / lam


def _random_solution(seed: int, n: int = 5) -> dop853.DenseSolution:
    """A DenseSolution of n random steps, step 2's coefficients and start value all -0.0."""
    rng = np.random.default_rng(seed)
    ts = np.cumsum(np.concatenate([[0.5], rng.uniform(0.1, 1.0, n)]))
    coeffs = rng.standard_normal((dop853.INTERPOLATOR_POWER, 2, n))
    coeffs[:, :, 2] = -0.0
    ys = rng.standard_normal((n + 1, 2))
    ys[2] = -0.0
    return dop853.DenseSolution(ts=ts, ys=ys, h=np.diff(ts), coeffs=coeffs, nfev=0)


def test_dense_output_is_the_scalar_horner_bitwise():
    # the run-wise evaluation picks each radius's step and gives, signed
    # zeros included, the bits of _horner on that step's floats: all-(-0.0)
    # coefficients and start value give 0.0 + -0.0 = 0.0 there, not -0.0.
    # The radii ascend and hold every step boundary, repeated radii, and
    # radii just outside [ts[0], ts[-1]], which the end steps take
    sol = _random_solution(3)
    ts, n = sol.ts, sol.n_steps
    outside = [np.nextafter(ts[0], -np.inf), ts[0] - 0.1, np.nextafter(ts[-1], np.inf), ts[-1] + 0.1]
    r = np.sort(np.concatenate([ts, ts, ts[:-1] + 0.3 * np.diff(ts), np.nextafter(ts, np.inf), outside]))
    got = sol(r)
    assert got.shape == (2, len(r))
    for col, radius in enumerate(r):
        k = min(max(np.searchsorted(ts, radius) - 1, 0), n - 1)
        x = (radius - ts[k]) / sol.h[k]
        for comp in range(2):
            want = dop853._horner(sol.coeffs[:, comp, k].tolist(), x) + sol.ys[k, comp]
            assert float(got[comp, col]).hex() == float(want).hex()
    inside = (r > ts[2]) & (r < ts[3])
    assert np.all(np.copysign(1.0, got[0, inside]) == 1.0)  # the signed-zero step
    assert sol(r[:0]).shape == (2, 0)


def test_scalar_read_is_the_dense_output_bitwise():
    # at, one radius at a time, takes __call__'s step and bits: on random
    # steps (signed zeros included) at the radii of the test above, and on
    # a liquid star's run at every step boundary, which __call__ evaluates
    # on the step that ends there
    sol = _random_solution(3)
    ts = sol.ts
    outside = [np.nextafter(ts[0], -np.inf), ts[0] - 0.1, np.nextafter(ts[-1], np.inf), ts[-1] + 0.1]
    r = np.sort(np.concatenate([ts, ts[:-1] + 0.3 * np.diff(ts), np.nextafter(ts, np.inf), outside]))
    run = steady.integrate_line(StarConfig(3, 1.25, 1e6)).sol
    for sol, radii in ((sol, r), (run, run.ts)):
        want = sol(radii)
        for col, radius in enumerate(radii.tolist()):
            for comp in range(2):
                assert sol.at(radius, comp).hex() == float(want[comp, col]).hex(), (radius, comp)


def test_one_component_read_is_its_row_bitwise():
    # __call__ on one component gives that component's row of the
    # two-component read, signed zeros included: on random steps at every
    # step boundary, repeated, just inside and just outside [ts[0], ts[-1]],
    # and on a liquid star's run at its step boundaries and midpoints
    sol = _random_solution(3)
    ts = sol.ts
    outside = [np.nextafter(ts[0], -np.inf), ts[0] - 0.1, np.nextafter(ts[-1], np.inf), ts[-1] + 0.1]
    r = np.sort(np.concatenate([ts, ts, ts[:-1] + 0.3 * np.diff(ts), np.nextafter(ts, np.inf), outside]))
    run = steady.integrate_line(StarConfig(3, 1.25, 1e6)).sol
    run_r = np.sort(np.concatenate([run.ts, 0.5 * (run.ts[:-1] + run.ts[1:]), [0.5 * run.ts[0]]]))
    for sol, radii in ((sol, r), (run, run_r)):
        both = sol(radii)
        for comp in range(2):
            one = sol(radii, comp)
            assert one.shape == (len(radii),)
            assert one.tobytes() == both[comp].tobytes(), comp
    assert sol(r[:0], 0).shape == (0,)
    with pytest.raises(ValueError, match="ascending"):
        sol(r[::-1], 1)


@pytest.mark.parametrize("radii", [[1.0, 0.9], [0.6, 1.0, math.nan], [2.0, 1.0, 3.0]])
def test_dense_output_refuses_radii_out_of_order(radii):
    sol = _random_solution(4)
    with pytest.raises(ValueError, match="ascending"):
        sol(np.array(radii))


# dop853.brentq, the port of scipy's brentq.c, against scipy.optimize.brentq
# as the reference: the same root, bit for bit, and the same errors.

def _polynomial(coeffs):
    def f(x):
        y = 0.0
        for c in reversed(coeffs):
            y = y * x + c
        return y
    return f


def test_brentq_bitwise_on_random_polynomial_brackets():
    rng = np.random.default_rng(12)
    calls = 0
    while calls < 5000:
        f = _polynomial(rng.uniform(-1.0, 1.0, size=8).tolist())
        a, b = (float(v) for v in np.sort(rng.uniform(-2.0, 2.0, size=2)))
        if not f(a) * f(b) < 0.0:
            continue
        for xtol in (4 * dop853.EPS, 1e-15):
            got = dop853.brentq(f, a, b, xtol, 4 * dop853.EPS)
            want = brentq(f, a, b, xtol=xtol, rtol=4 * dop853.EPS)
            assert got.hex() == want.hex(), (a, b, xtol)
        calls += 1


def _captured_brentq_calls(monkeypatch):
    """Every brentq call that the crossing finder makes reading stars off the battery's runs and line runs."""
    calls = []
    port = dop853.brentq

    def recording(f, a, b, xtol, rtol, maxiter=100):
        root = port(f, a, b, xtol, rtol, maxiter)
        calls.append((f, a, b, xtol, rtol, root))
        return root

    monkeypatch.setattr(dop853, "brentq", recording)
    for d, g, rho0 in PROFILE_BATTERY:
        # each level of the rescaled stars
        run = steady.gas_read(StarConfig(d, g, rho0), r_max=20.0)
        for kappa in (0.5, 4.0):
            if kappa * rho0 > 1.0:
                run.read(kappa * rho0)
    for d, g, top in [(3, 1.25, 1e6), (7, 1.01, 1e6), (3, 1.0, 1e6), (3, 1.25, 1.0 + 1e-9)]:
        line = steady.integrate_line(StarConfig(d, g, top))
        for rho0 in np.geomspace(1.0 + 1e-9, top, 12)[1:]:
            line.read(float(rho0))
    return calls


def test_brentq_bitwise_on_every_crossing_call(monkeypatch):
    calls = _captured_brentq_calls(monkeypatch)
    # DenseSolution.crossing is the one crossing finder, told by its xtol
    # relative to the bracket's right end (4 eps) and its rtol (4 eps)
    per_caller = Counter(
        "crossing" if xtol == 4 * dop853.EPS * min(1.0, abs(b)) and rtol == 4 * dop853.EPS else "other"
        for _, _, b, xtol, rtol, _ in calls
    )
    assert set(per_caller) == {"crossing"} and per_caller["crossing"] >= 50
    for f, a, b, xtol, rtol, root in calls:
        assert root.hex() == brentq(f, a, b, xtol=xtol, rtol=rtol).hex(), (a, b)


def test_brentq_endpoint_root_is_returned():
    f = _polynomial([-1.0, 0.0, 1.0])  # x^2 - 1
    for a, b in ((1.0, 3.0), (-3.0, -1.0), (-1.0, 0.5)):
        assert dop853.brentq(f, a, b, 1e-15, 4 * dop853.EPS) == brentq(f, a, b, xtol=1e-15)
    assert dop853.brentq(f, 1.0, 3.0, 1e-15, 4 * dop853.EPS) == 1.0
    assert dop853.brentq(f, -3.0, -1.0, 1e-15, 4 * dop853.EPS) == -1.0


def test_brentq_same_sign_ends_raise():
    f = _polynomial([-1.0, 0.0, 1.0])
    for reference in (brentq, dop853.brentq):
        with pytest.raises(ValueError, match="different signs"):
            reference(f, 2.0, 3.0, xtol=1e-15, rtol=4 * dop853.EPS)


def test_brentq_nan_value_raises():
    f = lambda x: math.nan if x > 0.4 else x - 0.5
    for reference in (brentq, dop853.brentq):
        with pytest.raises(ValueError, match="NaN"):
            reference(f, 0.0, 1.0, xtol=1e-15, rtol=4 * dop853.EPS)


def test_brentq_iteration_limit_raises():
    f = _polynomial([-1.0, 0.0, 1.0])
    for reference in (brentq, dop853.brentq):
        with pytest.raises(RuntimeError, match="converge"):
            reference(f, 0.0, 3.0, xtol=1e-15, rtol=4 * dop853.EPS, maxiter=2)
