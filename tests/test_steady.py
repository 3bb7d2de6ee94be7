import io
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline

from lanemden import (
    StarConfig,
    classify_support,
    decay_bound,
    explicit_profile_critical,
    integrate_gas_profile,
    liquid_radius,
    liquid_star,
    pohozaev_residual,
    read_profile_csv,
    scale_profile,
    singular_star,
    truncate_liquid,
    write_profile_csv,
)
from lanemden import dop853, steady
from lanemden.harness import PROFILE_BATTERY
from lanemden.phase import fixed_points, radius_limit
from lanemden.steady import _refined_grid

from conftest import SEED0_LINES, get_liquid, get_profile, ode_hermite_data

FOUR_PI = 4 * math.pi


def explicit_rho(d, C, r):
    q = (2 * math.pi / d**2) * C ** (4 / (d + 2))
    return C * (1 + q * np.asarray(r) ** 2) ** (-1 - d / 2)


class TestStarConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            StarConfig(2, 1.2, 1.0)
        with pytest.raises(ValueError):
            StarConfig(3, 0.9, 1.0)
        with pytest.raises(ValueError):
            StarConfig(3, 2.1, 1.0)
        with pytest.raises(ValueError):
            StarConfig(3, 1.2, 0.0)
        with pytest.raises(ValueError):
            StarConfig(3.0, 1.2, 1.0)

    def test_enthalpy_roundtrip(self):
        cfg = StarConfig(3, 1.4, 7.0)
        assert cfg.rho_of_enthalpy(cfg.enthalpy_of_rho(3.5)) == pytest.approx(3.5, rel=1e-14)
        iso = StarConfig(3, 1.0, 7.0)
        assert iso.rho_of_enthalpy(iso.enthalpy_of_rho(3.5)) == pytest.approx(3.5, rel=1e-14)


class TestIntegration:
    def test_center_density_exact(self):
        for d, g, rho0 in ((3, 1.2, 1.0), (4, 1.0, 2.5), (5, 2.0, 10.0)):
            p = get_profile(d, g, rho0)
            assert p.rho[0] == rho0
            assert p.mass[0] == 0.0

    def test_explicit_oracle(self):
        # closed-form solution at the critical index as an independent oracle
        for C in (1.0, 32.0):
            p = get_profile(3, 1.2, C, r_max=5.0)
            exact = explicit_rho(3, C, p.radii)
            assert np.max(np.abs(p.rho - exact) / exact) <= 1e-6

    def test_isothermal_never_below_gaussian(self):
        # h(r) >= h0 - (2 pi / d) e^h0 r^2 for the gamma = 1 star
        p = get_profile(3, 1.0, 1.0)
        lower = np.exp(-(2 * math.pi / 3) * p.radii**2)
        assert np.all(p.rho >= lower * (1 - 1e-12))

    def test_monotonicity(self):
        p = get_profile(4, 1.2, 10.0)
        assert np.all(np.diff(p.rho) < 0)
        assert np.all(np.diff(p.mass) > 0)
        assert np.all(np.diff(p.enthalpy) < 0)

    def test_small_r_mass_law(self):
        for d, g, rho0 in ((3, 1.2, 1.0), (5, 1.0, 10.0)):
            p = get_profile(d, g, rho0)
            r = p.radii[1:6]
            ratio = p.mass[1:6] / (FOUR_PI / d * rho0 * r**d)
            assert np.max(np.abs(ratio - 1)) <= 1e-3

    def test_mass_consistent_with_density_quadrature(self):
        # the carried mass state against an independent quadrature of rho
        p = get_profile(3, 1.5, 10.0)
        r_probe = p.radii[len(p.radii) // 2]
        m_quad = FOUR_PI * quad(lambda y: y**2 * float(p.rho_at(y)), 0, r_probe, limit=200)[0]
        assert float(p.mass_at(r_probe)) == pytest.approx(m_quad, rel=1e-9)

    def test_support_dichotomy(self):
        assert get_profile(3, 1.5, 1.0).gas_radius is not None
        assert get_profile(3, 2.0, 10.0).gas_radius is not None
        long_sub = get_profile(3, 1.2, 1.0, r_max=1e3)
        assert long_sub.gas_radius is None
        assert np.all(long_sub.rho > 0)
        long_iso = get_profile(3, 1.0, 1.0, r_max=1e3)
        assert long_iso.gas_radius is None
        assert np.all(long_iso.rho > 0)

    def test_surface_density_zero(self):
        p = get_profile(3, 1.5, 1.0)
        assert p.rho[-1] == 0.0
        assert p.radii[-1] == p.gas_radius

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            integrate_gas_profile(StarConfig(3, 1.2, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            integrate_gas_profile(StarConfig(3, 1.2, 1.0), r_max=math.inf)


class TestIntegratorCounts:
    def test_profile_carries_its_run(self):
        config = StarConfig(3, 1.25, 50.0)
        p = liquid_star(config)
        _, sol = steady._integrate(config, 1e-10, 50.0, config.boundary_enthalpy)
        assert (p.nfev, p.steps) == (sol.nfev, sol.n_steps)
        assert p.steps > 0 and p.nfev >= 15 * p.steps + 2
        cut = truncate_liquid(p)
        assert (cut.nfev, cut.steps) == (p.nfev, p.steps)
        gas = integrate_gas_profile(config)
        scaled = scale_profile(gas, 2.0)
        assert (scaled.nfev, scaled.steps) == (gas.nfev, gas.steps) and gas.steps > 0

    def test_line_star_reports_the_line_run(self):
        line = steady.integrate_line(StarConfig(3, 1.25, 1e4))
        for rho0 in (10.0, 100.0, 1e4):
            star = line.read(rho0).profile()
            assert (star.nfev, star.steps) == (line.sol.nfev, line.sol.n_steps)


    def test_profiles_not_integrated_report_zero(self):
        p = explicit_profile_critical(3, 32.0).to_profile(np.linspace(0.0, 0.5, 50))
        assert (p.nfev, p.steps) == (0, 0)
        buf = io.StringIO()
        write_profile_csv(get_profile(3, 1.5, 10.0), buf)
        back = read_profile_csv(io.StringIO(buf.getvalue()))
        assert (back.nfev, back.steps) == (0, 0)


# (d, gamma, rho0) of liquid stars built alone; at d = 30 the seed of rho0 = 1e40 underflows
LONE_STARS = [
    (d, g, rho0)
    for g in (1.0, 1.25, 2.0)
    for d in (3, 4, 5, 30)
    for rho0 in (1 + 1e-9, 1 + 1e-6, 1.01, 10.0, 1e6, 1e15, 1e40)
    if d < 30 or rho0 < 1e40
]


class TestLiquidLine:
    """A line's stars are read off its run for any density, after the run."""

    @pytest.mark.parametrize("top", [(3, 1.25, 1e4), (3, 1.0, 1e3), (5, 1.6, 1e6)], ids=str)
    def test_any_density_matches_its_own_integration(self, top):
        d, gamma, rho_top = top
        line = steady.integrate_line(StarConfig(*top))
        for rho0 in (1.02, 2.718, 37.7, 411.0, 0.999 * rho_top):
            star = line.read(rho0)
            own = liquid_star(StarConfig(d, gamma, rho0))
            assert star.config.rho_center == rho0
            assert star.liquid_radius == pytest.approx(own.liquid_radius, rel=1e-10, abs=0)

    @pytest.mark.parametrize("star", LONE_STARS, ids=str)
    def test_liquid_star_radius_is_the_gas_runs_crossing(self, star):
        # the liquid run takes the gas run's steps up to R, and both root the
        # crossing on the same step's dense output
        config = StarConfig(*star)
        assert liquid_star(config).liquid_radius == integrate_gas_profile(config).liquid_radius

    def test_sample_count_refines_the_same_cut(self):
        # points plays integrate_gas_profile's min_points, and liquid_star
        # passes its min_points on; the default is MIN_POINTS, and the liquid
        # radius is the run's crossing either way
        top = StarConfig(3, 1.25, 1e4)
        line = steady.integrate_line(top)
        own = liquid_star(top, min_points=512)
        coarse_top = line.read(1e4).profile(512)
        for name in ("radii", "rho", "enthalpy", "mass"):
            assert getattr(coarse_top, name).tobytes() == getattr(own, name).tobytes(), name
        for rho0 in (1.02, 37.7, 411.0, 1e4):
            star = line.read(rho0)
            fine, coarse = star.profile(), star.profile(512)
            explicit = star.profile(steady.MIN_POINTS)
            for name in ("radii", "rho", "enthalpy", "mass"):
                assert getattr(fine, name).tobytes() == getattr(explicit, name).tobytes(), name
            assert len(fine.radii) >= steady.MIN_POINTS
            assert 512 <= len(coarse.radii) < len(fine.radii)
            kappa = rho0 / top.rho_center
            root = line.sol.crossing(top.enthalpy_of_inverse(kappa))
            lam = kappa ** (1.0 - top.gamma / 2.0)
            assert fine.liquid_radius == coarse.liquid_radius == root / lam
            assert liquid_radius(coarse) == liquid_radius(fine)

    @pytest.mark.parametrize("rho0", [1.0, 0.5, math.nextafter(1e4, math.inf), 2e4, math.nan])
    def test_density_outside_the_line_raises(self, rho0):
        line = steady.integrate_line(StarConfig(3, 1.25, 1e4))
        with pytest.raises(ValueError, match="line densities"):
            line.read(rho0)

    def test_gas_top_star_raises(self):
        with pytest.raises(ValueError, match="rho_top > 1"):
            steady.integrate_line(StarConfig(3, 1.25, 1.0))


class TestRunStar:
    """A star read straight off a run, with no samples: a line's (LiquidLine.read) or a gas run's own."""

    @pytest.mark.parametrize("line", [(3, 1.25), (4, 1.4), (3, 1.0), (7, 1.01)], ids=str)
    def test_reads_the_profile_samples_bit_for_bit(self, line):
        # beyond the seed both evaluate the run at lam r; inside it both
        # evaluate the star's own Taylor seed at the same radii
        d = line[0]
        run = steady.integrate_line(StarConfig(*line, 1e6))
        for rho0 in (1.01, 1.5, 50.3231, 1e4, 1e6):
            read = run.read(rho0)
            profile = read.profile()
            assert read.config == profile.config
            assert read.liquid_radius == profile.liquid_radius
            r = profile.radii
            assert np.count_nonzero(r >= read.seed_radius) > 512
            enthalpy, mass_hat = read.enthalpy_and_mass_hat_at(r)
            assert enthalpy.tobytes() == profile.enthalpy.tobytes()
            assert mass_hat[0] == FOUR_PI / d * rho0
            assert mass_hat[1:].tobytes() == (profile.mass[1:] / r[1:] ** d).tobytes()
            assert r[-1] == read.liquid_radius and read.total_mass == profile.mass[-1]

    def test_reads_radii_in_any_order(self):
        # radii out of order are sorted once, read ascending and put back
        read = steady.integrate_line(StarConfig(3, 1.25, 1e6)).read(50.3231)
        r = read.profile(512).radii
        r = r[:len(r) // 2 * 2]
        shuffled = np.random.default_rng(7).permutation(r)
        for got, want in zip(read.enthalpy_and_mass_hat_at(shuffled.reshape(-1, 2)),
                             read.enthalpy_and_mass_hat_at(r)):
            assert got.shape == (len(r) // 2, 2)
            assert got.ravel().tobytes() == want[np.searchsorted(r, shuffled)].tobytes()

    def test_refuses_near_one_and_beyond_r_max(self):
        # near 1 the level is crossed before the seed radius, and below
        # rho0 ~ 700 the liquid radius exceeds r_max = 0.3; a served star
        # lies inside r_max and samples as a profile
        run = steady.integrate_line(StarConfig(3, 1.25, 1e6), r_max=0.3)
        served = []
        for rho0 in np.geomspace(1.0 + 1e-12, 1e6, 40).tolist():
            read = run.read(rho0)
            if read is not None:
                assert read.liquid_radius <= 0.3
                assert read.profile(64).liquid_radius == read.liquid_radius
            served.append(read is not None)
        assert served == sorted(served) and 0 < sum(served) < len(served)
        assert steady.integrate_line(StarConfig(3, 1.25, 1e6)).read(1.0 + 1e-9) is None

    @pytest.mark.parametrize("star", [(3, 1.0, 10.0), (3, 1.5, 10.0), (5, 1.3, 0.5)], ids=str)
    def test_gas_run_reads_its_profile_samples_bit_for_bit(self, star):
        # integrate_gas_profile samples its own run as a kappa = 1 RunStar;
        # only a compact surface's enthalpy is pinned to the stop level
        # instead of read.  Infinite support, compact support, rho0 < 1
        config, d = StarConfig(*star), star[0]
        run = steady._gas_run(config, 1e-10, 20.0)
        profile = integrate_gas_profile(config, r_max=20.0)
        assert run.kappa == run.lam == 1.0
        assert run.liquid_radius == profile.liquid_radius and run.gas_radius == profile.gas_radius
        r = profile.radii
        assert r[-1] == run.end and np.count_nonzero(r >= run.seed_radius) > 2048
        enthalpy, mass_hat = run.enthalpy_and_mass_hat_at(r)
        read = r != profile.gas_radius
        assert np.count_nonzero(~read) == (profile.gas_radius is not None)
        assert enthalpy[read].tobytes() == profile.enthalpy[read].tobytes()
        assert np.all(profile.enthalpy[~read] == config.gas_stop)
        assert mass_hat[0] == FOUR_PI / d * config.rho_center
        assert mass_hat[1:].tobytes() == (profile.mass[1:] / r[1:] ** d).tobytes()

    @pytest.mark.parametrize("line", SEED0_LINES + [(3, 1.0)], ids=str)
    def test_total_mass_is_the_vector_read_bitwise(self, line):
        # the scalar read at R gives the bits of _read at R, on the stars a
        # sweep reads off the line's run and on each star's own line
        run = steady.integrate_line(StarConfig(*line, 1e6))
        stars = []
        for rho0 in np.geomspace(1.01, 1e6, 8).tolist():
            stars += [run.read(rho0), steady.liquid_read(StarConfig(*line, rho0))]
        stars = [star for star in stars if star is not None]
        assert len(stars) >= 14
        for star in stars:
            want = float(star._read(np.array([star.liquid_radius]))[1][0])
            assert star.total_mass.hex() == want.hex()

    def test_total_mass_where_a_gas_star_ends_is_the_vector_read_bitwise(self):
        # rho0 < 1 has no liquid surface: the mass is read where the run ends
        run = steady._gas_run(StarConfig(5, 1.3, 0.5), 1e-10, 20.0)
        assert run.liquid is None
        assert run.total_mass.hex() == float(run._read(np.array([run.end]))[1][0]).hex()

    @pytest.mark.parametrize("where", [-1e-300, "beyond", math.nan])
    def test_radius_outside_the_star_raises(self, where):
        read = steady.integrate_line(StarConfig(3, 1.25, 1e4)).read(50.0)
        r = math.nextafter(read.liquid_radius, math.inf) if where == "beyond" else where
        with pytest.raises(ValueError, match="radius outside the star"):
            read.enthalpy_and_mass_hat_at(np.array([0.5 * read.liquid_radius, r]))


class TestStalledSamples:
    """Samples where rho or m stops moving in float64 are dropped, not rejected."""

    def test_compact_surface(self):
        # near the surface rho = w^alpha is so small that m stalls in float64
        p = integrate_gas_profile(StarConfig(3, 1.25, 50.0), r_max=20.0)
        assert p.radii[-1] == p.gas_radius
        assert p.rho[-1] == 0.0
        assert np.any(p.radii == p.liquid_radius)
        assert np.max(np.abs(pohozaev_residual(p, p.radii))) <= 1e-5
        assert np.max(p.rho / decay_bound(p.config, p.radii)) - 1 <= 1e-9

    def test_flat_centre(self):
        # rho0 = 1 + 1e-9: near the centre rho equals rho0 in float64
        rho0 = 1 + 1e-9
        p = liquid_star(StarConfig(3, 1.25, rho0))
        assert p.radii[0] == 0.0 and p.rho[0] == rho0
        assert p.radii[-1] == p.liquid_radius
        assert np.max(np.abs(pohozaev_residual(p, p.radii))) <= 1e-5
        assert truncate_liquid(p).liquid_radius == p.liquid_radius

    def test_moving_mask(self):
        from lanemden.steady import _moving

        a = np.array([5.0, 4.0, 3.0, 2.0])
        assert np.all(_moving(a))
        # a plateau loses every one of its samples
        b = np.array([5.0, 4.0, 4.0, 3.0, 1.0, 1.0, 1.0])
        assert _moving(b).tolist() == [True, False, False, True, False, False, False]
        assert _moving(a, np.array([5.0, 4.0, 4.0, 1.0])).tolist() == [True, False, False, True]


def _refined_grid_loop(steps, n_target):
    """The per-step linspace loop that _refined_grid vectorises, kept as its reference."""
    total = steps[-1] - steps[0]
    if total <= 0:
        return steps
    pieces = [np.array([steps[0]])]
    quantum = total / max(n_target, 1)
    for a, b in zip(steps[:-1], steps[1:]):
        n = max(4, int(math.ceil((b - a) / quantum)))
        pieces.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(pieces)


class TestRefinedGrid:
    @pytest.mark.parametrize(
        "steps,n_target",
        [
            # the step boundaries of an adaptive run
            (dop853.solve(lambda t, a, b: (b, -a), 0.1, (1.0, 0.0), 20.0, rtol=1e-11, atol=1e-14).ts, 2048),
            # steps far shorter than the quantum: 4 pieces each
            (np.array([0.5, 0.5000001, 0.5000002, 0.6]), 8192),
            # lengths spread over ten decades, and a single long step
            (np.cumsum(np.logspace(-8, 2, 40)), 2048),
            # 4 (0.7/4) + 0.2 rounds away from 0.9: the endpoint is set exactly
            (np.array([0.2, 0.9, 2.9]), 8),
            # one step of n_target quanta and a one-point target
            (np.cumsum(np.random.default_rng(5).lognormal(-2.0, 1.5, 60)), 1),
        ],
    )
    def test_bitwise_equal_to_loop(self, steps, n_target):
        got = _refined_grid(steps, n_target)
        want = _refined_grid_loop(steps, n_target)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestLiquidRadius:
    def test_closed_form_radius(self):
        p = get_liquid(3, 1.2, 32.0)
        R = liquid_radius(p)
        assert R == pytest.approx(math.sqrt(27 / (32 * math.pi)), rel=1e-6)

    def test_radius_shrinks_to_zero(self):
        radii = [liquid_radius(get_liquid(3, 1.25, 1 + eps)) for eps in (1e-2, 1e-3, 1e-4)]
        assert radii[0] > radii[1] > radii[2]
        assert radii[2] < 0.02

    def test_no_truncation_below_one(self):
        p = get_profile(3, 1.2, 0.5)
        with pytest.raises(ValueError, match="no liquid truncation"):
            liquid_radius(p)

    def test_profile_too_short(self):
        p = integrate_gas_profile(StarConfig(3, 1.2, 32.0), r_max=0.05)
        with pytest.raises(RuntimeError, match="too short"):
            liquid_radius(p)

    def test_boundary_density_is_one(self):
        p = get_liquid(3, 1.4, 10.0)
        R = liquid_radius(p)
        assert abs(float(p.rho_at(R)) - 1.0) <= 1e-12

    def test_truncate(self):
        t = truncate_liquid(get_liquid(3, 1.4, 10.0))
        assert t.kind == "liquid-truncated"
        assert t.radii[-1] == t.liquid_radius
        assert t.rho[-1] == 1.0
        assert t.total_mass == pytest.approx(float(t.mass[-1]), rel=1e-14)


def _tight_crossing(sol, level):
    """DenseSolution.crossing's root, taken with an absolute tolerance of 1e-300."""
    a = sol.ys[:, 0]
    k = int(np.nonzero((a[:-1] >= level) & (a[1:] <= level))[0][0])
    poly, (t_old, t_new) = sol.coeffs[:, 0, k].tolist(), sol.ts[k:k + 2].tolist()
    h, a_old = float(sol.h[k]), float(a[k])
    return dop853.brentq(lambda r: dop853._horner(poly, (r - t_old) / h) + a_old - level, t_old, t_new,
                         xtol=1e-300, rtol=4 * dop853.EPS)


class TestSmallStars:
    """Liquid stars with gamma > 1 shrink like rho0^-(1 - gamma/2): R reaches 1e-22."""

    STARS = [(3, 1.25, 1e20), (3, 1.25, 1e30), (3, 1.25, 1e35), (3, 1.25, 1e40), (3, 1.25, 1e60),
             (5, 1.5, 1e40)]

    @pytest.mark.parametrize("star", STARS, ids=str)
    def test_radius_is_the_tight_root(self, star):
        config = StarConfig(*star)
        p = liquid_star(config)
        stop = config.boundary_enthalpy
        _, sol = steady._integrate(config, 1e-10, 50.0, stop)
        assert p.liquid_radius == _tight_crossing(sol, stop)

    # not at (3, 1.25, 1e60) or (5, 1.5, 1e40): there w spans +-1e16 over the
    # last step, so rho at the cut reads 1.02 and 0 however tightly R is rooted
    @pytest.mark.parametrize("rho0", [1e20, 1e30, 1e35, 1e40], ids=str)
    def test_density_at_the_cut_is_one(self, rho0):
        p = liquid_star(StarConfig(3, 1.25, rho0))
        assert p.radii[-1] == p.liquid_radius
        assert abs(p.rho[-1] - 1.0) <= 1e-6

    def test_grid_crossing_is_relative(self):
        # liquid_radius without a recorded radius roots the interpolant
        p = integrate_gas_profile(StarConfig(3, 1.25, 1e30))
        R = liquid_radius(replace(p, liquid_radius=None))
        assert abs(R - p.liquid_radius) <= 1e-12 * p.liquid_radius


class TestDecayBound:
    def test_isothermal_value(self):
        cfg = StarConfig(3, 1.0, 1.0)
        assert float(decay_bound(cfg, 1.0)) == pytest.approx(1 / (1 + 2 * math.pi / 3), rel=1e-14)

    def test_gamma_two_value(self):
        cfg = StarConfig(3, 2.0, 2.0)
        assert float(decay_bound(cfg, 1.0)) == pytest.approx(2 * math.exp(-math.pi / 3), rel=1e-14)

    @given(
        d=st.integers(3, 9),
        gamma=st.floats(1.0, 2.0),
        rho0=st.floats(1e-3, 1e3),
        r=st.floats(0.0, 10.0),
    )
    def test_center_value_and_monotone(self, d, gamma, rho0, r):
        cfg = StarConfig(d, gamma, rho0)
        assert float(decay_bound(cfg, 0.0)) == pytest.approx(rho0, rel=1e-12)
        assert float(decay_bound(cfg, r)) <= rho0 * (1 + 1e-12)

    @given(d=st.integers(3, 9), rho0=st.floats(0.1, 10.0), r=st.floats(0.0, 5.0))
    def test_branch_continuity_at_gamma_two(self, d, rho0, r):
        near = StarConfig(d, 2.0 - 1e-9, rho0)
        exact = StarConfig(d, 2.0, rho0)
        assert float(decay_bound(near, r)) == pytest.approx(float(decay_bound(exact, r)), rel=1e-6)

    @pytest.mark.parametrize("d", [3, 5, 9])
    def test_one_formula_meets_the_closed_forms(self, d):
        # a = t log1p(x)/x takes four roundings, and exp(-a) turns them into a
        # relative error of about 4 |a| eps, so allow a few ulps plus that
        r = np.linspace(0.0, 5.0, 501)
        for rho0 in (1e-3, 0.5, 1.0, 10.0, 1e3):
            for g, exact in ((1.0, 1.0 / (1.0 / rho0 + (2 * math.pi / d) * r**2)),
                             (2.0, rho0 * np.exp(-(math.pi / d) * r**2))):
                got = decay_bound(StarConfig(d, g, rho0), r)
                allowed = (2.0 + 4.0 * np.log(rho0 / exact)) * np.spacing(exact)
                assert np.all(np.abs(got - exact) <= allowed), (g, rho0)

    def test_exact_centre_at_large_rho0(self):
        cfg = StarConfig(3, 1.25, 1e30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = decay_bound(cfg, np.array([0.0, 1e-15, 1.0]))
            # t = (2 pi / (d gamma)) rho0^(2-gamma) r^2 overflows: the limit 0
            far = [decay_bound(StarConfig(3, g, rho0), r) for g, rho0, r in
                   ((1.0, 1e307, 50.0), (1.5, 1.0, 1e160), (2.0, 1.0, 1e160))]
        assert bound[0] == 1e30
        assert np.all(np.isfinite(bound)) and np.all(np.diff(bound) < 0)
        assert far == [0.0, 0.0, 0.0]

    def test_battery_domination(self):
        tol = 1e-10
        for d, g, rho0 in ((3, 1.0, 10.0), (4, 1.5, 1.0), (5, 2.0, 10.0), (3, 1.2, 1.0)):
            p = get_profile(d, g, rho0)
            assert np.all(p.rho <= decay_bound(p.config, p.radii) * (1 + 10 * tol))


class TestGaussRule:
    @pytest.mark.parametrize("n", [3, 5])
    def test_exact_up_to_degree_2n_minus_1(self, n):
        x, w = steady.gauss_rule(n)
        assert x.shape == w.shape == (n,)
        assert np.all((x > 0.0) & (x < 1.0))
        for k in range(2 * n):
            exact = 1.0 / (k + 1)
            assert abs(float(w @ x**k) - exact) <= 4 * np.spacing(exact), (n, k)
        # degree 2n is the first the rule misses
        exact = 1.0 / (2 * n + 1)
        assert abs(float(w @ x ** (2 * n)) - exact) > 1e6 * np.spacing(exact)

    @pytest.mark.parametrize("n", [3, 5])
    def test_literals_are_leggauss_bitwise(self, n):
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(n)
        held = tuple(np.array(a) for a in steady._LEGGAUSS[n])
        assert held[0].tobytes() == x.tobytes() and held[1].tobytes() == w.tobytes()
        got = steady.gauss_rule(n)
        assert got[0].tobytes() == (0.5 * (1.0 + x)).tobytes()
        assert got[1].tobytes() == (0.5 * w).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_other_rules_raise(self, n):
        with pytest.raises(ValueError, match="3- and 5-point rules"):
            steady.gauss_rule(n)


class TestPohozaev:
    def test_zero_at_center(self):
        p = get_profile(3, 1.2, 1.0)
        assert pohozaev_residual(p, 0.0) == 0.0

    @staticmethod
    def _oracle_residual(d, g, rho_fn, r):
        """Both sides of the identity via adaptive quadrature on a closed form.

        e = rho^(g-1) with c = (g-1)/g, or e = ln rho with c = 1 at g = 1;
        f = 4 pi c rho and F = 4 pi c^2 rho^g.
        """
        c = 1.0 if g == 1.0 else (g - 1) / g
        e = (lambda y: math.log(rho_fn(y))) if g == 1.0 else (lambda y: rho_fn(y) ** (g - 1))
        F = lambda y: FOUR_PI * c**2 * rho_fn(y) ** g
        m = FOUR_PI * quad(lambda s: s ** (d - 1) * rho_fn(s), 0, r, limit=200)[0]
        eprime = -c * m / r ** (d - 1)
        lhs = quad(lambda y: (d * F(y) - 0.5 * (d - 2) * e(y) * FOUR_PI * c * rho_fn(y)) * y ** (d - 1),
                   0, r, limit=200)[0]
        t1 = 0.5 * eprime**2 * r**d
        t2 = F(r) * r**d
        t3 = 0.5 * (d - 2) * eprime * e(r) * r ** (d - 1)
        return (lhs - (t1 + t2 + t3)) / max(abs(lhs), abs(t1), abs(t2), abs(t3))

    def test_identity_on_closed_forms_by_quadrature(self):
        # degenerate at the critical index: the integral prefactor vanishes and
        # the boundary terms cancel among themselves
        res = self._oracle_residual(3, 1.2, lambda y: explicit_rho(3, 1.0, y), 1.0)
        assert abs(res) <= 1e-9
        # non-degenerate closed form: the singular star in d = 4
        star = singular_star(4, 1.2)
        res = self._oracle_residual(4, 1.2, lambda y: float(star.rho_at(y)), 1.0)
        assert abs(res) <= 1e-9

        p = get_profile(3, 1.2, 1.0, r_max=5.0)
        assert abs(pohozaev_residual(p, 1.0)) <= 1e-6

    @pytest.mark.parametrize("d", [3, 5])
    def test_identity_on_the_isothermal_singular_star(self, d):
        # rho = A r^-2 solves the gamma = 1 equation only at its own amplitude;
        # any other amplitude keeps m = 4 pi int rho s^(d-1) ds, so a mass
        # relation cannot tell them apart, while the identity can
        star = singular_star(d, 1.0)
        assert star.exponent == -2.0
        exact = lambda y: float(star.rho_at(y))
        wrong = lambda y: 2.0 * exact(y)
        for r in (0.5, 1.0, 2.0):
            assert abs(self._oracle_residual(d, 1.0, exact, r)) <= 1e-9
            assert abs(self._oracle_residual(d, 1.0, wrong, r)) >= 0.1

    def test_isothermal_residual_sees_a_non_solution(self):
        # twice a steady density with its own mass is no steady state: the
        # columns agree, so only the identity itself can flag it
        p = get_profile(3, 1.0, 1.0)
        doubled = steady.Profile(config=StarConfig(3, 1.0, 2.0), radii=p.radii, rho=2.0 * p.rho,
                                 enthalpy=p.enthalpy + math.log(2.0), mass=2.0 * p.mass)
        assert abs(pohozaev_residual(p, 1.0)) <= 1e-6
        assert abs(pohozaev_residual(doubled, 1.0)) >= 0.1

    def test_isothermal_profile(self):
        p = get_profile(3, 1.0, 1.0)
        assert abs(pohozaev_residual(p, 0.5)) <= 1e-6

    def test_battery_grid(self):
        for d, g, rho0 in ((3, 1.0, 1.0), (4, 1.2, 10.0), (5, 2.0, 1.0), (3, 1.5, 10.0)):
            p = get_profile(d, g, rho0)
            res = pohozaev_residual(p, p.radii)
            assert np.max(np.abs(res)) <= 1e-5

    def test_outside_grid(self):
        p = get_profile(3, 1.2, 1.0)
        with pytest.raises(ValueError):
            pohozaev_residual(p, p.r_end * 2)
        with pytest.raises(ValueError):
            pohozaev_residual(p, [0.5, math.nan])

    @pytest.mark.parametrize("gamma", [1.0, 1.2, 2.0])
    def test_mixed_radii_match_scalar_calls(self, gamma):
        # gamma = 2 in d = 3 has compact support: r_end is the surface, where
        # w is clamped at 0
        p = get_profile(3, gamma, 1.0)
        assert (p.gas_radius == p.r_end) == (gamma == 2.0)
        grid = p.radii[1::211]
        mids = 0.5 * (p.radii[:-1] + p.radii[1:])[::173]
        r = np.concatenate([[0.0], grid, mids, [p.r_end]])
        res = pohozaev_residual(p, r)
        assert res.shape == r.shape
        assert res[0] == 0.0
        scalar = [pohozaev_residual(p, float(x)) for x in r]
        assert all(isinstance(x, float) for x in scalar)
        np.testing.assert_array_equal(res, scalar)
        assert np.max(np.abs(res)) <= 1e-5

    @staticmethod
    def _loop_reference(profile, radii):
        """Per-point reference: scalar Gauss segments and scalar boundary terms.

        The identity int_0^r s^(d-1) (d F - (d-2)/2 e f) ds
        = r^d (e'^2/2 + F) + (d-2)/2 r^(d-1) e e' with f = 4 pi c rho(e) and
        F = 4 pi c^2 rho^gamma, for w (gamma > 1) and h = ln rho (gamma = 1).
        """
        d, g = profile.config.d, profile.config.gamma
        c = 1.0 if g == 1.0 else (g - 1) / g
        rho_of = np.exp if g == 1.0 else (lambda e: np.maximum(e, 0.0) ** (1 / (g - 1)))
        F = lambda e: FOUR_PI * c**2 * rho_of(e) ** g
        gx, gw = np.polynomial.legendre.leggauss(5)

        def f(y):
            e = profile.enthalpy_at(y)
            return (d * F(e) - 0.5 * (d - 2) * e * FOUR_PI * c * rho_of(e)) * y ** (d - 1)

        def segment(a, b):
            half = 0.5 * (b - a)
            return half * float(np.dot(f(0.5 * (a + b) + half * gx), gw))

        grid = profile.radii
        cum = [0.0]
        for a, b in zip(grid[:-1], grid[1:]):
            cum.append(cum[-1] + segment(a, b))
        out = []
        for rv in radii:
            if rv == 0.0:
                out.append(0.0)
                continue
            k = int(np.searchsorted(grid, rv, side="right")) - 1
            lhs = cum[k] + (segment(grid[k], rv) if rv > grid[k] else 0.0)
            m = float(profile.mass_at(rv))
            e = float(profile.enthalpy_at(rv))
            eprime = -c * m / rv ** (d - 1)
            t1 = 0.5 * eprime**2 * rv**d
            t2 = float(F(e)) * rv**d
            t3 = 0.5 * (d - 2) * eprime * e * rv ** (d - 1)
            scale = max(abs(lhs), abs(t1), abs(t2), abs(t3))
            out.append((lhs - (t1 + t2 + t3)) / scale if scale > 0 else 0.0)
        return np.array(out)

    @pytest.mark.parametrize("d,gamma,rho0", [(3, 1.0, 1.0), (3, 1.2, 1.0), (3, 2.0, 1.0), (4, 1.5, 10.0)])
    def test_matches_per_point_reference(self, d, gamma, rho0):
        # the residual is a defect normalized by its largest term, so rounding
        # differences in the terms (array vs scalar pow, Gauss weights) stay
        # within a few ulps of 1
        p = get_profile(d, gamma, rho0)
        mids = 0.5 * (p.radii[:-1] + p.radii[1:])[::5]
        r = np.concatenate([p.radii, mids])
        np.testing.assert_allclose(
            pohozaev_residual(p, r), self._loop_reference(p, r), rtol=0, atol=32 * np.finfo(float).eps
        )


class TestProfileRange:
    def test_rejects_nan_radius(self):
        p = get_profile(3, 1.2, 1.0)
        with pytest.raises(ValueError, match="outside the profile grid"):
            p.rho_at(math.nan)
        with pytest.raises(ValueError, match="outside the profile grid"):
            p.mass_at([0.1, math.nan])
        with pytest.raises(ValueError, match="outside the profile grid"):
            p.enthalpy_at(np.array([[0.1], [math.nan]]))

    def test_accepts_grid_ends(self):
        p = get_profile(3, 1.2, 1.0)
        assert float(p.rho_at(0.0)) == 1.0
        assert np.all(np.isfinite(p.mass_at([0.0, p.r_end])))


def _scipy_hermite(profile):
    """scipy's two-column cubic Hermite of the enthalpy and m/r^d, slopes from the ODE."""
    y, dydx = ode_hermite_data(profile)
    return CubicHermiteSpline(profile.radii, y, dydx, extrapolate=False)


def _assert_hermite_bitwise(profile):
    """Table and values against scipy, bit for bit, where the interval search could slip."""
    ref = _scipy_hermite(profile)
    assert np.moveaxis(profile._coefficients, 0, -1).tobytes() == ref.c.tobytes()
    r, d = profile.radii, profile.config.d
    # every breakpoint (r = 0 and r_end among them), a float either side, midpoints
    y = np.concatenate([r, np.nextafter(r[1:], 0.0), np.nextafter(r[:-1], np.inf), 0.5 * (r[:-1] + r[1:])])
    enthalpy, mass_hat = np.moveaxis(ref(y), -1, 0)
    assert profile.enthalpy_at(y).tobytes() == enthalpy.tobytes()
    assert profile.mass_at(y).tobytes() == (mass_hat * y**d).tobytes()
    got_enthalpy, got_mass_hat = profile.enthalpy_and_mass_hat_at(y)
    assert got_enthalpy.tobytes() == enthalpy.tobytes() and got_mass_hat.tobytes() == mass_hat.tobytes()
    # a 0-d radius gives a 0-d array, as PPoly does
    for x in (0.0, profile.r_end, 0.5 * profile.r_end):
        got = profile.enthalpy_at(np.array(x))
        assert isinstance(got, np.ndarray) and got.shape == ()
        assert got.tobytes() == ref(x)[0].tobytes()


class TestPchipTable:
    """Profile's cubic table against scipy's CubicHermiteSpline with the ODE's slopes.

    The class keeps the name of the PCHIP table it checked before the
    slopes came from the ODE, so its test ids stay stable.
    """

    @pytest.mark.parametrize("star", PROFILE_BATTERY, ids=str)
    def test_battery(self, star):
        _assert_hermite_bitwise(get_profile(*star))

    @pytest.mark.parametrize("top", [(3, 1.25, 1e6), (7, 1.01, 1e6), (3, 1.0, 1e6)], ids=str)
    def test_line_built(self, top):
        line = steady.integrate_line(StarConfig(*top))
        for rho0 in (top[2], 50.0, 1.0 + 1e-9):
            star = line.read(rho0)
            if star is not None:
                _assert_hermite_bitwise(star.profile())

    def test_rescaled_csv_read_and_closed_form(self):
        base = get_profile(3, 1.5, 10.0)
        _assert_hermite_bitwise(scale_profile(base, 0.3))
        _assert_hermite_bitwise(truncate_liquid(get_liquid(5, 1.3, 1e6)))
        buf = io.StringIO()
        write_profile_csv(get_liquid(4, 1.2, 50.0), buf)
        _assert_hermite_bitwise(read_profile_csv(io.StringIO(buf.getvalue())))
        star = explicit_profile_critical(3, 100.0)
        _assert_hermite_bitwise(star.to_profile(np.linspace(0.0, 2.0 * star.radius, 257)))

    def test_agrees_with_a_finer_sampling(self):
        # the star whose length-spaced grid is coarsest where rho bends: its
        # samples at 32x the points are the run's dense output itself
        config = StarConfig(7, 1.01, 1.39e5)
        coarse = liquid_star(config, r_max=50.0)
        fine = liquid_star(config, r_max=50.0, min_points=65536)
        assert coarse.liquid_radius == fine.liquid_radius
        y = fine.radii
        rho_err = np.abs(coarse.rho_at(y) / fine.rho - 1.0).max()
        mass_err = np.abs(coarse.mass_at(y[1:]) / fine.mass[1:] - 1.0).max()
        assert rho_err <= 5e-7 and mass_err <= 5e-7, (rho_err, mass_err)

    def test_locate_is_the_right_side_search(self):
        x = get_liquid(3, 1.25, 1e4).radii
        rng = np.random.default_rng(3)
        r = np.concatenate([x, np.nextafter(x[1:], 0.0), np.nextafter(x[:-1], np.inf), rng.uniform(0.0, x[-1], 4000)])
        want = np.minimum(np.searchsorted(x, r, side="right") - 1, len(x) - 2)
        for order in (np.arange(len(r)), np.argsort(r), rng.permutation(len(r))):
            i, s = steady._locate(x, r[order])
            assert np.array_equal(i, want[order])
            assert s.tobytes() == (r[order] - x[want[order]]).tobytes()


class TestClassifySupport:
    @pytest.mark.parametrize(
        "d,gamma,expected",
        [(3, 1.5, "compact"), (3, 1.2, "infinite"), (3, 1.0, "infinite"), (4, 1.4, "compact")],
    )
    def test_table(self, d, gamma, expected):
        assert classify_support(d, gamma) == expected


class TestScaling:
    def test_identity(self):
        p = get_profile(3, 1.2, 1.0, r_max=10.0)
        q = scale_profile(p, 1.0)
        assert np.array_equal(q.radii, p.radii)
        assert np.array_equal(q.rho, p.rho)
        assert np.array_equal(q.mass, p.mass)

    def test_invalid(self):
        p = get_profile(3, 1.2, 1.0, r_max=10.0)
        with pytest.raises(ValueError):
            scale_profile(p, 0.0)
        with pytest.raises(ValueError):
            scale_profile(truncate_liquid(get_liquid(3, 1.2, 32.0)), 2.0)

    def test_scaled_radius_matches_direct_integration(self):
        base = get_profile(3, 1.2, 1.0, r_max=10.0)
        scaled = scale_profile(base, 32.0)
        direct = liquid_radius(get_liquid(3, 1.2, 32.0))
        assert scaled.liquid_radius == pytest.approx(direct, rel=1e-5)

    def test_radius_limit_approach(self):
        base = get_profile(3, 1.1, 1.0, r_max=1e3)
        r_inf = radius_limit(3, 1.1)
        dev_near = abs(scale_profile(base, 10.0).liquid_radius - r_inf)
        dev_far = abs(scale_profile(base, 1e6).liquid_radius - r_inf)
        assert dev_far < dev_near

    def test_mass_transform(self):
        base = get_profile(3, 1.2, 1.0, r_max=10.0)
        kappa = 5.0
        scaled = scale_profile(base, kappa)
        lam = kappa ** (1 - 1.2 / 2)
        i = len(base.radii) // 2
        assert scaled.radii[i] == pytest.approx(base.radii[i] / lam, rel=1e-14)
        expected_m = kappa ** (1 - 3 * (1 - 1.2 / 2)) * base.mass[i]
        assert scaled.mass[i] == pytest.approx(expected_m, rel=1e-13)

    @pytest.mark.parametrize("star", [(3, 1.25, 1.01), (3, 1.21, 1.01)])
    def test_no_rejected_rescaling(self, star):
        # the mass factor kappa^(1-d(1-gamma/2)) can merge masses one ulp
        # apart near a compact surface; those samples are dropped instead
        base = integrate_gas_profile(StarConfig(*star), r_max=5e3, min_points=8192)
        for kappa in np.logspace(-3, 6, 200):
            scaled = scale_profile(base, kappa)
            assert scaled.radii[-1] == scaled.gas_radius
            assert scaled.rho[0] == scaled.config.rho_center

    @settings(max_examples=20, deadline=None)
    @given(k1=st.floats(0.5, 8.0), k2=st.floats(0.5, 8.0))
    def test_closure(self, k1, k2):
        base = get_profile(3, 1.2, 1.0, r_max=10.0)
        twice = scale_profile(scale_profile(base, k1), k2)
        once = scale_profile(base, k1 * k2)
        assert np.allclose(twice.radii, once.radii, rtol=1e-13)
        assert np.allclose(twice.rho, once.rho, rtol=1e-12)
        assert np.allclose(twice.mass, once.mass, rtol=1e-12)


class TestSingularStar:
    def test_isothermal_amplitude(self):
        star = singular_star(3, 1.0)
        assert star.amplitude == pytest.approx(1 / (2 * math.pi), rel=1e-15)
        assert star.exponent == -2.0

    def test_residual_machine_zero(self):
        for d, g in ((3, 1.0), (4, 1.2), (3, 1.2), (5, 1.5)):
            star = singular_star(d, g)
            for r in (0.5, 1.0, 2.0):
                assert abs(star.ode_residual(r)) <= 1e-12

    def test_inadmissible(self):
        with pytest.raises(ValueError):
            singular_star(3, 1.4)

    def test_matches_fixed_point_amplitude(self):
        for d, g in ((3, 1.1), (5, 1.3), (9, 1.6)):
            star = singular_star(d, g)
            _, vs = fixed_points(d, g)
            assert star.amplitude == pytest.approx(vs[0], rel=1e-13)


class TestExplicitCritical:
    def test_radius_zero_at_unit_density(self):
        assert explicit_profile_critical(3, 1.0).radius == 0.0

    def test_radius_value(self):
        star = explicit_profile_critical(3, 32.0)
        assert star.radius == pytest.approx(math.sqrt(27 / (32 * math.pi)), rel=1e-15)
        assert star.gamma == pytest.approx(1.2, rel=1e-15)

    def test_density_value_and_cross_check(self):
        star = explicit_profile_critical(3, 32.0)
        expected = 32 * (1 + (2 * math.pi / 9) * 16 * 0.0625) ** -2.5
        assert float(star.rho_at(0.25)) == pytest.approx(expected, rel=1e-14)
        # independent route: integrate the unit star and rescale
        scaled = scale_profile(get_profile(3, 1.2, 1.0, r_max=10.0), 32.0)
        assert float(scaled.rho_at(0.25)) == pytest.approx(expected, rel=1e-8)

    def test_residual_machine_zero(self):
        star = explicit_profile_critical(4, 10.0)
        for r in (0.3, 1.0, 3.0):
            assert abs(star.ode_residual(r)) <= 1e-12

    def test_mass_closed_form(self):
        star = explicit_profile_critical(3, 2.0)
        m_quad = FOUR_PI * quad(lambda y: y**2 * float(star.rho_at(y)), 0, 1.5)[0]
        assert float(star.mass_at(1.5)) == pytest.approx(m_quad, rel=1e-10)

    def test_oracle_equivalence_pointwise(self):
        tol = 1e-10
        for d, C in ((3, 1.0), (4, 10.0)):
            star = explicit_profile_critical(d, C)
            p = get_profile(d, star.gamma, C, r_max=5.0)
            exact = star.rho_at(p.radii)
            assert np.max(np.abs(p.rho - exact) / exact) <= 10 * tol

    def test_invalid(self):
        with pytest.raises(ValueError):
            explicit_profile_critical(3, -1.0)


class TestCsv:
    def test_roundtrip_and_format(self):
        p = truncate_liquid(get_liquid(3, 1.2, 32.0))
        buf = io.StringIO()
        write_profile_csv(p, buf)
        text = buf.getvalue()
        lines = text.splitlines()
        assert lines[0].startswith("# d=3 gamma=1.2")
        assert " R=" in lines[0] and " M=" in lines[0]
        assert lines[1] == "r,rho,enthalpy,mass"
        # 17 significant digits survive a float round-trip
        back = read_profile_csv(io.StringIO(text))
        assert np.array_equal(back.radii, p.radii)
        assert np.array_equal(back.rho, p.rho)
        assert np.array_equal(back.mass, p.mass)
        assert back.liquid_radius == p.liquid_radius
        assert back.kind == p.kind

    def test_deterministic_bytes(self):
        p = get_profile(3, 1.5, 10.0)
        a, b = io.StringIO(), io.StringIO()
        write_profile_csv(p, a)
        write_profile_csv(p, b)
        assert a.getvalue() == b.getvalue()

    @staticmethod
    def edited_csv(old, new):
        buf = io.StringIO()
        write_profile_csv(get_liquid(3, 1.25, 50.0), buf)
        text = buf.getvalue()
        assert old in text
        return io.StringIO(text.replace(old, new, 1))

    @pytest.mark.parametrize("key", ["d", "gamma", "rho0"])
    def test_missing_metadata_is_named(self, key):
        old = {"d": "d=3 ", "gamma": "gamma=1.25 ", "rho0": "rho0=50 "}[key]
        with pytest.raises(ValueError, match=f"has no {key}= entry"):
            read_profile_csv(self.edited_csv(old, ""))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown profile kind 'banana'"):
            read_profile_csv(self.edited_csv("kind=gas", "kind=banana"))
        # the two kinds write_profile_csv emits both load
        for kind in ("gas", "liquid-truncated"):
            assert read_profile_csv(self.edited_csv("kind=gas", f"kind={kind}")).kind == kind
