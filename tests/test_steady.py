import dataclasses
import hashlib
import io
import itertools
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from lanemden import (
    StarConfig,
    decay_bound,
    explicit_profile_critical,
    gas_read,
    liquid_radius,
    liquid_read,
    pohozaev_residual,
    read_profile_csv,
    singular_star,
    support_threshold,
    write_profile_csv,
)
from lanemden import dop853, spectral, steady
from lanemden.harness import PROFILE_BATTERY
from lanemden.phase import fixed_points, phase_trajectory, profile_to_phase, radius_limit
from lanemden.steady import _refined_grid

from conftest import SEED0_LINES, get_gas, get_liquid, get_profile, rho_and_mass

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
        # the central enthalpy maps back to the central density
        cfg = StarConfig(3, 1.4, 3.5)
        assert cfg.rho_of_enthalpy(cfg.enthalpy_center) == pytest.approx(3.5, rel=1e-14)
        iso = StarConfig(3, 1.0, 3.5)
        assert iso.rho_of_enthalpy(iso.enthalpy_center) == pytest.approx(3.5, rel=1e-14)


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
        run, p = get_gas(3, 1.5, 10.0), get_profile(3, 1.5, 10.0)
        r_probe = p.radii[len(p.radii) // 2]
        m_quad = FOUR_PI * quad(lambda y: y**2 * float(rho_and_mass(run, y)[0]), 0, r_probe, limit=200)[0]
        assert float(rho_and_mass(run, r_probe)[1]) == pytest.approx(m_quad, rel=1e-9)

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
            gas_read(StarConfig(3, 1.2, 1.0), tol=0.0)
        with pytest.raises(ValueError):
            gas_read(StarConfig(3, 1.2, 1.0), r_max=math.inf)


class TestIntegratorCounts:
    def test_profile_carries_its_run(self):
        config = StarConfig(3, 1.25, 50.0)
        p = liquid_read(config).profile()
        _, sol = steady._integrate(config, 1e-10, 50.0, config.boundary_enthalpy)
        assert (p.nfev, p.steps) == (sol.nfev, sol.n_steps)
        assert p.steps > 0 and p.nfev >= 15 * p.steps + 2
        # the liquid star is its own cut, and carries its run's counts
        assert p.kind == "liquid-truncated" and p.radii[-1] == p.liquid_radius
        # a star read off a gas run above its own density carries that run's counts
        gas = gas_read(config).profile()
        scaled = steady.gas_read(config).read(2.0 * config.rho_center).profile()
        assert (scaled.nfev, scaled.steps) == (gas.nfev, gas.steps) and gas.steps > 0

    def test_line_star_reports_the_line_run(self):
        line = steady.integrate_line(StarConfig(3, 1.25, 1e4))
        for rho0 in (10.0, 100.0, 1e4):
            star = line.read(rho0).profile()
            assert (star.nfev, star.steps) == (line.sol.nfev, line.sol.n_steps)


    def test_profiles_not_integrated_report_zero(self):
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
    """A line's stars are read off its run (RunStar.read) for any density, after the run."""

    @pytest.mark.parametrize("top", [(3, 1.25, 1e4), (3, 1.0, 1e3), (5, 1.6, 1e6)], ids=str)
    def test_any_density_matches_its_own_integration(self, top):
        d, gamma, rho_top = top
        line = steady.integrate_line(StarConfig(*top))
        for rho0 in (1.02, 2.718, 37.7, 411.0, 0.999 * rho_top):
            star = line.read(rho0)
            own = liquid_read(StarConfig(d, gamma, rho0)).profile()
            assert star.config.rho_center == rho0
            assert star.liquid_radius == pytest.approx(own.liquid_radius, rel=1e-10, abs=0)

    @pytest.mark.parametrize("star", LONE_STARS, ids=str)
    def test_liquid_star_radius_is_the_gas_runs_crossing(self, star):
        # the liquid run takes the gas run's steps up to R, and both root the
        # crossing on the same step's dense output
        config = StarConfig(*star)
        assert liquid_read(config).profile().liquid_radius == gas_read(config).profile().liquid_radius

    def test_sample_count_refines_the_same_cut(self):
        # points sets the sample count of any star's profile, the top star
        # of a line's own included; the default is MIN_POINTS, and the
        # liquid radius is the run's crossing either way
        top = StarConfig(3, 1.25, 1e4)
        line = steady.integrate_line(top)
        own = liquid_read(top).profile(512)
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
            assert fine.liquid_radius == coarse.liquid_radius == root / lam == liquid_radius(star)

    @pytest.mark.parametrize("rho0", [1.0, 0.5, math.nextafter(1e4, math.inf), 2e4, math.nan])
    def test_density_outside_the_line_raises(self, rho0):
        # no liquid star exists at rho0 <= 1 or NaN; above the top star a
        # star is served where the run, stopped after the step that falls
        # through the top star's surface, still crosses its level: one ulp
        # above, not at twice the density
        line = steady.integrate_line(StarConfig(3, 1.25, 1e4))
        if not rho0 > 1e4:
            with pytest.raises(ValueError, match="needs rho0 > 1"):
                line.read(rho0)
            return
        kappa = rho0 / 1e4
        root = line.sol.crossing(line.config.enthalpy_of_inverse(kappa))
        star = line.read(rho0)
        assert (star is None) == (root is None) == (rho0 == 2e4)
        if star is not None:
            assert star.config.rho_center == rho0 and star.liquid_radius == root / kappa ** (1.0 - 1.25 / 2.0)

    def test_gas_top_star_raises(self):
        with pytest.raises(ValueError, match="rho_top > 1"):
            steady.integrate_line(StarConfig(3, 1.25, 1.0))


def _assert_samples_read_off(star, profile):
    """profile's samples are star's reads at its radii, bit for bit; a surface it ends at is pinned to its level."""
    config, r = star.config, profile.radii
    enthalpy, mass = star.enthalpy_and_mass_at(r)
    cut = profile.kind == "liquid-truncated"
    pinned = r == (profile.liquid_radius if cut else profile.gas_radius)
    assert enthalpy[~pinned].tobytes() == profile.enthalpy[~pinned].tobytes()
    assert np.all(profile.enthalpy[pinned] == (config.boundary_enthalpy if cut else config.gas_stop))
    assert mass[0] == 0.0
    assert mass.tobytes() == profile.mass.tobytes()


class TestRunStar:
    """A star read straight off a run, with no samples: a line's (RunStar.read) or a gas run's own."""

    @pytest.mark.parametrize("line", [(3, 1.25), (4, 1.4), (3, 1.0), (7, 1.01)], ids=str)
    def test_reads_the_profile_samples_bit_for_bit(self, line):
        # beyond the seed both evaluate the run at lam r; inside it both
        # evaluate the star's own Taylor seed at the same radii
        run = steady.integrate_line(StarConfig(*line, 1e6))
        for rho0 in (1.01, 1.5, 50.3231, 1e4, 1e6):
            read = run.read(rho0)
            profile = read.profile()
            assert read.config == profile.config
            assert read.liquid_radius == profile.liquid_radius
            r = profile.radii
            assert np.count_nonzero(r >= read.seed_radius) > 512
            # the last sample is the liquid surface, pinned to its level as
            # a compact surface is to the stop level
            _assert_samples_read_off(read, profile)
            assert profile.kind == "liquid-truncated" and profile.rho[-1] == 1.0
            assert r[-1] == read.liquid_radius and read.total_mass == profile.mass[-1]

    def test_reads_radii_in_any_order(self):
        # radii out of order are sorted once, read ascending and put back
        read = steady.integrate_line(StarConfig(3, 1.25, 1e6)).read(50.3231)
        r = read.profile(512).radii
        r = r[:len(r) // 2 * 2]
        shuffled = np.random.default_rng(7).permutation(r)
        for got, want in zip(read.enthalpy_and_mass_at(shuffled.reshape(-1, 2)),
                             read.enthalpy_and_mass_at(r)):
            assert got.shape == (len(r) // 2, 2)
            assert got.ravel().tobytes() == want[np.searchsorted(r, shuffled)].tobytes()

    @pytest.mark.parametrize(
        "line, rho0s, pinned",
        [((3, 1.25, 1e6), (1.01, 50.3231, 1e4, 1e6), (50.3231, "0x1.944712f0c95d9p-7", "0x1.6d851b51fae36p+1")),
         ((3, 1.0, 1e3), (1.5, 10.0, 1e3), (10.0, "0x1.9901698554f31p-5", "0x1.2b30bba5a56c6p+0"))],
        ids=str,
    )
    def test_read_is_the_member_cut_at_its_liquid_radius(self, line, rho0s, pinned):
        # read's star is the run's crossing of the level of density 1/kappa,
        # as end and as liquid, with no compact surface; it is the uncut
        # member ended there, and its profile samples that star bit for bit.
        # pinned: one star's end and mass, as hex digits that read keeps
        run = steady.integrate_line(StarConfig(*line))
        fields = lambda star: (star.config, star.kappa, star.r0, star.end, star.liquid, star.gas)
        for rho0 in rho0s:
            config, kappa = StarConfig(line[0], line[1], rho0), rho0 / line[2]
            root = run.sol.crossing(config.enthalpy_of_inverse(kappa))
            want = steady.RunStar(config, run.sol, kappa, run.r0, root, root)
            read, member = run.read(rho0), run.member(rho0)
            assert read.sol is member.sol is run.sol
            assert fields(read) == fields(want)
            assert member.liquid == root and member.end == run.sol.ts[-1] > root
            assert fields(dataclasses.replace(member, end=member.liquid)) == fields(read)
            assert read.total_mass.hex() == want.total_mass.hex()
            profile, expected = read.profile(), want.profile()
            assert profile.kind == expected.kind == "liquid-truncated"
            for name in ("radii", "rho", "enthalpy", "mass"):
                assert getattr(profile, name).tobytes() == getattr(expected, name).tobytes(), name
        rho0, end, mass = pinned
        read = run.read(rho0)
        assert float(read.end).hex() == float(read.liquid).hex() == end and read.total_mass.hex() == mass

    def test_member_records_the_surfaces_within_its_span(self):
        # a member ends at its own radius, the compact surface or the run's
        # end, whichever is first, and records only the surfaces up to there
        run = steady.gas_read(StarConfig(3, 1.5, 1.0), r_max=50.0)
        assert run.gas is not None and run.sol.ts[-1] > run.gas
        whole = run.member(10.0)
        assert whole.end == whole.gas == run.gas and whole.kappa == 10.0
        assert whole.liquid == run.sol.crossing(10.0 ** -0.5) < whole.gas
        inner = run.member(10.0, 0.5 * whole.liquid_radius)
        assert inner.end == whole.lam * (0.5 * whole.liquid_radius)
        assert inner.liquid is inner.gas is None
        middle = run.member(10.0, 0.5 * (whole.liquid_radius + whole.gas_radius))
        assert middle.liquid == whole.liquid and middle.gas is None
        assert middle.profile().kind == "gas" and middle.profile().liquid_radius == whole.liquid_radius
        below = run.member(0.5, 1e3)
        assert below.liquid is None and below.end == below.gas == run.gas

    def test_refuses_near_one_and_beyond_r_max(self):
        # near 1 the level is crossed before the seed radius, so no star is
        # served.  Below rho0 ~ 700 the liquid radius exceeds r_max = 0.3:
        # read still serves those stars, and the scan's fallback
        # (harness._line_read) refuses them.  A served star samples as a profile
        run = steady.integrate_line(StarConfig(3, 1.25, 1e6), r_max=0.3)
        served, inside = [], []
        for rho0 in np.geomspace(1.0 + 1e-12, 1e6, 40).tolist():
            read = run.read(rho0)
            if read is not None:
                assert read.profile(64).liquid_radius == read.liquid_radius
            served.append(read is not None)
            inside.append(read is not None and read.liquid_radius <= 0.3)
        assert served == sorted(served) and 0 < sum(served) < len(served)
        assert inside == sorted(inside) and 0 < sum(inside) < sum(served)
        assert steady.integrate_line(StarConfig(3, 1.25, 1e6)).read(1.0 + 1e-9) is None

    @pytest.mark.parametrize("star", [(3, 1.0, 10.0), (3, 1.5, 10.0), (5, 1.3, 0.5)], ids=str)
    def test_gas_run_reads_its_profile_samples_bit_for_bit(self, star):
        # a gas star's profile samples its own run as a kappa = 1 RunStar;
        # only a compact surface's enthalpy is pinned to the stop level
        # instead of read.  Infinite support, compact support, rho0 < 1
        config = StarConfig(*star)
        run = steady.gas_read(config, 1e-10, 20.0)
        profile = gas_read(config, r_max=20.0).profile()
        assert run.kappa == run.lam == 1.0
        assert run.liquid_radius == profile.liquid_radius and run.gas_radius == profile.gas_radius
        r = profile.radii
        assert r[-1] == run.end and np.count_nonzero(r >= run.seed_radius) > 2048
        assert np.count_nonzero(r == profile.gas_radius) == (profile.gas_radius is not None)
        _assert_samples_read_off(run, profile)

    @pytest.mark.parametrize("line", SEED0_LINES + [(3, 1.0)], ids=str)
    def test_total_mass_is_the_vector_read_bitwise(self, line):
        # the scalar read at R gives the bits of _read_rows at R, on the stars a
        # sweep reads off the line's run and on each star's own line
        run = steady.integrate_line(StarConfig(*line, 1e6))
        stars = []
        for rho0 in np.geomspace(1.01, 1e6, 8).tolist():
            stars += [run.read(rho0), steady.liquid_read(StarConfig(*line, rho0))]
        stars = [star for star in stars if star is not None]
        assert len(stars) >= 14
        for star in stars:
            want = float(steady._read_rows((star,), np.array([[star.liquid_radius]]))[1][0, 0])
            assert star.total_mass.hex() == want.hex()

    def test_total_mass_where_a_gas_star_ends_is_the_vector_read_bitwise(self):
        # rho0 < 1 has no liquid surface: the mass is read where the run ends
        run = steady.gas_read(StarConfig(5, 1.3, 0.5), 1e-10, 20.0)
        assert run.liquid is None
        assert run.total_mass.hex() == float(steady._read_rows((run,), np.array([[run.end]]))[1][0, 0]).hex()

    @pytest.mark.parametrize("where", [-1e-300, "beyond", math.nan])
    def test_radius_outside_the_star_raises(self, where):
        read = steady.integrate_line(StarConfig(3, 1.25, 1e4)).read(50.0)
        r = math.nextafter(read.liquid_radius, math.inf) if where == "beyond" else where
        with pytest.raises(ValueError, match="radius outside the star"):
            read.enthalpy_and_mass_at(np.array([0.5 * read.liquid_radius, r]))

    @pytest.mark.parametrize("where", [-1e-300, "beyond", math.nan])
    def test_enthalpy_read_outside_the_star_raises(self, where):
        # the one-column read takes the pair's range check and its message
        read = steady.integrate_line(StarConfig(3, 1.25, 1e4)).read(50.0)
        r = math.nextafter(read.liquid_radius, math.inf) if where == "beyond" else where
        for radii in (np.array([0.5 * read.liquid_radius, r]), r):
            with pytest.raises(ValueError, match="radius outside the star") as got:
                read.enthalpy_at(radii)
            with pytest.raises(ValueError) as want:
                read.enthalpy_and_mass_at(radii)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize(
        "star",
        [("battery",) + star for star in PROFILE_BATTERY]
        + [("line", 3, 1.25, 1e6, 50.3231), ("line", 3, 1.0, 1e3, 10.0), ("line", 4, 1.0, 1e6, 1e6)],
        ids=str,
    )
    def test_enthalpy_read_is_the_first_column_bitwise(self, star):
        # the one-column read takes the pair's range check, sort and seed
        # branch: below the seed radius, on the step boundaries and between
        # them, at the end, in ascending and in shuffled order
        if star[0] == "battery":
            run = get_gas(*star[1:])
        else:
            run = steady.integrate_line(StarConfig(*star[1:4])).read(star[4])
        end = run.end / run.lam
        radii = run.radii
        r = np.concatenate([run.seed_radius * np.array([0.0, 0.25, 0.5, 0.999]), radii,
                            0.5 * (radii[:-1] + radii[1:]), [end]])
        r = np.sort(r[r <= end])
        assert np.count_nonzero(r < run.seed_radius) >= 4 and r[-1] == end
        shuffled = np.random.default_rng(3).permutation(r)
        for radii in (r, shuffled, shuffled[:len(r) // 2 * 2].reshape(-1, 2), np.float64(end)):
            got, want = run.enthalpy_at(radii), run.enthalpy_and_mass_at(radii)[0]
            assert got.shape == np.shape(radii)
            assert got.tobytes() == want.tobytes()


class TestStalledSamples:
    """Samples where rho or m stops moving in float64 are dropped, not rejected."""

    def test_compact_surface(self):
        # near the surface rho = w^alpha is so small that m stalls in float64
        run = steady.gas_read(StarConfig(3, 1.25, 50.0), r_max=20.0)
        p = run.profile()
        assert p.radii[-1] == p.gas_radius
        assert p.rho[-1] == 0.0
        assert np.any(p.radii == p.liquid_radius)
        assert np.max(np.abs(pohozaev_residual(run, p.radii))) <= 1e-5
        assert np.max(p.rho / decay_bound(p.config, p.radii)) - 1 <= 1e-9

    def test_flat_centre(self):
        # rho0 = 1 + 1e-9: near the centre rho equals rho0 in float64
        rho0 = 1 + 1e-9
        run = steady.liquid_read(StarConfig(3, 1.25, rho0))
        p = run.profile()
        assert p.radii[0] == 0.0 and p.rho[0] == rho0
        assert p.radii[-1] == p.liquid_radius
        assert np.max(np.abs(pohozaev_residual(run, p.radii))) <= 1e-5
        assert p.kind == "liquid-truncated" and p.rho[-1] == 1.0

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
    floor = max(1, min(4, n_target // (len(steps) - 1)))
    for a, b in zip(steps[:-1], steps[1:]):
        n = max(floor, int(math.ceil((b - a) / quantum)))
        pieces.append(np.linspace(a, b, n + 1)[1:])
    return np.concatenate(pieces)


# the boundaries of 10,000 steps whose lengths spread over ten decades
_SYNTHETIC_STEPS = np.cumsum(np.concatenate([[0.1], np.random.default_rng(11).lognormal(-9.0, 2.0, 10_000)]))


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
            # one step of n_target quanta and a one-point target: one piece a step
            (np.cumsum(np.random.default_rng(5).lognormal(-2.0, 1.5, 60)), 1),
            # more steps than the target: uncut, but for those above a quantum
            (_SYNTHETIC_STEPS, 2048),
        ],
    )
    def test_bitwise_equal_to_loop(self, steps, n_target):
        got = _refined_grid(steps, n_target)
        want = _refined_grid_loop(steps, n_target)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_target", [1, 2048, 10_000, 40_000, 40_001])
    def test_many_steps_stay_near_the_target(self, n_target):
        # 10,000 steps over ten decades: each step gives max(f, ceil(h / quantum))
        # samples, f = max(1, min(4, n_target // steps)), so the grid holds
        # no more than max(steps, n_target) + n_target + 1 samples
        steps = len(_SYNTHETIC_STEPS) - 1
        grid = _refined_grid(_SYNTHETIC_STEPS, n_target)
        assert len(grid) <= max(steps, n_target) + n_target + 1
        if n_target <= steps:
            assert len(grid) <= steps + n_target + 1
        assert grid[0] == _SYNTHETIC_STEPS[0] and grid[-1] == _SYNTHETIC_STEPS[-1]
        assert np.all(np.diff(grid) > 0)
        # every step boundary is a sample
        assert np.isin(_SYNTHETIC_STEPS, grid).all()


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
        with pytest.raises(ValueError, match="no liquid truncation"):
            liquid_radius(get_gas(3, 1.2, 0.5))

    def test_profile_too_short(self):
        # the run ends at r_max before the liquid surface: liquid_read's error
        run = steady.gas_read(StarConfig(3, 1.2, 32.0), r_max=0.05)
        assert run.liquid_radius is None
        with pytest.raises(RuntimeError, match=r"lies beyond r_max = 0\.05 \(increase r_max\)"):
            liquid_radius(run)

    def test_boundary_density_is_one(self):
        star = get_liquid(3, 1.4, 10.0)
        rho, _ = rho_and_mass(star, liquid_radius(star))
        assert abs(float(rho) - 1.0) <= 1e-12

    def test_truncate(self):
        # a liquid star's profile is the cut itself: its last sample is R,
        # pinned to rho = 1 at the boundary level, and holds the run's mass there
        for line, rho0 in itertools.product(SEED0_LINES + [(3, 1.0), (7, 1.5)], np.geomspace(1.01, 1e6, 8)):
            config = StarConfig(*line, float(rho0))
            t, run = liquid_read(config).profile(), steady.liquid_read(config)
            assert t.kind == "liquid-truncated"
            assert t.radii[-1] == t.liquid_radius == run.liquid_radius
            assert t.rho[-1] == 1.0 and t.enthalpy[-1] == config.boundary_enthalpy
            assert t.mass[-1].hex() == t.total_mass.hex() == run.total_mass.hex()


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
        p = liquid_read(config).profile()
        stop = config.boundary_enthalpy
        _, sol = steady._integrate(config, 1e-10, 50.0, stop)
        assert p.liquid_radius == _tight_crossing(sol, stop)

    # not at (3, 1.25, 1e60) or (5, 1.5, 1e40): there w spans +-1e16 over the
    # last step, so rho at the cut reads 1.02 and 0 however tightly R is rooted
    @pytest.mark.parametrize("rho0", [1e20, 1e30, 1e35, 1e40], ids=str)
    def test_density_at_the_cut_is_one(self, rho0):
        p = liquid_read(StarConfig(3, 1.25, rho0)).profile()
        assert p.radii[-1] == p.liquid_radius
        assert abs(p.rho[-1] - 1.0) <= 1e-6


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
    @pytest.mark.parametrize("n", [3])
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

    @pytest.mark.parametrize("n", [3, 10])
    def test_literals_are_leggauss_bitwise(self, n):
        from numpy.polynomial.legendre import leggauss

        x, w = leggauss(n)
        held = tuple(np.array(a) for a in steady._LEGGAUSS[n])
        assert held[0].tobytes() == x.tobytes() and held[1].tobytes() == w.tobytes()
        got = steady.gauss_rule(n)
        assert got[0].tobytes() == (0.5 * (1.0 + x)).tobytes()
        assert got[1].tobytes() == (0.5 * w).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 6])
    def test_other_rules_raise(self, n):
        with pytest.raises(ValueError, match="3- and 10-point rules"):
            steady.gauss_rule(n)


class TestPohozaev:
    def test_zero_at_center(self):
        assert pohozaev_residual(get_gas(3, 1.2, 1.0), 0.0) == 0.0

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

        assert abs(pohozaev_residual(get_gas(3, 1.2, 1.0, r_max=5.0), 1.0)) <= 1e-6

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
        run = get_gas(3, 1.0, 1.0)

        def doubled_read(r):
            enthalpy, mass = run.enthalpy_and_mass_at(r)
            return enthalpy + math.log(2.0), 2.0 * mass

        doubled = types.SimpleNamespace(config=StarConfig(3, 1.0, 2.0), radii=run.radii,
                                        end=run.end, lam=run.lam,
                                        enthalpy_and_mass_at=doubled_read,
                                        enthalpy_at=lambda r: doubled_read(r)[0])
        assert abs(pohozaev_residual(run, 1.0)) <= 1e-6
        assert abs(pohozaev_residual(doubled, 1.0)) >= 0.1

    def test_isothermal_profile(self):
        assert abs(pohozaev_residual(get_gas(3, 1.0, 1.0), 0.5)) <= 1e-6

    def test_enthalpy_read_keeps_the_battery_bits(self):
        # the integrand reads the enthalpy column alone; over the battery's
        # profile radii the residuals hash as those of a star whose enthalpy
        # read is the first column of its two-column read
        def two_column(run):
            return types.SimpleNamespace(config=run.config, radii=run.radii, end=run.end, lam=run.lam,
                                         enthalpy_and_mass_at=run.enthalpy_and_mass_at,
                                         enthalpy_at=lambda r: run.enthalpy_and_mass_at(r)[0])

        got, want = hashlib.sha256(), hashlib.sha256()
        for star in PROFILE_BATTERY:
            run, radii = get_gas(*star), get_profile(*star).radii
            got.update(pohozaev_residual(run, radii).tobytes())
            want.update(pohozaev_residual(two_column(run), radii).tobytes())
        assert got.hexdigest() == want.hexdigest()

    def test_battery_grid(self):
        for d, g, rho0 in ((3, 1.0, 1.0), (4, 1.2, 10.0), (5, 2.0, 1.0), (3, 1.5, 10.0)):
            res = pohozaev_residual(get_gas(d, g, rho0), get_profile(d, g, rho0).radii)
            assert np.max(np.abs(res)) <= 1e-5

    def test_outside_grid(self):
        run = get_gas(3, 1.2, 1.0)
        with pytest.raises(ValueError):
            pohozaev_residual(run, run.end * 2)
        with pytest.raises(ValueError):
            pohozaev_residual(run, [0.5, math.nan])

    @pytest.mark.parametrize("gamma", [1.0, 1.2, 2.0])
    def test_mixed_radii_match_scalar_calls(self, gamma):
        # gamma = 2 in d = 3 has compact support: r_end is the surface, where
        # w is clamped at 0
        run, p = get_gas(3, gamma, 1.0), get_profile(3, gamma, 1.0)
        assert (p.gas_radius == p.r_end) == (gamma == 2.0)
        grid = p.radii[1::211]
        mids = 0.5 * (p.radii[:-1] + p.radii[1:])[::173]
        r = np.concatenate([[0.0], grid, mids, [p.r_end]])
        res = pohozaev_residual(run, r)
        assert res.shape == r.shape
        assert res[0] == 0.0
        scalar = [pohozaev_residual(run, float(x)) for x in r]
        assert all(isinstance(x, float) for x in scalar)
        np.testing.assert_array_equal(res, scalar)
        assert np.max(np.abs(res)) <= 1e-5

    @staticmethod
    def _loop_reference(star, radii):
        """Per-point reference of the earlier two-rule scheme: scalar Gauss segments, interpolants and boundary terms.

        The one rule replaced it, and on these stars, at d <= 4, the two
        agree to a few ulps of the normalized defect.  The identity int_0^r s^(d-1) (d F - (d-2)/2 e f) ds
        = r^d (e'^2/2 + F) + (d-2)/2 r^(d-1) e e' with f = 4 pi c rho(e) and
        F = 4 pi c^2 rho^gamma, for w (gamma > 1) and h = ln rho (gamma = 1).
        The segments are cut at the star's radii and its end.  A segment
        [a, b] with (d-1)(b-a) <= 4a takes numpy's 10-point Gauss rule, and
        [a, r] inside it the integral of the degree-9 interpolant through
        those 10 points: a 5-point Gauss rule on [a, r], exact to degree 9, on
        the interpolant's barycentric form.  Other segments take the 5-point
        rule on [a, b] and on [a, r].
        """
        d, g = star.config.d, star.config.gamma
        c = 1.0 if g == 1.0 else (g - 1) / g
        rho_of = np.exp if g == 1.0 else (lambda e: np.maximum(e, 0.0) ** (1 / (g - 1)))
        F = lambda e: FOUR_PI * c**2 * rho_of(e) ** g
        x5, w5 = np.polynomial.legendre.leggauss(5)
        x10, w10 = np.polynomial.legendre.leggauss(10)

        def f(y):
            e, _ = star.enthalpy_and_mass_at(y)
            return (d * F(e) - 0.5 * (d - 2) * e * FOUR_PI * c * rho_of(e)) * y ** (d - 1)

        def gauss(a, b, x, w):
            half = 0.5 * (b - a)
            return half * float(np.dot(f(0.5 * (a + b) + half * x), w))

        def interpolant_integral(a, b, r):
            nodes = 0.5 * (a + b) + 0.5 * (b - a) * x10
            values = f(nodes)
            bary = np.array([1.0 / np.prod(nodes[j] - np.delete(nodes, j)) for j in range(10)])

            def p(s):
                q = bary / (s - nodes)
                return float(np.dot(q, values) / np.sum(q))

            half = 0.5 * (r - a)
            return half * sum(w * p(0.5 * (a + r) + half * x) for x, w in zip(x5, w5))

        grid = np.append(star.radii, star.end / star.lam)
        smooth = [(d - 1) * (b - a) <= 4 * a for a, b in zip(grid[:-1], grid[1:])]
        cum = [0.0]
        for a, b, s in zip(grid[:-1], grid[1:], smooth):
            cum.append(cum[-1] + (gauss(a, b, x10, w10) if s else gauss(a, b, x5, w5)))
        out = []
        for rv in radii:
            if rv == 0.0:
                out.append(0.0)
                continue
            k = int(np.searchsorted(grid, rv, side="right")) - 1
            lhs = cum[k]
            if rv > grid[k]:
                a, b = grid[k], grid[k + 1]
                lhs += interpolant_integral(a, b, rv) if smooth[k] else gauss(a, rv, x5, w5)
            e, m = (float(v) for v in star.enthalpy_and_mass_at(rv))
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
        run, p = get_gas(d, gamma, rho0), get_profile(d, gamma, rho0)
        mids = 0.5 * (p.radii[:-1] + p.radii[1:])[::5]
        r = np.concatenate([p.radii, mids])
        np.testing.assert_allclose(
            pohozaev_residual(run, r), self._loop_reference(run, r), rtol=0, atol=32 * np.finfo(float).eps
        )

    @staticmethod
    def _subdivided_reference(star, radii, pieces=256):
        """The residual with each segment between the star's radii, and each [a, r], cut into pieces.

        Each piece takes numpy's 5-point Gauss rule on the integrand
        s^(d-1) (d F - (d-2)/2 e f) as written, read off the star; the
        boundary terms take the star's enthalpy and mass at r.
        """
        config = star.config
        d, g = config.d, config.gamma
        c = config.slope_factor
        x, w = np.polynomial.legendre.leggauss(5)
        x, w = 0.5 * (1.0 + x), 0.5 * w
        u = ((np.arange(pieces)[:, None] + x) / pieces).ravel()

        def integral(a, b):
            total = np.empty_like(a)
            for at in range(0, len(a), 64):
                lo, hi = a[at:at + 64, None], b[at:at + 64, None]
                y = lo + (hi - lo) * u
                e = star.enthalpy_at(y)
                rho = config.rho_of_enthalpy(e)
                f = FOUR_PI * c * (d * c * rho**g - 0.5 * (d - 2.0) * e * rho) * y ** (d - 1)
                total[at:at + 64] = (hi[:, 0] - lo[:, 0]) / pieces * (f.reshape(len(lo), pieces, len(x)) @ w).sum(axis=1)
            return total

        nodes = np.append(star.radii, star.end / star.lam)
        cum = np.concatenate([[0.0], np.cumsum(integral(nodes[:-1], nodes[1:]))])
        i = np.searchsorted(nodes, radii, side="right") - 1
        lhs = cum[i]
        inner = radii > nodes[i]
        lhs[inner] += integral(nodes[i[inner]], radii[inner])
        e, m = star.enthalpy_and_mass_at(radii)
        pos = radii > 0.0
        rp, lhs, e, m = radii[pos], lhs[pos], e[pos], m[pos]
        eprime = -c * m / rp ** (d - 1)
        t1 = 0.5 * eprime**2 * rp**d
        t2 = FOUR_PI * c**2 * config.rho_of_enthalpy(e) ** g * rp**d
        t3 = 0.5 * (d - 2.0) * eprime * e * rp ** (d - 1)
        out = np.zeros_like(radii)
        out[pos] = (lhs - (t1 + t2 + t3)) / np.max(np.abs((lhs, t1, t2, t3)), axis=0)
        return out

    @pytest.mark.parametrize("d,gamma,rho0", [(30, 2.0, 1e3), (12, 1.0, 1e3), (30, 1.0, 1.0000001)])
    def test_matches_a_subdivided_reference(self, d, gamma, rho0):
        # at high d the weight s^(d-1) is far from a polynomial of degree 9
        # on the central segments, which the residual integrates exactly
        # against the interpolant of the smooth factor
        star = get_liquid(d, gamma, rho0)
        r = star.profile().radii
        np.testing.assert_allclose(pohozaev_residual(star, r), self._subdivided_reference(star, r),
                                   rtol=0, atol=1e-12)

    def test_profile_read_matches_the_star_read(self):
        # the harness hands the profile's enthalpy and mass to the residual:
        # every sample but a surface one pinned to its level is the star's
        # own read, so its residual keeps its bits
        for star in PROFILE_BATTERY:
            run, p = get_gas(*star), get_profile(*star)
            want = pohozaev_residual(run, p.radii)
            got = pohozaev_residual(run, p.radii, (p.enthalpy, p.mass))
            n = len(p.radii) - (p.gas_radius is not None and p.gas_radius <= p.r_end)
            assert got[:n].tobytes() == want[:n].tobytes(), star


class TestOneReader:
    """pohozaev_residual and profile_to_phase read a star off its run, and its samples are that read."""

    @pytest.mark.parametrize("star", PROFILE_BATTERY, ids=str)
    def test_run_and_samples_agree(self, star):
        run, p = get_gas(*star), get_profile(*star)
        assert np.max(np.abs(pohozaev_residual(run, p.radii))) <= 1e-5
        assert isinstance(pohozaev_residual(run, min(1.0, p.r_end)), float)
        if star[1] == 2.0:  # the phase plane needs gamma < 2
            return
        # the run read at the samples is the samples' trajectory: rho and m
        # have the same bits; a compact surface's sample is pinned to the
        # stop level
        r = p.radii[1:]
        read = r != p.gas_radius
        off_run, samples = profile_to_phase(run, r), phase_trajectory(p)
        assert off_run.v1[read].tobytes() == samples.v1[read].tobytes()
        assert off_run.v2.tobytes() == samples.v2.tobytes()
        assert off_run.tau.tobytes() == samples.tau.tobytes()
        scalar = profile_to_phase(run, float(r[0]))
        assert isinstance(scalar.v1, float) and scalar.v1 == off_run.v1[0]


class TestProfileRange:
    """A star is read on [0, end] only; the class keeps the name of the profile range it checked before."""

    def test_rejects_nan_radius(self):
        run = get_gas(3, 1.2, 1.0)
        for r in (math.nan, [0.1, math.nan], np.array([[0.1], [math.nan]])):
            with pytest.raises(ValueError, match="outside the star"):
                run.enthalpy_and_mass_at(r)

    def test_accepts_grid_ends(self):
        run = get_gas(3, 1.2, 1.0)
        rho, mass = rho_and_mass(run, [0.0, run.end])
        assert rho[0] == 1.0 and mass[0] == 0.0
        assert np.all(np.isfinite(rho)) and np.all(np.isfinite(mass))


class TestPchipTable:
    """A profile is its run's samples, bit for bit, however the star is read off the run.

    The class keeps the name of the cubic table it checked before a profile
    became samples alone, so its test ids stay stable.
    """

    @pytest.mark.parametrize("star", PROFILE_BATTERY, ids=str)
    def test_battery(self, star):
        _assert_samples_read_off(get_gas(*star), get_profile(*star))

    @pytest.mark.parametrize("top", [(3, 1.25, 1e6), (7, 1.01, 1e6), (3, 1.0, 1e6)], ids=str)
    def test_line_built(self, top):
        line = steady.integrate_line(StarConfig(*top))
        for rho0 in (top[2], 50.0, 1.0 + 1e-9):
            star = line.read(rho0)
            if star is not None:
                _assert_samples_read_off(star, star.profile())

    def test_rescaled_csv_read_and_closed_form(self):
        # a star read off a gas run through the rescaling law, then sampled
        star = steady.gas_read(StarConfig(3, 1.5, 10.0), r_max=20.0).read(3.0)
        _assert_samples_read_off(star, star.profile())
        # a CSV keeps the samples and the metadata, bit for bit
        p = get_liquid(4, 1.2, 50.0).profile()
        buf = io.StringIO()
        write_profile_csv(p, buf)
        back = read_profile_csv(io.StringIO(buf.getvalue()))
        for name in ("radii", "rho", "enthalpy", "mass"):
            assert getattr(back, name).tobytes() == getattr(p, name).tobytes(), name
        assert (back.config, back.kind, back.liquid_radius) == (p.config, p.kind, p.liquid_radius)
        assert back.total_mass.hex() == p.total_mass.hex()
        # the closed-form star's profile ends at its liquid radius, with the closed form's mass there
        closed = explicit_profile_critical(3, 100.0)
        q = liquid_read(StarConfig(3, closed.gamma, 100.0)).profile()
        assert q.radii[-1] == q.liquid_radius == pytest.approx(closed.radius, rel=1e-10)
        assert q.total_mass == pytest.approx(float(closed.mass_at(closed.radius)), rel=1e-10)

    def test_agrees_with_a_finer_sampling(self):
        # the star whose length-spaced grid is coarsest where rho bends: at
        # every radius it shares with its sampling at 32x the points (the
        # run's steps, the seed's radii and R) it holds the same bits
        star = steady.liquid_read(StarConfig(7, 1.01, 1.39e5), r_max=50.0)
        coarse, fine = star.profile(), star.profile(65536)
        assert coarse.liquid_radius == fine.liquid_radius
        shared, i, j = np.intersect1d(coarse.radii, fine.radii, assume_unique=True, return_indices=True)
        assert len(shared) >= 64 and shared[-1] == coarse.liquid_radius
        for name in ("rho", "enthalpy", "mass"):
            assert getattr(coarse, name)[i].tobytes() == getattr(fine, name)[j].tobytes(), name


class TestClassifySupport:
    @pytest.mark.parametrize(
        "d,gamma,expected",
        [(3, 1.5, "compact"), (3, 1.2, "infinite"), (3, 1.0, "infinite"), (4, 1.4, "compact")],
    )
    def test_table(self, d, gamma, expected):
        # a gas star's support is compact iff gamma > 2d/(d+2): only then
        # does its run end at a compact surface before r_max
        compact = expected == "compact"
        assert (gamma > support_threshold(d)) == compact
        assert (get_gas(d, gamma, 1.0).gas_radius is not None) == compact


class TestExports:
    def test_run_readers_exported_and_the_sample_rescaling_gone(self):
        # every star of a family is read off a run: RunStar.read replaces
        # LiquidLine.read and scale_profile
        import lanemden
        from lanemden import RunStar, gas_read, liquid_read

        assert (RunStar, gas_read, liquid_read) == (steady.RunStar, steady.gas_read, steady.liquid_read)
        for name in ("LiquidLine", "scale_profile"):
            assert not hasattr(lanemden, name) and not hasattr(steady, name), name

    def test_public_surface_is_pinned(self):
        # every export has a caller beyond the tests: adding one, a wrapper
        # over a reader included, is a deliberate edit to this list
        import lanemden

        public = sorted(n for n, v in vars(lanemden).items()
                        if not n.startswith("_") and not isinstance(v, types.ModuleType))
        assert public == [
            "CertifiedEigenvalue", "ClosedFormStar", "CriticalDensityResult", "DiscreteOperator",
            "FixedPointReport", "PROFILE_BATTERY", "PhaseState", "Profile", "RunSpec", "RunStar",
            "SpectralResult", "StarConfig", "SturmLiouvilleData", "SweepRow", "TailFit",
            "assemble", "buchdahl_bounds", "build_sl_data", "certified_search", "classify_stability",
            "critical_density", "decay_bound", "eigen_residual_strongform", "explicit_profile_critical",
            "fixed_points", "gas_read", "graded_mesh", "instability_witness", "integrate_line",
            "jacobian_spectrum", "liquid_radius", "liquid_read", "manufactured_sl_data",
            "phase_trajectory", "pohozaev_residual", "profile_to_phase", "quadratic_form",
            "radius_limit", "read_profile_csv", "run_profile", "run_sweep", "singular_star",
            "smallest_eigenpair", "spectral_result_dict", "stability_threshold", "stable_at_zero",
            "support_threshold", "tail_convergence_rate", "vector_field", "verify_suite",
            "weighted_norm_sq", "write_eigenfunction_csv", "write_profile_csv", "write_sweep_csv",
        ]

    def test_one_reader_between_samples(self):
        # a Profile is its samples: it reads nothing between them, steady
        # builds no cubic table and keeps no crossing finder of its own
        # (DenseSolution.crossing is the one), and a pencil carries no grid
        readers = [n for n in dir(steady.Profile)
                   if n.endswith("_at") or n in ("_coefficients", "_interpolate", "_check_range")]
        assert readers == []
        tables = [n for n in vars(steady) if any(w in n.lower() for w in ("hermite", "locate", "slopes", "crossing"))]
        assert tables == []
        assert "grid" not in {f.name for f in dataclasses.fields(spectral.SturmLiouvilleData)}


class TestScaling:
    """The rescaling law rho_k(r) = kappa rho(kappa^(1-gamma/2) r), read off a run (RunStar.read)."""

    def test_identity(self):
        # at the run's own density the law is the identity: the run's own
        # star, cut at its own liquid radius
        run = steady.gas_read(StarConfig(3, 1.2, 10.0), r_max=10.0)
        star = run.read(10.0)
        assert star.config == run.config and star.kappa == star.lam == 1.0
        assert star.sol is run.sol and star.r0 == run.r0
        assert star.end == star.liquid == run.liquid_radius == star.liquid_radius
        r = np.linspace(0.0, star.liquid_radius, 257)
        for got, want in zip(star.enthalpy_and_mass_at(r), run.enthalpy_and_mass_at(r)):
            assert got.tobytes() == want.tobytes()

    def test_invalid(self):
        # no liquid star at rho0 <= 1 or NaN; StarConfig rejects an infinite one
        run = steady.gas_read(StarConfig(3, 1.2, 1.0), r_max=10.0)
        for rho0 in (0.0, 1.0, -2.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                run.read(rho0)

    def test_scaled_radius_matches_direct_integration(self):
        base = steady.gas_read(StarConfig(3, 1.2, 1.0), r_max=10.0)
        scaled = base.read(32.0)
        direct = liquid_radius(get_liquid(3, 1.2, 32.0))
        assert scaled.liquid_radius == pytest.approx(direct, rel=1e-5)

    def test_radius_limit_approach(self):
        base = steady.gas_read(StarConfig(3, 1.1, 1.0), r_max=1e3)
        r_inf = radius_limit(3, 1.1)
        dev_near = abs(base.read(10.0).liquid_radius - r_inf)
        dev_far = abs(base.read(1e6).liquid_radius - r_inf)
        assert dev_far < dev_near

    @pytest.mark.parametrize("star", PROFILE_BATTERY[::2], ids=str)
    def test_law_matches_direct_integration(self, star):
        # a line reads its stars below the run's density (TestLiquidLine);
        # here the battery's rho0 = 1 gas runs are read above it, up to
        # kappa = 1e3, and each star's R and M match its own run's
        d, g, _ = star
        run = steady.gas_read(StarConfig(*star), r_max=20.0)
        for kappa in (1.5, 4.0, 32.0, 1e3):
            read = run.read(kappa)
            if (d, g, kappa) == (5, 1.0, 1e3):
                # the level -ln 1e3 lies beyond r = 20 on this run
                assert read is None
                continue
            direct = steady.liquid_read(StarConfig(d, g, kappa))
            assert abs(read.liquid_radius / direct.liquid_radius - 1.0) <= 2e-10, kappa
            assert abs(read.total_mass / direct.total_mass - 1.0) <= 1e-9, kappa


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
        # independent route: integrate the unit star and read the rescaled star off its run
        scaled = steady.gas_read(StarConfig(3, 1.2, 1.0), r_max=10.0).read(32.0)
        enthalpy, _ = scaled.enthalpy_and_mass_at(0.25)
        assert float(scaled.config.rho_of_enthalpy(enthalpy)) == pytest.approx(expected, rel=1e-8)

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
        p = get_liquid(3, 1.2, 32.0).profile()
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
        write_profile_csv(get_liquid(3, 1.25, 50.0).profile(), buf)
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
            read_profile_csv(self.edited_csv("kind=liquid-truncated", "kind=banana"))
        # the two kinds write_profile_csv emits both load
        for kind in ("gas", "liquid-truncated"):
            assert read_profile_csv(self.edited_csv("kind=liquid-truncated", f"kind={kind}")).kind == kind
