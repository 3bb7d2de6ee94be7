import functools
import io
import json
import math
import pathlib
import weakref

import numpy as np
import pytest

import lanemden.harness as harness
import lanemden.spectral as spectral
import lanemden.steady as steady
from lanemden import (
    RunSpec,
    StarConfig,
    SweepRow,
    dop853,
    critical_density,
    run_profile,
    run_sweep,
    support_threshold,
    verify_suite,
    write_sweep_csv,
)

from conftest import SEED0_LINES


def own_row(d, gamma, rho0, mesh=2048, tol=1e-10, tol_eig=1e-8, rmax=50.0):
    """The row of one star built alone: its certified search on liquid_read's star, the top star of its own line."""
    star = steady.liquid_read(StarConfig(d, gamma, rho0), tol=tol, r_max=rmax)
    return harness._classified_row(star, mesh, tol_eig)


class TestRunSpec:
    def test_config_requires_rho0(self):
        with pytest.raises(ValueError):
            RunSpec(d=3, gamma=1.2).config()

    def test_sweep_values_log(self):
        spec = RunSpec(rho0_min=1.1, rho0_max=110.0, points=3, log=True)
        vals = spec.rho0_values()
        assert vals[0] == pytest.approx(1.1)
        assert vals[-1] == pytest.approx(110.0)
        assert vals[1] == pytest.approx(math.sqrt(1.1 * 110.0), rel=1e-12)

    def test_sweep_values_linear(self):
        vals = RunSpec(rho0_min=2.0, rho0_max=4.0, points=3, log=False).rho0_values()
        assert np.allclose(vals, [2.0, 3.0, 4.0])

    def test_empty_or_inconsistent_range(self):
        with pytest.raises(ValueError):
            RunSpec(rho0_min=5.0, rho0_max=2.0).rho0_values()
        with pytest.raises(ValueError):
            RunSpec(rho0_min=-1.0, rho0_max=2.0, log=True).rho0_values()
        with pytest.raises(ValueError):
            RunSpec(rho0_min=1.1, rho0_max=2.0, points=1).rho0_values()


class TestRunProfile:
    def test_liquid_radius_in_diagnostics(self, tmp_path):
        out = tmp_path / "prof.csv"
        spec = RunSpec(d=3, gamma=1.2, rho0=32.0, out=str(out))
        profile, diag = run_profile(spec)
        assert diag["R"] == pytest.approx(math.sqrt(27 / (32 * math.pi)), rel=1e-6)
        assert diag["max_decay_slack"] <= 1e-9
        assert diag["max_pohozaev_residual"] <= 1e-5
        text = out.read_text()
        assert text.splitlines()[1] == "r,rho,enthalpy,mass"
        assert f"R={diag['R']:.17g}" in text.splitlines()[0]

    def test_gas_flag_records_support_radius(self):
        spec = RunSpec(d=3, gamma=1.5, rho0=0.5, gas=True, rmax=20.0)
        profile, diag = run_profile(spec)
        assert profile.kind == "gas"
        assert diag["gas_radius"] is not None
        assert diag["R"] is None

    def test_liquid_without_truncation_rejected(self):
        with pytest.raises(ValueError, match="no liquid truncation"):
            run_profile(RunSpec(d=3, gamma=1.2, rho0=1.0))


class TestRunSweep:
    def test_stable_regime_all_stable(self):
        spec = RunSpec(d=3, gamma=1.5, rho0_min=1.1, rho0_max=1e3, points=8, mesh=512)
        rows = run_sweep(spec)
        assert len(rows) == 8
        assert all(r.verdict == "Stable" for r in rows)
        assert all(r.R > 0 and r.M_total > 0 for r in rows)
        rho0s = [r.rho0 for r in rows]
        assert rho0s == sorted(rho0s)

    def test_two_regime_sweep(self):
        spec = RunSpec(d=3, gamma=1.25, rho0_min=1.01, rho0_max=1e6, points=10, mesh=512)
        rows = run_sweep(spec)
        assert rows[0].verdict == "Stable"
        assert rows[-1].verdict == "Unstable"

    def test_rows_match_scaling_law(self):
        # every R in the sweep (read off the line's run at its top) against
        # the self-similar rescaling of one base gas star below the line
        base = steady.gas_read(StarConfig(3, 1.1, 1.0), r_max=1e3)
        spec = RunSpec(d=3, gamma=1.1, rho0_min=1e2, rho0_max=1e6, points=5, mesh=512)
        rows = run_sweep(spec)
        for row in rows:
            law = base.read(row.rho0).liquid_radius
            assert row.R == pytest.approx(law, rel=1e-5)

    def test_row_errors_isolated(self, monkeypatch):
        calls = {"n": 0}
        real = harness.certified_search

        def flaky(op, tol_eig=1e-8, guess=None):
            calls["n"] += 1
            if calls["n"] == 2:  # the middle row, from the top down too
                raise RuntimeError("synthetic failure")
            return real(op, tol_eig, guess)

        monkeypatch.setattr(harness, "certified_search", flaky)
        spec = RunSpec(d=3, gamma=1.5, rho0_min=2.0, rho0_max=8.0, points=3, mesh=256)
        rows = run_sweep(spec)
        assert [r.verdict for r in rows] == ["Stable", "Error", "Stable"]
        assert math.isnan(rows[1].mu_star)
        assert [r.reason for r in rows] == ["", "RuntimeError: synthetic failure", ""]
        assert (rows[1].inertia_counts, rows[1].solves) == (0, 0)

    def test_programming_errors_propagate(self, monkeypatch):
        def broken(op, tol_eig=1e-8, guess=None):
            raise TypeError("synthetic programming error")

        monkeypatch.setattr(harness, "certified_search", broken)
        spec = RunSpec(d=3, gamma=1.5, rho0_min=2.0, rho0_max=8.0, points=3, mesh=256)
        with pytest.raises(TypeError, match="synthetic"):
            run_sweep(spec)

    def test_rejects_sub_unit_densities(self):
        with pytest.raises(ValueError):
            run_sweep(RunSpec(d=3, gamma=1.5, rho0_min=0.5, rho0_max=2.0, points=3))

    def test_csv_format_and_determinism(self):
        spec = RunSpec(d=3, gamma=1.5, rho0_min=1.5, rho0_max=15.0, points=3, mesh=256)
        rows = run_sweep(spec)
        a, b = io.StringIO(), io.StringIO()
        write_sweep_csv(rows, a)
        write_sweep_csv(run_sweep(spec), b)
        assert a.getvalue() == b.getvalue()
        lines = a.getvalue().splitlines()
        assert lines[0] == "rho0,R,M,mu_star,verdict"
        assert len(lines) == 4

    def test_rows_carry_the_eigensolver_evidence(self, monkeypatch):
        results = []
        real_solve = harness.certified_search

        def recorded(*args, **kwargs):
            results.insert(0, real_solve(*args, **kwargs))  # the rows are certified from the top down
            return results[0]

        monkeypatch.setattr(harness, "certified_search", recorded)
        rows = run_sweep(RunSpec(d=3, gamma=1.25, rho0_min=2.0, rho0_max=1e4, points=3, mesh=512))
        assert [(r.inertia_counts, r.solves) for r in rows] == [
            (res.inertia_counts, res.solves) for res in results]
        assert all(r.inertia_counts > 0 and r.solves > 0 for r in rows)

    def test_sweep_single_consistency(self):
        spec = RunSpec(d=3, gamma=1.4, rho0_min=2.0, rho0_max=50.0, points=3, mesh=512)
        rows = run_sweep(spec)
        for row in rows:
            again = own_row(3, 1.4, row.rho0, mesh=512)
            assert again.R == pytest.approx(row.R, rel=1e-10)
            assert again.M_total == pytest.approx(row.M_total, rel=1e-10)
            assert again.mu_star == pytest.approx(row.mu_star, rel=1e-10)

    def test_turning_point_observation(self):
        # the sign change lies where the mass-radius curve folds; recorded as
        # data, asserted only as existence of the sign change
        spec = RunSpec(d=3, gamma=1.25, rho0_min=2.0, rho0_max=1e4, points=16, mesh=512)
        rows = run_sweep(spec)
        signs = [1 if r.mu_star > 0 else -1 for r in rows]
        assert 1 in signs and -1 in signs
        masses = np.array([r.M_total for r in rows])
        extrema = [
            i
            for i in range(1, len(rows) - 1)
            if (masses[i] - masses[i - 1]) * (masses[i + 1] - masses[i]) < 0
        ]
        flip = next(i for i in range(len(signs) - 1) if signs[i] != signs[i + 1])
        print(f"mass extrema at indices {extrema}, sign change between {flip} and {flip+1}")


ROW_ERRORS = (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError)


def reference_sweep(spec):
    """The per-row sweep: every star integrated on its own (own_row)."""
    rows = []
    for rho0 in spec.rho0_values().tolist():
        try:
            rows.append(own_row(spec.d, spec.gamma, rho0, mesh=spec.mesh, tol=spec.tol,
                                tol_eig=spec.tol_eig, rmax=spec.rmax))
        except ROW_ERRORS as exc:
            rows.append(SweepRow(rho0, math.nan, math.nan, math.nan, "Error",
                                 f"{type(exc).__name__}: {exc}"))
    return rows


# the nine lines of the benchmark's seed-0 sweep, then the extremes of the domain
LINES = [(d, g, {}, 0) for d, g in SEED0_LINES] + [
    (3, 1.0, {}, 0),
    (3, 1.001, {}, 0),
    (7, 1.01, {}, 0),
    (30, 1.9, {}, 0),
    (3, 2.0, {}, 0),
    (4, 1.3, dict(rho0_max=1e15), 0),
    (3, 1.25, dict(rho0_min=1 + 1e-9), 1),  # its level lies inside the top star's seed
    (3, 1.0, dict(rmax=0.3), 7),  # R > rmax above the first row, the top star's too
]


class TestLineFamily:
    """run_sweep's one integration per line against one integration per star."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Counts of DOP853 runs and of rows whose star fell back to its own line."""
        counts = {"solves": 0, "fallbacks": 0}
        real_solve, real_star = dop853.solve, harness.liquid_read

        def solve(*args, **kwargs):
            counts["solves"] += 1
            return real_solve(*args, **kwargs)

        def integrate(*args, **kwargs):
            counts["fallbacks"] += 1
            return real_star(*args, **kwargs)

        monkeypatch.setattr(dop853, "solve", solve)
        monkeypatch.setattr(harness, "liquid_read", integrate)
        return counts

    @pytest.mark.parametrize("d,gamma,extra,fallbacks", LINES, ids=[str(c) for c in LINES])
    def test_rows_match_per_row_integration(self, counted, d, gamma, extra, fallbacks):
        line = dict(rho0_min=1.01, rho0_max=1e6, points=8, mesh=2048)
        spec = RunSpec(d=d, gamma=gamma, **{**line, **extra})
        rows = run_sweep(spec)
        assert counted["fallbacks"] == fallbacks
        assert counted["solves"] == 1 + fallbacks
        refs = reference_sweep(spec)
        assert [(r.rho0, r.verdict, r.reason) for r in rows] == [
            (r.rho0, r.verdict, r.reason) for r in refs
        ]
        assert repr(rows[-1]) == repr(refs[-1])  # the top star: bit for bit
        for row, ref in zip(rows, refs):
            if ref.verdict == "Error":
                continue
            assert row.R == pytest.approx(ref.R, rel=1e-9, abs=0)
            assert row.M_total == pytest.approx(ref.M_total, rel=1e-9, abs=0)
            assert row.mu_star == pytest.approx(ref.mu_star, rel=1e-8, abs=0)

    def test_failed_line_falls_back_row_by_row(self, counted, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("synthetic line failure")

        monkeypatch.setattr(harness, "integrate_line", broken)
        spec = RunSpec(d=3, gamma=1.25, rho0_min=1.01, rho0_max=1e6, points=4, mesh=512)
        rows = run_sweep(spec)
        assert counted["fallbacks"] == counted["solves"] == 4
        assert repr(rows) == repr(reference_sweep(spec))

    def test_line_integration_error_keeps_each_rows_reason(self, counted):
        spec = RunSpec(d=3, gamma=1.25, rho0_min=2.0, rho0_max=8.0, points=3, mesh=256, tol=-1.0)
        rows = run_sweep(spec)
        assert counted["fallbacks"] == 3 and counted["solves"] == 0
        assert [r.verdict for r in rows] == ["Error"] * 3
        assert repr(rows) == repr(reference_sweep(spec))
        assert rows[0].reason == "ValueError: tol must be positive, got -1.0"

    def test_one_profile_alive_at_a_time(self, monkeypatch):
        # a row the line cannot serve holds a run of its own (about 217 MiB
        # at gamma -> 1+): each is classified and freed before the next is
        # integrated, and none is alive when the batches are assembled.  The
        # stars of a batch hold no run of their own: they share the line's.
        own, lines, batches = [], [], []
        real_read, real_line, real_assemble = harness.liquid_read, harness.integrate_line, harness.assemble_stars

        def read(*args, **kwargs):
            assert all(ref() is None for ref in own)
            star = real_read(*args, **kwargs)
            own.append(weakref.ref(star.sol))
            return star

        def line(*args, **kwargs):
            lines.append(real_line(*args, **kwargs))
            return lines[-1]

        def broken(*args, **kwargs):
            raise RuntimeError("synthetic line failure")

        def assembled(stars, mesh):
            assert all(ref() is None for ref in own)
            batches.append({id(star.sol) for star in stars} | {len(stars)})
            return real_assemble(stars, mesh)

        monkeypatch.setattr(harness, "liquid_read", read)
        monkeypatch.setattr(harness, "assemble_stars", assembled)
        monkeypatch.setattr(harness, "integrate_line", broken)
        spec = RunSpec(d=4, gamma=1.4, rho0_min=1.5, rho0_max=1e4, points=5, mesh=256)
        assert all(row.verdict != "Error" for row in run_sweep(spec))
        assert len(own) == 5 and batches == []  # every row off its own line
        monkeypatch.setattr(harness, "integrate_line", line)
        run_sweep(RunSpec(d=3, gamma=1.25, rho0_min=1 + 1e-9, rho0_max=1e6, points=8, mesh=256))
        assert len(own) == 6 and batches == [{id(lines[0].sol), 7}]  # 1 own, 7 in one batch


def seeded_rows(line, rho0s, mesh, tol_eig=1e-8):
    """The rows of the stars line.read serves, one pencil at a time, each with the guess run_sweep gives it.

    From the top down: the largest star's certified search has no guess,
    each one below it the row above's mu* times rho0 / rho0_above.
    """
    rows, above = {}, None
    for rho0 in sorted(rho0s, reverse=True):
        star = line.read(rho0)
        guess = None if above is None else above.mu_star * (rho0 / above.rho0)
        op = spectral.assemble(spectral.build_sl_data(star), mesh)
        rows[rho0] = above = harness._certified_row(star, op, tol_eig, guess)
    return [rows[rho0] for rho0 in rho0s]


class TestRunReadRows:
    """A scan row is the certified search on its star's own pencil read off the run, from its neighbour's guess."""

    @pytest.mark.parametrize("d,gamma", SEED0_LINES, ids=str)
    def test_row_matches_its_sampled_profile(self, d, gamma):
        # the row is certified_search's on the same star's pencil, with the
        # same guess (none on the top row), bit for bit; its verdict is
        # classify_stability's and its bracket meets that search's; R is
        # its samples' last radius and M the mass there
        rows = run_sweep(RunSpec(d=d, gamma=gamma, rho0_min=1.01, rho0_max=1e6, points=8, mesh=2048))
        line = steady.integrate_line(StarConfig(d, gamma, 1e6))
        above = None
        for row in reversed(rows):
            star = line.read(row.rho0)
            profile = star.profile()
            op = spectral.assemble(spectral.build_sl_data(star), 2048)
            guess = None if above is None else above.mu_star * (row.rho0 / above.rho0)
            seeded = spectral.certified_search(op, guess=guess)
            result = spectral.classify_stability(star, mesh_size=2048)
            assert row.R == profile.liquid_radius == profile.radii[-1]
            assert row.verdict == (harness.MARGINAL if seeded.marginal else seeded.verdict)
            assert (seeded.verdict, seeded.marginal) == (result.verdict, result.marginal)
            assert row.mu_star.hex() == seeded.mu_star.hex()
            assert (row.inertia_counts, row.solves) == (seeded.inertia_counts, seeded.solves)
            assert max(seeded.bracket[0], result.bracket[0]) < min(seeded.bracket[1], result.bracket[1])
            if above is None:
                assert row.mu_star.hex() == result.mu_star.hex()
            assert row.M_total.hex() == profile.total_mass.hex() == profile.mass[-1].hex()
            above = row


    @pytest.mark.parametrize("points,mesh,sizes", [(10, 2048, [4, 4, 2]), (3, 8192, [1, 1, 1]), (8, 256, [8])])
    def test_rows_batched_under_one_mesh_8192_pencil(self, monkeypatch, points, mesh, sizes):
        # a batch holds at most 3 * 8192 Gauss points, and each row is bit
        # for bit the row of its star's own pencil with the same guess
        batches, real = [], harness.assemble_stars

        def recorded(stars, at_mesh):
            batches.append(len(stars))
            return real(stars, at_mesh)

        monkeypatch.setattr(harness, "assemble_stars", recorded)
        spec = RunSpec(d=4, gamma=1.447, rho0_min=1.01, rho0_max=1e6, points=points, mesh=mesh)
        rows = run_sweep(spec)
        assert batches == sizes
        line = steady.integrate_line(StarConfig(4, 1.447, 1e6))
        assert repr(rows) == repr(seeded_rows(line, [row.rho0 for row in rows], mesh))

    def test_seed0_lines_keep_their_count_budget(self):
        # the three seed-0 lines test_cli prints at mesh 512 took 149 inertia
        # counts from their neighbours' guesses (51, 52 and 46), against 217
        # at the parent, which had no guess: the budget of 160 leaves 7%
        # headroom, so a guess that stops holding fails here
        lines = [(3, 1.034), (4, 1.447), (5, 1.73)]
        counts = sum(row.inertia_counts for d, g in lines for row in run_sweep(
            RunSpec(d=d, gamma=g, rho0_min=1.01, rho0_max=1e6, points=8, mesh=512)))
        assert counts <= 160


class TestCriticalDensity:
    def test_single_sign_change_on_log_scan(self):
        # recorded empirical observation: exactly one sign flip of mu* along
        # 64 log-spaced densities spanning both stability regimes
        spec = RunSpec(d=3, gamma=1.25, rho0_min=1.01, rho0_max=1e6, points=64, mesh=512)
        rows = run_sweep(spec)
        signs = [1 if r.mu_star > 0 else -1 for r in rows]
        changes = sum(1 for a, b in zip(signs[:-1], signs[1:]) if a != b)
        assert changes == 1

    def test_bisection_certifies_sign_change(self):
        res = critical_density(3, 1.25, (40.0, 60.0), tol_rho=1e-2, mesh=512)
        assert 40.0 < res.rho0_crit < 60.0
        assert res.mu_lo > 0 > res.mu_hi
        lo, hi = res.bracket
        assert (hi - lo) / res.rho0_crit <= 1e-2

    def test_log_width_halves(self):
        res = critical_density(3, 1.25, (40.0, 60.0), tol_rho=1e-2, mesh=512)
        widths = [math.log(h / l) for l, h in res.history]
        for a, b in zip(widths[:-1], widths[1:]):
            assert b == pytest.approx(0.5 * a, rel=1e-9)

    def test_stable_regime_rejected(self):
        with pytest.raises(ValueError, match="stable regime"):
            critical_density(3, 1.4, (2.0, 100.0))

    def test_same_sign_bracket_rejected(self):
        with pytest.raises(ValueError, match="same-sign"):
            critical_density(3, 1.25, (2.0, 10.0), mesh=256)

    @pytest.mark.parametrize("tol_rho", [math.nan, 0.0, -1.0, math.inf])
    def test_bad_tol_rho_rejected(self, tol_rho):
        with pytest.raises(ValueError, match="tol_rho must be positive and finite"):
            critical_density(3, 1.25, (1.01, 1e6), tol_rho=tol_rho, mesh=256)


def reference_critical_density(d, gamma, bracket, tol_rho, mesh):
    """The bisection with own_row's certified search at every step."""
    lo, hi = bracket

    def mu_at(rho0):
        return own_row(d, gamma, rho0, mesh=mesh).mu_star

    mu_lo, mu_hi = mu_at(lo), mu_at(hi)
    history = [(lo, hi)]
    while hi - lo > tol_rho * 0.5 * (hi + lo):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if not (lo < mid < hi):
            break
        if math.copysign(1.0, mu_at(mid)) == math.copysign(1.0, mu_lo):
            lo = mid
        else:
            hi = mid
        history.append((lo, hi))
    return math.exp(0.5 * (math.log(lo) + math.log(hi))), mu_lo, mu_hi, tuple(history)


# (line, mesh): three lines at three meshes (2048 and 4096 are steered by a
# bisection at 512 on 512-sample stars), one more steered mesh, then the
# isothermal floor and a high-dimensional line near gamma = 1 at the small mesh
BITWISE_LINES = [
    (line, mesh) for line in ((3, 1.25), (4, 1.4), (5, 1.3)) for mesh in (2048, 512, 4096)
]
BITWISE_LINES += [((3, 1.25), 1024), ((3, 1.0), 512), ((7, 1.01), 512)]


def too_short(rho0, rmax):
    """The RuntimeError message of a (3, 1.25, rho0) star whose liquid radius exceeds rmax."""
    star = StarConfig(3, 1.25, rho0)
    return f"the liquid radius of {star} lies beyond r_max = {rmax:g} (increase r_max)"


class UnservingLine(steady.RunStar):
    """A line whose run serves no star (read), so that each star comes off its own line."""

    def read(self, rho0):
        return None


BASELINE = json.loads((pathlib.Path(__file__).parent / "data" / "critical_density_baseline.json").read_text())


class TestCriticalDensityCount:
    """Interior stars read off the hi end's run, against the certified search of each own star."""

    @pytest.mark.parametrize("line,mesh", BITWISE_LINES, ids=[f"{l}-{m}" for l, m in BITWISE_LINES])
    def test_matches_full_solve_bitwise(self, line, mesh):
        res = critical_density(*line, (1.01, 1e6), tol_rho=1e-3, mesh=mesh)
        crit, mu_lo, mu_hi, history = reference_critical_density(*line, (1.01, 1e6), 1e-3, mesh)
        assert res.rho0_crit.hex() == crit.hex()
        assert res.history == history
        assert res.mu_lo.hex() == mu_lo.hex()
        assert res.mu_hi.hex() == mu_hi.hex()

    @pytest.fixture
    def counted(self, monkeypatch):
        """The eigensolves, own-line runs and line runs of each call, by density.

        A star off its own line (liquid_read) is the top star of a run of
        steady's integrate_line; critical_density's own line is harness's.
        """
        calls = {"solves": [], "stars": [], "lines": []}
        real_solve = harness.certified_search
        real_own, real_line = steady.integrate_line, harness.integrate_line

        def counted_solve(*args, **kwargs):
            calls["solves"].append(1)
            return real_solve(*args, **kwargs)

        def counted_own(top, *args, **kwargs):
            calls["stars"].append(top.rho_center)
            return real_own(top, *args, **kwargs)

        def counted_line(top, *args, **kwargs):
            calls["lines"].append(top.rho_center)
            return real_line(top, *args, **kwargs)

        monkeypatch.setattr(harness, "certified_search", counted_solve)
        monkeypatch.setattr(steady, "integrate_line", counted_own)
        monkeypatch.setattr(harness, "integrate_line", counted_line)
        return calls

    @staticmethod
    def _serve_no_star(monkeypatch):
        """Make critical_density's line (still counted) an UnservingLine."""
        line = harness.integrate_line
        monkeypatch.setattr(harness, "integrate_line", lambda *a, **k: UnservingLine(**vars(line(*a, **k))))

    def test_full_solve_only_at_the_ends(self, counted):
        for bracket in ((1.01, 1e6), (40.0, 60.0)):
            for calls in counted.values():
                calls.clear()
            res = critical_density(3, 1.25, bracket, tol_rho=1e-3, mesh=512)
            assert len(res.history) - 1 > 5
            assert len(counted["solves"]) == 2
            assert counted["stars"] == [bracket[0]]
            assert counted["lines"] == [bracket[1]]
            assert res.integrations == 2

    def test_unserved_stars_integrate_on_their_own(self, counted, monkeypatch):
        self._serve_no_star(monkeypatch)
        res = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=512)
        iterations = len(res.history) - 1
        mids = [math.exp(0.5 * (math.log(lo) + math.log(hi))) for lo, hi in res.history[:-1]]
        assert counted["stars"] == [1.01, 1e6] + mids
        crit, mu_lo, mu_hi, history = reference_critical_density(3, 1.25, (1.01, 1e6), 1e-3, 512)
        assert res.rho0_crit.hex() == crit.hex()
        assert res.history == history
        assert res.mu_lo.hex() == mu_lo.hex()
        assert res.mu_hi.hex() == mu_hi.hex()
        assert res.integrations == 3 + iterations

    def test_evidence_sums_the_runs(self):
        res = critical_density(3, 1.25, (40.0, 60.0), tol_rho=1e-2, mesh=512)
        lo = steady.liquid_read(StarConfig(3, 1.25, 40.0)).profile()
        line = steady.integrate_line(StarConfig(3, 1.25, 60.0))
        assert res.integrations == 2
        assert res.nfev == lo.nfev + line.sol.nfev
        assert res.steps == lo.steps + line.sol.n_steps
        assert res.nfev > 0 and res.steps > 0

    def test_evidence_counts_the_eigensolver_work(self, monkeypatch):
        # the two ends' certified searches, plus one inertia count per bisection step
        results = []
        real_solve = harness.certified_search

        def recorded(*args, **kwargs):
            results.append(real_solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "certified_search", recorded)
        res = critical_density(3, 1.25, (40.0, 60.0), tol_rho=1e-2, mesh=512)
        assert len(results) == 2 and len(res.history) > 2
        assert res.inertia_counts == sum(r.inertia_counts for r in results) + len(res.history) - 1
        assert res.solves == sum(r.solves for r in results)

    @staticmethod
    def _interior_star_beyond_rmax_fails(counted, mesh):
        # both ends have R < 0.08; a star inside the bracket has R > 0.3
        with pytest.raises(RuntimeError) as info:
            critical_density(3, 1.25, (1.01, 1e6), mesh=mesh, rmax=0.3)
        assert counted["lines"] == [1e6]
        assert counted["stars"][0] == 1.01 and len(counted["stars"]) == 2
        assert str(info.value) == too_short(counted["stars"][1], 0.3)

    def test_interior_star_beyond_rmax_fails_in_its_own_integration(self, counted):
        self._interior_star_beyond_rmax_fails(counted, 512)

    def test_interior_star_beyond_rmax_fails_in_the_steering_bisection(self, counted):
        # above mesh 512 the failing star is first built for a count at 512
        self._interior_star_beyond_rmax_fails(counted, 4096)

    def test_lo_end_beyond_rmax_fails_first(self, counted):
        with pytest.raises(RuntimeError) as info:
            critical_density(3, 1.25, (1.01, 1e6), mesh=512, rmax=0.01)
        assert str(info.value) == too_short(1.01, 0.01)
        assert counted["stars"] == [1.01]
        assert counted["lines"] == []

    @pytest.fixture
    def meshes(self, monkeypatch):
        """The mesh of every inertia count critical_density takes, in order."""
        calls = []
        real = harness.stable_at_zero

        def recorded(op):
            calls.append(len(op.nodes) - 1)
            return real(op)

        monkeypatch.setattr(harness, "stable_at_zero", recorded)
        return calls

    @pytest.mark.parametrize("mesh", [512, 2048])
    def test_every_midpoint_counted_at_mesh(self, meshes, monkeypatch, mesh):
        # at mesh <= _STEER_MESH nothing steers; the 2048 case raises the
        # guide mesh to 2048, so its midpoints are counted on 2048-point stars
        monkeypatch.setattr(harness, "_STEER_MESH", max(harness._STEER_MESH, mesh))
        res = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=mesh)
        assert meshes == [mesh] * (len(res.history) - 1)

    @pytest.mark.parametrize("mesh", [2048, 4096])
    @pytest.mark.parametrize("line", [(3, 1.25), (4, 1.4)])
    def test_steered_run_counts_the_final_bracket_at_mesh(self, meshes, monkeypatch, line, mesh):
        # the bisection at 512 counts every midpoint; at mesh only its final
        # bracket's two ends are counted, each star built again off the line.
        # The evidence holds the ends' certified searches and the counts at both meshes
        results = []
        real_solve = harness.certified_search

        def recorded(*args, **kwargs):
            results.append(real_solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(harness, "certified_search", recorded)
        res = critical_density(*line, (1.01, 1e6), tol_rho=1e-3, mesh=mesh)
        iterations = len(res.history) - 1
        assert meshes == [512] * iterations + [mesh] * 2
        assert res.integrations == 2 and len(results) == 2
        assert res.inertia_counts == sum(r.inertia_counts for r in results) + iterations + 2
        assert res.solves == sum(r.solves for r in results)

    @pytest.mark.parametrize("mesh", [2048, 4096])
    def test_steered_run_samples_no_profile(self, counted, monkeypatch, mesh):
        # every pencil reads its star straight off the run (RunStar.read):
        # the hi end's certified search, the guide's midpoints at 512 and the final
        # bracket's two counts at mesh; lo's is its own line's (liquid_read)
        reads, profiles = [], []
        line, sampled = harness.integrate_line, steady.RunStar.profile

        class ServingLine(steady.RunStar):
            def read(self, rho0):
                reads.append(rho0)
                return super().read(rho0)

        def sampled_profile(star, *args):
            profiles.append(star.config.rho_center)
            return sampled(star, *args)

        monkeypatch.setattr(harness, "integrate_line", lambda *a, **k: ServingLine(**vars(line(*a, **k))))
        monkeypatch.setattr(steady.RunStar, "profile", sampled_profile)
        res = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=mesh)
        final = list(res.history[-1])
        mids = [math.exp(0.5 * (math.log(lo) + math.log(hi))) for lo, hi in res.history[:-1]]
        assert counted["stars"] == [1.01] and counted["lines"] == [1e6]
        assert profiles == []
        assert reads == [1e6] + mids + final and len(mids) == 14
        assert res.integrations == 2

    def test_run_read_guide_takes_the_sampled_stars_sides(self):
        # at mesh 512 each of the pinned line's guide midpoints falls on the
        # same side on the pencil read off the line's run as on the star's
        # own run (the test keeps the name of the 512-sample star it once
        # compared with)
        line = steady.integrate_line(StarConfig(3, 1.25, 1e6))

        def stable(star):
            return spectral.stable_at_zero(spectral.assemble(spectral.build_sl_data(star), 512))

        sides = []

        def on_lo_side(rho0):
            sides.append((stable(line.read(rho0)), stable(steady.liquid_read(StarConfig(3, 1.25, rho0)))))
            return sides[-1][0]  # mu*(1.01) > 0: lo's side is the stable one

        history = harness._bisect(1.01, 1e6, 1e-3, on_lo_side)
        assert len(sides) == len(history) - 1 == 14
        assert all(read == sampled for read, sampled in sides)
        assert {read for read, _ in sides} == {True, False}

    def test_own_integrations_counted_per_build(self, counted, meshes, monkeypatch):
        # with no star served by the line, each count reads its star off its
        # own line's run, and the final bracket's two are integrated twice;
        # no star is sampled
        profiles, sampled = [], steady.RunStar.profile

        def sampled_profile(star, *args):
            profiles.append(star.config.rho_center)
            return sampled(star, *args)

        monkeypatch.setattr(steady.RunStar, "profile", sampled_profile)
        self._serve_no_star(monkeypatch)
        res = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=4096)
        iterations = len(res.history) - 1
        mids = [math.exp(0.5 * (math.log(lo) + math.log(hi))) for lo, hi in res.history[:-1]]
        assert counted["stars"] == [1.01, 1e6] + mids + list(res.history[-1])
        assert profiles == []
        assert res.integrations == 3 + iterations + 2 == len(counted["stars"]) + 1
        crit, mu_lo, mu_hi, history = reference_critical_density(3, 1.25, (1.01, 1e6), 1e-3, 4096)
        assert res.rho0_crit.hex() == crit.hex() and res.history == history

    @pytest.mark.parametrize("lie", ["always-lo-side", "last-flipped"])
    def test_wrong_guide_still_bisects_at_mesh(self, monkeypatch, lie):
        # the counts at 512 lie; the counts at mesh settle every midpoint the
        # lie leaves undecided, so the result is the plain bisection's
        crit, mu_lo, mu_hi, history = reference_critical_density(3, 1.25, (1.01, 1e6), 1e-3, 4096)
        iterations = len(history) - 1
        real = harness.stable_at_zero
        at_mesh = []

        def lying(op):
            mesh = len(op.nodes) - 1
            if mesh != harness._STEER_MESH:
                at_mesh.append(mesh)
                return real(op)
            if lie == "always-lo-side":
                return True  # mu*(1.01) > 0: lo's side is the stable one
            lying.guide += 1
            return real(op) != (lying.guide == iterations)

        lying.guide = 0
        monkeypatch.setattr(harness, "stable_at_zero", lying)
        res = critical_density(3, 1.25, (1.01, 1e6), tol_rho=1e-3, mesh=4096)
        assert res.rho0_crit.hex() == crit.hex()
        assert res.history == history
        assert res.mu_lo.hex() == mu_lo.hex() and res.mu_hi.hex() == mu_hi.hex()
        assert len(at_mesh) > 2 and set(at_mesh) == {4096}

    @pytest.mark.parametrize("mesh", [2048, 8192])
    def test_pinned_rho0_crit_exact(self, mesh):
        res = critical_density(
            BASELINE["d"], BASELINE["gamma"], (BASELINE["bracket_lo"], BASELINE["bracket_hi"]),
            tol_rho=BASELINE["tol_rho"], mesh=mesh,
        )
        assert res.rho0_crit == BASELINE["rho0_crit"]


class TestVerifySuite:
    def test_single_suite(self):
        report = verify_suite("fixed-point")
        assert report["passed"] is True
        assert len(report["checks"]) == 1
        assert report["checks"][0]["name"] == "fixed-point"

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify_suite("bogus")

    def test_explicit_compares_the_mass(self, monkeypatch):
        # the profile's m(r) is held to the closed form's: one off by 1e-5
        # fails the check, whose density and radius agree to 1e-9
        mass_at = steady.ClosedFormStar.mass_at
        monkeypatch.setattr(steady.ClosedFormStar, "mass_at", lambda star, r: (1.0 + 1e-5) * mass_at(star, r))
        check = verify_suite("explicit")["checks"][0]
        assert not check["passed"] and check["measure"] == pytest.approx(1e-5, rel=1e-3)

    def test_all_reports_every_check_in_order(self, full_report):
        assert [c["name"] for c in full_report["checks"]] == [
            "explicit", "pohozaev", "decay", "buchdahl", "singular",
            "fixed-point", "tail", "radius-limit", "q-symmetry", "strongform",
        ]


BATTERY_CHECKS = ("pohozaev", "decay", "buchdahl")
# the battery's (d, gamma) families, one run each, in order
BATTERY_FAMILIES = list(dict.fromkeys(star[:2] for star in harness.PROFILE_BATTERY))


def _recorded(build, calls, config, *args, **kwargs):
    calls.append(config)
    return build(config, *args, **kwargs)


@pytest.fixture(scope="module")
def full_report():
    return verify_suite("all")


class TestVerifyBattery:
    @pytest.fixture
    def integrations(self, monkeypatch):
        """The star of every gas and liquid integration verify makes."""
        calls = []
        for name in ("gas_read", "liquid_read"):
            monkeypatch.setattr(harness, name, functools.partial(_recorded, getattr(harness, name), calls))
        return calls

    def test_one_integration_per_star(self, integrations):
        verify_suite("all")
        # explicit 2, battery 12, tail 2, radius-limit 1 liquid star (it
        # reads the tail's (3, 1.1, 1) star too), strongform 1 liquid star
        # (q-symmetry checks a polynomial pencil and integrates no star)
        assert len(integrations) == 18

    @pytest.mark.parametrize("name", ["tail", "radius-limit"])
    def test_far_star_integrated_once_per_call(self, integrations, name):
        for _ in range(2):  # no cache outlives a call
            integrations.clear()
            verify_suite(name)
            assert [(c.d, c.gamma, c.rho_center) for c in integrations].count((3, 1.1, 1.0)) == 1

    @pytest.mark.parametrize("name", BATTERY_CHECKS)
    def test_single_check_integrates_battery_once_per_call(self, integrations, name):
        for _ in range(2):  # no cache outlives a call
            integrations.clear()
            verify_suite(name)
            assert integrations == [StarConfig(d, g, 1.0) for d, g in BATTERY_FAMILIES]

    def test_members_match_their_own_runs(self, monkeypatch):
        # each battery star, read off its family's rho0 = 1 run as a member
        # on [0, 20] (the rho0 = 10 star by the rescaling law), agrees with
        # its own gas_read to r = 20 within the battery's tol: liquid radius,
        # mass, and the compact surface where the family has one
        runs = []

        def kept(config, *args, **kwargs):
            runs.append(steady.gas_read(config, *args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(harness, "gas_read", kept)
        harness._battery_stars()
        family_runs = {(run.config.d, run.config.gamma): run for run in runs}
        assert list(family_runs) == BATTERY_FAMILIES and len(runs) == len(BATTERY_FAMILIES)
        tol = harness._BATTERY_TOL
        for d, g, rho0 in harness.PROFILE_BATTERY:
            star = family_runs[d, g].member(rho0, 20.0)
            own = steady.gas_read(StarConfig(d, g, rho0), tol=tol, r_max=20.0)
            assert star.config == own.config
            assert (own.liquid is not None) == (rho0 > 1.0)
            assert (own.gas is not None) == (g > support_threshold(d))
            for name in ("liquid_radius", "total_mass", "gas_radius"):
                got, want = getattr(star, name), getattr(own, name)
                assert (got is None) == (want is None), name
                if want is not None:
                    assert abs(got - want) <= tol * abs(want), (d, g, rho0, name)

    def test_pohozaev_reads_within_budget(self, monkeypatch):
        # the identity's integrand is read once per segment of each battery
        # star, at its 10 Gauss points, not again for every sample: 13,150
        # radii; the budget leaves 6.5% headroom, and a 5-point rule per
        # sample reads about 252,000
        read, radii = steady.RunStar.enthalpy_at, []

        def counting(star, r):
            radii.append(np.size(r))
            return read(star, r)

        monkeypatch.setattr(steady.RunStar, "enthalpy_at", counting)
        assert verify_suite("pohozaev")["passed"]
        assert 0 < sum(radii) <= 14_000

    @pytest.mark.parametrize("name", BATTERY_CHECKS)
    def test_single_check_matches_full_suite(self, full_report, name):
        single = verify_suite(name)["checks"]
        assert single == [c for c in full_report["checks"] if c["name"] == name]
