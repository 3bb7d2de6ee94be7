import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import lanemden
import lanemden.cli as cli
import lanemden.harness as harness
import lanemden.spectral as spectral
import lanemden.steady as steady


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestProfileCommand:
    def test_writes_csv_with_metadata(self, tmp_path, capsys):
        out = tmp_path / "star.csv"
        code, _, err = run_cli(
            capsys, "profile", "--d", "3", "--gamma", "1.2", "--rho0", "32", "--out", str(out)
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "r,rho,enthalpy,mass"
        diag = json.loads(err)
        assert diag["R"] == pytest.approx(math.sqrt(27 / (32 * math.pi)), rel=1e-6)

    def test_csv_to_stdout(self, capsys):
        code, outtext, err = run_cli(capsys, "profile", "--d", "3", "--gamma", "1.2", "--rho0", "32")
        assert code == 0
        assert outtext.splitlines()[1] == "r,rho,enthalpy,mass"

    def test_gas_profile(self, capsys):
        code, _, err = run_cli(
            capsys, "profile", "--d", "3", "--gamma", "1.5", "--rho0", "0.5", "--gas", "--rmax", "20"
        )
        assert code == 0
        assert json.loads(err)["gas_radius"] is not None

    def test_compact_gas_surface(self, capsys):
        code, outtext, err = run_cli(
            capsys, "profile", "--d", "3", "--gamma", "1.3", "--rho0", "0.5", "--gas", "--rmax", "20"
        )
        assert code == 0
        diag = json.loads(err)
        last = outtext.splitlines()[-1].split(",")
        assert float(last[0]) == diag["gas_radius"] and float(last[1]) == 0.0

    def test_json_format(self, capsys):
        code, outtext, _ = run_cli(
            capsys, "profile", "--d", "3", "--gamma", "1.2", "--rho0", "32", "--format", "json"
        )
        assert code == 0
        payload = json.loads(outtext)
        assert set(payload) == {"diagnostics", "profile"}
        assert payload["profile"]["r"][0] == 0.0

    def test_integrator_counts_in_diagnostics(self, capsys):
        # the run's RHS evaluations and accepted steps go to stderr next to
        # the CSV, and read the same on every run
        argv = ("profile", "--d", "3", "--gamma", "1.2", "--rho0", "32")
        code, out1, err1 = run_cli(capsys, *argv)
        _, out2, err2 = run_cli(capsys, *argv)
        assert code == 0 and (out1, err1) == (out2, err2)
        diag = json.loads(err1)
        for key in ("nfev", "steps"):
            assert isinstance(diag[key], int) and diag[key] > 0
        assert diag["nfev"] >= 15 * diag["steps"] + 2
        _, outtext, _ = run_cli(capsys, *argv, "--format", "json")
        assert json.loads(outtext)["diagnostics"] == diag

    @staticmethod
    def _strict_json(text):
        """json.loads that rejects NaN and Infinity, which JSON does not have."""
        def reject(name):
            raise ValueError(f"{name} is not JSON")

        return json.loads(text, parse_constant=reject)

    @pytest.mark.parametrize("d", ["3", "12", "30"])
    @pytest.mark.parametrize("gamma", ["1", "1.2", "2"])
    @pytest.mark.parametrize("rho0", ["1.5", "1e60", "1e150"])
    def test_probe_slice_exits_cleanly(self, capsys, d, gamma, rho0):
        # a valid star prints its profile and valid JSON diagnostics, or
        # fails with one line, and raises no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "profile", "--d", d, "--gamma", gamma, "--rho0", rho0)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("numerical failure: "), err
            return
        assert code == 0, err
        residual = self._strict_json(err)["max_pohozaev_residual"]
        assert math.isfinite(residual)
        if d == "30":  # s^(d-1) is integrated exactly against the interpolant, however steep
            assert residual <= 1e-8

    def test_dense_star_residual_stays_finite(self, capsys):
        # at d = 30, gamma = 2 the star of rho0 = 1e150 has R = 7.54; the
        # identity's terms are of order rho0^2 R^30 there, past float64, so
        # the residual forms them with a power of two taken out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "profile", "--d", "30", "--gamma", "2", "--rho0", "1e150")
        assert code == 0, err
        diag = self._strict_json(err)
        assert diag["R"] == pytest.approx(7.54, abs=0.01)
        assert 0.0 < diag["max_pohozaev_residual"] < 1e-8

    def test_usage_error_no_truncation(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--d", "3", "--gamma", "1.2", "--rho0", "1")
        assert code == 1
        assert "no liquid truncation" in err

    def test_usage_error_bad_flag(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--bogus", "1")
        assert code == 1

    def test_usage_error_missing_rho0(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--d", "3", "--gamma", "1.2")
        assert code == 1


# the benchmark's recorded outputs, seed 0; read only
REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text())


class TestScanCommand:
    def test_benchmark_sweep_matches_the_reference(self, capsys):
        # the nine seed-0 lines: each rho0 string and verdict exactly, mu*
        # within the benchmark's tolerance
        assert REFERENCE["seed"] == 0 and len(REFERENCE["workloads"]["sweep"]) == 9
        for ref in REFERENCE["workloads"]["sweep"]:
            code, outtext, _ = run_cli(capsys, *ref["argv"])
            assert code == 0, ref["argv"]
            header, *body = [line.split(",") for line in outtext.splitlines()]
            assert header == ["rho0", "R", "M", "mu_star", "verdict"]
            assert [(row[0], row[4]) for row in body] == [(rho0, verdict) for rho0, _, verdict in ref["rows"]]
            for row, (_, mu, _) in zip(body, ref["rows"]):
                assert abs(float(row[3]) - mu) <= REFERENCE["mu_rtol"] * abs(mu) + REFERENCE["mu_atol"], ref["argv"]

    def test_csv_header_and_determinism(self, tmp_path, capsys):
        args = (
            "scan", "--d", "3", "--gamma", "1.5", "--rho0-min", "1.5",
            "--rho0-max", "15", "--points", "3", "--mesh", "256",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == 0
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        assert out1.splitlines()[0] == "rho0,R,M,mu_star,verdict"
        assert all(line.endswith("Stable") for line in out1.splitlines()[1:])

    def test_json_format(self, capsys):
        code, outtext, _ = run_cli(
            capsys, "scan", "--d", "3", "--gamma", "1.5", "--rho0-min", "1.5",
            "--rho0-max", "15", "--points", "2", "--mesh", "256", "--format", "json",
        )
        assert code == 0
        rows = json.loads(outtext)["rows"]
        assert len(rows) == 2
        assert rows[0]["verdict"] == "Stable"

    @pytest.mark.parametrize("d,gamma,digest", [
        ("3", "1.034", "aa110f931b2a7cb26ec48dfcfc458de725b14a4447c6f059c2bb05b629a43b55"),
        ("4", "1.447", "2aa3eb278202de68d4a36ba8652ec6de0a8c17fcd72044d902a6766dd70063a0"),
        ("5", "1.730", "3d76f648d6d2ca3175a30dd93cba3141a850d05d33f7b5f24c0b386fa6ff1d7c"),
    ])
    def test_seed0_lines_print_their_recorded_bytes(self, capsys, d, gamma, digest):
        # three lines of the benchmark's seed-0 sweep at mesh 512, one batch
        # each: the sha256 of stdout as the rows were printed one pencil at
        # a time (spectral.assemble), each certified from the top down with
        # the guess of the row above (certified_search's guess), so any bit
        # the batched read or assembly moves fails here
        code, outtext, err = run_cli(capsys, "scan", "--d", d, "--gamma", gamma, "--rho0-min", "1.01",
                                     "--rho0-max", "1e6", "--points", "8", "--mesh", "512")
        assert code == 0 and err == ""
        assert hashlib.sha256(outtext.encode()).hexdigest() == digest

    def test_overflowing_rows_fail_alone_in_their_batch(self, capsys):
        # one batch of three rows: the star at 1e140 is Stable with the bits
        # it had on its own pencil, and the two whose pencils overflow fail
        # each with stability's full reason
        code, outtext, err = run_cli(capsys, "scan", "--d", "30", "--gamma", "2", "--rho0-min", "1e140",
                                     "--rho0-max", "1e150", "--points", "3", "--mesh", "256")
        assert code == 0
        header, stable, *failed = outtext.splitlines()
        assert stable == ("1.0000000000000001e+140,7.5400082830220461,4.0531083876039206e+162,"
                          "2.9882644902805972e+137,Stable")
        row = harness.run_sweep(harness.RunSpec(d=30, gamma=2.0, rho0_min=1e140, rho0_max=1e150, points=3,
                                                mesh=256))[0]
        assert (row.R.hex(), row.M_total.hex(), row.mu_star.hex()) == (
            "0x1.e28f7ee6c985fp+2", "0x1.204a669c09a59p+540", "0x1.9b21b7dfc3253p+456")
        assert [line.split(",")[1:] for line in failed] == [["nan", "nan", "nan", "Error"]] * 2
        rho0s = [line.split(",")[0] for line in failed]
        alone = [run_cli(capsys, "stability", "--d", "30", "--gamma", "2", "--rho0", rho0, "--mesh", "256")
                 for rho0 in ("1e145", "1e150")]
        assert [(code, out) for code, out, _ in alone] == [(2, "")] * 2
        reasons = [own.removeprefix("numerical failure: ") for _, _, own in alone]
        assert all(why.endswith("; K holds infinities (float64 overflow) and NaNs; Mw is finite\n") for why in reasons)
        assert err == "".join(f"scan: rho0={rho0} failed: RuntimeError: {why}" for rho0, why in zip(rho0s, reasons))

    def test_failed_row_reason_on_stderr(self, capsys, monkeypatch):
        real = harness.certified_search
        calls = []

        def flaky(op, tol_eig=1e-8, guess=None):
            calls.append(op)
            if len(calls) == 1:  # the rows run from the top down: rho0 = 8's pencil
                raise RuntimeError("synthetic failure")
            return real(op, tol_eig, guess)

        monkeypatch.setattr(harness, "certified_search", flaky)
        code, outtext, err = run_cli(
            capsys, "scan", "--d", "3", "--gamma", "1.5", "--rho0-min", "2",
            "--rho0-max", "8", "--points", "2", "--mesh", "256",
        )
        assert code == 0
        assert outtext.splitlines()[2] == "8,nan,nan,nan,Error"
        assert err == "scan: rho0=8 failed: RuntimeError: synthetic failure\n"


class TestStabilityCommand:
    def test_json_result_and_eigenfunction(self, tmp_path, capsys):
        chi = tmp_path / "chi.csv"
        code, outtext, _ = run_cli(
            capsys, "stability", "--d", "3", "--gamma", "1.25", "--rho0", "10000",
            "--mesh", "256", "--chi-out", str(chi),
        )
        assert code == 0
        payload = json.loads(outtext)
        assert payload["verdict"] == "Unstable"
        assert payload["lambda"] == pytest.approx(math.sqrt(-payload["mu_star"]), rel=1e-12)
        assert chi.read_text().splitlines()[0] == "y,chi"

    def test_numerical_failure_exit_code(self, capsys):
        # r_max too small: the grid never reaches the liquid surface
        code, _, err = run_cli(
            capsys, "stability", "--d", "3", "--gamma", "1.25", "--rho0", "10", "--rmax", "0.01"
        )
        assert code == 2
        assert "numerical failure" in err

    def test_non_finite_pencil_exit_code(self, capsys, monkeypatch):
        # NaN coefficients from a valid star are a numerical failure, not a usage error
        real_build = spectral.build_sl_data

        def nan_coefficients(profile):
            data = real_build(profile)

            def coeffs(y):
                p, q, wgt = data.coeffs(y)
                q[q.size // 2] = math.nan
                return p, q, wgt

            return replace(data, coeffs=coeffs)

        monkeypatch.setattr(spectral, "build_sl_data", nan_coefficients)
        code, outtext, err = run_cli(
            capsys, "stability", "--d", "3", "--gamma", "1.25", "--rho0", "10", "--mesh", "64"
        )
        assert code == 2 and outtext == ""
        assert err.startswith("numerical failure: non-finite pencil entries") and err.count("\n") == 1
        assert err.endswith("; K holds NaNs; Mw is finite; min(q/wgt) holds NaNs\n")

    def test_pencil_overflow_names_its_cause(self, capsys):
        # a valid star (R = 7.54) whose p and q overflow float64 on the mesh:
        # K holds infinities, and their differences NaNs; Mw stays finite
        code, outtext, err = run_cli(
            capsys, "stability", "--d", "30", "--gamma", "2", "--rho0", "1e150", "--mesh", "256"
        )
        assert code == 2 and outtext == ""
        assert err == ("numerical failure: non-finite pencil entries: the coefficients must be finite on [0, R]; "
                       "K holds infinities (float64 overflow) and NaNs; Mw is finite\n")

    def test_star_of_radius_1e_minus_14(self, capsys):
        # R = 9.4e-15: the liquid surface must be rooted to a relative tolerance
        code, outtext, err = run_cli(
            capsys, "stability", "--d", "3", "--gamma", "1.25", "--rho0", "1e40", "--mesh", "64"
        )
        assert code == 0 and err == ""
        assert json.loads(outtext)["verdict"] == "Unstable"

    @pytest.mark.parametrize(
        "d,gamma,rho0", [("7", "1", "1e150"), ("7", "1.2", "1e150"), ("12", "1", "1e60"),
                         ("30", "1", "1e20")]
    )
    def test_seed_radius_underflow_names_its_cause(self, capsys, d, gamma, rho0):
        # the seed radius shrinks as rho0 grows: r0^(d - 1) rounds to 0 here
        code, outtext, err = run_cli(
            capsys, "stability", "--d", d, "--gamma", gamma, "--rho0", rho0, "--mesh", "64"
        )
        assert code == 2 and outtext == ""
        assert err.startswith("numerical failure: the Taylor seed radius ")
        assert f"underflows float64: r^{int(d) - 1} rounds to 0" in err
        assert "division by zero" not in err

    def test_gas_star_rejected(self, capsys):
        code, _, err = run_cli(capsys, "stability", "--d", "3", "--gamma", "1.25", "--rho0", "0.9")
        assert code == 1


class TestCriticalCommand:
    @pytest.mark.parametrize("ref", REFERENCE["workloads"]["transition"], ids=lambda ref: " ".join(ref["argv"][1:5]))
    def test_benchmark_transition_matches_the_reference(self, capsys, ref):
        # rho0_crit and the iteration count exactly, mu* at the bracket ends
        # within the benchmark's tolerance
        assert REFERENCE["seed"] == 0
        code, outtext, _ = run_cli(capsys, *ref["argv"])
        assert code == 0
        payload = json.loads(outtext)
        assert payload["rho0_crit"] == ref["rho0_crit"]
        assert payload["iterations"] == ref["iterations"]
        for key in ("mu_lo", "mu_hi"):
            assert abs(payload[key] - ref[key]) <= REFERENCE["mu_rtol"] * abs(ref[key]) + REFERENCE["mu_atol"]

    def test_bracket_output(self, capsys):
        code, outtext, _ = run_cli(
            capsys, "critical", "--d", "3", "--gamma", "1.25", "--rho0-min", "40",
            "--rho0-max", "60", "--tol-rho", "0.01", "--mesh", "256",
        )
        assert code == 0
        payload = json.loads(outtext)
        assert 40 < payload["rho0_crit"] < 60
        assert payload["mu_lo"] > 0 > payload["mu_hi"]

    def test_stable_regime_exit_one(self, capsys):
        code, _, err = run_cli(capsys, "critical", "--d", "3", "--gamma", "1.5")
        assert code == 1

    @pytest.mark.parametrize("tol_rho", ["nan", "0", "-1", "inf"])
    def test_bad_tol_rho_exit_one(self, capsys, tol_rho):
        code, outtext, err = run_cli(
            capsys, "critical", "--d", "3", "--gamma", "1.25", "--tol-rho", tol_rho
        )
        assert code == 1
        assert outtext == ""
        assert "tol_rho must be positive and finite" in err


class TestVerifyCommand:
    def test_single_suite_passes(self, capsys):
        code, outtext, _ = run_cli(capsys, "verify", "--suite", "fixed-point")
        assert code == 0
        assert json.loads(outtext)["passed"] is True

    def test_unknown_suite(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "nope")
        assert code == 1

    def test_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "verify_suite", lambda selection="all": {"passed": False, "checks": []}
        )
        code, _, _ = run_cli(capsys, "verify")
        assert code == 3


def _libc_has_mallopt():
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _libc_has_mallopt(), reason="libc has no mallopt")
def test_repeated_command_reuses_freed_memory():
    # the second run's large temporaries (the Pohozaev integrand) fit in
    # memory the first run freed: with the heap top trimmed after each
    # command, the second run page-faults it back (about 3500 minor faults)
    code = (
        "import contextlib, io, resource\n"
        "from lanemden import cli\n"
        "def run():\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(['verify', '--suite', 'pohozaev']) == 0\n"
        "run()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         timeout=60, check=True)
    assert int(out.stdout) < 100


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 3, "gamma": 1.2, "rho0": 32.0, "format": "json"}))
        code, outtext, _ = run_cli(capsys, "profile", "--config", str(cfg))
        assert code == 0
        assert json.loads(outtext)["diagnostics"]["rho0"] == 32.0

        code, outtext, _ = run_cli(capsys, "profile", "--config", str(cfg), "--rho0", "8")
        assert code == 0
        payload = json.loads(outtext)
        assert payload["diagnostics"]["rho0"] == 8.0
        assert payload["diagnostics"]["gamma"] == 1.2

    def test_dashed_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"rho0-min": 1.5, "rho0-max": 15.0, "points": 2, "mesh": 256}))
        code, outtext, _ = run_cli(capsys, "scan", "--config", str(cfg), "--d", "3", "--gamma", "1.5")
        assert code == 0
        assert len(outtext.splitlines()) == 3

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "profile", "--config", "/nonexistent.json")
        assert code == 1


class TestParserReuse:
    SCAN = ("scan", "--d", "3", "--gamma", "1.5", "--rho0-min", "1.5", "--rho0-max", "15",
            "--points", "2", "--mesh", "256")
    ARGVS = (
        SCAN,
        ("critical", "--d", "3", "--gamma", "1.25", "--rho0-min", "40", "--rho0-max", "60",
         "--tol-rho", "0.05", "--mesh", "256", "--format", "json"),
        ("scan", "--d", "3", "--bogus", "1"),
        SCAN,
    )

    def test_one_parser_serves_alternating_commands(self, capsys):
        fresh = []
        for argv in self.ARGVS:
            cli.build_parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli.build_parser.cache_clear()
        reused = [run_cli(capsys, *argv) for argv in self.ARGVS]
        assert cli.build_parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 0, 1, 0]
        assert reused[3] == reused[0]


def run_cli_process(*argv, timeout=20):
    """The CLI in its own process, as a user runs it; a hang fails at the timeout."""
    src = str(Path(lanemden.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "lanemden.cli", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


SCAN_2_TO_5 = ("scan", "--d", "3", "--gamma", "1.25", "--rho0-min", "2", "--rho0-max", "5",
               "--mesh", "64")

LIQUID_CUT_RHO0 = ("1e40", "1e55", "1e60")

# valid or wrongly typed inputs that hung, raised a traceback, were refused
# as a usage error or printed a numpy warning: (argv, config file contents
# or None, exit code); no row may print a warning
CLEAN_EXITS = {
    # the Taylor seed overflows float64 once rho0^(3-gamma) nears 1e308
    "seed-overflow-gamma=1.25": (("stability", "--d", "3", "--gamma", "1.25", "--rho0", "1e180"), None, 2),
    "seed-overflow-gamma=1": (("stability", "--d", "3", "--gamma", "1.0", "--rho0", "1e160"), None, 2),
    "seed-overflow-gas": (("profile", "--gas", "--d", "3", "--gamma", "1.5", "--rho0", "1e250"), None, 2),
    # config values of the wrong JSON type or outside the flag's choices
    "config-points-str": (SCAN_2_TO_5, {"points": "3"}, 1),
    "config-gamma-str": (("stability", "--d", "3", "--rho0", "5", "--mesh", "64"), {"gamma": "1.25"}, 1),
    "config-format-choice": (SCAN_2_TO_5, {"format": "xml"}, 1),
    "config-format-type": (SCAN_2_TO_5, {"format": 3}, 1),
    # rho does not change in float64 over [0, r_max]
    "flat-gamma=1": (("profile", "--gas", "--d", "3", "--gamma", "1", "--rho0", "1e-16"), None, 2),
    "flat-gamma=1.25": (("profile", "--gas", "--d", "3", "--gamma", "1.25", "--rho0", "1e-50"), None, 2),
    "flat-gamma=1.5": (("profile", "--gas", "--d", "3", "--gamma", "1.5", "--rho0", "1e-50"), None, 2),
    # the liquid and compact surfaces tie in mass, 8.3e-10 relative apart
    "tied-radii": (("profile", "--gas", "--d", "3", "--gamma", "1.25", "--rho0", "1e40"), None, 0),
    # the decay bound at r = 0 once rho0^-(2-gamma) is below the doubles' epsilon
    "decay-bound-centre": (("profile", "--gas", "--d", "3", "--gamma", "1.25", "--rho0", "1e30"), None, 0),
    # w0 = rho0^(gamma-1) rounds to the liquid surface's w = 1
    "no-seed-gap": (("stability", "--d", "3", "--gamma", "1.000000001", "--rho0", "1.000000001",
                     "--mesh", "64"), None, 2),
    "no-seed-gap-scan": (("scan", "--d", "3", "--gamma", "1.000000001", "--rho0-min", "1.000000001",
                          "--rho0-max", "1.00000001", "--points", "2", "--mesh", "64"), None, 0),
    # at d = 7 the seed samples' r^7 rounds to 0, where m/r^d reads as its limit
    "mass-hat-underflow-gamma=1.2": (("stability", "--d", "7", "--gamma", "1.2", "--rho0", "1e120",
                                      "--mesh", "64"), None, 0),
    "mass-hat-underflow-gamma=1": (("stability", "--d", "7", "--gamma", "1", "--rho0", "1e100",
                                    "--mesh", "64"), None, 0),
    # rho0 = 1e150: the sampled star's Hermite table overflowed; the star
    # read off its run certifies, and its profile reports, without a warning
    "hermite-overflow-profile": (("profile", "--d", "3", "--gamma", "1", "--rho0", "1e150"), None, 0),
    "hermite-overflow-profile-gas": (("profile", "--gas", "--d", "3", "--gamma", "1", "--rho0", "1e150"),
                                     None, 0),
    **{f"hermite-overflow-{d}-{gamma}": (("stability", "--d", d, "--gamma", gamma, "--rho0", "1e150",
                                          "--mesh", "256"), None, 0)
       for d, gamma in (("3", "1"), ("3", "1.0001"), ("3", "1.2"), ("4", "1.0001"), ("4", "1.2"))},
    # R = 2.1e-38: y.Mw y of the first inverse-iteration solve underflowed to 0
    "iterate-underflow": (("stability", "--d", "3", "--gamma", "1.5", "--rho0", "1e150", "--mesh", "256"),
                          None, 0),
    # the pencil overflows: one line names the cause, and numpy warns of nothing
    "pencil-overflow": (("stability", "--d", "30", "--gamma", "2", "--rho0", "1e150", "--mesh", "256"),
                        None, 2),
    # the liquid radius lies beyond r_max
    "radius-beyond-rmax": (("stability", "--d", "3", "--gamma", "1.25", "--rho0", "1.5",
                            "--rmax", "0.01"), None, 2),
    # on gamma = 2d/(d+2) the liquid star is cut once, on its run, and exits
    # 0; its radius is wrong at these rho0, which the identity's residual shows
    **{f"liquid-cut-{rho0}": (("profile", "--d", "3", "--gamma", "1.2", "--rho0", rho0), None, 0)
       for rho0 in LIQUID_CUT_RHO0},
}

# profile rows whose star keeps a known defect: the worst Pohozaev residual
# the diagnostics report must exceed this
DEFECTS = {f"liquid-cut-{rho0}": 1e-6 for rho0 in LIQUID_CUT_RHO0}

# what stderr must name for some rows
CAUSES = {
    "no-seed-gap": "w0 - 1 rounds to 0",
    "no-seed-gap-scan": "RuntimeError: the central enthalpy",
    "radius-beyond-rmax": "rho_center=1.5) lies beyond r_max = 0.01",
    "pencil-overflow": "numerical failure: non-finite pencil entries",
}


class TestCleanExits:
    @pytest.mark.parametrize("name", list(CLEAN_EXITS))
    def test_one_error_line_and_exit_code(self, tmp_path, name):
        argv, config, code = CLEAN_EXITS[name]
        if config is not None:
            path = tmp_path / "run.json"
            path.write_text(json.dumps(config))
            argv = (*argv, "--config", str(path))
        out = run_cli_process(*argv)
        assert out.returncode == code, out.stderr
        assert "Warning" not in out.stderr and "Traceback" not in out.stderr, out.stderr
        assert CAUSES.get(name, "") in out.stderr
        if code == 0:
            if argv[0] == "stability":  # a certified star writes nothing to stderr
                assert out.stderr == "", out.stderr
            if argv[0] == "profile":  # R lies inside the compact surface, if there is one
                diag = json.loads(out.stderr)
                assert 0.0 < diag["R"], diag
                assert diag["gas_radius"] is None or diag["R"] < diag["gas_radius"], diag
                if name in DEFECTS:
                    assert diag["max_pohozaev_residual"] > DEFECTS[name], diag
            return
        prefix = {1: "usage error: ", 2: "numerical failure: "}[code]
        lines = out.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), out.stderr
        if config is not None:
            assert repr(next(iter(config))) in lines[0]  # the message names the key

    def test_scan_past_the_seed_overflow_keeps_its_rows(self):
        # the line run's seed overflows: the rows are integrated on their
        # own, and those that fail are recorded as Error rows
        out = run_cli_process("scan", "--d", "3", "--gamma", "1.25", "--rho0-min", "2",
                              "--rho0-max", "1e180", "--points", "3", "--mesh", "64")
        assert out.returncode == 0 and "Traceback" not in out.stderr and "Warning" not in out.stderr
        verdicts = [row.rsplit(",", 1)[1] for row in out.stdout.splitlines()[1:]]
        assert verdicts == ["Stable", "Unstable", "Error"]
        assert "overflows float64" in out.stderr
