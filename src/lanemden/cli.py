"""Command-line interface.

Subcommands: profile, scan, stability, critical, verify.  Exit codes:
0 success, 1 usage error, 2 numerical failure, 3 verification failure.
An optional JSON config file mirrors the flags; explicit flags override it.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import io
import json
import sys
from typing import Optional

from .harness import (
    CriticalDensityResult,
    RunSpec,
    critical_density,
    report_json,
    run_profile,
    run_sweep,
    verify_suite,
    write_sweep_csv,
)
from .spectral import classify_stability, spectral_result_dict, write_eigenfunction_csv
from .steady import liquid_read


def _keep_freed_memory() -> None:
    """Fix glibc's heap trim and mmap thresholds at its own dynamic ceiling.

    glibc unmaps the top of the heap once more than M_TRIM_THRESHOLD of it
    is free, and serves blocks above M_MMAP_THRESHOLD from fresh mappings;
    it raises both only after a large mapped block is freed.  Without that,
    every command's large temporaries (the Pohozaev integrand, the
    Gauss-point arrays at mesh 8192) are handed back and page-faulted in
    again on the next call.  M_MMAP_THRESHOLD = 32 MiB is the ceiling its
    dynamic rule stops at; M_TRIM_THRESHOLD = 64 MiB is twice that, as
    the rule sets it.  Where libc has no mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no dlopen(NULL), or a libc without mallopt
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's malloc.h
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 64 << 20)


# the CLI owns its process, so it sets the allocator; the library modules leave it alone
_keep_freed_memory()


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=str, default=None, help="JSON file mirroring the flags")
    p.add_argument("--d", type=int, default=None, help="spatial dimension (>= 3)")
    p.add_argument("--gamma", type=float, default=None, help="adiabatic index in [1, 2]")
    p.add_argument("--rho0", type=float, default=None, help="central density")
    p.add_argument("--rho0-min", type=float, default=None)
    p.add_argument("--rho0-max", type=float, default=None)
    p.add_argument("--points", type=int, default=None, help="sweep point count")
    p.add_argument("--log", action=argparse.BooleanOptionalAction, default=None,
                   help="log-spaced sweep (default) vs linear")
    p.add_argument("--mesh", type=int, default=None, help="eigenproblem mesh size")
    p.add_argument("--tol", type=float, default=None, help="integrator relative tolerance")
    p.add_argument("--tol-eig", type=float, default=None, help="eigenvalue dead-zone tolerance")
    p.add_argument("--tol-rho", type=float, default=None, help="relative bracket width target")
    p.add_argument("--rmax", type=float, default=None, help="integration cutoff radius")
    p.add_argument("--out", type=str, default=None, help="output path (default: stdout)")
    p.add_argument("--format", type=str, choices=("csv", "json"), default=None)


@functools.cache
def build_parser() -> _Parser:
    """The parser of every subcommand, built once per process (parse_args leaves it as it is)."""
    parser = _Parser(prog="lanemden", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", parents=[], help="integrate one star and emit its profile")
    _add_shared(p)
    p.add_argument("--gas", action=argparse.BooleanOptionalAction, default=None,
                   help="emit the gas profile instead of the liquid truncation")

    p = sub.add_parser("scan", help="central-density sweep: rho0,R,M,mu_star,verdict")
    _add_shared(p)

    p = sub.add_parser("stability", help="radial stability verdict for one star")
    _add_shared(p)
    p.add_argument("--chi-out", type=str, default=None, help="eigenfunction CSV path")

    p = sub.add_parser("critical", help="bisect for the central density where mu* changes sign")
    _add_shared(p)

    p = sub.add_parser("verify", help="run the analytic verification checks")
    _add_shared(p)
    p.add_argument("--suite", type=str, default="all")

    return parser


def _load_config(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            raw = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(raw, dict):
        raise UsageError("config file must hold a JSON object")
    return {str(k).replace("-", "_"): v for k, v in raw.items()}


# the JSON types a config value may take, by its flag's type
_JSON_TYPES = {int: int, float: (int, float), str: str, bool: bool}


def _config_value(key: str, value, action: argparse.Action):
    """A config file's value for key, passed through its flag's type and choices."""
    kind = action.type or bool  # the on/off flags have no type
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise UsageError(f"config key {key!r}: invalid {kind.__name__} value: {json.dumps(value)}")
    value = kind(value)
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"config key {key!r}: {json.dumps(value)} is not in {list(action.choices)}")
    return value


def _build_spec(args: argparse.Namespace) -> RunSpec:
    """Merge precedence: RunSpec defaults < config file < explicit flags.

    A config key counts when it names a flag of the command and its value
    is not null; the value must pass the flag's type and choices.
    """
    cfg = _load_config(args.config)
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for a in commands.choices[args.command]._actions}
    merged = {}
    for name in RunSpec.__dataclass_fields__:
        flag = getattr(args, name, None)
        if flag is not None:
            merged[name] = flag
        elif name in flags and cfg.get(name) is not None:
            merged[name] = _config_value(name, cfg[name], flags[name])
    try:
        return RunSpec(**merged)
    except TypeError as exc:
        raise UsageError(str(exc))


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as f:
            f.write(text)


def _cmd_profile(args) -> int:
    spec = _build_spec(args)
    buf = io.StringIO()
    profile, diagnostics = run_profile(spec, csv_out=buf)
    if spec.format == "json":
        payload = {
            "diagnostics": diagnostics,
            "profile": {
                "r": profile.radii.tolist(),
                "rho": profile.rho.tolist(),
                "enthalpy": profile.enthalpy.tolist(),
                "mass": profile.mass.tolist(),
            },
        }
        _emit(report_json(payload), spec.out)
    else:
        if spec.out is None:
            sys.stdout.write(buf.getvalue())
        sys.stderr.write(report_json(diagnostics))
    return 0


def _cmd_scan(args) -> int:
    spec = _build_spec(args)
    rows = run_sweep(spec)
    for row in rows:
        if row.reason:
            sys.stderr.write(f"scan: rho0={row.rho0:.17g} failed: {row.reason}\n")
    if spec.format == "json":
        payload = [
            {"rho0": r.rho0, "R": r.R, "M": r.M_total, "mu_star": r.mu_star, "verdict": r.verdict}
            for r in rows
        ]
        _emit(report_json({"rows": payload}), spec.out)
    else:
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        _emit(buf.getvalue(), spec.out)
    return 0


def _cmd_stability(args) -> int:
    spec = _build_spec(args)
    config = spec.config()
    if config.rho_center <= 1.0:
        raise UsageError("stability analysis needs a liquid star: rho0 > 1")
    star = liquid_read(config, tol=spec.tol, r_max=spec.rmax)
    result = classify_stability(star, mesh_size=spec.mesh, tol_eig=spec.tol_eig)
    _emit(report_json(spectral_result_dict(result)), spec.out)
    if args.chi_out is not None:
        with open(args.chi_out, "w") as f:
            write_eigenfunction_csv(result, f)
    return 0


def _cmd_critical(args) -> int:
    spec = _build_spec(args)
    lo = spec.rho0_min if spec.rho0_min is not None else 1.01
    hi = spec.rho0_max if spec.rho0_max is not None else 1e6
    result: CriticalDensityResult = critical_density(
        spec.d,
        spec.gamma,
        (lo, hi),
        tol_rho=spec.tol_rho,
        mesh=spec.mesh,
        tol=spec.tol,
        tol_eig=spec.tol_eig,
        rmax=spec.rmax,
    )
    payload = {
        "rho0_crit": result.rho0_crit,
        "bracket": list(result.bracket),
        "mu_lo": result.mu_lo,
        "mu_hi": result.mu_hi,
        "iterations": len(result.history) - 1,
    }
    _emit(report_json(payload), spec.out)
    return 0


def _cmd_verify(args) -> int:
    spec = _build_spec(args)
    report = verify_suite(args.suite)
    _emit(report_json(report), spec.out)
    return 0 if report["passed"] else 3


_COMMANDS = {
    "profile": _cmd_profile,
    "scan": _cmd_scan,
    "stability": _cmd_stability,
    "critical": _cmd_critical,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except ValueError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 1
    except (RuntimeError, ArithmeticError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
