"""Driver layer: single runs, central-density sweeps, transition search, checks.

Everything here is deterministic: a given RunSpec always produces
byte-identical output (single-threaded reference mode, no randomness).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .config import StarConfig, stability_threshold
from .phase import (
    buchdahl_bounds,
    fixed_points,
    phase_trajectory,
    profile_to_phase,
    radius_limit,
    tail_convergence_rate,
    vector_field,
)
from .spectral import (
    DiscreteOperator,
    _apply_tridiagonal,
    assemble,
    assemble_stars,
    build_sl_data,
    certified_search,
    eigen_residual_strongform,
    manufactured_sl_data,
    smallest_eigenpair,
    stable_at_zero,
)
from .steady import (
    Profile,
    RunStar,
    _fmt,
    decay_bound,
    explicit_profile_critical,
    gas_read,
    integrate_line,
    liquid_read,
    pohozaev_residual,
    singular_star,
    write_profile_csv,
)

MARGINAL = "Marginal"
ERROR = "Error"

# (d, gamma, rho0) battery every analytic identity is checked on
PROFILE_BATTERY: Tuple[Tuple[int, float, float], ...] = tuple(
    (d, g, rho0) for d in (3, 4, 5) for g in (1.0, 1.2, 1.5, 2.0) for rho0 in (1.0, 10.0)
)


@dataclass(frozen=True)
class RunSpec:
    """Resolved parameters of one CLI invocation."""

    d: int = 3
    gamma: float = 1.2
    rho0: Optional[float] = None
    rho0_min: Optional[float] = None
    rho0_max: Optional[float] = None
    points: int = 16
    log: bool = True
    mesh: int = 2048
    tol: float = 1e-10
    tol_eig: float = 1e-8
    tol_rho: float = 1e-3
    rmax: float = 50.0
    out: Optional[str] = None
    format: str = "csv"
    gas: bool = False

    def config(self) -> StarConfig:
        if self.rho0 is None:
            raise ValueError("a single rho0 is required")
        return StarConfig(self.d, self.gamma, self.rho0)

    def rho0_values(self) -> np.ndarray:
        if self.rho0_min is None or self.rho0_max is None:
            raise ValueError("rho0_min and rho0_max are required for a sweep")
        if not (self.rho0_min < self.rho0_max):
            raise ValueError("empty sweep range: need rho0_min < rho0_max")
        if self.points < 2:
            raise ValueError("a sweep needs at least 2 points")
        if self.log:
            if self.rho0_min <= 0.0:
                raise ValueError("log spacing needs positive bounds")
            return np.geomspace(self.rho0_min, self.rho0_max, self.points)
        return np.linspace(self.rho0_min, self.rho0_max, self.points)


def _worst_defects(star: RunStar, profile: Profile) -> Tuple[float, float]:
    """The worst |Pohozaev residual| at the profile's samples, and max(rho / decay_bound) - 1.

    profile is star's (RunStar.profile): the residual takes its enthalpy and
    mass as the star's read at its radii (RunStar.enthalpy_and_mass_at),
    which they are bit for bit but at a surface sample pinned to its level,
    and reads star only for the identity's integral, at the 10 Gauss points
    of each segment between its radii.
    """
    poho = float(np.max(np.abs(pohozaev_residual(star, profile.radii, (profile.enthalpy, profile.mass)))))
    slack = float(np.max(profile.rho / decay_bound(profile.config, profile.radii))) - 1.0
    return poho, slack


def run_profile(spec: RunSpec, csv_out: Optional[TextIO] = None) -> Tuple[Profile, dict]:
    """Integrate one star, emit its CSV, and return (profile, diagnostics).

    Liquid output (the default) requires rho0 > 1 and writes liquid_read's
    star, which ends at R; with spec.gas gas_read's star is written instead.
    Diagnostics report the worst decay-bound slack and integral-identity
    residual (read off the run) at the samples, R, the total mass, and the
    integrator's right-hand-side evaluations (nfev) and accepted steps.
    """
    config = spec.config()
    if not spec.gas and config.rho_center <= 1.0:
        raise ValueError(
            "no liquid truncation exists for rho0 <= 1; pass gas=True for a gas profile"
        )
    star = (gas_read if spec.gas else liquid_read)(config, tol=spec.tol, r_max=spec.rmax)
    profile = star.profile()
    poho, slack = _worst_defects(star, profile)
    diagnostics = {
        "d": config.d,
        "gamma": config.gamma,
        "rho0": config.rho_center,
        "R": profile.liquid_radius,
        "M_total": profile.total_mass,
        "gas_radius": profile.gas_radius,
        "max_decay_slack": slack,
        "max_pohozaev_residual": poho,
        "grid_points": int(len(profile.radii)),
        "nfev": profile.nfev,
        "steps": profile.steps,
    }
    if spec.out is not None:
        with open(spec.out, "w") as f:
            write_profile_csv(profile, f)
    elif csv_out is not None:
        write_profile_csv(profile, csv_out)
    return profile, diagnostics


@dataclass(frozen=True)
class SweepRow:
    """One central density of a sweep: geometry, mass, and the verdict.

    reason is "<ExcType>: <message>" for an Error row and empty otherwise.
    mu_star, the verdict, inertia_counts and solves are the certified
    search's (spectral.CertifiedEigenvalue), from the guess run_sweep gives
    a row below its line's top, the row above's mu* rescaled: solves counts
    its inverse-iteration solves only, with no eigenvector finish.  Both
    counts are 0 for an Error row; neither is printed.
    """

    rho0: float
    R: float
    M_total: float
    mu_star: float
    verdict: str
    reason: str = ""
    inertia_counts: int = 0
    solves: int = 0


# the failures that make a row an Error row instead of propagating
_ROW_ERRORS = (ValueError, RuntimeError, ArithmeticError, np.linalg.LinAlgError)


def _certified_row(star: RunStar, op: DiscreteOperator, tol_eig: float,
                   guess: Optional[float] = None) -> SweepRow:
    """The sweep row of one liquid star read off a run, from its pencil op: R, M and the certified verdict.

    A row prints no eigenvector, so its pencil gets the certified search
    alone (spectral.certified_search, from guess if one is given): with no
    guess, mu*, the verdict and the evidence are classify_stability's
    bitwise, with no eigenvector finish and no Robin defect.  R is the
    star's liquid radius, the one its pencil is built on.
    """
    result = certified_search(op, tol_eig, guess=guess)
    verdict = MARGINAL if result.marginal else result.verdict
    return SweepRow(
        rho0=star.config.rho_center,
        R=star.liquid_radius,
        M_total=star.total_mass,
        mu_star=result.mu_star,
        verdict=verdict,
        inertia_counts=result.inertia_counts,
        solves=result.solves,
    )


def _classified_row(star: RunStar, mesh: int, tol_eig: float) -> SweepRow:
    """The sweep row of one liquid star on its own pencil (assemble(build_sl_data(star), mesh))."""
    return _certified_row(star, assemble(build_sl_data(star), mesh), tol_eig)


def _error_row(rho0: float, exc: Exception) -> SweepRow:
    return SweepRow(rho0=rho0, R=math.nan, M_total=math.nan, mu_star=math.nan, verdict=ERROR,
                    reason=f"{type(exc).__name__}: {exc}")


def _served(line: Optional[RunStar], rho0: float, rmax: float) -> Optional[RunStar]:
    """The liquid star of central density rho0 read off the line's run, or None where the run cannot serve it.

    The run cannot serve when there is no line, when RunStar.read returns
    None, or when the star's liquid radius exceeds rmax.
    """
    star = None if line is None else line.read(rho0)
    return None if star is None or star.liquid_radius > rmax else star


def _line_read(line: Optional[RunStar], config: StarConfig, tol: float, rmax: float) -> RunStar:
    """config's liquid star off the line's run (_served), or liquid_read's, off its own line, where it cannot serve."""
    star = _served(line, config.rho_center, rmax)
    return liquid_read(config, tol=tol, r_max=rmax) if star is None else star


# a batch of scan rows holds at most the Gauss points of one pencil at this mesh
_BATCH_MESH = 8192


def run_sweep(spec: RunSpec) -> List[SweepRow]:
    """One SweepRow per central density; a failed row is recorded, not fatal.

    The line is integrated once, at its largest rho0, and every other star is
    read off that run through the rescaling law (RunStar.read on the line
    steady.integrate_line returns), its liquid radius found on the run's
    dense output after the run.  The stars the line serves go in batches of
    consecutive rows, as many as fit in the Gauss points of one pencil at
    mesh _BATCH_MESH (8192: 4 rows at mesh 2048, one row from mesh 4097 on).
    A batch's Gauss points are read off the run in one pass and its pencils
    assembled in stacked arrays (spectral.assemble_stars), each bit for bit
    its star's own.  Each pencil then gets the certified search alone
    (spectral.certified_search: no eigenvector, no Robin defect), and M is
    the run's mass at R, one scalar read.  The rows the line serves are
    certified from the top down, in batches from the top: the first
    (the largest star's) with no guess, each one below from the guess
    mu*_above rho0 / rho0_above, where mu*_above is that of the nearest row
    above it that was certified.  A member of the run's family scales its
    mu* exactly like rho0 (RunStar.read's rescaling law), so the guess is
    off only by the cut: 0.15% between the top two rows of the benchmark's
    lines.  The guess moves where the counts start and nothing
    else: every end of a row's bracket is certified by a count (see
    certified_search).  The largest star's row is bit for bit the row of
    the star built alone, _classified_row on steady.liquid_read's star, the
    top star of its own line.  The others' R and M agree with their own
    lines' to about 1e-10 and their mu* to about 5e-10 relative at mesh
    2048, since the two runs take different steps, so a row's mu* depends
    on its line at that level, and on its guess by up to 8.2e-9 relative
    (see certified_search).  A row's star
    is liquid_read's, off its own line, when its liquid level is not
    crossed after the largest star's seed or its R would exceed rmax
    (_served), and every row's is when the line's own integration fails.
    Such a star holds a run of its own (hundreds of MiB as gamma -> 1+), so
    its row is classified, and the run freed, before the next row's star is
    read.  Each Error row keeps its own reason: a pencil that is not finite
    fails its own row, not its batch.

    Only numerical and usage failures (ValueError, RuntimeError,
    ArithmeticError, LinAlgError) become Error rows, with the exception kept
    as the row's reason; any other exception is a programming error and
    propagates.
    """
    values = spec.rho0_values()
    if np.any(values <= 1.0):
        raise ValueError("sweep densities must all exceed 1 (liquid stars)")
    densities = values.tolist()
    try:
        top = StarConfig(spec.d, spec.gamma, max(densities))
        line = integrate_line(top, tol=spec.tol, r_max=spec.rmax)
    except _ROW_ERRORS:
        line = None
    rows: List[Optional[SweepRow]] = [None] * len(densities)
    served = []  # (row, star) of the stars the line serves
    for i, rho0 in enumerate(densities):
        try:
            config = StarConfig(spec.d, spec.gamma, rho0)
            star = _served(line, rho0, spec.rmax)
            if star is None:
                # its own run, freed with the call, before the next row's star is read
                rows[i] = _classified_row(liquid_read(config, tol=spec.tol, r_max=spec.rmax), spec.mesh,
                                          spec.tol_eig)
            else:
                served.append((i, star))
        except _ROW_ERRORS as exc:
            rows[i] = _error_row(rho0, exc)
    served.sort(key=lambda item: densities[item[0]], reverse=True)  # from the top down
    above = None  # (rho0, mu*) of the last row certified
    size = max(1, _BATCH_MESH // max(spec.mesh, 1))
    for start in range(0, len(served), size):
        batch = served[start:start + size]
        try:
            ops = assemble_stars([star for _, star in batch], spec.mesh)
        except _ROW_ERRORS as exc:  # a check on the whole batch (the mesh size): every row's reason
            ops = [exc] * len(batch)
        for (i, star), op in zip(batch, ops):
            rho0 = densities[i]
            if isinstance(op, Exception):
                rows[i] = _error_row(rho0, op)
                continue
            try:
                guess = None if above is None else above[1] * (rho0 / above[0])
                rows[i] = _certified_row(star, op, spec.tol_eig, guess)
                above = (rho0, rows[i].mu_star)
            except _ROW_ERRORS as exc:
                rows[i] = _error_row(rho0, exc)
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], out: TextIO) -> None:
    out.write("rho0,R,M,mu_star,verdict\n")
    for row in rows:
        out.write(
            f"{_fmt(row.rho0)},{_fmt(row.R)},{_fmt(row.M_total)},"
            f"{_fmt(row.mu_star)},{row.verdict}\n"
        )


@dataclass(frozen=True)
class CriticalDensityResult:
    """Bisection result for the sign change of mu*(rho0).

    integrations counts the DOP853 runs behind it: the lo end's, the
    line's, and the own line of every interior star the line cannot serve,
    once per count (a star counted at both meshes counts twice); nfev and
    steps are summed over them.  inertia_counts and solves are the
    eigensolver's work: the two bracket ends' certified searches
    (spectral.certified_search, whose solves count no eigenvector finish),
    plus every count taken, at _STEER_MESH (512) and at mesh, every pencil
    read off a run.  At the default mesh 2048 that is the guide's counts at
    512 and two at 2048.
    """

    rho0_crit: float
    bracket: Tuple[float, float]
    mu_lo: float
    mu_hi: float
    history: Tuple[Tuple[float, float], ...]
    integrations: int = 0
    nfev: int = 0
    steps: int = 0
    inertia_counts: int = 0
    solves: int = 0


# the mesh of the guide run that steers critical_density's bisection above it
_STEER_MESH = 512


def _bisect(
    lo: float, hi: float, tol_rho: float, on_lo_side: Callable[[float], bool]
) -> List[Tuple[float, float]]:
    """The brackets of a bisection in log rho0, each midpoint's side read from on_lo_side."""
    history = [(lo, hi)]
    while hi - lo > tol_rho * 0.5 * (hi + lo):
        mid = math.exp(0.5 * (math.log(lo) + math.log(hi)))
        if not (lo < mid < hi):
            break
        if on_lo_side(mid):
            lo = mid
        else:
            hi = mid
        history.append((lo, hi))
    return history


def critical_density(
    d: int,
    gamma: float,
    bracket: Tuple[float, float],
    tol_rho: float = 1e-3,
    mesh: int = 2048,
    tol: float = 1e-10,
    tol_eig: float = 1e-8,
    rmax: float = 50.0,
) -> CriticalDensityResult:
    """Bisect (in log rho0) for the central density where mu* changes sign.

    Requires gamma < 2(d-1)/d (otherwise every liquid star is stable and no
    sign change exists) and opposite signs of mu* at the bracket ends.  The
    returned bracket has relative width <= tol_rho.  Bisection presumes a
    single crossing inside the bracket; the endpoint signs are certified, the
    interior is not scanned.

    The two bracket ends get a row's certified search (_classified_row:
    spectral.certified_search, mu* and its bracket, no eigenvector),
    reported as mu_lo and mu_hi: lo's star is the top star of its own line
    (steady.liquid_read, first, so a bad bracket fails as before), and hi's
    the top star of the line run that serves every interior star
    (steady.integrate_line), so both are bit for bit the rows of
    _classified_row on liquid_read's star at that density.
    Each interior star is read off that run as run_sweep's rows are
    (_line_read); it needs only the sign of mu*, so the pencil is
    assembled and its side decided with one LDL^T inertia count
    (spectral.stable_at_zero).  A zero pivot reads as not stable, so mu* = 0
    falls on the unstable side, as its negatively signed zero does in the
    certified search.  A step's side can differ from that of the star's own
    integration only where |mu*| lies within their ~5e-10 relative gap.

    The single crossing also decides sides without a count: a midpoint at
    or below a density counted on lo's side at mesh is on lo's side, one at
    or above a density counted on hi's side is on hi's, and any other is
    counted at mesh; at mesh <= _STEER_MESH (512) that is every midpoint.
    Above it, the default mesh 2048 included, the bisection first runs as a
    guide only, each midpoint counted at _STEER_MESH.  The two ends of the
    guide's final bracket are counted at mesh, then the bisection runs at
    mesh.  Every earlier midpoint lies outside that nested bracket, so where
    the guide agrees with mesh no other count is taken, and where it does
    not the midpoints left undecided are counted: the history is always
    that of counting every midpoint at mesh on stars read off the run.
    Every star, at either mesh and at the ends, is read straight off the
    line's run (RunStar.read, with no samples), or, where
    the run cannot serve it, off the run of its own line
    (steady.liquid_read), so no star is sampled.
    """
    if gamma >= stability_threshold(d):
        raise ValueError(
            f"stable regime: gamma >= {stability_threshold(d):g} has no sign change"
        )
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (1.0 < lo < hi):
        raise ValueError("bracket must satisfy 1 < lo < hi")
    if not (tol_rho > 0.0 and math.isfinite(tol_rho)):
        raise ValueError(f"tol_rho must be positive and finite, got {tol_rho}")

    own = liquid_read(StarConfig(d, gamma, lo), tol=tol, r_max=rmax)
    row_lo = _classified_row(own, mesh, tol_eig)
    line = integrate_line(StarConfig(d, gamma, hi), tol=tol, r_max=rmax)
    runs = [own.sol, line.sol]

    def star(rho0: float) -> RunStar:
        read = _line_read(line, StarConfig(d, gamma, rho0), tol, rmax)
        if read.sol is not line.sol:
            runs.append(read.sol)
        return read

    row_hi = _classified_row(star(hi), mesh, tol_eig)
    mu_lo, mu_hi = row_lo.mu_star, row_hi.mu_star
    if math.copysign(1.0, mu_lo) == math.copysign(1.0, mu_hi):
        raise ValueError(
            f"same-sign bracket: mu*({lo:g}) = {mu_lo:.3e}, mu*({hi:g}) = {mu_hi:.3e}"
        )
    lo_stable = math.copysign(1.0, mu_lo) > 0.0
    counts = 0

    def counted_on_lo_side(rho0: float, at_mesh: int) -> bool:
        nonlocal counts
        counts += 1
        return stable_at_zero(assemble(build_sl_data(star(rho0)), at_mesh)) == lo_stable

    # the largest density known to lie on lo's side at mesh, and the smallest on hi's
    known = [lo, hi]

    def on_lo_side(rho0: float) -> bool:
        if rho0 <= known[0]:
            return True
        if rho0 >= known[1]:
            return False
        side = counted_on_lo_side(rho0, mesh)
        known[0 if side else 1] = rho0
        return side

    if mesh > _STEER_MESH:
        guide = _bisect(lo, hi, tol_rho, lambda rho0: counted_on_lo_side(rho0, _STEER_MESH))
        for end in guide[-1]:
            on_lo_side(end)
    history = _bisect(lo, hi, tol_rho, on_lo_side)
    lo, hi = history[-1]
    return CriticalDensityResult(
        rho0_crit=math.exp(0.5 * (math.log(lo) + math.log(hi))),
        bracket=(lo, hi),
        mu_lo=mu_lo,
        mu_hi=mu_hi,
        history=tuple(history),
        integrations=len(runs),
        nfev=sum(sol.nfev for sol in runs),
        steps=sum(sol.n_steps for sol in runs),
        inertia_counts=row_lo.inertia_counts + row_hi.inertia_counts + counts,
        solves=row_lo.solves + row_hi.solves,
    )


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    passed: bool
    measure: float
    detail: str


@dataclass(frozen=True)
class BatteryStar:
    """Worst Pohozaev residual, decay slack and Buchdahl slack of one battery star.

    buchdahl is None at gamma = 2, where the phase-plane bounds do not apply.
    """

    pohozaev: float
    decay: float
    buchdahl: Optional[float]


# integration tolerance of the battery; the decay and Buchdahl checks allow 10x it
_BATTERY_TOL = 1e-10


def _battery_stars() -> Tuple[BatteryStar, ...]:
    """Integrate each battery family once and keep only its stars' three measures (Pohozaev off the run).

    Each star is its RunStar.member on [0, 20] (or to its compact surface) of
    one run of the family's rho0 = 1 star, to 20 lam of the family's largest rho0.
    """
    stars = []
    for (d, g), family in itertools.groupby(PROFILE_BATTERY, lambda star: star[:2]):
        rho0s = [rho0 for _, _, rho0 in family]
        run = gas_read(StarConfig(d, g, 1.0), tol=_BATTERY_TOL, r_max=20.0 * max(rho0s) ** (1.0 - g / 2.0))
        for rho0 in rho0s:
            star = run.member(rho0, 20.0)
            profile = star.profile()
            poho, decay = _worst_defects(star, profile)
            buchdahl = None
            if g < 2.0:
                v1b, v2b = buchdahl_bounds(d, g)
                traj = phase_trajectory(profile)
                buchdahl = float(np.max(traj.v1 / v1b)) - 1.0
                if v2b is not None:
                    buchdahl = max(buchdahl, float(np.max(traj.v2 / v2b)) - 1.0)
            stars.append(BatteryStar(poho, decay, buchdahl))
    return tuple(stars)


def _far_star(g: float) -> RunStar:
    """The (3, g, 1) gas star off its run to r = 1e3: tail and radius-limit read its spiral."""
    return gas_read(StarConfig(3, g, 1.0), tol=1e-10, r_max=1e3)


@dataclass(frozen=True)
class _Shared:
    """What more than one check integrates: memoised callables that integrate on first use.

    verify_suite makes one per call, so nothing outlives the call.
    """

    battery: Callable[[], Tuple[BatteryStar, ...]]
    far_star: Callable[[float], RunStar]


def _check_explicit(shared: _Shared) -> VerifyCheck:
    worst = 0.0
    for C in (1.0, 32.0):
        star = explicit_profile_critical(3, C)
        profile = gas_read(StarConfig(3, 1.2, C), tol=1e-10, r_max=5.0).profile()
        exact = star.rho_at(profile.radii)
        worst = max(worst, float(np.max(np.abs(profile.rho - exact) / exact)))
        exact = star.mass_at(profile.radii[1:])  # m(0) = 0 on both sides
        worst = max(worst, float(np.max(np.abs(profile.mass[1:] - exact) / exact)))
        if C > 1.0:
            R = profile.liquid_radius
            worst = max(worst, abs(R - star.radius) / star.radius)
    return VerifyCheck(
        "explicit", worst <= 1e-6, worst, "integrator vs closed form, max relative error"
    )


def _check_pohozaev(shared: _Shared) -> VerifyCheck:
    worst = max(s.pohozaev for s in shared.battery())
    return VerifyCheck(
        "pohozaev", worst <= 1e-5, worst, "max normalized residual over the battery"
    )


def _check_decay(shared: _Shared) -> VerifyCheck:
    worst = max(s.decay for s in shared.battery())
    return VerifyCheck(
        "decay", worst <= 10.0 * _BATTERY_TOL, worst, "max (rho/bound - 1) over the battery"
    )


def _check_buchdahl(shared: _Shared) -> VerifyCheck:
    worst = max(s.buchdahl for s in shared.battery() if s.buchdahl is not None)
    return VerifyCheck(
        "buchdahl", worst <= 10.0 * _BATTERY_TOL, worst, "max phase-bound slack over the battery"
    )


def _check_singular(shared: _Shared) -> VerifyCheck:
    worst = 0.0
    for d, g in ((3, 1.0), (3, 1.2), (4, 1.2), (5, 1.5), (9, 1.6)):
        star = singular_star(d, g)
        for r in (0.5, 1.0, 2.0):
            worst = max(worst, abs(star.ode_residual(r)))
    return VerifyCheck("singular", worst <= 1e-12, worst, "max normalized ODE residual")


def _check_fixed_point(shared: _Shared) -> VerifyCheck:
    worst = 0.0
    for d in range(3, 10):
        gmax = stability_threshold(d)
        for g in np.linspace(1.0, gmax - 1e-6, 50):
            _, vs = fixed_points(d, float(g))
            worst = max(worst, float(np.linalg.norm(vector_field(vs, d, float(g)))))
    return VerifyCheck("fixed-point", worst <= 1e-12, worst, "max ||F(v*)|| over the grid")


def _check_tail(shared: _Shared) -> VerifyCheck:
    ok = True
    worst = 0.0
    for g in (1.0, 1.1):
        run = shared.far_star(g)
        fit = tail_convergence_rate(run.profile())
        _, vs = fixed_points(3, g)
        initial = abs(profile_to_phase(run, 1.0).v1 - vs[0])
        ok = ok and fit.exponent > 0.0 and fit.terminal_deviation < initial
        worst = max(worst, fit.terminal_deviation / vs[0])
    return VerifyCheck(
        "tail", ok, worst, "fitted exponent positive and terminal deviation below r=1 deviation"
    )


def _check_radius_limit(shared: _Shared) -> VerifyCheck:
    """R_kappa of the far star's family (RunStar.read on its run) nears its limit, and matches a direct run at 32."""
    d, g = 3, 1.1
    run = shared.far_star(g)
    r_inf = radius_limit(d, g)
    devs = {kappa: abs(run.read(kappa).liquid_radius - r_inf) / r_inf for kappa in (10.0, 1e6)}
    direct = liquid_read(StarConfig(d, g, 32.0), tol=1e-10, r_max=5.0)
    law = run.read(32.0).liquid_radius
    cross = abs(direct.liquid_radius - law) / direct.liquid_radius
    ok = devs[1e6] < devs[10.0] and cross <= 1e-5
    return VerifyCheck(
        "radius-limit",
        ok,
        devs[1e6],
        "scaling law matches direct integration; far deviation below near deviation",
    )


def _check_q_symmetry(shared: _Shared) -> VerifyCheck:
    """x.K.y and x.Mw.y reproduce the closed-form Q and <., .>_wgt of a polynomial pencil.

    With p = y^3, q = y - 2, wgt = 1 + y^2 the 3-point Gauss rule integrates
    every product of P1 functions exactly, and the P1 interpolants of 1 and y
    are exact, so on span{1, y} the assembled pencil must match the integrals
    to rounding.  Each defect is normalised by sum |x_i| |A_ij| |y_j|.
    """
    L, robin = 1.3, 0.7
    op = assemble(manufactured_sl_data(3, 1.5, L, p_fn=lambda y: y**3, q_fn=lambda y: y - 2.0,
                                       wgt_fn=lambda y: 1.0 + y**2, robin_weight=robin), 256)
    # Q[y^i, y^j] and <y^i, y^j>_wgt on [0, L], indexed by i + j
    q_exact = (L**2 / 2 - 2 * L + robin, L**3 / 3 - L**2 + robin * L,
               L**4 / 2 - 2 * L**3 / 3 + robin * L**2)
    m_exact = (L + L**3 / 3, L**2 / 2 + L**4 / 4, L**3 / 3 + L**5 / 5)
    basis = (np.ones_like(op.nodes), op.nodes)
    pencil = ((op.apply_K, op.k_diag, op.k_off, q_exact), (op.apply_Mw, op.m_diag, op.m_off, m_exact))
    worst = 0.0
    for apply, diag, off, exact in pencil:
        for (i, x), (j, y) in itertools.product(enumerate(basis), repeat=2):
            scale = float(np.abs(x) @ _apply_tridiagonal(np.abs(diag), np.abs(off), np.abs(y)))
            worst = max(worst, abs(float(x @ apply(y)) - exact[i + j]) / scale)
    return VerifyCheck(
        "q-symmetry", worst <= 1e-12, worst, "x.K.y and x.Mw.y against closed-form Q and <.,.>_wgt"
    )


def _check_strongform(shared: _Shared) -> VerifyCheck:
    d = 3
    poly = lambda y: np.asarray(y, dtype=float) ** (d + 1)
    data = manufactured_sl_data(
        d, 1.5, 1.0, p_fn=poly, q_fn=lambda y: -poly(y), wgt_fn=poly, robin_weight=0.0
    )
    result = smallest_eigenpair(assemble(data, 512))
    manufactured = eigen_residual_strongform(data, result).interior_norm
    ok = manufactured <= 1e-8 and abs(result.mu_star + 1.0) <= 1e-10

    star_data = build_sl_data(liquid_read(StarConfig(3, 1.4, 10.0), tol=1e-10, r_max=50.0))
    norms = {}
    for mesh in (512, 1024):
        res = smallest_eigenpair(assemble(star_data, mesh))
        norms[mesh] = eigen_residual_strongform(star_data, res).interior_norm
    ok = ok and norms[1024] <= 0.5 * norms[512] * 1.05
    return VerifyCheck(
        "strongform", ok, manufactured, "manufactured eigenpair residual and refinement decay"
    )


# each check takes the call's _Shared, so one verify_suite call integrates the
# battery and each far star at most once
_CHECKS: Tuple[Tuple[str, Callable[[_Shared], VerifyCheck]], ...] = (
    ("explicit", _check_explicit),
    ("pohozaev", _check_pohozaev),
    ("decay", _check_decay),
    ("buchdahl", _check_buchdahl),
    ("singular", _check_singular),
    ("fixed-point", _check_fixed_point),
    ("tail", _check_tail),
    ("radius-limit", _check_radius_limit),
    ("q-symmetry", _check_q_symmetry),
    ("strongform", _check_strongform),
)


def verify_suite(selection: str = "all") -> dict:
    """Run the named analytic checks (or all) and return a machine-readable report."""
    names = [n for n, _ in _CHECKS]
    if selection != "all" and selection not in names:
        raise ValueError(f"unknown suite {selection!r}; choose from {['all'] + names}")
    # one far star is kept: the tail check's last, (3, 1.1, 1), is radius-limit's
    shared = _Shared(functools.cache(_battery_stars), functools.lru_cache(maxsize=1)(_far_star))
    checks = []
    for name, fn in _CHECKS:
        if selection in ("all", name):
            checks.append(fn(shared))
    return {
        "passed": bool(all(c.passed for c in checks)),
        "checks": [
            {"name": c.name, "passed": bool(c.passed), "measure": float(c.measure), "detail": c.detail}
            for c in checks
        ],
    }


def report_json(payload: dict) -> str:
    return json.dumps(payload, indent=2) + "\n"
