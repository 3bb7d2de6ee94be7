"""Radial steady-state profiles of self-gravitating polytropes.

The hydrostatic balance of a polytrope in dimension d reduces to a second
order ODE for the enthalpy variable e, which StarConfig chooses and maps
to and from the density (w = rho^(gamma-1) for gamma > 1, h = ln rho at
gamma = 1):

    e'' + (d-1)/r e' = -4 pi c rho(e),   c = (gamma-1)/gamma, or 1 for h

Integration is done on the equivalent first-order integral form

    e'(r) = -c m(r) / r^(d-1),    m' = 4 pi r^(d-1) rho,

with the cumulative mass m carried as a state variable, so the enthalpy
slope is always consistent with the mass.  Each formula here is written
once for every gamma, in StarConfig's terms.
The two-state system is stepped by the Dormand-Prince 8(5,3) pair in
dop853.py, on Python floats.  A RunStar is the one reader of a star between
radii, off its run's dense output; a Profile is samples and nothing more.
The readers are gas_read (a gas star off its own run), integrate_line (a
liquid line's run, read at any density by RunStar.read) and liquid_read
(the top star of a liquid star's own line); RunStar.profile samples any of
them.  The pencils, the Pohozaev identity and the phase map read a RunStar,
and a Profile (integrated or CSV-read) is data: to analyse a star,
integrate it.

A "liquid" star is the gas solution cut at the radius R where rho = 1; it
exists iff rho(0) > 1.  The run makes the one cut, and applies the one
rescaling law rho_k(r) = kappa rho(kappa^(1-gamma/2) r) that gives every
other star of its (d, gamma) family (RunStar.member; RunStar.read cuts it).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, TextIO

import numpy as np

from . import dop853
from .config import StarConfig, support_threshold

FOUR_PI = 4.0 * math.pi

GAS = "gas"
LIQUID_TRUNCATED = "liquid-truncated"

# default number of samples a profile grid is refined to
MIN_POINTS = 2048


# numpy.polynomial.legendre.leggauss(n) on [-1, 1], (points, weights), bit
# for bit: held as literals, so that importing the package loads no
# numpy.polynomial
_LEGGAUSS = {
    3: ((-0.7745966692414834, 0.0, 0.7745966692414834),
        (0.5555555555555557, 0.8888888888888888, 0.5555555555555557)),
    5: ((-0.906179845938664, -0.5384693101056831, 0.0, 0.5384693101056831, 0.906179845938664),
        (0.23692688505618928, 0.4786286704993663, 0.5688888888888887, 0.4786286704993663,
         0.23692688505618928)),
}


def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's n-point Gauss-Legendre rule on [0, 1], n = 3 or 5: (points, weights), exact to degree 2n - 1.

    ValueError for any other n.
    """
    if n not in _LEGGAUSS:
        raise ValueError(f"gauss_rule holds the 3- and 5-point rules, not n = {n}")
    x, w = (np.array(a) for a in _LEGGAUSS[n])
    return 0.5 * (1.0 + x), 0.5 * w


@dataclass(frozen=True)
class Profile:
    """Sampled radial profile of one star.

    radii starts at 0 and is strictly increasing; rho is strictly decreasing
    with rho[0] = rho_center; mass is the cumulative mass m(r); enthalpy holds
    w (gamma > 1) or h (gamma = 1) depending on config.  liquid_radius is the
    radius where rho = 1 (present iff rho_center > 1 and the grid reaches it);
    gas_radius is the compact-support surface where rho hits 0, if reached.
    nfev and steps are the right-hand-side evaluations and accepted steps of
    the DOP853 run the profile was read off (for a star built from a line,
    the line's run); both are 0 for a profile that was not integrated.

    A Profile is read at its samples only; a star is read between radii
    off its run (RunStar).
    """

    config: StarConfig
    radii: np.ndarray
    rho: np.ndarray
    enthalpy: np.ndarray
    mass: np.ndarray
    kind: str = GAS
    liquid_radius: Optional[float] = None
    gas_radius: Optional[float] = None
    nfev: int = 0
    steps: int = 0

    def __post_init__(self):
        for name in ("radii", "rho", "enthalpy", "mass"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        r = self.radii
        if r.ndim != 1 or r.size < 2:
            raise ValueError("profile needs a 1-D grid with at least two radii")
        if r[0] != 0.0:
            raise ValueError("profile grid must start at r = 0")
        if not np.all(np.diff(r) > 0):
            raise ValueError("profile radii must be strictly increasing")
        for name in ("rho", "enthalpy", "mass"):
            a = getattr(self, name)
            if a.shape != r.shape:
                raise ValueError(f"{name} must match the grid shape")
            if not np.all(np.isfinite(a)):
                raise ValueError(f"non-finite values in {name}")
        if self.rho[0] != self.config.rho_center:
            raise ValueError("rho[0] must equal config.rho_center")
        if self.mass[0] != 0.0:
            raise ValueError("mass must vanish at the center")
        if not np.all(np.diff(self.rho) < 0):
            raise ValueError("density must be strictly decreasing")
        if not np.all(np.diff(self.mass) > 0):
            raise ValueError("mass must be strictly increasing")

    @property
    def r_end(self) -> float:
        return float(self.radii[-1])

    @property
    def total_mass(self) -> float:
        """Mass inside the liquid radius if present, else the grid's.

        That is the mass of the first sample at or beyond the liquid radius:
        an integrated profile holds R as a sample, or drops it where it ties
        the compact surface just outside in mass (_drop_stalled), and that
        surface's sample holds the same mass.  ValueError when R lies beyond
        the grid.
        """
        R = self.liquid_radius
        if R is None:
            return float(self.mass[-1])
        i = int(np.searchsorted(self.radii, R))
        if i == len(self.radii):
            raise ValueError(f"liquid radius {R:g} beyond the profile grid [0, {self.r_end:g}]")
        return float(self.mass[i])


def _mass_hat(config: StarConfig, r: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """m/r^d at radii r, read as its limit (4 pi / d) rho0 at the center and wherever r^d rounds to 0."""
    limit = np.full_like(r, FOUR_PI / config.d * config.rho_center)
    rd = r ** config.d
    return np.divide(mass, rd, out=limit, where=rd > 0.0)


def _enthalpy_slope(config: StarConfig, r, mass):
    """e' = -c m / r^(d-1), c = config.slope_factor, at radii r > 0."""
    return -config.slope_factor * mass / r ** (config.d - 1)


def _seed_coefficients(config: StarConfig):
    """Leading Taylor data at the center for the enthalpy ODE.

    Returns (e0, b, e4, rho2): enthalpy ~ e0 + b r^2 + e4 r^4 and
    rho ~ rho0 + rho2 r^2, accurate to O(r^6)/O(r^4) respectively.
    """
    d, rho0, c = config.d, config.rho_center, config.slope_factor
    e0, gprime = config.enthalpy_center, config.center_density_slope
    b = -(2.0 * math.pi / d) * c * rho0
    e4 = -math.pi * c * b * gprime / (d + 2)
    return e0, b, e4, gprime * b


def _seed(config: StarConfig, r):
    """Enthalpy and mass of config's Taylor seed at radius r (a float or an array)."""
    d, rho0 = config.d, config.rho_center
    e0, b, e4, rho2 = _seed_coefficients(config)
    return e0 + b * r**2 + e4 * r**4, FOUR_PI * (rho0 * r**d / d + rho2 * r ** (d + 2) / (d + 2))


def _refined_grid(steps: np.ndarray, n_target: int) -> np.ndarray:
    """Subdivide integrator steps to ~n_target points: max(f, ceil(h / quantum)) pieces a step.

    quantum is the span over n_target, and f = max(1, min(4, n_target //
    steps)), so at most max(steps, n_target) + n_target + 1 points come out:
    every step is cut in at least 4 where 4 steps fit the target, and a run
    of more steps than the target keeps its steps, cutting only those longer
    than a quantum.  Step [a, b] cut into n pieces contributes
    a + k ((b - a)/n) for k < n and b itself, the points
    np.linspace(a, b, n + 1)[1:] gives.
    """
    total = steps[-1] - steps[0]
    if total <= 0:
        return steps
    quantum = total / max(n_target, 1)
    a, b = steps[:-1], steps[1:]
    floor = max(1, min(4, n_target // len(a)))
    n = np.maximum(floor, np.ceil((b - a) / quantum)).astype(np.int64)
    step = np.repeat((b - a) / n, n)
    start = np.repeat(a, n)
    # k = 1..n within each step
    k = np.arange(1, n.sum() + 1) - np.repeat(np.cumsum(n) - n, n)
    grid = k * step + start
    grid[np.cumsum(n) - 1] = b
    return np.concatenate([steps[:1], grid])


def _moving(*series: np.ndarray) -> np.ndarray:
    """Mask of samples where each series is strictly below all earlier and above all later values."""
    keep = np.ones(len(series[0]), dtype=bool)
    for a in series:
        keep[1:] &= a[1:] < np.minimum.accumulate(a)[:-1]
        keep[:-1] &= a[:-1] > np.maximum.accumulate(a[::-1])[::-1][1:]
    return keep


def _drop_stalled(radii, rho, enth, mass, pinned):
    """The samples where rho falls and m grows strictly, plus r = 0 and the radii in pinned.

    Near a flat centre (rho0 -> 1+) rho, and near a compact surface m, stop
    moving in float64, so neighbouring samples can tie.  Two pinned radii
    can tie too (a liquid surface just inside the compact one); of kept
    samples that tie, the outermost stays.
    """
    keep = _moving(rho, -mass) | np.isin(radii, pinned)
    keep[0] = True
    kept = np.flatnonzero(keep)
    keep[kept[:-1][(np.diff(rho[kept]) >= 0) | (np.diff(mass[kept]) <= 0)]] = False
    return radii[keep], rho[keep], enth[keep], mass[keep]


def _rescaled(config: StarConfig, kappa: float, enthalpy: np.ndarray, mass: np.ndarray):
    """Enthalpy and mass of rho_k(r) = kappa rho(kappa^(1-gamma/2) r) from those of rho.

    The enthalpy is config.rescaled_enthalpy's, the mass scaled by
    _mass_scale; kappa = 1 returns the same values.
    """
    return config.rescaled_enthalpy(enthalpy, kappa), _mass_scale(config, kappa) * mass


def _mass_scale(config: StarConfig, kappa: float) -> float:
    """kappa^(1-d(1-gamma/2)): the mass of rho_k at r over that of rho at kappa^(1-gamma/2) r."""
    return kappa ** (1.0 - config.d * (1.0 - config.gamma / 2.0))


def _integrate(config: StarConfig, tol: float, r_max: float, stop: float):
    """One DOP853 run of config outward from its Taylor seed: (seed radius, solution).

    The run stops after the step where the enthalpy falls through stop
    (config.gas_stop for a gas run, config.boundary_enthalpy for a liquid
    one), or at r_max.  Raises RuntimeError when the seed overflows
    float64 (rho0^(3-gamma) near 1e308 or more), when the seed radius is so
    small that r0^(d-1) rounds to 0 (large d or rho0), or when rho0 > 1 but
    the central enthalpy rounds onto the liquid surface's (w0 - 1 rounds to
    0 for gamma near 1), which leaves no room for a seed.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive, got {tol}")
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    d, rho0 = config.d, config.rho_center
    e0, b, _, _ = _seed_coefficients(config)

    # leave the removable 1/r^(d-1) singularity with a Taylor seed
    r0 = 1e-2 * math.sqrt(config.enthalpy_scale / abs(b))
    if rho0 > 1.0:
        gap = e0 - config.boundary_enthalpy
        if not gap > 0.0:
            raise RuntimeError(
                f"the central enthalpy of {config} rounds onto the liquid surface's "
                "in float64 (w0 - 1 rounds to 0), which leaves no room for a Taylor seed"
            )
        r0 = min(r0, 1e-3 * math.sqrt(gap / abs(b)))
    r0 = min(r0, 1e-3 * r_max)

    c, rho_of = config.slope_factor, config.scalar_rho()

    def rhs(r, e, m):
        rd = r ** (d - 1)
        return -c * m / rd, FOUR_PI * rd * rho_of(e)

    seed = _seed(config, r0)
    if not all(map(math.isfinite, seed)):
        raise RuntimeError(f"the Taylor seed of {config} overflows float64")
    if r0 ** (d - 1) == 0.0:
        raise RuntimeError(
            f"the Taylor seed radius {r0:.17g} of {config} underflows float64: "
            f"r^{d - 1} rounds to 0 there, and the right-hand side divides by it"
        )
    try:
        sol = dop853.solve(rhs, r0, seed, r_max, rtol=0.05 * tol, atol=1e-300, stop=stop)
    except RuntimeError as exc:
        raise RuntimeError(
            f"integration failed for {config}: {exc} "
            "(tolerance too loose or r_max too aggressive)"
        ) from exc
    return r0, sol


@dataclass(frozen=True)
class RunStar:
    """One star read straight off a DOP853 run; a Profile is its samples (profile).

    config's star is rho(y) = kappa rho_run(lam y), lam = kappa^(1-gamma/2):
    the run's own star at kappa = 1 (gas_read, integrate_line), any other
    star of its (d, gamma) family otherwise (member, read).  r0 (the seed
    radius), end (where the star ends) and the liquid and compact surfaces
    liquid and gas (or None) are radii of the run; the star's are these over
    lam.  _read is the one evaluation of a star off a run:
    config's own Taylor seed (_seed) below seed_radius, the run's dense
    output at lam y through _rescaled from there on.  radii are r = 0 and
    the run's step boundaries below end, over lam: the nodes between which
    the read is one polynomial.  spectral.build_sl_data takes a liquid one,
    and total_mass is the run's mass at its liquid radius, the mass its
    profile's sample there holds.
    """

    config: StarConfig
    sol: dop853.DenseSolution
    kappa: float
    r0: float
    end: float
    liquid: Optional[float] = None
    gas: Optional[float] = None

    @property
    def lam(self) -> float:
        return self.kappa ** (1.0 - self.config.gamma / 2.0)

    @property
    def seed_radius(self) -> float:
        return self.r0 / self.lam

    @property
    def liquid_radius(self) -> Optional[float]:
        return None if self.liquid is None else self.liquid / self.lam

    @property
    def gas_radius(self) -> Optional[float]:
        return None if self.gas is None else self.gas / self.lam

    @property
    def radii(self) -> np.ndarray:
        ts = self.sol.ts
        return np.concatenate([[0.0], ts[ts < self.end] / self.lam])

    @property
    def total_mass(self) -> float:
        """The run's mass at the liquid radius if there is one, else where the star ends.

        That radius is read as _read reads it, with the same bits, by the
        run's scalar read (DenseSolution.at): every surface lies on the run,
        so at or beyond the seed radius.
        """
        end = self.end if self.liquid is None else self.liquid
        return _mass_scale(self.config, self.kappa) * self.sol.at(self.lam * (end / self.lam), 1)

    def member(self, rho0: float, end: Optional[float] = None) -> RunStar:
        """The uncut star of central density rho0 > 0 in the run's family (read cuts it).

        The run's solution on radii over lam (kappa = rho0 over the run's own
        central density) to its radius end, or the run's compact surface or
        end if first, with the compact and liquid surfaces up to there.
        """
        config = StarConfig(self.config.d, self.config.gamma, rho0)
        kappa = rho0 / (self.config.rho_center / self.kappa)
        stop = self.sol.ts[-1] if self.gas is None else self.gas
        if end is not None:
            stop = min(stop, kappa ** (1.0 - config.gamma / 2.0) * end)
        liquid = self.sol.crossing(config.enthalpy_of_inverse(kappa)) if rho0 > 1.0 else None
        liquid, gas = (x if x is not None and x <= stop else None for x in (liquid, self.gas))
        return RunStar(config, self.sol, kappa, self.r0, stop, liquid, gas)

    def read(self, rho0: float) -> Optional[RunStar]:
        """The liquid star of central density rho0: member(rho0) ended at its liquid radius, or None.

        end and liquid are one run radius, so its profile is LIQUID_TRUNCATED.
        None when the member has no liquid surface: rho0 so close to 1 that
        the run starts below its level, or a run that ends before it.
        ValueError when rho0 is not above 1, or StarConfig rejects it.
        """
        if not rho0 > 1.0:
            raise ValueError(f"a liquid star needs rho0 > 1, got {rho0}")
        star = self.member(rho0)
        R = star.liquid
        return None if R is None else RunStar(star.config, self.sol, star.kappa, self.r0, R, R)

    def _read(self, y: np.ndarray):
        """The enthalpy and mass at the ascending radii y (1-D, in [0, end / lam])."""
        enthalpy, mass = np.empty_like(y), np.empty_like(y)
        k = int(np.searchsorted(y, self.seed_radius))  # the radii below seed_radius
        enthalpy[:k], mass[:k] = _seed(self.config, y[:k])
        enthalpy[k:], mass[k:] = _rescaled(self.config, self.kappa, *self.sol(self.lam * y[k:]))
        return enthalpy, mass

    def _ascending(self, r: np.ndarray):
        """r's radii, ravelled and in ascending order, and the order that sorts them.

        The sort is stable, which merges ascending runs.  ValueError for a
        radius outside [0, end / lam].
        """
        end = self.end / self.lam
        # one pass; the comparisons are False for NaN, so NaN is rejected too
        if not np.all((r >= 0.0) & (r <= end)):
            raise ValueError(f"radius outside the star [0, {end:g}]")
        y = r.ravel()
        order = np.argsort(y, kind="stable") if np.any(y[1:] < y[:-1]) else slice(None)
        return y[order], order

    def enthalpy_and_mass_hat_at(self, r):
        """The enthalpy and m/r^d at radii r in [0, end / lam], each shaped like r.

        Radii in any order are read in ascending order, sorted once.
        ValueError for a radius outside [0, end / lam].
        """
        r = np.asarray(r, dtype=float)
        y, order = self._ascending(r)
        enthalpy, mass = self._read(y)
        out = np.empty((2, len(y)))
        out[0, order], out[1, order] = enthalpy, _mass_hat(self.config, y, mass)
        return out[0].reshape(r.shape), out[1].reshape(r.shape)

    def enthalpy_at(self, r):
        """The enthalpy at radii r in [0, end / lam], shaped like r.

        Bit for bit enthalpy_and_mass_hat_at's first column, from the run's
        enthalpy column alone (DenseSolution.__call__ on component 0): no
        mass and no m/r^d.  ValueError as enthalpy_and_mass_hat_at.
        """
        r = np.asarray(r, dtype=float)
        y, order = self._ascending(r)
        k = int(np.searchsorted(y, self.seed_radius))  # the radii below seed_radius
        run = self.config.rescaled_enthalpy(self.sol(self.lam * y[k:], 0), self.kappa)
        out = np.empty(len(y))
        out[order] = np.concatenate([_seed(self.config, y[:k])[0], run])
        return out.reshape(r.shape)

    def profile(self, points: int = MIN_POINTS) -> Profile:
        """The star's samples as a Profile, read in one _read.

        The grid is the run's steps below end, then end, over lam, refined
        to at least points samples plus the crossing radii, after the seed's
        r = 0 and three radii inside (0, seed_radius) that sample the seed's
        curvature.  A surface the star ends at is pinned to
        its level, where it lies exactly: a compact one to the stop level, a
        liquid one to rho = 1, which makes a LIQUID_TRUNCATED profile whose
        mass stays the run's.  Samples where rho or m has stopped moving in
        float64 are dropped (r = 0 and the crossing radii are kept);
        RuntimeError when that leaves r = 0 alone.
        """
        config, lam = self.config, self.lam
        liquid_r, gas_r = self.liquid_radius, self.gas_radius
        cut = self.end == self.liquid
        ts = self.sol.ts
        grid = _refined_grid(np.append(ts[ts < self.end], self.end) / lam, points)
        crossings = [x for x in (liquid_r, gas_r) if x is not None]
        extra = [x for x in crossings if x < grid[-1]]
        if extra:
            grid = np.unique(np.concatenate([grid, np.array(extra)]))
        radii = np.concatenate([self.seed_radius * np.array([0.0, 0.25, 0.5, 0.75]), grid])
        enth, mass = self._read(radii)
        if gas_r is not None and grid[-1] >= gas_r:
            enth[-1] = config.gas_stop
        if cut:
            enth[-1] = config.boundary_enthalpy
        rho = config.rho_of_enthalpy(enth)
        rho[0] = config.rho_center

        keep = np.concatenate([[True], np.diff(radii) > 0])
        radii, rho, enth, mass = _drop_stalled(radii[keep], rho[keep], enth[keep], mass[keep], crossings)
        if len(radii) < 2:
            raise RuntimeError(f"the density of {config} is flat to float64 on [0, {grid[-1]:.17g}]")

        return Profile(config=config, radii=radii, rho=rho, enthalpy=enth, mass=mass,
                       kind=LIQUID_TRUNCATED if cut else GAS, liquid_radius=liquid_r, gas_radius=gas_r,
                       nfev=self.sol.nfev, steps=self.sol.n_steps)


def _run_star(config: StarConfig, tol: float, r_max: float, stop: float) -> RunStar:
    """config's own star off one run to the stop level (_integrate), ended at its crossing or r_max."""
    r0, sol = _integrate(config, tol, r_max, stop)
    end, level = sol.crossing(stop), config.boundary_enthalpy
    # a line's run stops at its liquid surface, so that crossing is end
    liquid = (end if stop == level else sol.crossing(level)) if config.rho_center > 1.0 else None
    # a run whose stop level has density 0 stops at the compact surface
    gas = end if config.rho_of_enthalpy(stop) == 0.0 else None
    return RunStar(config, sol, 1.0, r0, sol.ts[-1] if end is None else end, liquid, gas)


def gas_read(config: StarConfig, tol: float = 1e-10, r_max: float = 50.0) -> RunStar:
    """config's gas star off its own run, integrated outward from the center.

    The run ends at r_max, at the compact-support surface (w crossing 0,
    recorded as gas_radius), or at an enthalpy underflow guard.  When
    rho_center > 1 the liquid surface rho = 1 it passes is recorded as
    liquid_radius; the liquid star cut there is liquid_read's.

    tol is the delivered relative accuracy of the star; the embedded
    Runge-Kutta pair (DOP853, see dop853.solve) runs at a 20x stricter
    per-step tolerance (rtol = 0.05 tol, atol = 1e-300) to absorb global
    error growth.  The run ends after the step that falls through the
    surface or guard; every radius above is a downward crossing of the
    enthalpy, read off the run by DenseSolution.crossing: Brent's method
    (dop853.brentq) on the step's dense polynomial.  Its profile is the
    run's own star sampled (RunStar.profile).  Raises RuntimeError when the
    seed overflows, the step size underflows or the state is not finite,
    and profile raises it when the density is flat to float64 over the
    whole star.
    """
    return _run_star(config, tol, r_max, config.gas_stop)


def integrate_line(top: StarConfig, tol: float = 1e-10, r_max: float = 50.0) -> RunStar:
    """The liquid star top off one run, for the stars of every density in (1, rho_top].

    The run is gas_read's with the liquid surface rho = 1 as its stop level;
    RunStar.read reads each star off it on demand, for a scan line (top its
    largest rho0), a critical-density bracket (top its upper end) or a lone
    star (liquid_read).  The top star's seed radius is kept, so the seed
    covers r0 / lam of each smaller star, a larger share of its radius than
    its own seed would.
    """
    if not top.rho_center > 1.0:
        raise ValueError(f"a liquid line needs rho_top > 1, got {top.rho_center}")
    return _run_star(top, tol, r_max, top.boundary_enthalpy)


def liquid_read(config: StarConfig, tol: float = 1e-10, r_max: float = 50.0) -> RunStar:
    """The liquid star of config as a RunStar: the top star of its own line, read off its run.

    Its run takes gas_read's steps up to R, so R is bit for bit the
    liquid_radius of config's gas_read; its profile's last sample is R,
    with rho = 1 and the run's mass there.  Raises RuntimeError when the
    run ends at r_max before its liquid radius, and integrate_line's errors
    otherwise.
    """
    star = integrate_line(config, tol, r_max).read(config.rho_center)
    if star is None:
        raise _beyond_r_max(config, r_max)
    return star


def _beyond_r_max(config: StarConfig, r_max: float) -> RuntimeError:
    return RuntimeError(f"the liquid radius of {config} lies beyond r_max = {r_max:g} (increase r_max)")


def liquid_radius(star: RunStar) -> float:
    """Radius R where rho(R) = 1: the crossing the star's run recorded.

    Raises ValueError when rho_center <= 1, and RuntimeError, as
    liquid_read does, when the run ends at r_max before R.
    """
    config = star.config
    if config.rho_center <= 1.0:
        raise ValueError(
            f"no liquid truncation exists: rho_center = {config.rho_center} <= 1"
        )
    if star.liquid_radius is None:
        raise _beyond_r_max(config, star.end)
    return float(star.liquid_radius)


def decay_bound(config: StarConfig, r) -> np.ndarray:
    """Pointwise upper bound on the density of any steady state.

    rho0 (1 + x)^(-1/(2-gamma)) = rho0 exp(-t log1p(x)/x), with
    t = (2 pi / (d gamma)) rho0^(2-gamma) r^2 and x = (2-gamma) t, and
    log1p(x)/x read as its limit 1 at x = 0.  That is
    1/(1/rho0 + (2 pi / d) r^2) at gamma = 1 and rho0 exp(-(pi / d) r^2) at
    gamma = 2, exactly rho0 at r = 0, and free of cancellation at large rho0.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be non-negative")
    d, g, rho0 = config.d, config.gamma, config.rho_center
    with np.errstate(over="ignore", invalid="ignore"):  # t = inf reads as its limit, a bound of 0
        t = (2.0 * math.pi / (d * g)) * rho0 ** (2.0 - g) * r**2
        x = (2.0 - g) * t
    ratio = np.divide(np.log1p(x), x, out=np.ones_like(x), where=(x > 0.0) & (x < math.inf))
    return rho0 * np.exp(-t * ratio)


_INTERVAL_X, _INTERVAL_W = gauss_rule(5)


def _gauss_intervals(f: Callable, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of f over each [a_k, b_k]: h sum_j W_j f(a + h X_j), h = b - a, (X, W) = gauss_rule(5).

    f reads the points node by node, so where the a_k and b_k ascend it reads
    five ascending runs, which a RunStar sorts in one merge.  The sum takes
    the nodes in order, one elementwise step each, so each interval's value
    is its own whatever intervals come with it (a matrix-vector product
    rounds by its length).
    """
    h = b - a
    values = f((a + h * _INTERVAL_X[:, None]).ravel()).reshape(len(_INTERVAL_X), -1)
    total = values[0] * _INTERVAL_W[0]
    for v, w in zip(values[1:], _INTERVAL_W[1:]):
        total += v * w
    return h * total


def pohozaev_residual(star: RunStar, r) -> np.ndarray:
    """Defect of the Pohozaev-type identity satisfied by steady states.

    The enthalpy solves e'' + (d-1)/r e' + f(e) = 0 with f = 4 pi c rho and
    F = 4 pi c^2 rho^gamma, F' = f (c = config.slope_factor), so for every gamma

        int_0^r s^(d-1) (d F - (d-2)/2 e f) ds = r^d (e'^2/2 + F) + (d-2)/2 r^(d-1) e e'.

    star is read at r (RunStar.enthalpy_and_mass_hat_at), and its enthalpy
    alone (RunStar.enthalpy_at) at the Gauss points of the segments between
    its radii and of the one from the last radius below each r to r, so
    each r's value is r's alone
    whatever radii are asked with it.  The defect is normalized by the
    largest of the four terms, so a correct star yields values at the
    quadrature/integration error level.  It is exactly 0 at r = 0; a scalar
    r gives a float.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    config = star.config
    d, g, c = config.d, config.gamma, config.slope_factor
    e, mass_hat = star.enthalpy_and_mass_hat_at(r_arr)  # rejects radii outside the star

    def integrand(y):
        """(d F - (d-2)/2 e f) y^(d-1) / (4 pi c)."""
        e = star.enthalpy_at(y)
        rho = config.rho_of_enthalpy(e)
        return (d * c * rho**g - 0.5 * (d - 2.0) * e * rho) * y ** (d - 1)

    # cumulative integral up to the star's radius at or below each r, plus
    # the partial segment from there to r for radii off the star's
    radii = star.radii
    cum = np.zeros_like(radii)
    np.cumsum(_gauss_intervals(integrand, radii[:-1], radii[1:]), out=cum[1:])
    i = np.searchsorted(radii, r_arr, side="right") - 1
    integral = cum[i]
    off = r_arr > radii[i]
    if np.any(off):
        integral[off] += _gauss_intervals(integrand, radii[i[off]], r_arr[off])

    pos = r_arr > 0.0
    rp, integral, e = r_arr[pos], integral[pos], e[pos]
    eprime = _enthalpy_slope(config, rp, mass_hat[pos] * rp**d)
    lhs = FOUR_PI * c * integral
    t1 = 0.5 * eprime**2 * rp**d
    t2 = FOUR_PI * c**2 * config.rho_of_enthalpy(e) ** g * rp**d
    t3 = 0.5 * (d - 2.0) * eprime * e * rp ** (d - 1)
    scale = np.max(np.abs((lhs, t1, t2, t3)), axis=0)
    out = np.zeros_like(r_arr)
    out[pos] = np.divide(lhs - (t1 + t2 + t3), scale, out=np.zeros_like(scale), where=scale > 0)
    return out if np.ndim(r) else float(out[0])


@dataclass(frozen=True)
class ClosedFormStar:
    """An exact steady state known in closed form.

    variant "singular": rho = amplitude * r^exponent on (0, inf), valid when
    2(d-1) - d gamma >= 0.  variant "critical-explicit": the bounded solution
    at gamma = 2d/(d+2) with central density `amplitude`; `radius` is its
    liquid radius when amplitude >= 1.
    """

    variant: str
    d: int
    gamma: float
    amplitude: float
    exponent: Optional[float] = None
    radius: Optional[float] = None

    def rho_at(self, r):
        r = np.asarray(r, dtype=float)
        if self.variant == "singular":
            return self.amplitude * r**self.exponent
        q = (2.0 * math.pi / self.d**2) * self.amplitude ** (4.0 / (self.d + 2.0))
        return self.amplitude * (1.0 + q * r**2) ** (-1.0 - self.d / 2.0)

    def mass_at(self, r):
        r = np.asarray(r, dtype=float)
        d = self.d
        if self.variant == "singular":
            s = d + self.exponent  # d - 2/(2-gamma) > 0 in the admissible range
            return FOUR_PI * self.amplitude / s * r**s
        q = (2.0 * math.pi / d**2) * self.amplitude ** (4.0 / (d + 2.0))
        return (FOUR_PI / d) * self.amplitude * r**d * (1.0 + q * r**2) ** (-d / 2.0)

    def ode_residual(self, r) -> float:
        """Steady-state ODE defect at radius r, normalized by the largest term."""
        r = float(r)
        if r <= 0.0:
            raise ValueError("residual is evaluated at r > 0")
        d, g = self.d, self.gamma
        if self.variant == "singular":
            # the density form u' + (d-1)/r u + 4 pi rho, u = g rho^(g-2) rho', for
            # rho = A r^k: u = v r, v = g k A^(g-1) r^(s-2), s = k (g-1), and s - 2 = k
            k = self.exponent
            v = g * k * self.amplitude ** (g - 1.0) * r**k
            t1, t2, t3 = (k * (g - 1.0) - 1.0) * v, (d - 1.0) * v, FOUR_PI * self.amplitude * r**k
        else:
            q = (2.0 * math.pi / d**2) * self.amplitude ** (4.0 / (d + 2.0))
            Aw = self.amplitude ** ((d - 2.0) / (d + 2.0))
            a = 1.0 - d / 2.0
            base = 1.0 + q * r**2
            w1 = Aw * a * 2.0 * q * r * base ** (a - 1.0)
            w2 = Aw * a * 2.0 * q * (base ** (a - 1.0) + (a - 1.0) * 2.0 * q * r**2 * base ** (a - 2.0))
            t1, t2 = w2, (d - 1.0) / r * w1
            t3 = FOUR_PI * (g - 1.0) / g * float(self.rho_at(r))
        return (t1 + t2 + t3) / max(abs(t1), abs(t2), abs(t3))


def singular_base(d: int, gamma: float) -> float:
    """(-d gamma^2 + 2(d-1) gamma) / (2 pi (2-gamma)^2): the singular amplitude (v1*) ^ (2-gamma)."""
    return (-d * gamma**2 + 2.0 * (d - 1.0) * gamma) / (2.0 * math.pi * (2.0 - gamma) ** 2)


def singular_star(d: int, gamma: float) -> ClosedFormStar:
    """The scale-invariant power-law solution rho = A r^(-2/(2-gamma)).

    Exists iff 2(d-1) - d gamma >= 0, with
    A = ((1/2pi)(-d gamma^2 + 2(d-1) gamma)/(2-gamma)^2)^(1/(2-gamma)).
    """
    StarConfig(d, gamma, 1.0)
    disc = 2.0 * (d - 1.0) - d * gamma
    if disc < 0.0:
        raise ValueError(
            f"no singular power-law solution: 2(d-1) - d*gamma = {disc:g} < 0"
        )
    amplitude = singular_base(d, gamma) ** (1.0 / (2.0 - gamma))
    return ClosedFormStar(
        variant="singular",
        d=d,
        gamma=gamma,
        amplitude=amplitude,
        exponent=-2.0 / (2.0 - gamma),
    )


def explicit_profile_critical(d: int, C: float) -> ClosedFormStar:
    """Closed-form star at the critical index gamma = 2d/(d+2).

    rho(r) = C (1 + (2 pi / d^2) C^(4/(d+2)) r^2)^(-1-d/2); the liquid radius
    R = ((d^2/2pi) C^(-4/(d+2)) (C^(2/(d+2)) - 1))^(1/2) exists for C >= 1.
    """
    gamma = support_threshold(d)
    if not (C > 0.0 and math.isfinite(C)):
        raise ValueError(f"central density must be positive, got {C}")
    StarConfig(d, gamma, C)
    radius = None
    if C >= 1.0:
        radius = math.sqrt(
            d**2 / (2.0 * math.pi) * C ** (-4.0 / (d + 2.0)) * (C ** (2.0 / (d + 2.0)) - 1.0)
        )
    return ClosedFormStar(
        variant="critical-explicit", d=d, gamma=gamma, amplitude=C, radius=radius
    )


def _fmt(x: Optional[float]) -> str:
    """x to 17 significant digits, which read back as the same double; None reads "nan"."""
    return "nan" if x is None else f"{x:.17g}"


def write_profile_csv(profile: Profile, out: TextIO) -> None:
    """Emit the profile as CSV: one metadata line, then r,rho,enthalpy,mass rows."""
    meta = (
        f"# d={profile.config.d} gamma={_fmt(profile.config.gamma)}"
        f" rho0={_fmt(profile.config.rho_center)}"
        f" R={_fmt(profile.liquid_radius)}"
        f" M={_fmt(profile.total_mass)}"
        f" kind={profile.kind}"
    )
    if profile.gas_radius is not None:
        meta += f" Rgas={_fmt(profile.gas_radius)}"
    out.write(meta + "\n")
    out.write("r,rho,enthalpy,mass\n")
    for r, rho, w, m in zip(profile.radii, profile.rho, profile.enthalpy, profile.mass):
        out.write(f"{_fmt(r)},{_fmt(rho)},{_fmt(w)},{_fmt(m)}\n")


def read_profile_csv(src: TextIO) -> Profile:
    """Rebuild a Profile from the CSV emitted by write_profile_csv (ValueError on bad metadata)."""
    meta = {}
    header = None
    rows = []
    for line in src:
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    meta[k] = v
            continue
        if header is None:
            header = line
            if header != "r,rho,enthalpy,mass":
                raise ValueError(f"unexpected CSV header: {header!r}")
            continue
        rows.append([float(t) for t in line.split(",")])
    if header is None or not rows:
        raise ValueError("no profile data found")
    for key in ("d", "gamma", "rho0"):
        if key not in meta:
            raise ValueError(f"profile CSV metadata has no {key}= entry")
    kind = meta.get("kind", GAS)
    if kind not in (GAS, LIQUID_TRUNCATED):
        raise ValueError(f"unknown profile kind {kind!r}: expected {GAS} or {LIQUID_TRUNCATED}")
    arr = np.array(rows, dtype=float)
    config = StarConfig(int(meta["d"]), float(meta["gamma"]), float(meta["rho0"]))
    R = float(meta.get("R", "nan"))
    gas_r = float(meta["Rgas"]) if "Rgas" in meta else None
    return Profile(
        config=config,
        radii=arr[:, 0],
        rho=arr[:, 1],
        enthalpy=arr[:, 2],
        mass=arr[:, 3],
        kind=kind,
        liquid_radius=None if math.isnan(R) else R,
        gas_radius=gas_r,
    )
