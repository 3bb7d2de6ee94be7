"""Planar autonomous form of the radial balance and its fixed-point structure.

With u1 = r^(2/(2-gamma)) rho and u2 = r^(2/(2-gamma)-d) m, the radial ODE
becomes an autonomous system in tau = ln r:

    dv1/dtau = -(1/gamma) v1^(2-gamma) v2 + (2/(2-gamma)) v1
    dv2/dtau = 4 pi v1 - (d - 2/(2-gamma)) v2

valid for 1 <= gamma < 2.  Besides the origin there is one interior fixed
point v*, which the scaled profile spirals into when gamma < 2d/(d+2); its
first coordinate is the amplitude of the singular power-law star.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, TextIO, Tuple

import numpy as np

from .config import StarConfig, support_threshold
from .steady import FOUR_PI, Profile, singular_base


def _check_gamma(d: int, gamma: float) -> None:
    StarConfig(d, gamma, 1.0)
    if gamma >= 2.0:
        raise ValueError("the planar reformulation requires gamma < 2")


@dataclass(frozen=True)
class PhaseState:
    """Scaled state (v1, v2) at log-radius tau; fields may be arrays."""

    v1: np.ndarray
    v2: np.ndarray
    tau: np.ndarray


@dataclass(frozen=True)
class FixedPointReport:
    """Interior fixed point with the spectrum of the linearization there."""

    v_star: np.ndarray
    eigenvalues: Tuple[complex, complex]
    exponentially_stable: bool


def vector_field(v, d: int, gamma: float) -> np.ndarray:
    """Right-hand side F(v) of the planar system; requires v1 >= 0."""
    _check_gamma(d, gamma)
    v1, v2 = float(v[0]), float(v[1])
    if v1 < 0.0:
        raise ValueError("v1 must be non-negative")
    f1 = -(1.0 / gamma) * v1 ** (2.0 - gamma) * v2 + 2.0 / (2.0 - gamma) * v1
    f2 = FOUR_PI * v1 - (d - 2.0 / (2.0 - gamma)) * v2
    return np.array([f1, f2])


def fixed_points(d: int, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """The two rest states (origin, v*); requires 2(d-1) - d gamma > 0."""
    _check_gamma(d, gamma)
    if 2.0 * (d - 1.0) - d * gamma <= 0.0:
        raise ValueError(
            f"no interior fixed point: 2(d-1) - d*gamma = {2*(d-1) - d*gamma:g} <= 0"
        )
    base = singular_base(d, gamma)
    v1 = base ** (1.0 / (2.0 - gamma))
    v2 = (2.0 * gamma / (2.0 - gamma)) * base ** ((gamma - 1.0) / (2.0 - gamma))
    return np.zeros(2), np.array([v1, v2])


def fixed_point_jacobian(d: int, gamma: float) -> np.ndarray:
    """The 2x2 linearization of F at the interior fixed point."""
    _, vs = fixed_points(d, gamma)
    v1, v2 = vs
    return np.array(
        [
            [
                -(2.0 - gamma) / gamma * v1 ** (1.0 - gamma) * v2 + 2.0 / (2.0 - gamma),
                -(1.0 / gamma) * v1 ** (2.0 - gamma),
            ],
            [FOUR_PI, -(d - 2.0 / (2.0 - gamma))],
        ]
    )


def jacobian_spectrum(d: int, gamma: float) -> FixedPointReport:
    """Eigenvalues of the linearization at v*, in closed form.

    lambda = 2/(2-gamma) - 1 - d/2 +/- (1/2) sqrt((d-2)^2 - 8(-d gamma + 2(d-1))/(2-gamma)^2);
    both real parts are negative exactly when gamma < 2d/(d+2).
    """
    _, vs = fixed_points(d, gamma)
    a = 2.0 / (2.0 - gamma) - 1.0 - d / 2.0
    disc = (d - 2.0) ** 2 - 8.0 * (-d * gamma + 2.0 * (d - 1.0)) / (2.0 - gamma) ** 2
    root = cmath.sqrt(disc)
    lam_plus = a + 0.5 * root
    lam_minus = a - 0.5 * root
    stable = max(lam_plus.real, lam_minus.real) < 0.0
    return FixedPointReport(v_star=vs, eigenvalues=(lam_plus, lam_minus), exponentially_stable=stable)


def buchdahl_bounds(d: int, gamma: float) -> Tuple[float, Optional[float]]:
    """Uniform bounds on (v1, v2) along any star; the v2 bound needs d(2-gamma) > 2."""
    _check_gamma(d, gamma)
    v1_bound = ((2.0 * math.pi / d) * (2.0 - gamma) / gamma) ** (-1.0 / (2.0 - gamma))
    denom = d - 2.0 / (2.0 - gamma)
    v2_bound = FOUR_PI / denom * v1_bound if denom > 0.0 else None
    return v1_bound, v2_bound


def profile_to_phase(profile: Profile, r) -> PhaseState:
    """Push a profile forward into the scaled plane at radius r (scalar or array)."""
    config = profile.config
    _check_gamma(config.d, config.gamma)
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0.0):
        raise ValueError("phase variables are defined for r > 0")
    power = 2.0 / (2.0 - config.gamma)
    v1 = r_arr**power * profile.rho_at(r_arr)
    v2 = r_arr ** (power - config.d) * profile.mass_at(r_arr)
    tau = np.log(r_arr)
    if np.ndim(r) == 0:
        return PhaseState(v1=float(v1[0]), v2=float(v2[0]), tau=float(tau[0]))
    return PhaseState(v1=v1, v2=v2, tau=tau)


def phase_trajectory(profile: Profile) -> PhaseState:
    """Pushforward of all positive-radius grid samples."""
    config = profile.config
    _check_gamma(config.d, config.gamma)
    r = profile.radii[1:]
    power = 2.0 / (2.0 - config.gamma)
    return PhaseState(
        v1=r**power * profile.rho[1:],
        v2=r ** (power - config.d) * profile.mass[1:],
        tau=np.log(r),
    )


@dataclass(frozen=True)
class TailFit:
    """Least-squares decay exponent of |v1 - v1*| over the outermost decade."""

    exponent: float
    terminal_deviation: float
    window: Tuple[float, float]
    n_points: int


def tail_convergence_rate(profile: Profile) -> TailFit:
    """Fit ln|u1(r) - v1*| against -c ln r over r in [r_end/10, r_end].

    Requires gamma < 2d/(d+2) (otherwise the scaled profile does not approach
    the interior fixed point).  The fitted c is reported, not asserted: the
    approach is an exponentially damped spiral whose oscillation makes any
    finite-window fit noisy.
    """
    config = profile.config
    if config.gamma >= support_threshold(config.d):
        raise ValueError(
            f"tail convergence requires gamma < {support_threshold(config.d):g}, "
            f"got {config.gamma}"
        )
    _, vs = fixed_points(config.d, config.gamma)
    traj = phase_trajectory(profile)
    r = np.exp(traj.tau)
    window = (profile.r_end / 10.0, profile.r_end)
    sel = r >= window[0]
    dev = np.abs(traj.v1[sel] - vs[0])
    lr = traj.tau[sel]
    good = dev > 1e-13 * vs[0]
    if good.sum() < 8:
        raise RuntimeError("insufficient tail data: integrate to a larger r_max")
    slope, _ = np.polyfit(lr[good], np.log(dev[good]), 1)
    terminal = float(np.abs(traj.v1[-1] - vs[0]))
    return TailFit(
        exponent=float(-slope),
        terminal_deviation=terminal,
        window=window,
        n_points=int(good.sum()),
    )


def radius_limit(d: int, gamma: float) -> float:
    """Limit of the liquid radius along the scaling family: (v1*)^(1-gamma/2)."""
    if gamma >= support_threshold(d):
        raise ValueError(
            f"radius limit requires gamma < {support_threshold(d):g}, got {gamma}"
        )
    _, vs = fixed_points(d, gamma)
    return float(vs[0] ** (1.0 - gamma / 2.0))


def write_phase_csv(state: PhaseState, out: TextIO) -> None:
    """Emit a trajectory as CSV with header tau,v1,v2."""
    out.write("tau,v1,v2\n")
    tau = np.atleast_1d(state.tau)
    v1 = np.atleast_1d(state.v1)
    v2 = np.atleast_1d(state.v2)
    for t, a, b in zip(tau, v1, v2):
        out.write(f"{t:.17g},{a:.17g},{b:.17g}\n")


def fixed_point_report_dict(report: FixedPointReport) -> dict:
    """JSON-ready view of a FixedPointReport.

    lambda_re/lambda_im describe the eigenvalue with the largest real part
    (the pair is complex-conjugate whenever lambda_im != 0).
    """
    lam = max(report.eigenvalues, key=lambda z: z.real)
    return {
        "v1_star": float(report.v_star[0]),
        "v2_star": float(report.v_star[1]),
        "lambda_re": float(lam.real),
        "lambda_im": abs(float(lam.imag)),
        "stable": bool(report.exponentially_stable),
    }
