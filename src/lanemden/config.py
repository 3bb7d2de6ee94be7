"""Parameter triple for a polytropic star, its enthalpy variable, and the critical exponent thresholds.

StarConfig is the one place that chooses the enthalpy variable
(w = rho^(gamma-1), or h = ln rho at gamma = 1); the rest of the package
asks it for every quantity that depends on that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


def support_threshold(d: int) -> float:
    """Adiabatic index above which the gas star has compact support: 2d/(d+2)."""
    return 2.0 * d / (d + 2.0)


def stability_threshold(d: int) -> float:
    """Adiabatic index at and above which the potential term is non-negative: 2(d-1)/d."""
    return 2.0 * (d - 1.0) / d


@dataclass(frozen=True)
class StarConfig:
    """Physical parameters (d, gamma, rho_center) of a polytropic star.

    Units are normalized so that the pressure law is p = rho^gamma (gas) or
    p = rho^gamma - 1 (liquid), hence the liquid boundary density is 1.

    d            spatial dimension, integer >= 3
    gamma        adiabatic index in [1, 2]
    rho_center   central density rho(0) > 0; a liquid truncation radius exists
                 only when rho_center > 1

    The enthalpy e is w = rho^(gamma-1) for gamma > 1, or h = ln rho at
    gamma = 1; either obeys e' = -c m / r^(d-1), c = slope_factor.
    """

    d: int
    gamma: float
    rho_center: float

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise ValueError(f"dimension d must be an integer, got {self.d!r}")
        if self.d < 3:
            raise ValueError(f"dimension d must be >= 3, got {self.d}")
        if not (1.0 <= self.gamma <= 2.0):
            raise ValueError(f"gamma must lie in [1, 2], got {self.gamma}")
        if not (self.rho_center > 0.0 and math.isfinite(self.rho_center)):
            raise ValueError(f"rho_center must be positive and finite, got {self.rho_center}")

    @property
    def isothermal(self) -> bool:
        """True when gamma == 1 (log-enthalpy branch)."""
        return self.gamma == 1.0

    @property
    def enthalpy_center(self) -> float:
        """Central enthalpy: rho0^(gamma-1) for gamma > 1, ln(rho0) at gamma = 1."""
        return math.log(self.rho_center) if self.isothermal else self.rho_center ** (self.gamma - 1.0)

    @property
    def boundary_enthalpy(self) -> float:
        """Enthalpy value at density 1 (the liquid surface): w = 1, or h = 0."""
        return 0.0 if self.isothermal else 1.0

    @property
    def gas_stop(self) -> float:
        """Where a gas run stops: the compact surface w = 0, or h = -660 (rho near the least doubles)."""
        return -660.0 if self.isothermal else 0.0

    @property
    def slope_factor(self) -> float:
        """c in e' = -c m / r^(d-1): (gamma-1)/gamma for w, 1 for h."""
        return 1.0 if self.isothermal else (self.gamma - 1.0) / self.gamma

    @property
    def center_density_slope(self) -> float:
        """d rho / d e at the centre: rho0 / ((gamma-1) w0), or rho0."""
        rho0 = self.rho_center
        return rho0 if self.isothermal else 1.0 / (self.gamma - 1.0) * rho0 / self.enthalpy_center

    @property
    def enthalpy_scale(self) -> float:
        """The fall of e over which the centre's density changes by order one: w0, or 1 for h."""
        return 1.0 if self.isothermal else self.enthalpy_center

    def enthalpy_of_inverse(self, kappa: float) -> float:
        """Enthalpy of density 1/kappa, without rounding 1/kappa: kappa^(1-gamma), or -ln kappa."""
        return -math.log(kappa) if self.isothermal else kappa ** (1.0 - self.gamma)

    def rescaled_enthalpy(self, enthalpy, kappa: float):
        """Enthalpy of density kappa rho from that of rho: kappa^(gamma-1) w, or h + ln kappa."""
        return enthalpy + math.log(kappa) if self.isothermal else kappa ** (self.gamma - 1.0) * enthalpy

    def rho_of_enthalpy(self, enthalpy):
        """Inverse map; negative w (past a compact-support surface) clamps to rho = 0."""
        if self.isothermal:
            return np.exp(enthalpy)
        return np.maximum(np.asarray(enthalpy), 0.0) ** (1.0 / (self.gamma - 1.0))

    def rho_power_of_enthalpy(self, enthalpy):
        """rho^(gamma-1) from the enthalpy wherever rho >= 0: w itself for gamma > 1, and 1 at gamma = 1."""
        return 1.0 if self.isothermal else enthalpy

    def scalar_rho(self) -> Callable[[float], float]:
        """rho_of_enthalpy for one Python float, as the integrator's right-hand side calls it."""
        if self.isothermal:
            return math.exp
        alpha = 1.0 / (self.gamma - 1.0)
        return lambda w: w**alpha if w > 0.0 else 0.0
