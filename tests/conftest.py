import functools
import math

import numpy as np
import pytest

from lanemden import StarConfig, integrate_gas_profile, liquid_star


@functools.lru_cache(maxsize=None)
def _cached_profile(build, d, gamma, rho0, tol, r_max):
    return build(StarConfig(d, gamma, rho0), tol=tol, r_max=r_max)


def get_profile(d, gamma, rho0, tol=1e-10, r_max=20.0):
    """Profiles are immutable, so one integration per parameter set serves all tests."""
    return _cached_profile(integrate_gas_profile, d, gamma, rho0, tol, r_max)


def get_liquid(d, gamma, rho0, tol=1e-10, r_max=50.0):
    return _cached_profile(liquid_star, d, gamma, rho0, tol, r_max)


def ode_hermite_data(profile):
    """(y, dydx), each (n, 2): a profile's enthalpy and m/r^d at its samples, and their ODE slopes.

    enthalpy' = -c m / r^(d-1), with c = (gamma-1)/gamma or 1 at gamma = 1,
    and (m/r^d)' = (4 pi rho - d m/r^d) / r; both slopes are 0 at r = 0,
    where m/r^d is its limit (4 pi / d) rho0.
    """
    r, config, d = profile.radii, profile.config, profile.config.d
    c = 1.0 if config.gamma == 1.0 else (config.gamma - 1.0) / config.gamma
    mhat = np.empty_like(r)
    mhat[0] = 4.0 * math.pi / d * config.rho_center
    mhat[1:] = profile.mass[1:] / r[1:] ** d
    dh, dmhat = np.zeros_like(r), np.zeros_like(r)
    dh[1:] = -c * profile.mass[1:] / r[1:] ** (d - 1)
    dmhat[1:] = (4.0 * math.pi * profile.rho[1:] - d * mhat[1:]) / r[1:]
    return np.column_stack([profile.enthalpy, mhat]), np.column_stack([dh, dmhat])


@pytest.fixture(scope="session")
def profile_factory():
    return get_profile


@pytest.fixture(scope="session")
def liquid_factory():
    return get_liquid
