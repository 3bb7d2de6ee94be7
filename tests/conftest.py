import functools

import numpy as np

from lanemden import StarConfig, gas_read, liquid_read


# the nine lines (d, gamma) of the benchmark's seed-0 sweep
SEED0_LINES = [(3, 1.034), (3, 1.245), (3, 1.794), (4, 1.076), (4, 1.447), (4, 1.943),
               (5, 1.215), (5, 1.546), (5, 1.73)]


@functools.lru_cache(maxsize=None)
def _cached_run(read, d, gamma, rho0, tol, r_max):
    return read(StarConfig(d, gamma, rho0), tol=tol, r_max=r_max)


def get_gas(d, gamma, rho0, tol=1e-10, r_max=20.0):
    """The gas star off its own run (gas_read); RunStars are immutable, so one run per parameter set serves all tests."""
    return _cached_run(gas_read, d, gamma, rho0, tol, r_max)


@functools.lru_cache(maxsize=None)
def get_profile(d, gamma, rho0, tol=1e-10, r_max=20.0):
    """get_gas's star sampled at the default MIN_POINTS (RunStar.profile): gas_read(...).profile()."""
    return get_gas(d, gamma, rho0, tol, r_max).profile()


def get_liquid(d, gamma, rho0, tol=1e-10, r_max=50.0):
    """The liquid star off its own line's run (liquid_read), as the CLI reads it."""
    return _cached_run(liquid_read, d, gamma, rho0, tol, r_max)



def rho_and_mass(star, r):
    """A RunStar's density and mass at radii r, from its one read (enthalpy_and_mass_hat_at)."""
    enthalpy, mass_hat = star.enthalpy_and_mass_hat_at(r)
    return star.config.rho_of_enthalpy(enthalpy), mass_hat * np.asarray(r, dtype=float) ** star.config.d
