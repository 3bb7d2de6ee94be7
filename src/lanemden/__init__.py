"""Liquid polytrope equilibria in d >= 3 and their radial spectral stability."""

__version__ = "0.1.0"

from .config import StarConfig, stability_threshold, support_threshold
from .steady import (
    ClosedFormStar,
    Profile,
    RunStar,
    decay_bound,
    explicit_profile_critical,
    gas_read,
    integrate_line,
    liquid_radius,
    liquid_read,
    pohozaev_residual,
    read_profile_csv,
    singular_star,
    write_profile_csv,
)
from .phase import (
    FixedPointReport,
    PhaseState,
    TailFit,
    buchdahl_bounds,
    fixed_points,
    jacobian_spectrum,
    phase_trajectory,
    profile_to_phase,
    radius_limit,
    tail_convergence_rate,
    vector_field,
)
from .spectral import (
    CertifiedEigenvalue,
    DiscreteOperator,
    SpectralResult,
    SturmLiouvilleData,
    assemble,
    build_sl_data,
    certified_search,
    classify_stability,
    eigen_residual_strongform,
    graded_mesh,
    instability_witness,
    manufactured_sl_data,
    quadratic_form,
    smallest_eigenpair,
    spectral_result_dict,
    stable_at_zero,
    weighted_norm_sq,
    write_eigenfunction_csv,
)
from .harness import (
    PROFILE_BATTERY,
    CriticalDensityResult,
    RunSpec,
    SweepRow,
    critical_density,
    run_profile,
    run_sweep,
    verify_suite,
    write_sweep_csv,
)
