"""Liquid polytrope equilibria in d >= 3 and their radial spectral stability."""

__version__ = "0.1.0"

from .config import StarConfig, stability_threshold, support_threshold
from .steady import (
    ClosedFormStar,
    LiquidLine,
    Profile,
    classify_support,
    decay_bound,
    explicit_profile_critical,
    integrate_gas_profile,
    integrate_line,
    liquid_radius,
    liquid_star,
    pohozaev_residual,
    read_profile_csv,
    scale_profile,
    singular_star,
    truncate_liquid,
    write_profile_csv,
)
from .phase import (
    FixedPointReport,
    PhaseState,
    TailFit,
    buchdahl_bounds,
    fixed_point_jacobian,
    fixed_point_report_dict,
    fixed_points,
    jacobian_spectrum,
    phase_trajectory,
    profile_to_phase,
    radius_limit,
    tail_convergence_rate,
    vector_field,
    write_phase_csv,
)
from .spectral import (
    DiscreteOperator,
    SpectralResult,
    SturmLiouvilleData,
    assemble,
    build_sl_data,
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
    sweep_row,
    verify_suite,
    write_sweep_csv,
)
