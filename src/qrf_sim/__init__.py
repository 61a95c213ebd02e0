"""Exact dynamics of a spin-l directional reference frame driven by
polarized spin-1/2 sources: measurement back-action, invariant unitary
couplings, drift-correction protocols and a reproducible experiment CLI."""

__version__ = "0.1.0"

from .spin import (  # noqa: F401
    SpinQuantum,
    SpinOperators,
    SourceQubit,
    QuadraticBlochSpec,
    build_spin_operators,
    rotation_y,
    coherent_state,
    dicke_state,
    rotated_dicke_state,
    mixed_dicke_state,
    thermal_partial_coherent,
    quadratic_bloch_state,
    source_state,
    check_density_matrix,
)
from .channels import (  # noqa: F401
    ProjectorPair,
    SelectiveOutcome,
    OutcomeImpossible,
    build_projectors,
    induced_povm,
    average_channel,
    selective_channel,
    unitary_channel,
    outcome_probabilities,
    verify_cptp,
)
from .metrics import (  # noqa: F401
    FrameSummary,
    UnpolarizedFrame,
    summarize_frame,
    rotation_between,
    axis_angle_fit,
    p_succ,
    usable_lifetime,
)
from .predictions import (  # noqa: F401
    RotationPrediction,
    average_drift_angle,
    selective_angles_partially_coherent,
    selective_angles_general,
    selective_angles_quadratic_bloch,
    unitary_rotation_prediction,
    outcome_probability,
)
from .trajectory import (  # noqa: F401
    AlternatingAntipolarized,
    ConditionalTuned,
    UnitaryAfterEachPlus,
    UnitaryEveryK,
    TrajectoryRecord,
    run_average,
    run_stochastic,
    run_ensemble,
    run_ensemble_statistics,
    conditional_correction_step,
)
