"""Tomographic transfer-function toolkit for generalized quantum measurements.

The package evaluates how well a probability-operator measure supports
state reconstruction: exact Haar averages of the inverse-Fisher trace for
minimal measurements, a fluctuation series for overcomplete ones, Monte
Carlo estimation for everything else, and finite-sample estimators that
realize the predicted accuracy.
"""

from .errors import (
    BudgetExceededError,
    DegenerateDrawError,
    DimensionMismatchError,
    InvalidDimensionError,
    NotInformationallyCompleteError,
    NotMinimalBasesError,
    NotMinimallyCompleteError,
    PomSchemaError,
    PomValidationError,
    QttfError,
    SearchTimeoutError,
    UnsupportedDimensionError,
    UnsupportedOrderError,
)
from .estimation import (
    ClickRecord,
    HaarSweepResult,
    MseReport,
    haar_mse_sweep,
    lin_estimator_reduced,
    mixing_weight_for_purity,
    mse_experiment,
    sample_clicks,
    weighted_linear_inversion,
)
from .fisher import (
    TomographyMatrices,
    accuracy,
    measurement_matrices,
    probabilities,
)
from .operators import (
    DensityMatrix,
    HermitianBasis,
    bloch_coords,
    build_basis,
    haar_pure_state,
    haar_state_vectors,
    state_from_bloch,
)
from .pom import (
    Pom,
    admix_white_noise,
    duplicate_outcome,
    load_pom,
    mub_povm,
    pom_from_dict,
    qubit_sic,
    random_pom,
    save_pom,
    sic_povm,
)
from .transfer import (
    QttfEstimate,
    ReferenceValues,
    haar_moment_term,
    qttf_auto,
    qttf_closed_minimal,
    qttf_closed_minimal_bases,
    qttf_monte_carlo,
    qttf_series,
    reference_values,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ClickRecord",
    "DegenerateDrawError",
    "DensityMatrix",
    "DimensionMismatchError",
    "HaarSweepResult",
    "HermitianBasis",
    "InvalidDimensionError",
    "MseReport",
    "NotInformationallyCompleteError",
    "NotMinimalBasesError",
    "NotMinimallyCompleteError",
    "Pom",
    "PomSchemaError",
    "PomValidationError",
    "QttfError",
    "QttfEstimate",
    "ReferenceValues",
    "SearchTimeoutError",
    "TomographyMatrices",
    "UnsupportedDimensionError",
    "UnsupportedOrderError",
    "accuracy",
    "admix_white_noise",
    "bloch_coords",
    "build_basis",
    "duplicate_outcome",
    "haar_moment_term",
    "haar_mse_sweep",
    "haar_pure_state",
    "haar_state_vectors",
    "lin_estimator_reduced",
    "load_pom",
    "measurement_matrices",
    "mixing_weight_for_purity",
    "mse_experiment",
    "mub_povm",
    "pom_from_dict",
    "probabilities",
    "qttf_auto",
    "qttf_closed_minimal",
    "qttf_closed_minimal_bases",
    "qttf_monte_carlo",
    "qttf_series",
    "qubit_sic",
    "random_pom",
    "reference_values",
    "sample_clicks",
    "save_pom",
    "sic_povm",
    "state_from_bloch",
    "weighted_linear_inversion",
]
