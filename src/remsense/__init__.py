"""Radio environment map reconstruction from sparse UAV measurements.

The pipeline: a deterministic two-ray propagation model predicts the
large-scale received power; the residual (shadow fading) is modeled as a
correlated random field and interpolated from sparse samples by kriging,
Gaussian-process regression, or a matrix-completion-assisted variant.
An antenna-calibration step corrects the deterministic part for mounted
UAV pattern distortion.  A synthetic-scene generator and a Monte-Carlo
evaluation harness verify every stage against known ground truth.
"""

from .calibration import (
    AmplitudeRatios,
    BinnedPattern,
    CalibratedDelta,
    delta_gain,
    estimate_a_uav,
    estimate_effective_pattern,
    read_delta_csv,
    write_delta_csv,
)
from .completion import (
    GridSpec,
    McAssistedGpr,
    McConfig,
    McResult,
    ShadowGrid,
    build_grid,
    decompose_deep_shadow,
    dilate_deep_shadow,
    gpr_to_grid,
    nuclear_norm_min,
    nuclear_norm_project,
)
from .errors import (
    DegenerateExtent,
    DegenerateLink,
    DuplicateLocations,
    FitDiverged,
    InsufficientData,
    NoSupportedBins,
    ParseError,
    RangeError,
    RemSenseError,
    SingularSystem,
    TooManyPoints,
)
from .evaluation import (
    CampaignValues,
    EvalConfig,
    EvaluationReport,
    ingest_measurements,
    monte_carlo_eval,
    sweep,
)
from .geo import (
    EARTH_RADIUS_M,
    GeoPoint,
    LinkGeometry,
    horizontal_distance,
    link_geometry,
    link_geometry_batch,
)
from .gpr import (
    GprModel,
    estimate_hyperparameters,
    gpr_fit,
    gpr_predict_batch,
    gpr_predict_mean,
)
from .kriging import (
    KrigingConfig,
    KrigingPrediction,
    NormalScoreTransform,
    normal_score,
    predict,
    predict_batch,
)
from .patterns import (
    AntennaPattern,
    dipole_pattern,
    gain_at,
    isotropic_pattern,
    pattern_from_dict,
    pattern_to_dict,
    read_pattern_csv,
    sector_blockage_delta,
    write_pattern_csv,
)
from .propagation import (
    SPEED_OF_LIGHT,
    PropagationConfig,
    calibrated_received_power_db,
    reflection_coefficient,
    trpl_attenuation,
    trpl_path_loss_db,
    trpl_received_power_db,
)
from .scenes import (
    Blob,
    SceneSpec,
    SyntheticTruth,
    Trajectory,
    custom_trajectory,
    generate_campaign,
    lawnmower_trajectory,
    ring_trajectory,
    sample_correlated_field,
    scene_from_json,
    scene_to_json,
    stack_altitudes,
    write_measurements_csv,
    zigzag_trajectory,
)
from .shadowing import (
    Campaign,
    CorrelationModel,
    CorrelationTable,
    Measurement,
    SampleSet,
    SfSample,
    empirical_correlation,
    extract_sf,
    fit_correlation_model,
    transformed_model,
)

__version__ = "0.2.0"

__all__ = [
    "AmplitudeRatios", "AntennaPattern", "BinnedPattern", "Blob",
    "CalibratedDelta", "Campaign", "CampaignValues", "CorrelationModel",
    "CorrelationTable", "DegenerateExtent", "DegenerateLink",
    "DuplicateLocations", "EARTH_RADIUS_M", "EvalConfig", "EvaluationReport",
    "FitDiverged", "GeoPoint", "GprModel", "GridSpec", "InsufficientData",
    "KrigingConfig", "KrigingPrediction", "LinkGeometry", "McAssistedGpr",
    "McConfig", "McResult", "Measurement", "NoSupportedBins",
    "NormalScoreTransform", "ParseError", "PropagationConfig", "RangeError",
    "RemSenseError", "SPEED_OF_LIGHT", "SampleSet", "SceneSpec", "SfSample",
    "ShadowGrid", "SingularSystem", "SyntheticTruth", "TooManyPoints",
    "Trajectory", "build_grid", "calibrated_received_power_db",
    "custom_trajectory", "decompose_deep_shadow", "delta_gain",
    "dilate_deep_shadow", "dipole_pattern", "empirical_correlation",
    "estimate_a_uav", "estimate_effective_pattern", "estimate_hyperparameters",
    "extract_sf", "fit_correlation_model", "gain_at", "generate_campaign",
    "gpr_fit", "gpr_predict_batch", "gpr_predict_mean", "gpr_to_grid",
    "horizontal_distance", "ingest_measurements", "isotropic_pattern",
    "lawnmower_trajectory", "link_geometry", "link_geometry_batch",
    "monte_carlo_eval", "normal_score", "nuclear_norm_min",
    "nuclear_norm_project", "pattern_from_dict", "pattern_to_dict", "predict",
    "predict_batch", "read_delta_csv", "read_pattern_csv",
    "reflection_coefficient", "ring_trajectory", "sample_correlated_field",
    "scene_from_json", "scene_to_json", "sector_blockage_delta",
    "stack_altitudes", "sweep", "transformed_model", "trpl_attenuation",
    "trpl_path_loss_db", "trpl_received_power_db", "write_delta_csv",
    "write_measurements_csv", "write_pattern_csv", "zigzag_trajectory",
]
