"""Noise-aware Laplace regression toolkit.

Losses with analytic gradients for Laplace-distributed regression targets,
a geometric heuristic that turns multi-sweep point clouds into per-label
uncertainty scales, CDF-based calibration evaluation, and a synthetic
training harness demonstrating the loss behavior under noisy labels.
"""

from .calibration import (
    CalibrationReport,
    PredictionColumns,
    calibration_report,
    laplace_cdf,
    laplace_quantile,
)
from .distributions import (
    GradCheckResult,
    LaplaceParams,
    LossGrad,
    SurfaceGrid,
    gradient_check,
    kld_loss,
    kld_loss_zero_label_scale,
    nll_loss,
    surface_grid,
)
from .geometry import (
    ConvexPolygon,
    OrientedRect,
    Point2,
    area,
    contains_point,
    convex_hull,
    intersect_convex,
    iou,
    rect_to_polygon,
    rigid_transform,
)
from .label_uncertainty import (
    LabelTrack,
    LabelUncertaintyRecord,
    UncertaintyMapping,
    aggregate_points,
    choose_reference_sweep,
    evaluate_track,
    evaluate_tracks,
    fit_mapping,
    iou_histogram,
    label_iou,
    map_iou,
)
from .synth_trainer import (
    ConstantLabelScale,
    ConstantNoise,
    Dataset,
    FeatureDependentNoise,
    HeuristicLabelScale,
    OracleLabelScale,
    Predictor,
    SynthConfig,
    TrainReport,
    ZeroLabelScale,
    compare,
    generate,
    train,
)

__version__ = "0.1.0"
