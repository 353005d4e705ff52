"""Noise-aware Laplace regression toolkit.

Losses with analytic gradients for Laplace-distributed regression targets,
a geometric heuristic that turns multi-sweep point clouds into per-label
uncertainty scales, CDF-based calibration evaluation, and a synthetic
training harness demonstrating the loss behavior under noisy labels.

The submodules and the names below load on first use (PEP 562), so
``import lkld`` or ``import lkld.cli`` loads none of them:
``from lkld import LaplaceParams`` imports ``lkld.distributions`` then.
"""

import importlib

_EXPORTS = {
    "calibration": (
        "CalibrationReport",
        "PredictionColumns",
        "calibration_report",
        "laplace_cdf",
        "laplace_quantile",
        "reports_from_csv",
    ),
    "distributions": (
        "GradCheckResult",
        "LaplaceParams",
        "LossGrad",
        "SurfaceGrid",
        "gradient_check",
        "kld_loss",
        "kld_loss_zero_label_scale",
        "nll_loss",
        "surface_grid",
    ),
    "geometry": (
        "ConvexPolygon",
        "OrientedRect",
        "Point2",
        "area",
        "contains_point",
        "convex_hull",
        "intersect_convex",
        "iou",
        "rect_to_polygon",
        "rigid_transform",
    ),
    "label_uncertainty": (
        "LabelTrack",
        "LabelUncertaintyRecord",
        "UncertaintyMapping",
        "aggregate_points",
        "choose_reference_sweep",
        "evaluate_track",
        "evaluate_tracks",
        "fit_mapping",
        "iou_histogram",
        "map_iou",
    ),
    "synth_trainer": (
        "ConstantLabelScale",
        "ConstantNoise",
        "Dataset",
        "FeatureDependentNoise",
        "HeuristicLabelScale",
        "OracleLabelScale",
        "Predictor",
        "SynthConfig",
        "TrainReport",
        "ZeroLabelScale",
        "compare",
        "generate",
        "train",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_SOURCE]
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
