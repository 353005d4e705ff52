"""Tests for the package's public names, which load on first use."""

import importlib

import pytest

import lkld

# What ``lkld`` exports: each defining module and the names taken from it.
EXPORTS = {
    "calibration": ["CalibrationReport", "PredictionColumns", "calibration_report", "laplace_cdf",
                    "laplace_quantile"],
    "distributions": ["GradCheckResult", "LaplaceParams", "LossGrad", "SurfaceGrid", "gradient_check",
                      "kld_loss", "kld_loss_zero_label_scale", "nll_loss", "surface_grid"],
    "geometry": ["ConvexPolygon", "OrientedRect", "Point2", "area", "contains_point", "convex_hull",
                 "intersect_convex", "iou", "rect_to_polygon", "rigid_transform"],
    "label_uncertainty": ["LabelTrack", "LabelUncertaintyRecord", "UncertaintyMapping", "aggregate_points",
                          "choose_reference_sweep", "evaluate_track", "evaluate_tracks", "fit_mapping",
                          "iou_histogram", "map_iou"],
    "synth_trainer": ["ConstantLabelScale", "ConstantNoise", "Dataset", "FeatureDependentNoise",
                      "HeuristicLabelScale", "OracleLabelScale", "Predictor", "SynthConfig", "TrainReport",
                      "ZeroLabelScale", "compare", "generate", "train"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES)
def test_each_export_is_the_defining_modules_object(module, name):
    source = importlib.import_module(f"lkld.{module}")
    assert getattr(lkld, name) is getattr(source, name)
    namespace = {}
    exec(f"from lkld import {name}", namespace)
    assert namespace[name] is getattr(source, name)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_submodules_are_attributes(module):
    source = importlib.import_module(f"lkld.{module}")
    assert getattr(lkld, module) is source
    namespace = {}
    exec(f"from lkld import {module}", namespace)
    assert namespace[module] is source


def test_version():
    from lkld import __version__

    assert __version__ == lkld.__version__ == "0.1.0"


def test_star_import_binds_the_exports_and_submodules():
    namespace = {}
    exec("from lkld import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted([*EXPORTS, *(name for _, name in NAMES)])
    for module, name in NAMES:
        assert namespace[name] is getattr(importlib.import_module(f"lkld.{module}"), name)


def test_dir_lists_the_exports():
    assert {*EXPORTS, *(name for _, name in NAMES), "__version__"} <= set(dir(lkld))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'lkld' has no attribute 'no_such_name'"):
        lkld.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from lkld import no_such_name", {})
    # A private name of a submodule is not exported.
    with pytest.raises(AttributeError, match="'_xy_array'"):
        lkld._xy_array
