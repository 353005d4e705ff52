"""Tests for the command-line front end: outputs, exit codes, atomicity."""

import collections
import csv
import gc
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from lkld.calibration import calibration_report, report_to_csv
from lkld import cli, label_uncertainty, synth_trainer
from lkld.cli import CLASS_FILE_SAFE, RANGE_TOL, class_file_part, main, parse_anchors, parse_range
from lkld.label_uncertainty import (
    LabelUncertaintyRecord,
    histogram_to_csv,
    iou_histogram,
    records_to_csv,
)


SAMPLE_TRACKS = {
    "tracks": [
        {
            "label_id": "veh-1",
            "class_name": "vehicle",
            "poses": [
                {"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}
            ],
            "points": [{"sweep_id": 0, "xy": [[2.0, 1.0], [-2.0, 1.0], [-2.0, -1.0], [2.0, -1.0]]}],
        },
        {
            "label_id": "ped-7",
            "class_name": "pedestrian",
            "poses": [
                {"sweep_id": 0, "center": [5.0, 5.0], "theta": 0.3, "length": 0.8, "width": 0.8}
            ],
            "points": [{"sweep_id": 0, "xy": []}],
        },
    ]
}

CALIB_TEXT = "residual,scale,class_name\n0.1,0.4,car\n-0.2,0.3,bike\n"
RECORDS_TEXT = "label_id,class_name,iou,scale_b,n_points,n_sweeps\nveh-1,car,0.5,0.1,4,1\n"

TRAIN_CONFIG = {
    "n_train": 64,
    "n_test": 128,
    "feature_dim": 3,
    "noise": {"kind": "constant", "b": 0.2},
    "label_scale": {"mode": "oracle"},
    "seed": 3,
    "epochs": 2,
    "learning_rate": 0.05,
    "grad_clip": 1.0,
    "average_tail_epochs": 0,
}


class TestParsers:
    def test_range_inclusive_start_exclusive_stop(self):
        values = parse_range("0:2:0.5")
        assert values == [0.0, 0.5, 1.0, 1.5]
        assert parse_range("0.01:1:0.01")[-1] == pytest.approx(0.99)
        assert len(parse_range("0.01:1:0.01")) == 99

    def test_range_rejects_malformed(self):
        for bad in ["1:2", "a:b:c", "0:1:-0.1", "2:1:0.5"]:
            with pytest.raises(ValueError):
                parse_range(bad)

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_range_rejects_non_finite_values(self, position, value):
        parts = ["0", "1", "0.5"]
        parts[position] = value
        raw = ":".join(parts)
        message = f"range start and stop must be finite, got {raw!r}" if position < 2 else "step"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_range(raw)

    @pytest.mark.parametrize("raw", ["0:1:1e-300", "0:1e300:1", "-1e308:1e308:1"])
    def test_range_with_too_many_points_is_rejected_before_any_is_made(self, raw):
        with pytest.raises(ValueError, match=re.escape(f"range {raw!r} has more than")):
            parse_range(raw)

    def test_range_point_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_RANGE_POINTS", 4)
        assert parse_range("0:2:0.5") == [0.0, 0.5, 1.0, 1.5]
        with pytest.raises(ValueError, match="has more than 4 points"):
            parse_range("0:2.5:0.5")

    def test_surface_rejects_a_range_with_too_many_points(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["surface", "--loss", "nll", "--error", "0:1:1e-300", "--scale", "0.1:1:0.1",
                     "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: range '0:1:1e-300' has more than {cli.MAX_RANGE_POINTS} points\n"
        )
        assert not out.exists()

    def test_surface_rejects_a_grid_with_too_many_cells(self, tmp_path, capsys):
        # Each range passes MAX_RANGE_POINTS; their product would need 73.8 GiB.
        out = tmp_path / "grid.csv"
        code = main(["surface", "--loss", "nll", "--error", "0:1:1e-5", "--scale", "0.01:1:1e-5",
                     "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: surface grid of 100000 errors x 99000 scales has more than 1000000 cells\n"
        )
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.one_of(st.floats(-1e3, 1e3), st.floats(-1e17, 1e17)),
        step=st.one_of(st.floats(1e-3, 10.0), st.sampled_from([0.1, 0.01, 0.05, 1.0])),
        points=st.floats(1e-9, 300.0),
    )
    @example(start=0.01, step=0.01, points=99.0)
    @example(start=1e16, step=0.5, points=20.0)  # start + k*step repeats values
    @example(start=0.0, step=1.0, points=1e-13)  # stop within RANGE_TOL of start
    def test_range_points_match_the_stepping_loop(self, start, step, points):
        stop = start + points * step
        assume(stop > start)
        raw = f"{start!r}:{stop!r}:{step!r}"
        want, k = [], 0
        while start + k * step < stop - RANGE_TOL:
            want.append(start + k * step)
            k += 1
        assert parse_range(raw) == want

    def test_anchors(self):
        assert parse_anchors("2.0,0.05,0.01") == (2.0, 0.05, 0.01)
        with pytest.raises(ValueError):
            parse_anchors("1,2")


class TestSurfaceCommand:
    def test_emits_expected_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        code = main(
            [
                "surface", "--loss", "kld", "--label-scale", "0.2",
                "--error", "0:1:0.5", "--scale", "0.1:0.4:0.1", "-o", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "error,scale,value"
        assert len(lines) == 1 + 2 * 3
        # the (error 0, scale 0.2) cell is the loss minimum
        assert "0,0.2,0" in lines

    # sha256 of `lkld surface --error 0:2:0.25 --scale 0.05:2:0.15` per loss
    # (kld at --label-scale 0.2, so b/b_hat spans both sides of [0.5, 2]).
    SURFACE_SHA256 = {
        "nll": "044b7dad7498c91601b7bbf5fa9e5caf9db6fe107d15dc3042499119cca13b77",
        "kld": "c0c1e8be995eda84199bb045b5f739acda956ed6bac758448559f64ea35949f3",
    }

    @pytest.mark.parametrize("loss", ["nll", "kld"])
    def test_surface_bytes_are_pinned(self, tmp_path, loss):
        out = tmp_path / "grid.csv"
        label_scale = ["--label-scale", "0.2"] if loss == "kld" else []
        code = main(["surface", "--loss", loss, *label_scale, "--error", "0:2:0.25",
                     "--scale", "0.05:2:0.15", "-o", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.SURFACE_SHA256[loss]

    def test_missing_label_scale_for_kld(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["surface", "--loss", "kld", "--error", "0:1:0.5", "--scale", "0.1:0.4:0.1",
             "-o", str(out)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


    def test_label_scale_with_nll_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["surface", "--loss", "nll", "--label-scale", "0.3", "--error", "0:1:0.5",
                     "--scale", "0.1:0.4:0.1", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: --label-scale only applies to --loss kld\n"
        assert not out.exists()


class TestLossEvalAndGradCheck:
    def test_loss_eval_to_stdout(self, capsys):
        code = main(
            ["loss-eval", "--loss", "kld", "--label-location", "0", "--label-scale", "0.2",
             "--pred-location", "0", "--pred-scale", "0.5"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "value,d_location,d_scale"
        value = float(lines[1].split(",")[0])
        assert value == pytest.approx(math.log(2.5) + 0.4 - 1.0, rel=1e-8)

    def test_grad_check_passes(self, tmp_path):
        out = tmp_path / "grad.csv"
        code = main(["grad-check", "--loss", "nll", "--samples", "500", "--seed", "0",
                     "-o", str(out)])
        assert code == 0
        body = out.read_text()
        assert body.startswith("loss,samples,")
        assert ",0," in body.split("\n")[1]  # zero failures

    # sha256 of `lkld grad-check --samples 500 --seed 3` per loss.
    GRAD_CHECK_SHA256 = {
        "nll": "b985bb8ff28b07e6b77cf6300f8eeb76b1aefb9483cd68b8faf250345aabd1d6",
        "kld": "52069f60f3e1403e1effd16a5e046c3577854eb08259b687fbb7f19ccf8c1dbb",
    }

    @pytest.mark.parametrize("loss", ["nll", "kld"])
    def test_grad_check_bytes_are_pinned(self, tmp_path, loss):
        out = tmp_path / "grad.csv"
        code = main(["grad-check", "--loss", loss, "--samples", "500", "--seed", "3",
                     "-o", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.GRAD_CHECK_SHA256[loss]

    # sha256 of `lkld loss-eval --label-location 0.1 --pred-location 0.35 --pred-scale 0.6`
    # per loss (kld at --label-scale 0.2); kld0 gives nll's bytes.
    LOSS_EVAL_SHA256 = {
        "nll": "324adc6749fe35ac4facd5e43754d35a4ae46a142fc63bc1cc66e51034a06660",
        "kld": "c92fb048d73d6fd904a07b7ce3d29645612a29c47310080d975fd49e1d722ff3",
        "kld0": "324adc6749fe35ac4facd5e43754d35a4ae46a142fc63bc1cc66e51034a06660",
    }

    @pytest.mark.parametrize("loss", ["nll", "kld", "kld0"])
    def test_loss_eval_bytes_are_pinned(self, tmp_path, loss):
        out = tmp_path / "loss.csv"
        label_scale = ["--label-scale", "0.2"] if loss == "kld" else []
        code = main(["loss-eval", "--loss", loss, "--label-location", "0.1", *label_scale,
                     "--pred-location", "0.35", "--pred-scale", "0.6", "-o", str(out)])
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.LOSS_EVAL_SHA256[loss]

    def test_grad_check_step_reaching_a_non_positive_scale(self, tmp_path, capsys):
        # b_hat - step <= 0 for a drawn b_hat: the finite difference cannot be taken.
        out = tmp_path / "grad.csv"
        code = main(["grad-check", "--loss", "kld", "--step", "0.5", "--samples", "100",
                     "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: scale must be positive and finite, got -0.48672848287469117\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--rtol", "nan"], "rtol must be finite and >= 0, got nan"),
            (["--atol", "nan"], "atol must be finite and >= 0, got nan"),
            (["--rtol=-1"], "rtol must be finite and >= 0, got -1.0"),
            (["--atol", "inf"], "atol must be finite and >= 0, got inf"),
            (["--step", "0"], "step must be positive and finite, got 0.0"),
            (["--step=-1e-6"], "step must be positive and finite, got -1e-06"),
            (["--step", "nan"], "step must be positive and finite, got nan"),
            (["--rtol", "0", "--atol", "0"], "rtol and atol must not both be 0"),
        ],
    )
    def test_grad_check_rejects_tolerances_that_check_nothing(self, tmp_path, capsys, extra, message):
        out = tmp_path / "grad.csv"
        code = main(["grad-check", "--loss", "kld", "--samples", "20", *extra, "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_grad_check_rejects_a_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "grad.csv"
        assert main(["grad-check", "--loss", "nll", "--seed", "-1", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_grad_check_takes_a_zero_tolerance_beside_a_positive_one(self, tmp_path):
        for extra in (["--rtol", "0", "--atol", "1"], ["--rtol", "1", "--atol", "0"]):
            assert main(["grad-check", "--loss", "nll", "--samples", "20", *extra,
                         "-o", str(tmp_path / "grad.csv")]) == 0


def seeded_tracks(seed: int, n_tracks: int) -> dict:
    """Tracks document with every third track a large cloud (6 sweeps, 60-199
    points each) and the rest small (3 sweeps, 0-19 points each). Points fill
    up to 1.2 times the box, so IoUs spread below 1."""
    rng = np.random.default_rng(seed)
    tracks = []
    for i in range(n_tracks):
        large = i % 3 == 0
        length, width = rng.uniform(0.8, 5.0), rng.uniform(0.6, 2.2)
        ox, oy = rng.uniform(-1000.0, 1000.0, 2)
        heading = rng.uniform(-math.pi, math.pi)
        poses, points = [], []
        for sweep in range(6 if large else 3):
            theta = heading + rng.normal(0.0, 0.05)
            cx, cy = ox + 0.8 * sweep * math.cos(heading), oy + 0.8 * sweep * math.sin(heading)
            m = int(rng.integers(60, 200)) if large else int(rng.integers(0, 20))
            lx, ly = (rng.uniform(-0.6, 0.6, (m, 2)) * [length, width]).T
            c, s = math.cos(theta), math.sin(theta)
            xy = np.stack([c * lx - s * ly + cx, s * lx + c * ly + cy], axis=1)
            poses.append({"sweep_id": sweep, "center": [cx, cy], "theta": theta,
                          "length": length, "width": width})
            points.append({"sweep_id": sweep, "xy": xy.tolist()})
        tracks.append({"label_id": f"trk-{i:02d}", "class_name": "car" if large else "pedestrian",
                       "poses": poses, "points": points})
    return {"tracks": tracks}


def scaled_tracks(doc: dict, k: int = 0, box: float = 1.0) -> dict:
    """A tracks document with every centre, point, length and width times 2**k, and every
    length and width then times ``box``."""
    def scale(v):
        return math.ldexp(v, k)

    return {"tracks": [
        {**track,
         "poses": [{**pose, "center": [scale(c) for c in pose["center"]],
                    "length": box * scale(pose["length"]), "width": box * scale(pose["width"])}
                   for pose in track["poses"]],
         "points": [{**sweep, "xy": [[scale(x), scale(y)] for x, y in sweep["xy"]]} for sweep in track["points"]]}
        for track in doc["tracks"]]}


def _box_track(label_id: str, class_name: str, cx: float, cy: float, pts: list) -> dict:
    """A 4 x 2 box over two sweeps, 0.5 apart: ``pts`` around its centre, then the first two turned."""
    return {"label_id": label_id, "class_name": class_name,
            "poses": [{"sweep_id": sweep, "center": [cx + 0.5 * sweep, cy], "theta": 0.0,
                       "length": 4.0, "width": 2.0} for sweep in (0, 1)],
            "points": [{"sweep_id": 0, "xy": [[cx + x, cy + y] for x, y in pts]},
                       {"sweep_id": 1, "xy": [[cx + 0.5 + y, cy - x] for x, y in pts[:2]]}]}


FREE_TEXT_TRACKS = {"tracks": [
    _box_track("veh,1", 'car,"big"', 0.0, 0.0, [[1.5, 0.8], [-1.5, 0.8], [-1.2, -0.9], [1.7, -0.6]]),
    _box_track('say "hi"', "cr\rclass", 10.0, 0.0, [[0.5, 0.5], [-1.0, 0.2], [0.3, -0.7]]),
    _box_track("line\nbreak", 'car,"big"', 20.0, 5.0,
               [[1.9, 0.9], [-1.9, 0.9], [-1.9, -0.9], [1.9, -0.9], [2.5, 0.0]]),
    _box_track("crlf\r\nid", "plain", -7.0, 3.0, [[0.1, 0.1], [0.2, 0.3], [-0.4, 0.25]]),
    _box_track('"', "\n", 3.0, -8.0, [[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]),
]}


def _blas_kernel_cannot_be_chosen() -> str | None:
    """Why OPENBLAS_CORETYPE cannot choose numpy's BLAS kernel in a child process, or None if it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "numpy does not describe its BLAS build in np.show_config(mode='dicts')"
    if "openblas" not in str(blas.get("name", "")).lower():
        return f"numpy's BLAS is {blas.get('name')!r}, not OpenBLAS"
    if "DYNAMIC_ARCH" not in str(blas.get("openblas configuration", "")):
        return "numpy's OpenBLAS is not built with DYNAMIC_ARCH, so it has one kernel"
    return None


class TestLabelUncCommands:
    # sha256 of the records CSV for seeded_tracks(11, 24); any change to the
    # parse, the frame change, the hull or the IoU shows here.
    RECORDS_PIN = "51a1ffb9f7c18c167345dd30c458a8352bd8671454b6e4fd2cea6ba887e88484"
    # The same with every box halved: points fill up to 2.4 times the box, so
    # every hull is clipped.
    HALVED_BOXES_RECORDS_PIN = "cf4022a790f9e67db1b5973934d1ada7ff1f341490d24487a8c297df835ed138"

    @pytest.mark.parametrize("box, pin", [(1.0, RECORDS_PIN), (0.5, HALVED_BOXES_RECORDS_PIN)],
                             ids=["boxes", "halved_boxes"])
    def test_labelunc_records_are_pinned(self, tmp_path, box, pin):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(scaled_tracks(seeded_tracks(11, 24), box=box)))
        records = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o", str(records)])
        assert code == 0
        assert hashlib.sha256(records.read_bytes()).hexdigest() == pin

    _SEEDED = seeded_tracks(11, 24)
    _SEEDED_IOUS = [r.iou for r in label_uncertainty.evaluate_tracks(
        label_uncertainty.tracks_from_json(_SEEDED), label_uncertainty.fit_mapping(2.0, 0.05, 0.01))]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-537, 509))
    @example(-537)
    @example(-536)
    @example(-520)
    @example(500)
    @example(508)
    @example(509)
    def test_ious_do_not_depend_on_the_unit(self, k):
        # Every length times 2**k, for every k at which OrientedRect takes all the boxes:
        # below 2**-537 the area of the smallest underflows to 0, above 2**509 that of the
        # largest passes MAX_RECT_AREA. Scaling by a power of two is exact, and so must the
        # IoUs be.
        tracks = label_uncertainty.tracks_from_json(scaled_tracks(self._SEEDED, k))
        records = label_uncertainty.evaluate_tracks(tracks, label_uncertainty.fit_mapping(2.0, 0.05, 0.01))
        assert [r.iou.hex() for r in records] == [v.hex() for v in self._SEEDED_IOUS]

    @pytest.mark.parametrize("k", [-538, 510])
    def test_the_unit_range_ends_where_oriented_rect_refuses_a_box(self, k):
        with pytest.raises(ValueError, match=r"length \* width must be > 0 and at most"):
            label_uncertainty.tracks_from_json(scaled_tracks(self._SEEDED, k))

    # sha256 of the records CSV for FREE_TEXT_TRACKS, whose label ids and class
    # names hold ",", '"', "\r" and "\n": rows with a "\r" quote every cell.
    FREE_TEXT_RECORDS_PIN = "e713df96c2f8925dbde8244cd5308cfbecb963cda186fb9b32d3170b8980032e"

    def test_free_text_records_are_pinned(self, tmp_path):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(FREE_TEXT_TRACKS))
        records = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", 'car,"big":0.25,0.05,0.01', "-o", str(records)])
        assert code == 0
        assert hashlib.sha256(records.read_bytes()).hexdigest() == self.FREE_TEXT_RECORDS_PIN

    # sha256 of `lkld iou-hist --bins 7` on 50 records with IoUs k/40.
    IOU_HIST_PIN = "5076c9a53b0d2c94215286e37ca33e1098b95054d68b27fa5fa9a670a1628311"

    def test_iou_hist_bytes_are_pinned(self, tmp_path):
        records = tmp_path / "records.csv"
        rows = [f"t{k},car,{k * 13 % 41 / 40},0.1,3,1" for k in range(50)]
        records.write_text("\n".join(["label_id,class_name,iou,scale_b,n_points,n_sweeps", *rows]) + "\n")
        hist = tmp_path / "hist.csv"
        assert main(["iou-hist", "--records", str(records), "--bins", "7", "-o", str(hist)]) == 0
        assert hashlib.sha256(hist.read_bytes()).hexdigest() == self.IOU_HIST_PIN

    # sha256 of `lkld fit-map` stdout per anchors: an exponential fit and the linear fallback.
    FIT_MAP_SHA256 = {
        "2.0,0.05,0.01": "562c52c864ad476fc9aea78ec075cd1414aee82ccee99544837cf0f15aec3933",
        "0.3,0.2,0.1": "1839cf7e66ddd8b51fbf6143339ef9e659c29999b78d79a46cafe2ec1be78391",
    }

    @pytest.mark.parametrize("anchors", sorted(FIT_MAP_SHA256))
    def test_fit_map_bytes_are_pinned(self, capsys, anchors):
        assert main(["fit-map", "--anchors", anchors]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == self.FIT_MAP_SHA256[anchors]

    @pytest.mark.parametrize("var, value", [
        ("OPENBLAS_CORETYPE", "Haswell"), ("OPENBLAS_CORETYPE", "Sandybridge"),
        ("OPENBLAS_CORETYPE", "Prescott"), ("PYTHONHASHSEED", "0"), ("PYTHONHASHSEED", "1"),
    ])
    def test_labelunc_records_do_not_depend_on_the_blas_kernel_or_the_hash_seed(self, tmp_path, var, value):
        # OpenBLAS built with DYNAMIC_ARCH picks its kernel from the CPU unless
        # OPENBLAS_CORETYPE names one; the records must not change with it.
        reason = _blas_kernel_cannot_be_chosen()
        if reason:
            pytest.skip(reason)
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(seeded_tracks(11, 24)))
        argv = ["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o"]
        assert main([*argv, str(tmp_path / "here.csv")]) == 0
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
               var: value}
        child = subprocess.run([sys.executable, "-m", "lkld", *argv, str(tmp_path / "child.csv")],
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        assert (tmp_path / "child.csv").read_bytes() == (tmp_path / "here.csv").read_bytes()

    def test_labelunc_and_iou_hist(self, tmp_path):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(SAMPLE_TRACKS))
        records = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o", str(records)])
        assert code == 0
        lines = records.read_text().strip().split("\n")
        assert lines[0] == "label_id,class_name,iou,scale_b,n_points,n_sweeps"
        assert len(lines) == 3
        assert lines[1].startswith("ped-7,pedestrian,0,0.25,")  # iou 0 -> pedestrian anchor
        assert lines[2].startswith("veh-1,vehicle,1,0.01,")

        hist = tmp_path / "hist.csv"
        code = main(["iou-hist", "--records", str(records), "--bins", "2", "-o", str(hist)])
        assert code == 0
        assert hist.read_text() == "bin_low,bin_high,count\n0,0.5,1\n0.5,1,1\n"

    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        rows=st.lists(st.tuples(st.text(), st.text(), st.integers(0, 1000)), max_size=8),
        bins=st.integers(1, 7),
    )
    @example(rows=[("veh,1", "vehicle", 250), ('say "hi"', '"', 900), ("", "", 1000)], bins=4)
    @example(rows=[("", "\r", 0), ("a\r\nb", "c\rd", 500)], bins=1)
    def test_iou_hist_reads_any_records_csv(self, tmp_path, rows, bins):
        # IoUs k/1000 survive the 6-digit records format exactly.
        records = [
            LabelUncertaintyRecord(label_id, cls, k / 1000, 1.0, 0, 1) for label_id, cls, k in rows
        ]
        path = tmp_path / "records.csv"
        path.write_text(records_to_csv(records), encoding="utf-8")
        hist = tmp_path / "hist.csv"
        code = main(["iou-hist", "--records", str(path), "--bins", str(bins), "-o", str(hist)])
        assert code == 0
        assert hist.read_text() == histogram_to_csv(iou_histogram([r.iou for r in records], bins))

    @pytest.mark.parametrize("cell", ["-0.5", "1.5", "inf", "nan"])
    def test_iou_hist_rejects_iou_outside_unit_interval(self, tmp_path, capsys, cell):
        records = tmp_path / "records.csv"
        records.write_text(f"label_id,class_name,iou\na,car,0.5\nb,car,{cell}\n")
        hist = tmp_path / "hist.csv"
        code = main(["iou-hist", "--records", str(records), "--bins", "4", "-o", str(hist)])
        assert code == 1
        assert "line 3: iou must be in [0, 1]" in capsys.readouterr().err
        assert not hist.exists()

    def test_iou_hist_strips_header_cells(self, tmp_path):
        records = tmp_path / "records.csv"
        records.write_text("label_id, class_name , iou \na,car,0.5\nb,car,1\n")
        hist = tmp_path / "hist.csv"
        code = main(["iou-hist", "--records", str(records), "--bins", "2", "-o", str(hist)])
        assert code == 0
        assert hist.read_text() == "bin_low,bin_high,count\n0,0.5,0\n0.5,1,2\n"

    @pytest.mark.parametrize("bins", ["0", str(label_uncertainty.MAX_HISTOGRAM_BINS + 1), "10000000000"])
    def test_iou_hist_bounds_the_bin_count(self, tmp_path, capsys, bins):
        records = tmp_path / "records.csv"
        records.write_text(RECORDS_TEXT)
        hist = tmp_path / "hist.csv"
        code = main(["iou-hist", "--records", str(records), "--bins", bins, "-o", str(hist)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: n_bins must be between 1 and {label_uncertainty.MAX_HISTOGRAM_BINS}, got {bins}\n"
        )
        assert not hist.exists()

    def test_labelunc_rejects_a_track_whose_ids_are_not_strings(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SAMPLE_TRACKS))
        doc["tracks"][0].update(label_id=1, class_name=None)
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(doc))
        out = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "None:0.25,0.05,0.01", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: malformed track at tracks[0]: label_id must be a string, got 1\n"
        )
        assert not out.exists()

    def test_labelunc_rejects_an_integer_beyond_the_float_range(self, tmp_path, capsys):
        doc = json.loads(json.dumps(SAMPLE_TRACKS))
        doc["tracks"][0]["poses"][0]["center"] = [10**400, 0.0]
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(doc))
        out = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: malformed track at tracks[0]: center must be a number within the float range,"
            " got an integer of 401 digits\n"
        )
        assert not out.exists()

    def test_labelunc_empty_track_list(self, tmp_path):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps({"tracks": []}))
        out = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "-o", str(out)])
        assert code == 0
        assert out.read_text() == "label_id,class_name,iou,scale_b,n_points,n_sweeps\n"

    def test_linear_fallback_note_names_its_anchors(self, tmp_path, capsys):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(SAMPLE_TRACKS))
        out = tmp_path / "records.csv"
        tail = ": equally spaced anchors degrade the exponential fit; using linear interpolation through the anchors\n"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "pedestrian:0.3,0.2,0.1", "-o", str(out)])
        assert code == 0
        assert capsys.readouterr() == ("", "note: --class-anchors pedestrian" + tail)
        code = main(["fit-map", "--anchors", "0.3,0.2,0.1", "-o", str(tmp_path / "map.json")])
        assert code == 0
        assert capsys.readouterr() == ("", "note: --anchors" + tail)

    def test_fit_map_json(self, tmp_path, capsys):
        code = main(["fit-map", "--anchors", "2.0,0.05,0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linear"] is False
        assert payload["alpha"] + payload["gamma"] == pytest.approx(2.0, abs=1e-8)
        assert payload["roundtrip_max_abs_err"] < 1e-9

    @pytest.mark.parametrize(
        "raw, anchors",
        [("1e300,5e299,2e288", (1e300, 5e299, 2e288)), ("1e308,1e-300,5e-324", (1e308, 1e-300, 5e-324))],
        ids=["alpha-overflow", "t-underflow"],
    )
    def test_fit_map_rejects_a_fit_beyond_the_float_range(self, tmp_path, capsys, raw, anchors):
        out = tmp_path / "map.json"
        assert main(["fit-map", "--anchors", raw, "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: anchors must give a fit within the float range, got {anchors}\n"
        )
        assert not out.exists()

    def test_fit_map_linear_fallback_warns(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = main(["fit-map", "--anchors", "0.3,0.2,0.1", "-o", str(out)])
        assert code == 0
        assert "linear interpolation" in capsys.readouterr().err
        assert json.loads(out.read_text())["linear"] is True


    # Runs ``lkld.cli.main(argv)`` with a two-CPU mask, so a large tracks file
    # is evaluated in two shares, and ends the child building the second
    # share's tracks with exit status 3. Prints how many children it forked.
    DYING_SHARE_PROBE = """
import os, sys
from lkld import cli, label_uncertainty

parent, real_build, real_fork, forks = os.getpid(), label_uncertainty.tracks_from_json, os.fork, []

def build(doc):
    if os.getpid() != parent:
        os._exit(3)
    return real_build(doc)

def fork():
    forks.append(None)
    return real_fork()

os.sched_getaffinity = lambda pid: {0, 1}
os.fork = fork
label_uncertainty.tracks_from_json = build
code = cli.main(sys.argv[1:])
print(f"forks={len(forks)}")
sys.exit(code)
"""

    def test_a_dying_share_does_not_fail_labelunc(self, tmp_path, monkeypatch):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(seeded_tracks(5, 240)), encoding="utf-8")
        assert tracks.stat().st_size >= 2 * label_uncertainty._SHARE_CHARS
        argv = ["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", self.DYING_SHARE_PROBE, *argv, str(tmp_path / "split.csv")],
                               env=env, capture_output=True, text=True, timeout=120)
        assert (child.returncode, child.stdout, child.stderr) == (0, "forks=1\n", "")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main([*argv, str(tmp_path / "serial.csv")]) == 0
        assert (tmp_path / "split.csv").read_bytes() == (tmp_path / "serial.csv").read_bytes()


class TestCalibCommand:
    def test_pooled_and_per_class(self, tmp_path):
        csv_in = tmp_path / "preds.csv"
        rows = ["residual,scale,class_name"]
        rows += [f"{0.1 * k - 0.5},0.4,vehicle" for k in range(10)]
        rows += [f"{0.05 * k - 0.2},0.3,bike" for k in range(8)]
        csv_in.write_text("\n".join(rows) + "\n")
        out = tmp_path / "calib.csv"
        code = main(["calib", "--records", str(csv_in), "--grid", "0.1:1:0.2",
                     "--per-class", "-o", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("expected_cdf,observed_cdf\n")
        assert text.strip().split("\n")[-1].startswith("ece,")
        assert (tmp_path / "calib.vehicle.csv").exists()
        assert (tmp_path / "calib.bike.csv").exists()

    # sha256 of `lkld calib --per-class` on the default grid, per output file:
    # 60 rows of three classes, one holding a ",".
    CALIB_SHA256 = {
        "calib.csv": "8a222c95c4b67726cbb4bd42549238faa9f914c64e6dd656244b8f62da34f2da",
        "calib.car.csv": "ace861165b3062074b9303a93b51a3dabb96e5910d8c85bef985743a1acebb5a",
        "calib.bike.csv": "b500025a53da32e929161d4d5fbff216adbc42b437671c8c1b8cde91d4d1a11f",
        "calib.a%2Cb.csv": "11bc242901ea7a7c27258b8e3b2e668d36f3850ad8550ff089400f7ebc2ae616",
    }

    def test_per_class_bytes_are_pinned(self, tmp_path):
        classes = ["car", "bike", "a,b"]
        rows = [f'{(k * 37 % 101 - 50) / 100},{0.1 + (k % 7) / 20},"{classes[k % 3]}"' for k in range(60)]
        (tmp_path / "preds.csv").write_text("\n".join(["residual,scale,class_name", *rows]) + "\n")
        code = main(["calib", "--records", str(tmp_path / "preds.csv"), "--per-class",
                     "-o", str(tmp_path / "calib.csv")])
        assert code == 0
        got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("calib*.csv")}
        assert got == self.CALIB_SHA256

    @pytest.mark.parametrize(
        "first, second, names",
        [
            ("", "unlabeled", ("calib.%.csv", "calib.unlabeled.csv")),
            ("a/b", "a_b", ("calib.a%2Fb.csv", "calib.a_b.csv")),
            ("..", ".", ("calib.%2E%2E.csv", "calib.%2E.csv")),
        ],
    )
    def test_per_class_names_never_share_a_file(self, tmp_path, first, second, names):
        # Pairs a lossy file-name mapping would merge, and dot-only names.
        subsets = {
            first: ([0.1 * k - 0.5 for k in range(10)], [0.4] * 10),
            second: ([0.05 * k - 0.2 for k in range(8)], [0.3] * 8),
        }
        csv_in = tmp_path / "preds.csv"
        rows = ["residual,scale,class_name"]
        rows += [
            f'{r!r},{s!r},"{cls}"' for cls, (rs, ss) in subsets.items() for r, s in zip(rs, ss)
        ]
        csv_in.write_text("\n".join(rows) + "\n")
        out = tmp_path / "calib.csv"
        code = main(["calib", "--records", str(csv_in), "--per-class", "-o", str(out)])
        assert code == 0
        for cls, name in zip((first, second), names):
            want = report_to_csv(calibration_report(*subsets[cls]))
            assert (tmp_path / name).read_text() == want
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["preds.csv", "calib.csv", *names]
        )

    def test_per_class_names_differing_in_case_are_rejected(self, tmp_path, capsys):
        csv_in = tmp_path / "preds.csv"
        csv_in.write_text("residual,scale,class_name\n0.1,0.4,Car\n-0.2,0.3,car\n")
        out = tmp_path / "calib.csv"
        code = main(["calib", "--records", str(csv_in), "--per-class", "-o", str(out)])
        assert code == 1
        assert "overwrite each other" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.csv"]

    def test_per_class_name_too_long_writes_nothing(self, tmp_path, capsys):
        # 100 "é" encode to 600 bytes of "%C3%A9" in the file name, longer than
        # any common file system allows; the pooled curve must not be left behind.
        csv_in = tmp_path / "preds.csv"
        csv_in.write_text(
            "residual,scale,class_name\n0.1,0.4,car\n-0.2,0.3," + "é" * 100 + "\n",
            encoding="utf-8",
        )
        out = tmp_path / "out.csv"
        code = main(["calib", "--records", str(csv_in), "--per-class", "-o", str(out)])
        assert code == 1
        assert "file name is longer than" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.csv"]

    # Runs ``lkld.cli.main(argv)`` with a two-CPU mask, so a large records file
    # is parsed in two shares, and ends the child converting the second share
    # with exit status 3. Prints how many children it forked and how many
    # times this process ran the one-stream parse.
    DYING_SHARE_PROBE = """
import os, sys
from lkld import calibration, cli

parent, real_share, real_parse, real_fork = os.getpid(), calibration._share_columns, calibration._parse, os.fork
forks, parses = [], []

def share(*args, **kwargs):
    if os.getpid() != parent:
        os._exit(3)
    return real_share(*args, **kwargs)

def parse(lines):
    parses.append(None)
    return real_parse(lines)

def fork():
    forks.append(None)
    return real_fork()

os.sched_getaffinity = lambda pid: {0, 1}
os.fork = fork
calibration._share_columns = share
calibration._parse = parse
code = cli.main(sys.argv[1:])
print(f"forks={len(forks)} parses={len(parses)}")
sys.exit(code)
"""

    def test_a_dying_share_does_not_fail_calib(self, tmp_path, monkeypatch):
        from lkld import calibration

        names = ("car", "pedestrian", "a/b", "", "\u00e9")
        csv_in = tmp_path / "preds.csv"
        with open(csv_in, "w", encoding="utf-8", newline="") as handle:
            handle.write("residual,scale,class_name\n")
            handle.writelines(f"{math.sin(i)!r},{1.0 + (i % 97) / 7.0!r},{names[i % 5]}\n" for i in range(60_000))
        assert csv_in.stat().st_size >= 2 * calibration._SHARE_BYTES
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", self.DYING_SHARE_PROBE, "calib", "--records", str(csv_in), "--per-class",
             "-o", str(tmp_path / "split.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (child.returncode, child.stdout, child.stderr) == (0, "forks=1 parses=1\n", "")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["calib", "--records", str(csv_in), "--per-class", "-o", str(tmp_path / "serial.csv")]) == 0
        split = {p.name.removeprefix("split"): p.read_bytes() for p in tmp_path.glob("split*.csv")}
        serial = {p.name.removeprefix("serial"): p.read_bytes() for p in tmp_path.glob("serial*.csv")}
        assert len(split) == 1 + len(names)
        assert split == serial

    @pytest.mark.parametrize("ending, last", [("\n", "\n"), ("\r\n", "\r\n"), ("\n", "")],
                             ids=["lf", "crlf", "no-final-newline"])
    def test_forked_and_one_cpu_runs_write_the_same_bytes(self, tmp_path, monkeypatch, ending, last):
        from lkld import calibration

        names = ("car", "pedestrian", "a/b", "", "\u00e9")
        rows = [f"{math.sin(i)!r},{1.0 + (i % 97) / 7.0!r},{names[i % 5]}" for i in range(60_000)]
        csv_in = tmp_path / "preds.csv"
        csv_in.write_bytes((ending.join(["residual,scale,class_name", *rows]) + last).encode("utf-8"))
        assert csv_in.stat().st_size >= 2 * calibration._SHARE_BYTES
        forks, parses = [], []
        real_fork, real_parse = os.fork, calibration._parse
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or real_fork())
        monkeypatch.setattr(calibration, "_parse", lambda lines: parses.append(None) or real_parse(lines))
        outputs = {}
        for run, mask in (("split", {0, 1}), ("serial", {0})):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, mask=mask: mask)
            assert main(["calib", "--records", str(csv_in), "--per-class", "-o", str(tmp_path / f"{run}.csv")]) == 0
            outputs[run] = {p.name.removeprefix(run): p.read_bytes() for p in tmp_path.glob(f"{run}*.csv")}
        # The two-CPU run forked one child and kept both shares; the one-CPU run parsed in one stream.
        assert (len(forks), len(parses)) == (1, 1)
        assert len(outputs["split"]) == 1 + len(names)
        assert outputs["split"] == outputs["serial"]

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.text(max_size=8), st.lists(st.integers(-50, 50), min_size=1, max_size=6)),
            min_size=1,
            max_size=4,
            unique_by=lambda row: row[0],
        )
    )
    @example([("a", [1, -2]), ("a\x00", [3])])
    @example([("a\r", [1]), ("a\n", [2]), ("a\r\n", [3])])
    def test_per_class_files_hold_each_class_curve(self, classes):
        # Class names are arbitrary text; names that collide after case
        # folding are rejected (see above), so they are left out here.
        parts = [class_file_part(cls).casefold() for cls, _ in classes]
        assume(len(set(parts)) == len(parts))
        data = {cls: ([k / 10 for k in ks], [0.5 + abs(k) / 100 for k in ks]) for cls, ks in classes}
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["residual", "scale", "class_name"])
        for cls, (residuals, scales) in data.items():
            writer.writerows([r, s, cls] for r, s in zip(residuals, scales))
        with tempfile.TemporaryDirectory() as tmp:
            csv_in = Path(tmp) / "preds.csv"
            csv_in.write_text(buf.getvalue(), encoding="utf-8", newline="")
            out = Path(tmp) / "calib.csv"
            code = main(["calib", "--records", str(csv_in), "--per-class", "-o", str(out)])
            assert code == 0
            for cls, (residuals, scales) in data.items():
                path = Path(tmp) / f"calib.{class_file_part(cls)}.csv"
                want = report_to_csv(calibration_report(residuals, scales))
                assert path.read_text(encoding="utf-8") == want
            assert len(list(Path(tmp).iterdir())) == 2 + len(classes)

    @given(st.text(), st.text())
    @example("", "%")
    @example("a/b", "a_b")
    def test_class_file_part_is_injective_and_safe(self, a, b):
        part_a, part_b = class_file_part(a), class_file_part(b)
        assert (part_a == part_b) == (a == b)
        assert part_a and set(part_a) <= CLASS_FILE_SAFE | set("%0123456789ABCDEF")


class TestTrainAndCompareCommands:
    def test_train_command(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(TRAIN_CONFIG))
        out = tmp_path / "report.csv"
        code = main(["train", "--config", str(cfg), "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "epoch,mean_loss,mean_abs_error,ece"
        assert lines[-1].startswith("final,")

    def test_compare_command_with_seed_override(self, tmp_path):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"config": TRAIN_CONFIG,
                                   "modes": [{"mode": "zero"}, {"mode": "oracle"}]}))
        out = tmp_path / "table.csv"
        code = main(["compare", "--config", str(cfg), "--seed", "11", "-o", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "mode,test_mae,test_ece,diverged"
        assert lines[2].startswith("zero,")
        assert lines[3].startswith("oracle,")
        assert "seed=11" in lines[0]

    # sha256 of `lkld compare` on the default config at seed 0, modes zero
    # and oracle: 400 epochs of both runs and their tail-averaged test
    # scores, the only figures the table holds.
    DEFAULT_COMPARE_SHA256 = "6141910b87e9f72a6247d8fc0f635ef8335d66877057d76c2ff9dfc2aced9f13"

    def test_default_compare_bytes_are_pinned(self, tmp_path):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"modes": [{"mode": "zero"}, {"mode": "oracle"}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DEFAULT_COMPARE_SHA256

    # Runs ``lkld.cli.main(argv)`` with a two-CPU mask, so compare forks, and a
    # train() that ends the child training the oracle run with exit status 3.
    DYING_CHILD_PROBE = """
import os, sys
from lkld import cli, synth_trainer

parent, real_train = os.getpid(), synth_trainer.train

def train(cfg, *args, **kwargs):
    if os.getpid() != parent and cfg.label_scale.TAG == "oracle":
        os._exit(3)
    return real_train(cfg, *args, **kwargs)

os.sched_getaffinity = lambda pid: {0, 1}
synth_trainer.train = train
sys.exit(cli.main(sys.argv[1:]))
"""

    def test_compare_writes_the_serial_table_when_a_child_dies(self, tmp_path, monkeypatch):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}, {"mode": "oracle"}]}))
        out, serial = tmp_path / "table.csv", tmp_path / "serial.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", self.DYING_CHILD_PROBE, "compare", "--config", str(cfg), "-o", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (child.returncode, child.stderr) == (0, "")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert main(["compare", "--config", str(cfg), "-o", str(serial)]) == 0
        assert out.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize(
        "entry, message",
        [
            (["zero"], "config key 'modes[0]' must be a JSON object, got ['zero']"),
            ({"mode": "heuristic", "anchors": 5}, "config key 'modes[0].anchors' must be a list, got 5"),
            ({"mode": "constant"}, "config key 'modes[0].b' is missing"),
        ],
    )
    def test_malformed_mode_entry_is_a_domain_error(self, tmp_path, capsys, entry, message):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"modes": [entry]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_compare_rejects_an_integer_beyond_the_float_range(self, tmp_path, capsys):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"config": {"noise": {"kind": "constant", "b": -(10**400)}},
                                   "modes": [{"mode": "zero"}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: config key 'noise.b' must be a number within the float range,"
            " got an integer of 401 digits\n"
        )
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "command, config, extra, seed",
        [
            ("train", {**TRAIN_CONFIG, "seed": -1}, [], -1),
            ("train", TRAIN_CONFIG, ["--seed", "-3"], -3),
            ("compare", {"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}]}, ["--seed", "-3"], -3),
        ],
        ids=["train-config", "train-flag", "compare-flag"],
    )
    def test_negative_seed_names_its_key(self, tmp_path, capsys, command, config, extra, seed):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out.csv"
        assert main([command, "--config", str(cfg), *extra, "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
        assert not out.exists()

    def test_heuristic_anchors_beyond_the_float_range_are_a_domain_error(self, tmp_path, capsys):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"config": TRAIN_CONFIG,
                                   "modes": [{"mode": "heuristic", "anchors": [1e300, 5e299, 2e288]}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: anchors must give a fit within the float range, got (1e+300, 5e+299, 2e+288)\n"
        )
        assert not out.exists()

    def test_compare_rejects_unknown_top_level_key(self, tmp_path, capsys):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}], "seed": 4}))
        assert main(["compare", "--config", str(cfg), "-o", str(tmp_path / "table.csv")]) == 1
        assert "unknown compare config key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, key",
        [
            ({**TRAIN_CONFIG, "learning_rte": 0.5}, "learning_rte"),
            # A compare config given to train: its base config is not a train config.
            ({"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}]}, "config"),
        ],
    )
    def test_train_rejects_unknown_config_key(self, tmp_path, capsys, doc, key):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "report.csv"
        assert main(["train", "--config", str(cfg), "-o", str(out)]) == 1
        assert f"error: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()


    def test_train_rejects_unknown_nested_keys(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"noise": {"kind": "constant", "b": 0.2, "b_hgh": 0.9},
                                   "label_scale": {"mode": "oracle", "b": 0.3}}))
        out = tmp_path / "report.csv"
        assert main(["train", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config key 'noise.b_hgh'; known keys: kind, b\n"
        )
        assert sorted(tmp_path.iterdir()) == [cfg]

    def test_compare_rejects_unknown_key_in_a_mode(self, tmp_path, capsys):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"modes": [{"mode": "zero", "anchors": [1, 2]}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown config key 'modes[0].anchors'; known keys: mode\n"
        )
        assert sorted(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "detail, message",
        [
            ("Unable to allocate 26.8 GiB", "error: out of memory: Unable to allocate 26.8 GiB\n"),
            ("", "error: out of memory\n"),
        ],
    )
    def test_running_out_of_memory_is_a_domain_error(
        self, tmp_path, capsys, monkeypatch, detail, message
    ):
        # numpy raises a MemoryError subclass when an array cannot be allocated.
        def compare(configs):
            raise MemoryError(detail)

        monkeypatch.setattr(synth_trainer, "compare", compare)
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"modes": [{"mode": "zero"}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 1
        assert capsys.readouterr().err == message
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_exit_codes(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}

        def run(*argv):
            return subprocess.run([sys.executable, "-m", "lkld", *argv], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)

        ok = run("fit-map", "--anchors", "2.0,0.05,0.01")
        assert ok.returncode == 0, ok.stderr
        assert json.loads(ok.stdout)["anchors"] == [2.0, 0.05, 0.01]
        missing = run("calib", "--records", "missing.csv", "-o", "calib.csv")
        assert missing.returncode == 1
        assert missing.stderr == "error: input file not found: missing.csv\n"
        usage = run("frobnicate")
        assert usage.returncode == 2 and "invalid choice" in usage.stderr
        assert sorted(tmp_path.iterdir()) == []


# Runs ``lkld.cli.main(argv)`` in a fresh interpreter and prints, as its last
# line, the lkld modules loaded by ``import lkld.cli`` and after the run, and
# the lkld or numpy objects the run left in cyclic garbage.
FOOTPRINT_PROBE = """
import gc, json, sys, types

def loaded():
    return sorted(name for name in sys.modules if name.partition(".")[0] == "lkld")

def owner(obj):
    kind = type(obj)
    return obj.__module__ if kind is type or kind is types.FunctionType else kind.__module__

import lkld.cli
imported = loaded()
gc.collect()
gc.set_debug(gc.DEBUG_SAVEALL)
try:
    code = lkld.cli.main(json.loads(sys.argv[1]))
except SystemExit as exc:
    code = exc.code
gc.collect()
leaked = [repr(type(obj)) for obj in gc.garbage if str(owner(obj)).partition(".")[0] in ("lkld", "numpy")]
gc.set_debug(0)
print(json.dumps({"code": code, "imported": imported, "loaded": loaded(), "leaked": leaked}))
"""

CLI_MODULES = ["lkld", "lkld._util", "lkld.cli"]


class TestImportFootprint:
    """``import lkld.cli`` loads no domain module; each command loads only its own."""

    FOOTPRINTS = {
        "calib": ["calibration"],
        "labelunc": ["geometry", "label_uncertainty"],
        "fit-map": ["geometry", "label_uncertainty"],
        "iou-hist": ["geometry", "label_uncertainty"],
        "loss-eval": ["distributions"],
        "grad-check": ["distributions"],
        "surface": ["distributions"],
        "train": ["calibration", "distributions", "geometry", "label_uncertainty", "synth_trainer"],
        "compare": ["_fork", "calibration", "distributions", "geometry", "label_uncertainty", "synth_trainer"],
    }

    @staticmethod
    def probe(tmp_path, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(argv)], cwd=tmp_path,
                               env=env, capture_output=True, text=True, timeout=120)
        assert child.returncode == 0, child.stderr
        return json.loads(child.stdout.splitlines()[-1])

    @pytest.mark.parametrize("argv, code", [(["--help"], 0), (["frobnicate"], 2), (["calib"], 2)])
    def test_start_up_and_usage_errors_load_no_domain_module(self, tmp_path, argv, code):
        seen = self.probe(tmp_path, argv)
        assert seen["code"] == code
        assert seen["imported"] == seen["loaded"] == CLI_MODULES
        assert seen["leaked"] == []

    @pytest.mark.parametrize("name", sorted(FOOTPRINTS))
    def test_a_command_loads_only_its_own_modules(self, tmp_path, name):
        seen = self.probe(tmp_path, nine_commands(tmp_path)[name])
        assert seen["code"] == 0
        assert seen["imported"] == CLI_MODULES
        assert seen["loaded"] == sorted(CLI_MODULES + [f"lkld.{m}" for m in self.FOOTPRINTS[name]])
        # The import runs with the collector paused: it must leave no cycles either.
        assert seen["leaked"] == []


class TestExitCodesAndAtomicity:
    @staticmethod
    def run_calib_under_umask(tmp_path, mask):
        records = tmp_path / "preds.csv"
        records.write_text(CALIB_TEXT)
        old = os.umask(mask)
        try:
            code = main(["calib", "--records", str(records), "--per-class",
                         "-o", str(tmp_path / "calib.csv")])
        finally:
            os.umask(old)
        assert code == 0
        return {path.name: stat.S_IMODE(path.stat().st_mode)
                for path in tmp_path.iterdir() if path != records}

    @pytest.mark.parametrize("mask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
    def test_new_outputs_get_the_mode_open_gives(self, tmp_path, mask, mode):
        modes = self.run_calib_under_umask(tmp_path, mask)
        assert modes == {"calib.csv": mode, "calib.car.csv": mode, "calib.bike.csv": mode}

    def test_existing_output_keeps_its_mode(self, tmp_path):
        out = tmp_path / "calib.csv"
        out.write_text("previous contents\n")
        out.chmod(0o640)
        modes = self.run_calib_under_umask(tmp_path, 0o077)
        assert modes == {"calib.csv": 0o640, "calib.car.csv": 0o600, "calib.bike.csv": 0o600}
        assert out.read_text().startswith("expected_cdf,observed_cdf\n")

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_input_file(self, tmp_path, capsys):
        code = main(["labelunc", "--tracks", str(tmp_path / "nope.json"),
                     "--anchors", "2.0,0.05,0.01", "-o", str(tmp_path / "out.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_json_reports_line_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tracks": [}')
        code = main(["labelunc", "--tracks", str(bad), "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "out.csv")])
        assert code == 1
        message = capsys.readouterr().err
        assert "line" in message and "column" in message

    def test_non_finite_point_names_the_track(self, tmp_path, capsys):
        pose = {"sweep_id": 0, "center": [0.0, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}
        track = json.dumps({"label_id": "t", "class_name": "car", "poses": [pose],
                            "points": [{"sweep_id": 0, "xy": [[0.1, 0.2], "XY"]}]})
        bad = tmp_path / "tracks.json"
        bad.write_text('{"tracks": [%s, %s]}' % (track.replace('"XY"', "[NaN, 0.5]"),
                                                  track.replace('"XY"', "[1e400, 0.5]")))
        code = main(["labelunc", "--tracks", str(bad), "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "out.csv")])
        assert code == 1
        message = capsys.readouterr().err
        assert "malformed track at tracks[0]: point coordinates must be finite" in message
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("row", [{"x": 0.5, "y": 0.2}, {"0": 0.5, "1": 0.2}, "01"])
    def test_a_row_that_is_not_a_list_is_not_a_pair(self, tmp_path, capsys, row):
        # A dict row would extend by its keys, a string by its characters.
        doc = json.loads(json.dumps(SAMPLE_TRACKS))
        doc["tracks"][0]["points"][0]["xy"].append(row)
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(doc))
        out = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01", "-o", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: malformed track at tracks[0]: points must be (x, y) pairs\n"
        assert not out.exists()

    def test_frame_change_beyond_the_float_range_names_the_track_and_sweep(self, tmp_path, capsys):
        # Each coordinate is a float, but the point lies 2e308 from its pose center.
        poses = [{"sweep_id": s, "center": [c, 0.0], "theta": 0.0, "length": 4.0, "width": 2.0}
                 for s, c in ((0, 0.0), (3, -1e308))]
        points = [{"sweep_id": 0, "xy": [[0.1, 0.2]]}, {"sweep_id": 3, "xy": [[1e308, 0.0], [0.0, 1.0]]}]
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps({"tracks": [
            {"label_id": "far", "class_name": "car", "poses": poses, "points": points}]}))
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "out.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: track 'far' sweep 3: points moved into the label frame are beyond the float range\n"
        )
        assert not (tmp_path / "out.csv").exists()

    def test_failed_run_preserves_previous_output(self, tmp_path):
        out = tmp_path / "records.csv"
        out.write_text("previous contents\n")
        bad = tmp_path / "bad.json"
        bad.write_text("not json at all")
        code = main(["labelunc", "--tracks", str(bad), "--anchors", "2.0,0.05,0.01",
                     "-o", str(out)])
        assert code == 1
        assert out.read_text() == "previous contents\n"

    def test_unwritable_output_directory(self, tmp_path, capsys):
        code = main(["fit-map", "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "missing" / "map.json")])
        assert code == 1
        assert "output directory" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, text, argv",
        [
            ("calib.car.csv", CALIB_TEXT, ["calib", "--records", "{in}", "--per-class", "-o", "{dir}/calib.csv"]),
            ("r.csv", RECORDS_TEXT, ["iou-hist", "--records", "{in}", "--bins", "2", "-o", "{in}"]),
            ("preds.csv", CALIB_TEXT, ["calib", "--records", "{in}", "-o", "{dir}/PREDS.csv"]),
            ("tracks.json", json.dumps(SAMPLE_TRACKS),
             ["labelunc", "--tracks", "{in}", "--anchors", "2.0,0.05,0.01", "-o", "{in}"]),
            ("config.json", json.dumps(TRAIN_CONFIG), ["train", "--config", "{in}", "-o", "{in}"]),
            ("compare.json", json.dumps({"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}]}),
             ["compare", "--config", "{in}", "-o", "{dir}/./compare.json"]),
        ],
        ids=["calib-per-class", "iou-hist", "calib-case", "labelunc", "train", "compare"],
    )
    def test_output_never_overwrites_an_input(self, tmp_path, capsys, name, text, argv):
        source = tmp_path / name
        source.write_text(text)
        argv = [a.replace("{in}", str(source)).replace("{dir}", str(tmp_path)) for a in argv]
        assert main(argv) == 1
        assert "would overwrite input" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == [name]
        assert source.read_text() == text

    def test_output_through_a_linked_directory_never_overwrites_an_input(self, tmp_path, capsys):
        (tmp_path / "data").mkdir()
        (tmp_path / "alias").symlink_to(tmp_path / "data", target_is_directory=True)
        source = tmp_path / "data" / "r.csv"
        source.write_text(RECORDS_TEXT)
        code = main(["iou-hist", "--records", str(source), "--bins", "2",
                     "-o", str(tmp_path / "alias" / "r.csv")])
        assert code == 1
        assert "would overwrite input" in capsys.readouterr().err
        assert source.read_text() == RECORDS_TEXT

    @pytest.mark.parametrize(
        "command, header, row",
        [
            (["calib"], "residual,scale,class_name", '0.1,0.5,"{big}"'),
            (["iou-hist", "--bins", "2"], "label_id,class_name,iou", '"{big}",car,0.5'),
        ],
        ids=["calib", "iou-hist"],
    )
    def test_oversized_csv_field_is_a_domain_error(self, tmp_path, capsys, command, header, row):
        # The csv module refuses fields over 131,072 characters.
        source = tmp_path / "in.csv"
        source.write_text(f"{header}\n{row.format(big='x' * 200_000)}\n")
        out = tmp_path / "out.csv"
        code = main([command[0], "--records", str(source), *command[1:], "-o", str(out)])
        assert code == 1
        assert "line 2: field larger than field limit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, header, multiline_row, bad_row, message",
        [
            (["calib"], "residual,scale,class_name", '0.1,0.5,"a\nb"', "abc,0.5,car",
             "line 5: could not convert"),
            (["iou-hist", "--bins", "2"], "label_id,class_name,iou", '"a\nb",car,0.5', "c,car,abc",
             "line 5: bad iou cell"),
        ],
        ids=["calib", "iou-hist"],
    )
    def test_csv_errors_name_the_file_line(
        self, tmp_path, capsys, command, header, multiline_row, bad_row, message
    ):
        # A quoted cell spans lines 2-3 and line 4 is blank: the bad row is on line 5.
        source = tmp_path / "in.csv"
        source.write_text(f"{header}\n{multiline_row}\n\n{bad_row}\n")
        out = tmp_path / "out.csv"
        code = main([command[0], "--records", str(source), *command[1:], "-o", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, text, bad_row, message",
        [
            (["calib", "--per-class"], CALIB_TEXT, "abc,0.5,car", "line 6: could not convert"),
            (["iou-hist", "--bins", "2"], RECORDS_TEXT, "c,car,2.0", "line 5: iou must be in [0, 1]"),
        ],
        ids=["calib", "iou-hist"],
    )
    def test_blank_lines_before_the_header_are_skipped(
        self, tmp_path, capsys, command, text, bad_row, message
    ):
        outputs = {}
        for name, prefix in (("plain", ""), ("blank", "\n\r\n")):
            source = tmp_path / f"{name}.csv"
            source.write_text(prefix + text, newline="")
            out_dir = tmp_path / name
            out_dir.mkdir()
            code = main([command[0], "--records", str(source), *command[1:],
                         "-o", str(out_dir / "out.csv")])
            assert code == 0
            outputs[name] = {p.name: p.read_bytes() for p in out_dir.iterdir()}
        assert outputs["blank"] == outputs["plain"]
        assert len(outputs["plain"]) == (3 if command[0] == "calib" else 1)
        # Lines 1-2 are blank, so the header is line 3 and rows are counted from there.
        source = tmp_path / "bad.csv"
        source.write_text("\n\r\n" + text + bad_row + "\n", newline="")
        out = tmp_path / "bad_out.csv"
        code = main([command[0], "--records", str(source), *command[1:], "-o", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_grad_check_failure_exit_code(self, tmp_path, capsys):
        # An absurdly tight tolerance forces reported failures.
        out = tmp_path / "grad.csv"
        code = main(["grad-check", "--loss", "kld", "--samples", "50", "--rtol", "1e-14",
                     "--atol", "1e-16", "-o", str(out)])
        assert code == 1
        assert out.exists()


@pytest.fixture
def collector_state():
    """Put the cyclic collector back as the test found it."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def nine_commands(tmp_path: Path) -> dict[str, list[str]]:
    """A small valid invocation of each subcommand, its inputs written under ``tmp_path``."""
    tracks, records, preds = tmp_path / "tracks.json", tmp_path / "records.csv", tmp_path / "preds.csv"
    config, compare = tmp_path / "config.json", tmp_path / "compare.json"
    tracks.write_text(json.dumps(seeded_tracks(5, 6)))
    records.write_text(RECORDS_TEXT)
    preds.write_text(CALIB_TEXT)
    config.write_text(json.dumps(TRAIN_CONFIG))
    compare.write_text(json.dumps({"config": TRAIN_CONFIG, "modes": [{"mode": "zero"}, {"mode": "oracle"}]}))
    out = str(tmp_path / "out")
    return {
        "loss-eval": ["loss-eval", "--loss", "kld", "--label-location", "0", "--label-scale", "0.2",
                      "--pred-location", "0.3", "--pred-scale", "0.5"],
        "grad-check": ["grad-check", "--loss", "kld", "--samples", "50", "-o", out],
        "surface": ["surface", "--loss", "kld", "--label-scale", "0.2", "--error", "0:1:0.25",
                    "--scale", "0.1:1:0.3", "-o", out],
        "labelunc": ["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o", out],
        "fit-map": ["fit-map", "--anchors", "2.0,0.05,0.01", "-o", out],
        "iou-hist": ["iou-hist", "--records", str(records), "--bins", "4", "-o", out],
        "calib": ["calib", "--records", str(preds), "--per-class", "-o", out],
        "train": ["train", "--config", str(config), "-o", out],
        "compare": ["compare", "--config", str(compare), "-o", out],
    }


def cyclic_garbage(run) -> list:
    """The objects in reference cycles that ``run()`` leaves behind."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


@pytest.mark.usefixtures("collector_state")
class TestCollectorPause:
    """``main`` runs each command with the cyclic collector paused and puts it back as it was."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("outcome", ["success", "error", "out of memory"])
    def test_collector_state_is_restored(self, tmp_path, capsys, monkeypatch, enabled, outcome):
        if outcome == "out of memory":
            def evaluate_tracks(*args, **kwargs):
                raise MemoryError("Unable to allocate 1 GiB")

            monkeypatch.setattr(label_uncertainty, "evaluate_tracks", evaluate_tracks)
        tracks = tmp_path / "tracks.json"
        tracks.write_text("{" if outcome == "error" else json.dumps(SAMPLE_TRACKS))
        (gc.enable if enabled else gc.disable)()
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "records.csv")])
        assert gc.isenabled() is enabled
        assert code == (0 if outcome == "success" else 1)
        assert capsys.readouterr().err.startswith("error: ") is (outcome != "success")

    def test_command_body_runs_with_the_collector_paused(self, tmp_path, monkeypatch):
        seen = []
        evaluate_tracks = label_uncertainty.evaluate_tracks

        def probe(*args, **kwargs):
            seen.append(gc.isenabled())
            return evaluate_tracks(*args, **kwargs)

        monkeypatch.setattr(label_uncertainty, "evaluate_tracks", probe)
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(SAMPLE_TRACKS))
        gc.enable()
        assert main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "-o", str(tmp_path / "records.csv")]) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_commands_make_no_reference_cycles(self, tmp_path):
        # With the collector paused, a command's cycles would stay in memory
        # until it is back on; reference counting must free all of it. The
        # parser that main builds is the only cyclic garbage a command may
        # leave, and fit-map's indented json.dumps the only other: with an
        # indent the stdlib encoder is built from recursive closures, a fixed
        # set per call whatever the payload.
        def kinds(garbage):
            return collections.Counter(type(obj).__qualname__ for obj in garbage)

        parser_garbage = cyclic_garbage(cli.build_parser)
        encoder_garbage = cyclic_garbage(lambda: json.dumps({"alpha": [1.0]}, indent=2, sort_keys=True))
        assert parser_garbage and encoder_garbage
        for name, argv in nine_commands(tmp_path).items():
            expected = parser_garbage + (encoder_garbage if name == "fit-map" else [])
            codes = []
            garbage = cyclic_garbage(lambda: codes.append(main(argv)))
            assert codes == [0], name
            assert kinds(garbage) == kinds(expected), name
            assert not [obj for obj in garbage if type(obj).__module__.split(".")[0] in ("lkld", "numpy")]
