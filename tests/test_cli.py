"""Tests for the command-line front end: outputs, exit codes, atomicity."""

import csv
import hashlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from lkld.calibration import calibration_report, report_to_csv
from lkld.cli import CLASS_FILE_SAFE, class_file_part, main, parse_anchors, parse_range
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

    def test_missing_label_scale_for_kld(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(
            ["surface", "--loss", "kld", "--error", "0:1:0.5", "--scale", "0.1:0.4:0.1",
             "-o", str(out)]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err
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


class TestLabelUncCommands:
    # sha256 of the records CSV for seeded_tracks(11, 24); any change to the
    # parse, the frame change, the hull or the IoU shows here.
    RECORDS_PIN = "51a1ffb9f7c18c167345dd30c458a8352bd8671454b6e4fd2cea6ba887e88484"

    def test_labelunc_records_are_pinned(self, tmp_path):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps(seeded_tracks(11, 24)))
        records = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "--class-anchors", "pedestrian:0.25,0.05,0.01", "-o", str(records)])
        assert code == 0
        assert hashlib.sha256(records.read_bytes()).hexdigest() == self.RECORDS_PIN

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

    def test_labelunc_empty_track_list(self, tmp_path):
        tracks = tmp_path / "tracks.json"
        tracks.write_text(json.dumps({"tracks": []}))
        out = tmp_path / "records.csv"
        code = main(["labelunc", "--tracks", str(tracks), "--anchors", "2.0,0.05,0.01",
                     "-o", str(out)])
        assert code == 0
        assert out.read_text() == "label_id,class_name,iou,scale_b,n_points,n_sweeps\n"

    def test_fit_map_json(self, tmp_path, capsys):
        code = main(["fit-map", "--anchors", "2.0,0.05,0.01"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["linear"] is False
        assert payload["alpha"] + payload["gamma"] == pytest.approx(2.0, abs=1e-8)
        assert payload["roundtrip_max_abs_err"] < 1e-9

    def test_fit_map_linear_fallback_warns(self, tmp_path, capsys):
        out = tmp_path / "map.json"
        code = main(["fit-map", "--anchors", "0.3,0.2,0.1", "-o", str(out)])
        assert code == 0
        assert "linear interpolation" in capsys.readouterr().err
        assert json.loads(out.read_text())["linear"] is True


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
    # and oracle: 400 epochs of both runs, their per-epoch scoring and the
    # tail-averaged test scores.
    DEFAULT_COMPARE_SHA256 = "6141910b87e9f72a6247d8fc0f635ef8335d66877057d76c2ff9dfc2aced9f13"

    def test_default_compare_bytes_are_pinned(self, tmp_path):
        cfg = tmp_path / "compare.json"
        cfg.write_text(json.dumps({"modes": [{"mode": "zero"}, {"mode": "oracle"}]}))
        out = tmp_path / "table.csv"
        assert main(["compare", "--config", str(cfg), "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DEFAULT_COMPARE_SHA256

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


class TestExitCodesAndAtomicity:
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
