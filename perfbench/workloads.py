"""Seeded input generators and output checks for the three benchmark workloads.

Each workload is one ``lkld`` subcommand run on inputs generated here from
the benchmark seed. ``prepare`` writes the inputs and returns the argv
(with ``{out}`` standing for a per-invocation output directory), what the
check needs, and the input properties recorded with every result.
``check`` returns the problems found in one invocation's outputs; an empty
list means the outputs are correct.

The references are independent of the code under test wherever that is
cheap: IoUs come from the generator's own box-local points and scipy's
Qhull, calibration curves from numpy on the generated arrays. Only the
training duel, whose result is the outcome of 204,800 SGD steps, is
compared against stored outputs of the seed commit (``compare_reference.json``).
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
WORKLOADS = ("compare_duel", "labelunc_mixed", "calib_perclass")


@dataclass
class Prepared:
    argv: list[str]
    expected: object
    properties: dict


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2**63, tag])


def _dist(values) -> dict:
    arr = np.asarray(values, dtype=float)
    return {
        "min": float(arr.min()),
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
        "total": float(arr.sum()),
    }


# --- compare_duel -----------------------------------------------------------

# Config seeds cycle through this many values so that every benchmark seed
# has a stored reference; a reference costs one 12 s duel to make.
COMPARE_CONFIG_SEEDS = 16
COMPARE_MODES = ("zero", "oracle")
# Summation-order changes to the SGD step move MAE by a few 1e-3; a broken
# trainer moves it by far more or diverges.
COMPARE_TOL = {"test_mae": 0.02, "test_ece": 0.02}
DEFAULT_SYNTH = {
    "n_train": 256,
    "n_test": 4000,
    "feature_dim": 128,
    "noise": {"kind": "feature_dependent", "b_low": 0.1, "b_high": 0.5},
    "epochs": 400,
    "learning_rate": 0.03,
    "grad_clip": 1.0,
    "average_tail_epochs": 100,
}


def compare_config(seed: int, **overrides) -> dict:
    config = {**DEFAULT_SYNTH, "seed": seed % COMPARE_CONFIG_SEEDS, **overrides}
    return {"config": config, "modes": [{"mode": m} for m in COMPARE_MODES]}


def load_compare_reference() -> dict:
    with open(HERE / "compare_reference.json", encoding="utf-8") as handle:
        return json.load(handle)["rows"]


def prepare_compare(seed: int, work: Path, **overrides) -> Prepared:
    doc = compare_config(seed, **overrides)
    path = work / "compare.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    cfg = doc["config"]
    steps = cfg["n_train"] * cfg["epochs"] * len(COMPARE_MODES)
    return Prepared(
        argv=["compare", "--config", str(path), "-o", "{out}/compare.csv"],
        expected=None if overrides else cfg["seed"],
        properties={
            "config_seed": cfg["seed"],
            "modes": list(COMPARE_MODES),
            "n_train": cfg["n_train"],
            "n_test": cfg["n_test"],
            "feature_dim": cfg["feature_dim"],
            "epochs": cfg["epochs"],
            "sgd_steps": steps,
            "calibration_reports": (cfg["epochs"] + 1) * len(COMPARE_MODES),
        },
    )


def parse_compare(text: str) -> list[tuple[str, float, float, bool]]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines or lines[0] != "mode,test_mae,test_ece,diverged":
        raise ValueError(f"bad compare header: {lines[:1]}")
    rows = []
    for line in lines[1:]:
        mode, mae, ece, diverged = line.split(",")
        if diverged not in ("true", "false"):
            raise ValueError(f"bad diverged flag {diverged!r}")
        rows.append((mode, float(mae), float(ece), diverged == "true"))
    return rows


def check_compare(config_seed: int | None, out: Path) -> list[str]:
    """Mode order, oracle beats NLL, and (default config) the stored reference."""
    reference = [] if config_seed is None else load_compare_reference()[str(config_seed)]
    try:
        rows = parse_compare((out / "compare.csv").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"unreadable compare output: {exc}"]
    modes = [r[0] for r in rows]
    if modes != list(COMPARE_MODES):
        return [f"modes {modes} != {list(COMPARE_MODES)}"]
    problems = []
    zero, oracle = rows
    if oracle[3]:
        problems.append("oracle run diverged")
    zero_ece = math.inf if zero[3] else zero[2]
    if not oracle[2] < zero_ece:
        problems.append(f"oracle test_ece {oracle[2]} not below zero's {zero_ece}")
    for row, ref in zip(rows, reference):
        mode, mae, ece, diverged = row
        if diverged != ref[3]:
            problems.append(f"{mode}: diverged={diverged}, reference {ref[3]}")
            continue
        if diverged:
            continue
        for name, got, want in (("test_mae", mae, ref[1]), ("test_ece", ece, ref[2])):
            if not abs(got - want) <= COMPARE_TOL[name]:
                problems.append(f"{mode}: {name} {got} vs reference {want}")
    return problems


# --- labelunc_mixed ---------------------------------------------------------

N_TRACKS = 400
LARGE_FRACTION = 0.3
SMALL_CLASSES = ("pedestrian", "cyclist")
LARGE_CLASSES = ("car", "truck")
BOX_DIMS = {"pedestrian": (0.8, 0.7), "cyclist": (1.8, 0.7), "car": (4.6, 1.9), "truck": (8.5, 2.6)}
ANCHORS = (1.0, 0.4, 0.1)
CLASS_ANCHORS = {"pedestrian": (0.6, 0.3, 0.08)}
SCENE_HALF_WIDTH = 1000.0
SWEEP_DT = 0.1
# The library prints IoU with 6 significant digits.
IOU_TOL = 2e-5
SCALE_RTOL = 1e-4
RECORDS_HEADER = ["label_id", "class_name", "iou", "scale_b", "n_points", "n_sweeps"]


def _hull_area(points: np.ndarray) -> float:
    from scipy.spatial import ConvexHull  # independent oracle (Qhull)

    unique = np.unique(points, axis=0)
    if len(unique) < 3:
        return 0.0
    return float(ConvexHull(unique).volume)


def exp_mapping(anchors, iou_value: float) -> float:
    """Scale at an IoU from the three-anchor exponential, solved in closed form."""
    b0, bh, b1 = anchors
    t = (bh - b1) / (b0 - bh)
    beta = -2.0 * math.log(t)
    alpha = (b0 - bh) / (1.0 - t)
    return max(alpha * math.exp(-beta * iou_value) + b0 - alpha, 1e-6)


def make_tracks(seed: int, n_tracks: int = N_TRACKS) -> tuple[dict, dict]:
    """Tracks JSON document plus, per label id, the reference record fields.

    Every point is drawn inside its box (in box-local coordinates, within a
    per-track fraction of the half extents), so the hull lies inside the
    label and the IoU is the hull area over the box area in any frame.
    """
    rng = _rng(seed, 1)
    # An exact share of large tracks keeps the total work the same across seeds.
    large_flags = np.arange(n_tracks) < round(LARGE_FRACTION * n_tracks)
    raw_tracks = []
    expected = {}
    for i, large in zip(rng.permutation(n_tracks), rng.permutation(large_flags)):
        classes = LARGE_CLASSES if large else SMALL_CLASSES
        cls = classes[int(rng.integers(len(classes)))]
        length, width = np.asarray(BOX_DIMS[cls]) * rng.uniform(0.9, 1.1, 2)
        n_sweeps = 10 if large else int(rng.integers(3, 5))
        first_sweep = int(rng.integers(0, 1000))
        origin = rng.uniform(-SCENE_HALF_WIDTH, SCENE_HALF_WIDTH, 2)
        heading = rng.uniform(-math.pi, math.pi)
        speed = rng.uniform(0.0, 15.0 if large else 2.0)
        fill = rng.uniform(0.3, 0.97, 2) * 0.5 * np.array([length, width])
        poses, points, local_all = [], [], []
        for k in range(n_sweeps):
            theta = heading + rng.normal(0.0, 0.02)
            center = origin + speed * SWEEP_DT * k * np.array([math.cos(heading), math.sin(heading)])
            m = int(rng.integers(50, 201)) if large else int(rng.integers(1, 31))
            local = rng.uniform(-1.0, 1.0, (m, 2)) * fill
            c, s = math.cos(theta), math.sin(theta)
            world = local @ np.array([[c, s], [-s, c]]) + center
            sweep = first_sweep + k
            poses.append(
                {
                    "sweep_id": sweep,
                    "center": center.tolist(),
                    "theta": theta,
                    "length": float(length),
                    "width": float(width),
                }
            )
            points.append({"sweep_id": sweep, "xy": world.tolist()})
            local_all.append(local)
        label_id = f"trk-{i:06d}"
        cloud = np.concatenate(local_all)
        raw_tracks.append({"label_id": label_id, "class_name": cls, "poses": poses, "points": points})
        expected[label_id] = {
            "class_name": cls,
            "iou": _hull_area(cloud) / (float(length) * float(width)),
            "n_points": len(cloud),
            "n_sweeps": n_sweeps,
        }
    return {"tracks": raw_tracks}, expected


def prepare_labelunc(seed: int, work: Path, n_tracks: int = N_TRACKS) -> Prepared:
    doc, expected = make_tracks(seed, n_tracks)
    path = work / "tracks.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["labelunc", "--tracks", str(path), "--anchors", ",".join(map(str, ANCHORS))]
    for cls, anchors in CLASS_ANCHORS.items():
        argv += ["--class-anchors", f"{cls}:" + ",".join(map(str, anchors))]
    argv += ["-o", "{out}/records.csv"]
    records = list(expected.values())
    n_points = [r["n_points"] for r in records]
    mix = {}
    for r in records:
        mix[r["class_name"]] = mix.get(r["class_name"], 0) + 1
    return Prepared(
        argv=argv,
        expected=expected,
        properties={
            "tracks": len(records),
            "large_tracks": sum(r["class_name"] in LARGE_CLASSES for r in records),
            "points_per_track": _dist(n_points),
            "sweeps_per_track": _dist([r["n_sweeps"] for r in records]),
            "class_mix": mix,
            "input_bytes": path.stat().st_size,
        },
    )


def check_labelunc(expected: dict, out: Path) -> list[str]:
    try:
        with open(out / "records.csv", encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        return [f"unreadable records output: {exc}"]
    if not rows or rows[0] != RECORDS_HEADER:
        return [f"bad records header: {rows[:1]}"]
    body = rows[1:]
    ids = [row[0] for row in body]
    if ids != sorted(expected):
        return [f"record ids are not the {len(expected)} generated ids in sorted order"]
    problems = []
    for row in body:
        try:
            label_id, cls, iou_cell, scale_cell, n_points, n_sweeps = row
            iou_value, scale = float(iou_cell), float(scale_cell)
            int(n_points), int(n_sweeps)
        except ValueError as exc:
            problems.append(f"malformed record {row}: {exc}")
            continue
        want = expected[label_id]
        if cls != want["class_name"]:
            problems.append(f"{label_id}: class {cls!r} != {want['class_name']!r}")
        if int(n_points) != want["n_points"] or int(n_sweeps) != want["n_sweeps"]:
            problems.append(f"{label_id}: counts {n_points},{n_sweeps} != generated")
        if not abs(iou_value - want["iou"]) <= IOU_TOL:
            problems.append(f"{label_id}: iou {iou_value} vs reference {want['iou']:.7g}")
        mapped = exp_mapping(CLASS_ANCHORS.get(cls, ANCHORS), iou_value)
        if not abs(scale - mapped) <= SCALE_RTOL * mapped:
            problems.append(f"{label_id}: scale_b {scale} != mapping of iou {mapped:.7g}")
    return problems


# --- calib_perclass ---------------------------------------------------------

N_ROWS = 200_000
# (class name, share of rows, miscalibration factor of the residual spread)
CALIB_CLASSES = (("car", 0.50, 1.0), ("pedestrian", 0.25, 1.4), ("cyclist", 0.12, 0.8),
                 ("truck", 0.08, 1.2), ("", 0.05, 2.0))
GRID = np.arange(1, 100) / 100.0
# Curves are printed with 9 significant digits; one record moves a fraction
# by 1/n >= 5e-6.
CURVE_TOL = 1e-8


def calib_curve(residual: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, float]:
    z = residual / scale
    cdf = np.where(z < 0.0, 0.5 * np.exp(np.minimum(z, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(z, 0.0)))
    observed = np.searchsorted(np.sort(cdf), GRID, side="right") / float(len(z))
    return observed, float(np.mean(np.abs(observed - GRID)))


def prepare_calib(seed: int, work: Path, n_rows: int = N_ROWS) -> Prepared:
    rng = _rng(seed, 2)
    names = [c[0] for c in CALIB_CLASSES]
    shares = np.array([c[1] for c in CALIB_CLASSES])
    factors = np.array([c[2] for c in CALIB_CLASSES])
    cls_idx = rng.choice(len(names), n_rows, p=shares / shares.sum())
    scale = 10.0 ** rng.uniform(-1.0, 0.0, n_rows)
    residual = scale * factors[cls_idx] * rng.laplace(0.0, 1.0, n_rows)
    path = work / "records.csv"
    lines = ["residual,scale,class_name"]
    lines += [f"{r!r},{s!r},{names[c]}" for r, s, c in zip(residual.tolist(), scale.tolist(), cls_idx.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = {None: calib_curve(residual, scale)}
    for k, name in enumerate(names):
        mask = cls_idx == k
        if mask.any():
            expected[name] = calib_curve(residual[mask], scale[mask])
    return Prepared(
        argv=["calib", "--records", str(path), "--per-class", "-o", "{out}/curve.csv"],
        expected=expected,
        properties={
            "rows": n_rows,
            "class_mix": {name: int(np.sum(cls_idx == k)) for k, name in enumerate(names)},
            "scale_range": [float(scale.min()), float(scale.max())],
            "input_bytes": path.stat().st_size,
        },
    )


def parse_curve(text: str) -> tuple[np.ndarray, np.ndarray, float]:
    lines = text.splitlines()
    if not lines or lines[0] != "expected_cdf,observed_cdf" or not lines[-1].startswith("ece,"):
        raise ValueError("bad curve layout")
    pairs = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:-1]]).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1], float(lines[-1].split(",")[1])


def _curve_matches(text: str, want) -> bool:
    try:
        grid, observed, ece = parse_curve(text)
    except ValueError:
        return False
    return (
        grid.shape == GRID.shape
        and np.allclose(grid, GRID, rtol=0.0, atol=1e-12)
        and np.allclose(observed, want[0], rtol=0.0, atol=CURVE_TOL)
        and abs(ece - want[1]) <= CURVE_TOL
    )


def check_calib(expected: dict, out: Path) -> list[str]:
    pooled = out / "curve.csv"
    others = sorted(p for p in out.iterdir() if p.name != pooled.name and not p.name.startswith("."))
    problems = []
    if not pooled.is_file() or not _curve_matches(pooled.read_text(encoding="utf-8"), expected[None]):
        problems.append("pooled curve differs from the numpy reference")
    classes = [c for c in expected if c is not None]
    if len(others) != len(classes):
        return problems + [f"{len(others)} per-class files for {len(classes)} classes"]
    # File naming is the library's choice; each file must hold exactly one
    # class's curve, and a named class must appear in its file's name.
    unmatched = set(classes)
    for path in others:
        text = path.read_text(encoding="utf-8")
        hits = [c for c in unmatched if _curve_matches(text, expected[c]) and c in path.name]
        if len(hits) != 1:
            problems.append(f"{path.name} matches no remaining class curve")
        else:
            unmatched.discard(hits[0])
    return problems


PREPARE = {"compare_duel": prepare_compare, "labelunc_mixed": prepare_labelunc, "calib_perclass": prepare_calib}
CHECK = {"compare_duel": check_compare, "labelunc_mixed": check_labelunc, "calib_perclass": check_calib}


def prepare(name: str, seed: int, work: Path, **sizes) -> Prepared:
    os.makedirs(work, exist_ok=True)
    return PREPARE[name](seed, work, **sizes)


def check(name: str, expected, out: Path) -> list[str]:
    return CHECK[name](expected, out)
