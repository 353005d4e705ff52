"""Batch command-line front end emitting plot-ready CSV/JSON.

Exit codes: 0 on success, 1 on domain errors (bad values, malformed or
unreadable inputs) and on running out of memory, 2 on usage errors. File
outputs are written atomically (temp file + rename) so a failed run never
leaves a partial file. All floating output uses 9 significant digits
except the label-uncertainty records CSV, whose format is pinned at 6.

The two CSV inputs, ``calib``'s predictions and ``iou-hist``'s records, are
parsed in the library (``calibration.reports_from_csv``, which parses and
counts, and ``label_uncertainty.ious_from_csv``) in one dialect,
``_util.csv_table``.
Every numeric CSV output is written by one helper, ``_util.csv_text``; only
the records CSV, which holds free text, goes through ``csv.writer``.
Sizes taken from the command line are bounded before anything is made:
``MAX_RANGE_POINTS`` per ``start:stop:step`` range,
``distributions.MAX_SURFACE_CELLS`` for the ``surface`` grid and
``label_uncertainty.MAX_HISTOGRAM_BINS`` for ``--bins``.

``main`` runs each command with the cyclic garbage collector paused and
then puts it back as it found it. The command bodies make no reference
cycles (``fit-map``'s indented ``json.dumps`` leaves the stdlib encoder's
few), so reference counting frees all they make; the collector would
only traverse, again and again, the containers a large input builds, such
as the ~166k ``[x, y]`` lists of a 7.3 MB ``labelunc`` tracks file. Only
``evaluate_tracks``'s one-pass fallback holds them all at once: a share
builds each track as it decodes it, so it holds one track's lists at a
time.

``import lkld.cli`` loads numpy, the stdlib modules that every command uses
and ``lkld._util``, and none of the domain modules. Each command imports the
one it runs when it runs, so start-up pays only for what the command uses:

- ``calib``: ``calibration`` and ``_fork``, which runs its shares; each
  share converts and counts its rows and sends back a count table;
- ``labelunc``, ``fit-map``, ``iou-hist``: ``label_uncertainty``, which
  loads ``geometry``; ``labelunc`` also loads ``_fork``;
- ``loss-eval``, ``grad-check``, ``surface``: ``distributions``;
- ``train``, ``compare``: ``synth_trainer``, which loads the other four;
  ``compare`` also loads ``_fork``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import pathlib
import string
import sys
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy  # noqa: F401  every command uses it (see the module docstring)

from ._util import csv_text, fmt_sig, write_text_atomic

if TYPE_CHECKING:
    from . import label_uncertainty

RANGE_TOL = 1e-12
# Most points a start:stop:step range may have; it is checked before any is made.
MAX_RANGE_POINTS = 1_000_000
# Kept verbatim in per-class file names; see class_file_part.
CLASS_FILE_SAFE = frozenset(string.ascii_letters + string.digits + "-_")


def parse_range(raw: str) -> list[float]:
    """Parse ``start:stop:step`` into a grid: start included, stop excluded.

    Points are ``start + k*step`` below ``stop - RANGE_TOL``; a range of more
    than ``MAX_RANGE_POINTS`` points is rejected before any is made.
    """
    parts = raw.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:step, got {raw!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"range values must be numbers: {raw!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"range start and stop must be finite, got {raw!r}")
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"range step must be > 0, got {step}")
    if stop <= start:
        raise ValueError(f"range stop must exceed start, got {raw!r}")
    limit = stop - RANGE_TOL
    count = (limit - start) / step
    if not count <= MAX_RANGE_POINTS:
        raise ValueError(f"range {raw!r} has more than {MAX_RANGE_POINTS} points")
    # start + k*step rises with k, so the points below the limit are a prefix.
    values = [start + k * step for k in range(max(math.ceil(count), 0) + 1)]
    return [v for v in values if v < limit]


def parse_anchors(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"anchors must be three comma-separated values, got {raw!r}")
    try:
        a, b, c = (float(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"anchor values must be numbers: {raw!r}") from exc
    return a, b, c


def _check_input(path: str) -> None:
    if not os.path.isfile(path):
        raise ValueError(f"input file not found: {path}")
    if not os.access(path, os.R_OK):
        raise ValueError(f"input file not readable: {path}")


def _open_input(path: str, newline: str | None = None):
    _check_input(path)
    return open(path, "r", encoding="utf-8", newline=newline)


def _name_max(directory: str) -> int:
    """Longest file name, in bytes, that a directory takes (255 where not reported)."""
    try:
        return os.pathconf(directory, "PC_NAME_MAX")
    except (AttributeError, ValueError, OSError):
        return 255


def _check_outputs(outputs: Sequence[str | None], inputs: Sequence[str] = ()) -> None:
    """Reject outputs that cannot be written or would overwrite an input or each other.

    ``None`` stands for stdout. Paths match after resolving symbolic links and
    folding letter case, as names differing only in case share a file on some systems.
    Every check runs before anything is written, so a rejected run writes nothing.
    """
    def key(path: str) -> str:
        return os.path.normcase(os.path.realpath(path)).casefold()

    sources = {key(path): path for path in inputs}
    targets: dict[str, str] = {}
    for path in filter(None, outputs):
        directory = os.path.dirname(os.path.abspath(path)) or "."
        if not os.path.isdir(directory):
            raise ValueError(f"output directory does not exist: {directory}")
        if not os.access(directory, os.W_OK):
            raise ValueError(f"output directory not writable: {directory}")
        name_max = _name_max(directory)
        if len(os.fsencode(os.path.basename(path))) > name_max:
            raise ValueError(f"output file name is longer than {name_max} bytes: {path}")
        k = key(path)
        if k in sources:
            raise ValueError(f"output {path} would overwrite input {sources[k]}")
        if k in targets:
            raise ValueError(f"outputs {targets[k]} and {path} would overwrite each other")
        targets[k] = path


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        write_text_atomic(path, text)


def _read_json(path: str) -> object:
    with _open_input(path) as handle:
        return json.load(handle)


def _round_sig(value: float) -> float:
    return float(fmt_sig(value))


def cmd_loss_eval(args: argparse.Namespace) -> int:
    from . import distributions

    _check_outputs([args.output])
    pred = distributions.LaplaceParams(args.pred_location, args.pred_scale)
    if args.loss != "kld" and args.label_scale is not None:
        raise ValueError("--label-scale only applies to --loss kld")
    if args.loss == "nll":
        grad = distributions.nll_loss(args.label_location, pred)
    elif args.loss == "kld0":
        grad = distributions.kld_loss_zero_label_scale(args.label_location, pred)
    else:
        if args.label_scale is None:
            raise ValueError("--loss kld requires --label-scale")
        label = distributions.LaplaceParams(args.label_location, args.label_scale)
        grad = distributions.kld_loss(label, pred)
    row = (fmt_sig(grad.value), fmt_sig(grad.d_location), fmt_sig(grad.d_scale))
    _emit(csv_text(("value", "d_location", "d_scale"), [row]), args.output)
    return 0


def cmd_grad_check(args: argparse.Namespace) -> int:
    from . import distributions

    _check_outputs([args.output])
    result = distributions.gradient_check(
        args.loss,
        samples=args.samples,
        seed=args.seed,
        step=args.step,
        rtol=args.rtol,
        atol=args.atol,
    )
    _emit(result.to_csv(), args.output)
    if not result.passed:
        print(
            f"error: {result.failures} of {result.samples} gradient samples "
            f"exceeded tolerance for loss {args.loss}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_surface(args: argparse.Namespace) -> int:
    from . import distributions

    _check_outputs([args.output])
    if args.loss == "nll" and args.label_scale is not None:
        raise ValueError("--label-scale only applies to --loss kld")
    grid = distributions.surface_grid(
        args.loss,
        args.label_scale if args.label_scale is not None else 0.0,
        parse_range(args.error),
        parse_range(args.scale),
    )
    _emit(grid.to_csv(), args.output)
    return 0


def _mappings_from_args(args: argparse.Namespace):
    from . import label_uncertainty

    default = label_uncertainty.fit_mapping(*parse_anchors(args.anchors))
    per_class = {}
    for entry in args.class_anchors or []:
        cls, _, anchor_part = entry.partition(":")
        if not cls or not anchor_part:
            raise ValueError(f"--class-anchors must be CLASS:B0,B0.5,B1 , got {entry!r}")
        per_class[cls] = label_uncertainty.fit_mapping(*parse_anchors(anchor_part))
    return default, per_class


def _note_if_linear(mapping: label_uncertainty.UncertaintyMapping, source: str) -> None:
    """Tell stderr when the anchors given by ``source`` fell back to the linear mapping."""
    if mapping.linear:
        print(
            f"note: {source}: equally spaced anchors degrade the exponential fit; "
            "using linear interpolation through the anchors",
            file=sys.stderr,
        )


def cmd_labelunc(args: argparse.Namespace) -> int:
    from . import label_uncertainty

    _check_outputs([args.output], [args.tracks])
    default, per_class = _mappings_from_args(args)
    _note_if_linear(default, "--anchors")
    for cls, mapping in per_class.items():
        _note_if_linear(mapping, f"--class-anchors {cls}")
    _check_input(args.tracks)
    # A path, not a decoded document: a large one is evaluated in forked shares.
    tracks = pathlib.Path(args.tracks)
    records = label_uncertainty.evaluate_tracks(tracks, mapping=default, per_class=per_class)
    _emit(label_uncertainty.records_to_csv(records), args.output)
    return 0


def cmd_fit_map(args: argparse.Namespace) -> int:
    from . import label_uncertainty

    _check_outputs([args.output])
    mapping = label_uncertainty.fit_mapping(*parse_anchors(args.anchors))
    _note_if_linear(mapping, "--anchors")
    roundtrip = max(
        abs(label_uncertainty.map_iou(mapping, x) - anchor)
        for x, anchor in zip((0.0, 0.5, 1.0), mapping.anchors)
    )
    payload = {
        "alpha": _round_sig(mapping.alpha),
        "beta": _round_sig(mapping.beta),
        "gamma": _round_sig(mapping.gamma),
        "anchors": [_round_sig(a) for a in mapping.anchors],
        "linear": mapping.linear,
        "roundtrip_max_abs_err": _round_sig(roundtrip),
    }
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.output)
    return 0


def cmd_iou_hist(args: argparse.Namespace) -> int:
    from . import label_uncertainty

    _check_outputs([args.output], [args.records])
    with _open_input(args.records, newline="") as handle:
        ious = label_uncertainty.ious_from_csv(handle)
    bins = label_uncertainty.iou_histogram(ious, args.bins)
    _emit(label_uncertainty.histogram_to_csv(bins), args.output)
    return 0


def class_file_part(name: str) -> str:
    """Injective, filesystem-safe file-name part for a class name.

    Letters, digits, ``-`` and ``_`` stay as they are; every other UTF-8
    byte becomes ``%XX`` (uppercase hex), so ``a/b`` gives ``a%2Fb`` and
    ``..`` gives ``%2E%2E``. The empty name gives ``%``, which no other
    name can produce.
    """
    if not name:
        return "%"
    return "".join(
        chr(b) if chr(b) in CLASS_FILE_SAFE else f"%{b:02X}" for b in name.encode("utf-8")
    )


def cmd_calib(args: argparse.Namespace) -> int:
    from . import calibration

    _check_input(args.records)
    grid = parse_range(args.grid) if args.grid else calibration.DEFAULT_GRID
    # A path, not an open file: it is converted and counted in forked shares.
    pooled, per_class = calibration.reports_from_csv(pathlib.Path(args.records), grid)
    stem, ext = os.path.splitext(args.output)
    names = sorted(per_class) if args.per_class else []
    paths = {name: f"{stem}.{class_file_part(name)}{ext}" for name in names}
    _check_outputs([args.output, *paths.values()], [args.records])
    _emit(calibration.report_to_csv(pooled), args.output)
    for name, path in paths.items():
        write_text_atomic(path, calibration.report_to_csv(per_class[name]))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from . import synth_trainer

    _check_outputs([args.output], [args.config])
    config = synth_trainer.config_from_dict(_read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    _, report = synth_trainer.train(config)
    _emit(synth_trainer.train_report_to_csv(config, report), args.output)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from . import synth_trainer

    _check_outputs([args.output], [args.config])
    configs = synth_trainer.compare_configs_from_dict(_read_json(args.config))
    if args.seed is not None:
        configs = [dataclasses.replace(config, seed=args.seed) for config in configs]
    rows = synth_trainer.compare(configs)
    _emit(synth_trainer.comparison_to_csv(configs[0], rows), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lkld",
        description="Laplace regression losses, label-uncertainty geometry, and calibration tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("loss-eval", help="evaluate one loss with its gradients")
    p.add_argument("--loss", choices=["nll", "kld", "kld0"], required=True)
    p.add_argument("--label-location", type=float, required=True)
    p.add_argument("--label-scale", type=float, default=None)
    p.add_argument("--pred-location", type=float, required=True)
    p.add_argument("--pred-scale", type=float, required=True)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_loss_eval)

    p = sub.add_parser("grad-check", help="finite-difference check of the analytic gradients")
    p.add_argument("--loss", choices=["nll", "kld"], required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-6)
    p.add_argument("--rtol", type=float, default=1e-5)
    p.add_argument("--atol", type=float, default=1e-7)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("surface", help="tabulate a loss over an error x scale grid")
    p.add_argument("--loss", choices=["nll", "kld"], required=True)
    p.add_argument("--label-scale", type=float, default=None)
    p.add_argument("--error", required=True, metavar="START:STOP:STEP")
    p.add_argument("--scale", required=True, metavar="START:STOP:STEP")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_surface)

    p = sub.add_parser("labelunc", help="hull-IoU label uncertainty records from tracks JSON")
    p.add_argument("--tracks", required=True)
    p.add_argument("--anchors", required=True, metavar="B0,B0.5,B1")
    p.add_argument(
        "--class-anchors",
        action="append",
        default=None,
        metavar="CLASS:B0,B0.5,B1",
        help="per-class anchor override (repeatable)",
    )
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_labelunc)

    p = sub.add_parser("fit-map", help="fit the exponential IoU-to-scale mapping")
    p.add_argument("--anchors", required=True, metavar="B0,B0.5,B1")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_fit_map)

    p = sub.add_parser("iou-hist", help="histogram the iou column of a records CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_iou_hist)

    p = sub.add_parser("calib", help="calibration curve from residual,scale,class_name CSV")
    p.add_argument("--records", required=True)
    p.add_argument("--grid", default=None, metavar="START:STOP:STEP")
    p.add_argument("--per-class", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_calib)

    p = sub.add_parser("train", help="train the synthetic predictor from a config JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="compare label-scale modes on shared data")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # The command bodies make no reference cycles (see the module docstring);
    # a caller that paused the collector keeps it paused.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
