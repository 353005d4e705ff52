"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the module attributes the CLI reaches with
wrappers and ``uninstall`` puts the originals back, so no library file
changes. A coarse call records a span (name, start, end, parent); a hot leaf
(one loss evaluation, one point transform) only adds to a count and a
total: a compare_duel invocation makes ~205k loss calls and a
labelunc_mixed invocation ~0.17M point transforms.
Spans stay in memory until the run ends.

A span's self time is its duration minus its child spans and the timed
leaves called under it, so the self times of one invocation sum to its
``cli.main`` span. Tracing assumes one thread: the benchmark leaves
``LKLD_THREADS`` unset, so the library never starts a pool.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from lkld import calibration, cli, label_uncertainty, synth_trainer

# Span record layout: name, start, end, parent index, child-span time, leaf time.
NAME, START, END, PARENT, CHILD, LEAF = range(6)

PARSE_SPANS = ("cli._read_json", "calibration.records_from_csv", "label_uncertainty.tracks_from_json")


def _size(obj) -> int:
    return len(obj) if hasattr(obj, "__len__") else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaves: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.track_us: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = end = perf_counter()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD] += end - rec[START]
            if on_result is not None:
                on_result(args, result, end - rec[START])
            return result

        return wrapper

    def leaf(self, name, fn, timed=True):
        spans, stack = self.spans, self.stack
        entry = self.leaves.setdefault(name, [0, 0.0])
        if not timed:
            def counted(*args, **kwargs):
                entry[0] += 1
                return fn(*args, **kwargs)

            return counted

        def timed_leaf(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            entry[0] += 1
            entry[1] += elapsed
            if stack:
                spans[stack[-1]][LEAF] += elapsed
            return result

        return timed_leaf

    def install(self) -> None:
        c = self.counts

        def rows(args, result, _):
            c["rows_parsed"] += _size(result)

        def written(args, result, _):
            c["files_written"] += 1
            c["bytes_written"] += len(args[1].encode("utf-8"))

        def trained(args, result, _):
            config, report = args[0], result[1]
            n = args[1].labels.shape[0] if len(args) > 1 and args[1] is not None else config.n_train
            c["sgd_steps"] += n * len(report.epoch_stats)

        def scored(args, result, _):
            c["records_scored"] += _size(args[0])

        def moved(args, result, _):
            c["points_moved"] += _size(result)

        def hulled(args, result, _):
            c["hull_points_in"] += _size(args[0])
            c["hull_vertices_out"] += _size(result)

        def evaluated(args, result, elapsed):
            self.track_us.append(elapsed * 1e6)

        patches = [
            (cli, "main", self.span("cli.main", cli.main)),
            (cli, "_read_json", self.span("cli._read_json", cli._read_json)),
            (cli, "write_text_atomic", self.span("cli.write_text_atomic", cli.write_text_atomic, written)),
            (calibration, "records_from_csv",
             self.span("calibration.records_from_csv", calibration.records_from_csv, rows)),
            (calibration, "calibration_report",
             self.span("calibration.report", calibration.calibration_report, scored)),
            (synth_trainer, "calibration_report",
             self.span("calibration.report", synth_trainer.calibration_report, scored)),
            (synth_trainer, "compare", self.span("synth_trainer.compare", synth_trainer.compare)),
            (synth_trainer, "generate", self.span("synth_trainer.generate", synth_trainer.generate)),
            (synth_trainer, "train", self.span("synth_trainer.train", synth_trainer.train, trained)),
            (synth_trainer, "kld_loss", self.leaf("distributions.loss", synth_trainer.kld_loss)),
            (synth_trainer, "kld_loss_zero_label_scale",
             self.leaf("distributions.loss", synth_trainer.kld_loss_zero_label_scale)),
            (label_uncertainty, "tracks_from_json",
             self.span("label_uncertainty.tracks_from_json", label_uncertainty.tracks_from_json, rows)),
            (label_uncertainty, "evaluate_tracks",
             self.span("label_uncertainty.evaluate_tracks", label_uncertainty.evaluate_tracks)),
            (label_uncertainty, "evaluate_track",
             self.span("label_uncertainty.evaluate_track", label_uncertainty.evaluate_track, evaluated)),
            (label_uncertainty, "aggregate_points",
             self.span("label_uncertainty.aggregate_points", label_uncertainty.aggregate_points, moved)),
            (label_uncertainty, "rigid_transform",
             self.leaf("geometry.rigid_transform", label_uncertainty.rigid_transform, timed=False)),
            (label_uncertainty, "convex_hull",
             self.span("geometry.convex_hull", label_uncertainty.convex_hull, hulled)),
            (label_uncertainty, "iou", self.span("geometry.iou", label_uncertainty.iou)),
        ]
        for module, attr, wrapper in patches:
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        """Self time per span name, plus each timed leaf's total."""
        out: dict[str, float] = defaultdict(float)
        for rec in self.spans:
            out[rec[NAME]] += rec[END] - rec[START] - rec[CHILD] - rec[LEAF]
        for name, (_, total) in self.leaves.items():
            if total:
                out[name] += total
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for everything traced since ``install``."""
        total: dict[str, float] = defaultdict(float)
        child: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for rec in self.spans:
            total[rec[NAME]] += rec[END] - rec[START]
            child[rec[NAME]] += rec[CHILD]
            calls[rec[NAME]] += 1
        selfs = self.self_times()
        c = self.counts
        loss_calls, loss_s = self.leaves.get("distributions.loss", [0, 0.0])
        steps = c["sgd_steps"]
        train_step_s = total["synth_trainer.train"] - child["synth_trainer.train"]

        def per(value, count, unit):
            return value / count * unit if count else 0.0

        return {
            "synth_trainer.train_self_s": selfs.get("synth_trainer.train", 0.0),
            "synth_trainer.sgd_steps": steps,
            "synth_trainer.us_per_step": per(train_step_s, steps, 1e6),
            "synth_trainer.generate_s": total["synth_trainer.generate"],
            "distributions.loss_calls": loss_calls,
            "distributions.loss_s": loss_s,
            "distributions.ns_per_loss": per(loss_s, loss_calls, 1e9),
            "calibration.report_calls": calls["calibration.report"],
            "calibration.records_scored": c["records_scored"],
            "calibration.report_s": total["calibration.report"],
            "calibration.ns_per_record": per(total["calibration.report"], c["records_scored"], 1e9),
            "cli.self_s": selfs.get("cli.main", 0.0),
            "cli.parse_s": sum(total[name] for name in PARSE_SPANS),
            "cli.rows_parsed": c["rows_parsed"],
            "cli.write_s": total["cli.write_text_atomic"],
            "cli.bytes_written": c["bytes_written"],
            "cli.files_written": c["files_written"],
            "label_uncertainty.tracks_from_json_s": total["label_uncertainty.tracks_from_json"],
            "label_uncertainty.aggregate_points_s": total["label_uncertainty.aggregate_points"],
            "label_uncertainty.points_moved": c["points_moved"],
            "geometry.rigid_transform_calls": self.leaves.get("geometry.rigid_transform", [0])[0],
            "geometry.convex_hull_s": total["geometry.convex_hull"],
            "geometry.hull_points_in": c["hull_points_in"],
            "geometry.hull_vertices_out": c["hull_vertices_out"],
            "geometry.ns_per_hull_point": per(total["geometry.convex_hull"], c["hull_points_in"], 1e9),
            "geometry.iou_pairs": calls["geometry.iou"],
            "geometry.iou_s": total["geometry.iou"],
        }

