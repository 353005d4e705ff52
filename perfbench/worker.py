"""Benchmark worker: runs one workload's CLI invocations in this process.

Usage (``run.py`` starts it; the spec is written by ``run.py``)::

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec holds ``src`` (the directory to import ``lkld`` from), ``argv``
(with ``{out}`` for the per-invocation output directory), ``out_root``,
``seconds``, ``trace`` and ``spans_path``. Invocations run back to back
(closed loop, one
client, one thread) until the next one would end after ``seconds``; at
least one always runs. Untraced invocations run under a
``reference.Sampler``: their times exclude its passes and are also given
scaled to reference speed. With ``trace`` set, untraced and traced invocations
alternate, at least one of each, and the result also carries the per-layer
figures of every traced invocation; their spans go to ``spans_path``.
"""

from __future__ import annotations

import contextlib
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import reference
    from lkld import cli

    tracing = None
    if spec["trace"]:
        import tracing

    out_root = Path(spec["out_root"])
    invocations, layers, track_us, spans = [], [], [], []
    started = perf_counter()
    while True:
        k = len(invocations)
        traced = tracing is not None and k % 2 == 1
        out = out_root / f"{k:04d}"
        out.mkdir(parents=True)
        argv = [a.replace("{out}", str(out)) for a in spec["argv"]]
        tracer = tracing.Tracer() if traced else None
        sampler = None if traced else reference.Sampler()
        gc.collect()
        if tracer:
            tracer.install()
        with sampler or contextlib.nullcontext():
            w0, c0 = perf_counter(), process_time()
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed invocation, not a failed benchmark
                traceback.print_exc()
                rc = -1
            wall, cpu = perf_counter() - w0, process_time() - c0
        record = {"out": str(out), "rc": rc, "traced": traced}
        if sampler:
            wall -= sampler.inside_wall
            cpu -= sampler.inside_cpu
            record.update(scaled_wall_s=sampler.scale(wall), scaled_cpu_s=sampler.scale(cpu, cpu=True),
                          passes=len(sampler.walls))
        record.update(wall_s=wall, cpu_s=cpu)
        if tracer:
            tracer.uninstall()
            metrics = tracer.layer_metrics()
            metrics["trace.self_sum_s"] = sum(tracer.self_times().values())
            layers.append(metrics)
            track_us.extend(tracer.track_us)
            spans.append(tracer.spans)
        invocations.append(record)
        if tracing is not None and k < 1:
            continue
        elapsed = perf_counter() - started
        if elapsed + statistics.median(i["wall_s"] for i in invocations) > spec["seconds"]:
            break
    result = {
        "invocations": invocations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": layers,
        "track_us": track_us,
    }
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    if spans:
        Path(spec["spans_path"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "child_s", "leaf_s"], "invocations": spans}),
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
