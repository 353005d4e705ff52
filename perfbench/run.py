"""Benchmark entry point: one workload, one seed, one measured run.

Run from the repository root::

    python3 perfbench/run.py --workload labelunc_mixed --seed 1 --seconds 30 --trace 0

It generates the workload's inputs from the seed, times ``import lkld.cli``
in fresh interpreters (``setup_s``), then starts one worker process that
calls ``lkld.cli.main`` back to back for ``--seconds`` and checks every
invocation's outputs. Times are scaled to reference speed by sampling the
machine's speed while they are taken (``reference.py``); the end-to-end
figures are medians of the scaled times. The last line of stdout is the result JSON: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. The lines before it and ``.bench_work/results/`` record
the machine facts, the input properties and the raw samples.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# Import probes run in two batches, before and after the worker, so that
# their median spans the run rather than one moment of it.
SETUP_SPAWNS = 5
# The whole run, inputs and checks included, must end within 180 s.
DEADLINE_S = 170.0
# An import takes about 0.2 s, so the probe samples the machine's speed
# more often than the worker does.
PROBE_INTERVAL_S = 0.02
IMPORT_PROBE = f"""
import sys, time
sys.path.insert(0, sys.argv[1])
sys.path.append(sys.argv[2])
import reference
speed = reference.Sampler({PROBE_INTERVAL_S})
with speed:
    t = time.perf_counter()
    import lkld.cli
    t = time.perf_counter() - t
t -= speed.inside_wall
print(repr(t), repr(speed.scale(t)))
"""


# The load shape is one worker thread: LKLD_THREADS unset is the library's
# default of one worker, and numpy's BLAS gets one thread too.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LKLD_THREADS"}
    env.update(PINNED_ENV)
    return env


def measure_setup(spawns: int) -> list[dict]:
    """Raw and scaled seconds to import lkld.cli in each of ``spawns`` fresh interpreters."""
    times = []
    for _ in range(spawns):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            env=child_env(), capture_output=True, text=True, timeout=60, check=True,
        )
        raw, scaled = map(float, out.stdout.strip().splitlines()[-1].split())
        times.append({"raw": raw, "scaled": scaled})
    return times


def machine_facts() -> dict:
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "LKLD_THREADS": os.environ.get("LKLD_THREADS", "unset")
        + ("" if "LKLD_THREADS" not in os.environ else " (removed for the run)"),
        "worker_env": PINNED_ENV,
        "commit": commit,
    }


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them (``end_to_end`` or ``per_layer``)."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[kind]}


def tagged(values: dict[str, float], kind: str) -> dict[str, dict]:
    units = declared_units(kind)
    if set(values) != set(units):
        raise RuntimeError(f"measured {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_values(raw: dict, plain: list[dict]) -> dict[str, float]:
    """Median per-layer figures over the traced invocations, plus the tracing cost."""
    layers = raw["layers"]
    traced = [i for i in raw["invocations"] if i["traced"]]
    values = {k: statistics.median(m[k] for m in layers) for k in layers[0] if k != "trace.self_sum_s"}
    track_us = raw["track_us"]
    values["label_uncertainty.evaluate_track_us.p50"] = percentile(track_us, 50)
    values["label_uncertainty.evaluate_track_us.p99"] = percentile(track_us, 99)
    values["label_uncertainty.evaluate_track_samples"] = len(track_us)
    traced_wall = statistics.median(i["wall_s"] for i in traced)
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - statistics.median(i["wall_s"] for i in plain)
    values["trace.accounted_frac"] = statistics.median(
        m["trace.self_sum_s"] / i["wall_s"] for m, i in zip(layers, traced)
    )
    return values


def summary(values: list[float]) -> dict:
    return {"n": len(values), "median": statistics.median(values), "min": min(values), "max": max(values)}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lkld" / "cli.py").is_file():
        print(f"error: no lkld sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    begun = time.perf_counter()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work = WORK / run_id
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        prepared = workloads.prepare(args.workload, args.seed, work / "input")
        input_s = time.perf_counter() - t
        measure_setup(1)  # warm-up: compiles the bytecode cache of a fresh checkout
        setup = measure_setup(SETUP_SPAWNS)
        spec = {
            "src": str(SRC),
            "spans_path": str(results_dir / f"{run_id}.spans.json"),
            "argv": prepared.argv,
            "out_root": str(work / "out"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
        }
        spec_path, result_path = work / "spec.json", work / "worker.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        budget = DEADLINE_S - (time.perf_counter() - begun)
        try:
            worker = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                env=child_env(), stdout=sys.stderr, timeout=budget,
            )
        except subprocess.TimeoutExpired:
            print(f"error: worker did not finish within {budget:.0f} s", file=sys.stderr)
            return 1
        if worker.returncode != 0:
            print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
            return 1
        setup += measure_setup(SETUP_SPAWNS)
        raw = json.loads(result_path.read_text(encoding="utf-8"))
        invocations = raw["invocations"]
        failed = 0
        for inv in invocations:
            problems = [f"exit code {inv['rc']}"] if inv["rc"] != 0 else []
            problems = problems or workloads.check(args.workload, prepared.expected, Path(inv["out"]))
            inv["problems"] = problems[:5]
            failed += bool(problems)
        plain = [i for i in invocations if not i["traced"]]
        if args.trace:
            metrics = tagged(layer_values(raw, plain), "per_layer")
        else:
            values = {
                "wall_s": statistics.median(i["scaled_wall_s"] for i in plain),
                "cpu_s": statistics.median(i["scaled_cpu_s"] for i in plain),
                "peak_rss_mb": raw["peak_rss_mb"],
                "setup_s": statistics.median(s["scaled"] for s in setup),
            }
            metrics = tagged(values, "end_to_end")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "facts": machine_facts(),
            "inputs": prepared.properties,
            "input_generation_s": input_s,
            "samples": {
                "wall_s": summary([i["scaled_wall_s"] for i in plain]),
                "cpu_s": summary([i["scaled_cpu_s"] for i in plain]),
                "setup_s": summary([s["scaled"] for s in setup]),
                "raw_wall_s": summary([i["wall_s"] for i in plain]),
                "raw_cpu_s": summary([i["cpu_s"] for i in plain]),
                "raw_setup_s": summary([s["raw"] for s in setup]),
            },
            "invocations": invocations,
            "failed_frac": failed / len(invocations),
            "metrics": metrics,
        }
        (results_dir / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
        for key in ("facts", "inputs", "samples"):
            print(f"{key}: {json.dumps(record[key])}")
        for inv in invocations:
            if inv["problems"]:
                print(f"FAILED {Path(inv['out']).name}: {'; '.join(inv['problems'])}")
        print(f"failed_frac: {failed}/{len(invocations)}")
        print(json.dumps({"correct": failed == 0, "attempted": len(invocations), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
