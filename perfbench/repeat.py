"""Repeat the benchmark over several seeds and report each metric's spread.

Run from the repository root::

    python3 perfbench/repeat.py --workloads compare_duel,calib_perclass --seeds 1-10
    python3 perfbench/repeat.py --seeds 1-10 --save perfbench/baseline.json

Each (seed, workload) pair is one ``run.py`` run of ``run_seconds`` from
BENCHMARK.json. For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the interquartile
distance as a share of the median, next to the metric's bound. ``--save``
writes the same figures, the raw values and the machine facts to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(raw: str) -> list[int]:
    first, _, last = raw.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    names = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in names}
    failures: dict[str, list[str]] = {w: [] for w in names}
    facts = None
    for seed in seed_range(args.seeds):
        for name in names:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures[name].append(f"seed {seed}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(lines[-1])
            facts = facts or json.loads(next(ln for ln in lines if ln.startswith("facts: "))[7:])
            if not result["correct"]:
                failures[name].append(f"seed {seed}: {result['failed']}/{result['attempted']} failed")
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            line = " ".join(f"{m}={e['value']:.4g}" for m, e in result["metrics"].items())
            print(f"seed {seed} {name} attempted={result['attempted']} failed={result['failed']} {line}",
                  flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for metric, vals in values[name].items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
            spread = (q3 - q1) / median if median else 0.0
            summary[name][metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                                     "bound": bounds.get(metric), "values": vals}
            bound = bounds.get(metric)
            flag = "" if bound is None else f" bound={bound} {'ok' if spread <= bound / 3 else 'WIDE'}"
            print(f"{name:15s} {metric:45s} n={len(vals)} median={median:.5g} q1={q1:.5g} q3={q3:.5g} "
                  f"spread={spread:.3f}{flag}")
        for failure in failures[name]:
            print(f"{name}: FAILED {failure}")
    if args.save:
        doc = {"seeds": args.seeds, "trace": args.trace, "run_seconds": bench["run_seconds"],
               "facts": facts, "workloads": summary, "failures": failures}
        Path(args.save).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
