"""Regenerate ``compare_reference.json``: the duel's output for every config seed.

Run from the repository root: ``python3 perfbench/make_reference.py``.
Takes about 12 s per config seed. Only rerun it when a change is meant to
alter the training results; the benchmark checks later commits against the
stored values within ``workloads.COMPARE_TOL``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from lkld import cli  # noqa: E402


def main() -> int:
    rows = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        work = Path(tmp)
        for seed in range(workloads.COMPARE_CONFIG_SEEDS):
            prepared = workloads.prepare_compare(seed, work)
            argv = [a.replace("{out}", tmp) for a in prepared.argv]
            if cli.main(argv) != 0:
                print(f"compare failed for config seed {seed}", file=sys.stderr)
                return 1
            rows[str(seed)] = workloads.parse_compare((work / "compare.csv").read_text())
            print(seed, rows[str(seed)], flush=True)
    doc = {
        "about": "lkld compare output (mode, test_mae, test_ece, diverged) per config seed",
        "config": workloads.compare_config(0)["config"] | {"seed": "0..%d" % (workloads.COMPARE_CONFIG_SEEDS - 1)},
        "rows": rows,
    }
    (HERE / "compare_reference.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
