"""Tests of the benchmark itself: its checks catch corrupted outputs, its
trace accounts for the traced time, and its speed sampler scales as stated. Run with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from lkld import cli, synth_trainer  # noqa: E402

SMALL = {
    "compare_duel": {"n_train": 16, "n_test": 64, "feature_dim": 4, "epochs": 5, "average_tail_epochs": 2},
    "labelunc_mixed": {"n_tracks": 40},
    "calib_perclass": {"n_rows": 3000},
}
# Self times are differences of the same perf_counter readings, so they sum
# to the root span up to float rounding.
SELF_SUM_RTOL = 1e-6


def run_small(name: str, tmp_path: Path, tracer: tracing.Tracer | None = None):
    prepared = workloads.prepare(name, 3, tmp_path / "in", **SMALL[name])
    out = tmp_path / "out"
    out.mkdir()
    if tracer:
        tracer.install()
    try:
        rc = cli.main([a.replace("{out}", str(out)) for a in prepared.argv])
    finally:
        if tracer:
            tracer.uninstall()
    assert rc == 0
    return prepared, out


def test_labelunc_check_flags_one_changed_iou(tmp_path):
    prepared, out = run_small("labelunc_mixed", tmp_path)
    assert workloads.check("labelunc_mixed", prepared.expected, out) == []
    path = out / "records.csv"
    lines = path.read_text().splitlines()
    cells = lines[5].split(",")
    cells[2] = f"{float(cells[2]) + 1e-3:.6g}"
    lines[5] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    problems = workloads.check("labelunc_mixed", prepared.expected, out)
    assert any(p.startswith(f"{cells[0]}: iou") for p in problems)


def test_calib_check_flags_one_dropped_curve_row(tmp_path):
    prepared, out = run_small("calib_perclass", tmp_path)
    assert workloads.check("calib_perclass", prepared.expected, out) == []
    victim = next(p for p in sorted(out.iterdir()) if "pedestrian" in p.name)
    lines = victim.read_text().splitlines()
    del lines[40]
    victim.write_text("\n".join(lines) + "\n")
    assert workloads.check("calib_perclass", prepared.expected, out) == [
        f"{victim.name} matches no remaining class curve"
    ]


def write_compare(out: Path, rows) -> None:
    base = synth_trainer.config_from_dict(workloads.compare_config(0)["config"])
    csv_rows = [synth_trainer.CompareRow(*row) for row in rows]
    (out / "compare.csv").write_text(synth_trainer.comparison_to_csv(base, csv_rows))


def test_compare_check_flags_diverged_oracle(tmp_path):
    reference = workloads.load_compare_reference()["0"]
    write_compare(tmp_path, reference)
    assert workloads.check("compare_duel", 0, tmp_path) == []
    zero, oracle = reference
    write_compare(tmp_path, [zero, (*oracle[:3], True)])
    problems = workloads.check("compare_duel", 0, tmp_path)
    assert "oracle run diverged" in problems


def test_compare_check_admits_summation_order_noise(tmp_path):
    (zero, oracle) = workloads.load_compare_reference()["0"]
    write_compare(tmp_path, [(zero[0], zero[1] + 0.0033, zero[2], zero[3]), oracle])
    assert workloads.check("compare_duel", 0, tmp_path) == []


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_self_times_sum_to_main_span(name, tmp_path):
    tracer = tracing.Tracer()
    prepared, out = run_small(name, tmp_path, tracer)
    assert workloads.check(name, prepared.expected, out) == []
    roots = [rec for rec in tracer.spans if rec[tracing.NAME] == "cli.main"]
    assert len(roots) == 1 and roots[0][tracing.PARENT] == -1
    main_s = roots[0][tracing.END] - roots[0][tracing.START]
    assert sum(tracer.self_times().values()) == pytest.approx(main_s, rel=SELF_SUM_RTOL)
    assert cli.main.__module__ == "lkld.cli"  # originals restored


def test_sampler_scales_by_harmonic_mean_of_passes():
    sampler = reference.Sampler()
    sampler.walls = [reference.REF_S, 2 * reference.REF_S]
    sampler.cpus = [2 * reference.REF_S]
    # Half the time at reference speed, half at half speed: 0.75 of the work.
    assert sampler.scale(4.0) == pytest.approx(3.0)
    assert sampler.scale(4.0, cpu=True) == pytest.approx(2.0)


def test_sampler_samples_inside_the_block_and_stops():
    sampler = reference.Sampler(interval=0.01)
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            pass
    taken = len(sampler.walls)
    assert taken > 5  # one on entry, the rest from the timer
    assert 0.0 < sampler.inside_wall < 0.2
    time.sleep(0.05)
    assert len(sampler.walls) == taken


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*doc["command"], "--workload", "calib_perclass", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
