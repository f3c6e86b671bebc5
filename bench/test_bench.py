"""Tests of the benchmark itself: python3 -m pytest bench

They run every workload end to end and traced at a tiny size, and require
every count metric to repeat exactly across two traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import spans  # noqa: E402
from annealbench import harness as hz  # noqa: E402
from workloads import WORKLOADS, failed_trials, write_config  # noqa: E402

TINY = {
    "ct_sweep": {"instance": {"n": "50"}, "run": {"events": "20000", "trials": "1"}},
    "tree_mixed": {"instance": {"k": "40"}, "run": {"steps": "20000", "trials": "1"}},
    "bip_greedy": {"instance": {"n": "300"}, "run": {"trials": "10"}},
}
COUNTS = (
    "dynamics.useful_frac",
    "schedules.segment_calls",
    "rng.streams_opened",
    "instance_gen.edges",
)


def _config(name: str, out: Path) -> hz.ExperimentConfig:
    return hz.load_config(write_config(WORKLOADS[name], 7, out, TINY[name]))


def _traced(name: str, out: Path) -> measure.Measurement:
    return measure.traced(WORKLOADS[name], _config(name, out), 0.0, out / "spans.json")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_reports_every_listed_metric(name, tmp_path):
    run = measure.end_to_end(WORKLOADS[name], _config(name, tmp_path), 0.0)
    assert run.checks.correct and run.checks.failed == 0
    assert run.checks.attempted == (measure.MIN_REPS + 1) * run.checks.trials
    listed = [m["name"] for m in measure.BENCH["end_to_end"]]
    assert set(listed) <= set(run.metrics)
    assert all(run.metrics[k] > 0 for k in listed)


def test_command_line_takes_every_argument():
    args = measure.parse_args(
        ["--workload", "bip_greedy", "--seed", "5", "--seconds", "12", "--trace", "1"]
    )
    assert (args.workload, args.seed, args.seconds, args.trace) == ("bip_greedy", 5, 12.0, 1)
    defaults = measure.parse_args(["--workload", "ct_sweep"])
    assert (defaults.seed, defaults.seconds, defaults.trace) == (
        None, measure.BENCH["run_seconds"], 0
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_count_metrics_repeat_exactly(name, tmp_path):
    first = _traced(name, tmp_path / "a")
    second = _traced(name, tmp_path / "b")
    assert first.checks.correct and first.checks.failed == 0
    assert {k: first.metrics[k] for k in COUNTS} == {k: second.metrics[k] for k in COUNTS}
    assert 0 < first.metrics["dynamics.useful_frac"] <= 1
    listed = [m["name"] for m in measure.BENCH["per_layer"]]
    assert set(listed) <= set(first.metrics)


def _bindings():
    return [vars(o)[a] if isinstance(o, type) else getattr(o, a)
            for o, a, _ in spans.layer_boundaries()]


def test_traced_run_restores_the_program(tmp_path):
    before = _bindings()
    _traced("tree_mixed", tmp_path)
    assert _bindings() == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    outer = tracer.begin("outer", trial=3)
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    own = tracer.self_times()
    assert tracer.spans[inner].trial == 3
    assert tracer.spans[inner].parent == outer
    assert own[outer] == pytest.approx(
        tracer.spans[outer].duration - tracer.spans[inner].duration
    )


def _csv(rows):
    lines = [",".join(hz.RUN_CSV_COLUMNS)]
    for tid, max_size in rows:
        lines.append(f"{tid},1,10,{max_size},5,4,0.5,0,")
    return ("\r\n".join(lines) + "\r\n").encode()


def test_failed_trials_flags_each_check():
    good = _csv([(0, 2), (1, 3)])
    assert failed_trials(good, good, 2, alpha=4) == set()
    assert failed_trials(_csv([(0, 2), (1, 5)]), _csv([(0, 2), (1, 5)]), 2, 4) == {1}
    assert failed_trials(_csv([(0, 2), (0, 2)]), good, 2, 4) == {0, 1}
    assert failed_trials(_csv([(0, 2), (1, 2)]), good, 2, 4) == {1}
    assert failed_trials(_csv([(0, 2), (1, 3), (2, 1)]), good, 2, 4) == {0, 1}


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tree_mixed", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
