"""Reduced-size smoke run of every benchmark workload.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each workload runs with `--smoke` (a few hundred small ops, one pass) in
its own process, as the full benchmark does.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import DEFAULT_SEED, HELD_OUT_SEED, WORKLOAD_NAMES  # noqa: E402
from tracer import load_spans  # noqa: E402

END_TO_END = ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb", "setup_s", "error_rate")

PER_LAYER = (
    "engine.decide_equal.calls", "engine.decide_equal.self_s",
    "engine.decide_equal.explored", "engine.decide_equal.us_per_node",
    "engine.classify.calls", "engine.classify.self_s",
    "engine.level_group.calls", "engine.level_group.order_sum",
    "engine.level_group.self_s.deep", "engine.level_group.self_s.tiny",
    "engine.words.mul.calls", "engine.words.mul.self_s", "engine.words.pow.self_s",
    "engine.apply_word.calls", "engine.apply_word.self_s",
    "engine.orbit_at_level.self_s", "engine.orbit_at_level.words",
    "engine.steer_to_word.calls", "engine.steer_to_word.self_s",
    "engine.steer_to_word.word_factors",
    "engine.relation_search.self_s", "engine.relation_search.checked",
    "core.run.calls", "core.run.letters", "core.run.self_s", "core.run.ns_per_letter",
    "core.table_at.calls", "core.bireversibility.calls", "core.bireversibility.self_s",
    "core.construct_s",
    "perms.invert.calls", "perms.is_permutation.calls", "perms.self_s",
    "schedule.check_word.calls", "schedule.check_word.self_s",
    "families.build_from_config.calls", "families.build_from_config.self_s",
    "cli.main.calls", "cli.main.self_s",
    "trace.overhead_frac",
)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, seed=DEFAULT_SEED):
    """(last JSON line, full results record) of one smoke run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1, done.stdout
    stem = f"{workload}-seed{seed}-trace{trace}-smoke"
    record = json.loads((ROOT / ".bench_work" / "results" / f"{stem}.json").read_text())
    return last, record


@pytest.mark.parametrize("seed", (DEFAULT_SEED, HELD_OUT_SEED))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_untraced_run_is_error_free_and_complete(workload, seed):
    last, record = run(workload, 0, seed)
    assert record["metrics"]["error_rate"]["value"] == 0
    assert set(END_TO_END) <= set(record["metrics"])
    assert list(last["metrics"]) == [m["name"] for m in benchmark_spec()["end_to_end"]]
    assert all(last["metrics"][name]["value"] > 0 for name in last["metrics"])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    first, second = run(workload, 1), run(workload, 1)
    for last, record in (first, second):
        assert set(PER_LAYER) <= set(record["metrics"])
        assert list(last["metrics"]) == [m["name"] for m in benchmark_spec()["per_layer"]]

    def counts(record):
        return {k: v["value"] for k, v in record["metrics"].items() if v["unit"] == "count"}

    assert counts(first[1]) == counts(second[1])
    header, spans = load_spans(ROOT / second[1]["notes"]["spans_file"])
    assert header["spans"] == len(spans["name"]) == second[1]["metrics"]["trace.spans"]["value"]
    assert all(e >= s for s, e in zip(spans["start_ns"], spans["end_ns"]))


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOAD_NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
