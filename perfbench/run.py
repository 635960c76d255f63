#!/usr/bin/env python3
"""Benchmark of the tvautomata library and its `tvauto` command line.

Run from the repository root:

    python3 perfbench/run.py --workload classify-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One workload runs in one process as a closed loop: a single client
makes one call into the public API, and the next only after it returns.
Whole passes over the workload's ops repeat until `--seconds` of op time
is measured.  Reported times are per-op medians over the passes, scaled
to a reference machine speed (see `end_to_end`).  Every answer is checked
after its pass, outside the timed loop.  With `--trace 1` the run instead makes one untraced and one traced
pass and reports per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}, whose
metrics are the end-to-end (or, traced, the per-layer) metrics that
BENCHMARK.json lists.  The full record, with provenance and sample
counts, goes to .bench_work/results/; the traced run writes its spans
to .bench_work/trace/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("classify-sweep", "level-closure", "tvauto-mix")
DEFAULT_SEED, HELD_OUT_SEED = 1, 7
SETUP_REPEATS = 5
# Median time of `reference_loop` between ops on the 2-CPU Xeon VM the
# bounds were set on.  Reported times are scaled to that speed; see
# `end_to_end`.
REFERENCE_LOOP_S = 0.40e-3
CALIBRATE_EVERY_S = 0.05
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tvautomata, tvautomata.cli; "
    "print(time.perf_counter() - t)"
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced inputs, for the smoke test")
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# timing


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout)


def reference_loop():
    """Fixed pure-Python work, dict and tuple traffic like the library's
    inner loops, timed between ops to follow the machine's speed."""
    acc = {}
    row = tuple(range(16))
    for i in range(1500):
        key = (i & 255, row[i & 15])
        acc[key] = acc.get(key, 0) + i
    return len(acc)


class Pass:
    """One timed pass over the ops; answers are checked afterwards.

    Every CALIBRATE_EVERY_S the reference loop is timed between two ops.
    """

    def __init__(self, ops, tracer=None):
        answers = [None] * len(ops)
        raised = {}
        latency = [0.0] * len(ops)
        self.reference = []
        clock = time.perf_counter
        calibrated = -math.inf
        start = clock()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id = i
            if clock() - calibrated > CALIBRATE_EVERY_S:
                t0 = clock()
                reference_loop()
                calibrated = clock()
                self.reference.append(calibrated - t0)
            t0 = clock()
            try:
                answers[i] = op.call()
            except Exception as exc:  # an op that raises is a failed op
                raised[i] = exc
            latency[i] = clock() - t0
        self.wall = clock() - start
        self.attempted = len(ops)
        self.latency = latency
        self.failures = []
        for i, op in enumerate(ops):
            if i in raised:
                self.failures.append(f"op {i} ({op.kind}) raised {raised[i]!r}")
                continue
            try:
                ok = op.check(answers[i])
            except Exception as exc:
                ok, answers[i] = False, f"unreadable answer: {exc!r}"
            if not ok:
                self.failures.append(f"op {i} ({op.kind}) answered {answers[i]!r:.200}")


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, setups):
    """End-to-end metrics of an untraced run, times at reference speed.

    Each op's latency is its median over the run's passes.  The
    percentiles are taken over those per-op times, and throughput is the
    correct ops of one pass over their sum.  A shared machine's speed
    drifts from run to run, so every time is multiplied by `scale`: the
    reference loop's median at reference speed over its median in this
    run.  Timed between ops, the loop meets the same machine and cache
    state as they do.  Returns (metrics, raw values, scale).
    """
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failures) for p in passes)
    per_op = sorted(statistics.median(times) for times in zip(*(p.latency for p in passes)))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    scale = REFERENCE_LOOP_S / statistics.median([t for p in passes for t in p.reference])
    raw = {
        "ops_per_s": len(per_op) * (1 - failed / attempted) / sum(per_op),
        "latency_p50_ms": percentile(per_op, 0.5) * 1e3,
        "latency_p90_ms": percentile(per_op, 0.9) * 1e3,
        "setup_s": statistics.median(setups),
    }
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "ops/s", len(per_op)),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms", len(per_op)),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms", len(per_op)),
        "peak_rss_mb": (rss_mb, "MB", 1),
        "setup_s": (raw["setup_s"] * scale, "s", len(setups)),
        "error_rate": (failed / attempted, "fraction", attempted),
    }
    return metrics, raw, scale


def layer_metrics(tracer, op_kinds, untraced_wall, traced_wall):
    from tracer import SETUP_OP

    dur, self_ns = tracer.span_times()
    names = tracer.names
    a = tracer.arrays
    calls = defaultdict(int)
    self_by = defaultdict(int)
    module_self = defaultdict(int)
    level_self = defaultdict(int)
    construct = 0
    for nid, parent, op, d, own in zip(a["name"], a["parent"], a["op"], dur, self_ns):
        name = names[nid]
        if op == SETUP_OP:
            if parent < 0:
                construct += d
            continue
        calls[name] += 1
        self_by[name] += own
        module_self[name.split(".", 1)[0]] += own
        if name == "engine.level_group":
            level_self[op_kinds[op]] += own
    counts = tracer.counts

    def per(num, den, scale):
        return num * scale / den if den else 0.0

    out = {}
    for name in (
        "engine.decide_equal", "engine.classify", "engine.level_group", "engine.words.mul",
        "engine.apply_word", "engine.steer_to_word", "core.run", "core.table_at",
        "core.bireversibility", "perms.invert", "perms.is_permutation",
        "schedule.check_word", "families.build_from_config", "cli.main",
    ):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in (
        "engine.decide_equal", "engine.classify", "engine.words.mul", "engine.words.pow",
        "engine.apply_word", "engine.orbit_at_level", "engine.steer_to_word",
        "engine.relation_search", "core.run", "core.bireversibility",
        "schedule.check_word", "families.build_from_config", "cli.main",
    ):
        out[f"{name}.self_s"] = (self_by[name] / 1e9, "s")
    for kind in ("deep", "tiny"):
        out[f"engine.level_group.self_s.{kind}"] = (level_self[kind] / 1e9, "s")
    for key in (
        "engine.decide_equal.explored", "engine.level_group.order_sum",
        "engine.orbit_at_level.words", "engine.steer_to_word.word_factors",
        "engine.relation_search.checked", "core.run.letters",
    ):
        out[key] = (counts[key], "count")
    out["engine.decide_equal.us_per_node"] = (
        per(self_by["engine.decide_equal"], counts["engine.decide_equal.explored"], 1e-3), "us")
    out["core.run.ns_per_letter"] = (per(self_by["core.run"], counts["core.run.letters"], 1), "ns")
    out["core.construct_s"] = (construct / 1e9, "s")
    for module in ("engine", "core", "perms", "schedule", "families", "cli"):
        out[f"{module}.self_s"] = (module_self[module] / 1e9, "s")
    out["trace.spans"] = (len(dur), "count")
    out["trace.overhead_frac"] = (traced_wall / untraced_wall - 1, "fraction")
    return {k: out[k] for k in sorted(out)}


# ---------------------------------------------------------------------------
# runs


def run_workload(args, spec):
    import tvautomata
    from workloads import WORKLOADS

    if not Path(tvautomata.__file__).resolve().is_relative_to(SRC):
        fail(f"imported tvautomata from {tvautomata.__file__}, not from {SRC}")
    workload = WORKLOADS[args.workload]
    plan, problems = workload.plan(args.seed, args.smoke)
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        if args.trace:
            return trace_run(args, workload, plan, problems, workdir, spec)
        return timed_run(args, workload, plan, problems, workdir, spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed_run(args, workload, plan, problems, workdir, spec):
    setups = []
    for _ in range(SETUP_REPEATS):
        ops = None  # free the previous build first
        imported = import_seconds()
        t0 = time.perf_counter()
        ops = workload.build(plan, workdir)
        setups.append(imported + time.perf_counter() - t0)
    passes = []
    measured = 0.0
    while not passes or measured < args.seconds:
        passes.append(Pass(ops))
        measured += passes[-1].wall
    metrics, raw, scale = end_to_end(passes, setups)
    notes = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "measured_s": measured,
        "scale": scale,
        "reference_samples": sum(len(p.reference) for p in passes),
        **{f"raw_{k}": v for k, v in raw.items()},
    }
    return finish(args, passes, problems, metrics, [m["name"] for m in spec["end_to_end"]], notes)


def trace_run(args, workload, plan, problems, workdir, spec):
    import tvautomata
    from tracer import Tracer

    untraced = Pass(workload.build(plan, workdir))
    tracer = Tracer()
    tracer.install(tvautomata)
    try:
        ops = workload.build(plan, workdir)
        traced = Pass(ops, tracer)
    finally:
        tracer.uninstall()
    op_kinds = [op.kind for op in ops]
    # Each pass's wall time in reference-loop medians, so that machine drift
    # between the two passes does not count as tracing cost.
    untraced_wall, traced_wall = (p.wall / statistics.median(p.reference) for p in (untraced, traced))
    metrics = {
        k: (v, unit, traced.attempted)
        for k, (v, unit) in layer_metrics(tracer, op_kinds, untraced_wall, traced_wall).items()
    }
    stem = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    (WORK / "trace").mkdir(exist_ok=True)
    spans_path = WORK / "trace" / f"{stem}.spans"
    tracer.write(spans_path, op_kinds)
    notes = {
        "untraced_wall_s": untraced.wall,
        "traced_wall_s": traced.wall,
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return finish(args, [untraced, traced], problems, metrics, [m["name"] for m in spec["per_layer"]], notes)


def finish(args, passes, problems, metrics, reported, notes):
    missing = [name for name in reported if name not in metrics]
    if missing:
        fail(f"BENCHMARK.json names metrics this run does not produce: {missing}")
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    correct = not failures and not problems
    record = {
        "provenance": provenance(args),
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "problems": problems,
        "failures": failures[:20],
        "notes": notes,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
    }
    (WORK / "results").mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    (WORK / "results" / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    prov = record["provenance"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commit {prov['commit'][:12]}  python {prov['python']}  nproc {prov['nproc']}  cpu {prov['cpu']}")
    print("  " + "  ".join(f"{k} {v:.6g}" if isinstance(v, float) else f"{k} {v}" for k, v in notes.items()))
    for problem in problems:
        print(f"  CHECKER PROBLEM: {problem}")
    for failure in failures[:20]:
        print(f"  FAILED: {failure}")
    print(f"  {'metric':<40} {'value':>16} {'unit':<9} samples")
    for k, (v, u, n) in metrics.items():
        print(f"  {k:<40} {v:>16.6g} {u:<9} {n}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in reported},
    }
    print(json.dumps(result))
    return 0


def run_all(args):
    """Each workload in its own process, one after the other."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            fail(f"workload {name} exited with {done.returncode}")
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "tvautomata" / "__init__.py").is_file() or not spec_path.is_file():
        fail(f"run from a checkout holding BENCHMARK.json and src/tvautomata (looked in {ROOT})")
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args, json.loads(spec_path.read_text()))


if __name__ == "__main__":
    sys.exit(main())
