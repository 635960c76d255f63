"""The benchmark's three workloads.

A workload is prepared in two steps.  `plan(seed, smoke)` draws the
inputs from the seed and computes every expected answer with the
independent checks in oracle.py; it is not timed.  `build(plan, workdir)`
constructs the machines and config files the ops run on; that is the
set-up `setup_s` times.  An op is one call into the public API, made
through the `tvautomata` package attributes so that the traced run sees
it, plus a check of its answer.

`smoke` shrinks every workload to a few seconds for the smoke test.
"""

from __future__ import annotations

import contextlib
import functools
import io
import itertools
import json
import math
import operator
import os
import random
from collections import Counter, namedtuple

import tvautomata as tv
from tvautomata import cli

import oracle

Op = namedtuple("Op", "kind call check")


def _equals(expected):
    return functools.partial(operator.eq, expected)


# ---------------------------------------------------------------------------
# classify-sweep


def sweep_classes(type_count):
    """(prefix, period) type-index pairs of criterion 1, one per class of
    machines with equal first four level tables, in sorted class order."""
    idx = range(type_count)
    prefixes = [()] + [(i,) for i in idx] + [(i, j) for i in idx for j in idx]
    periods = [(i,) for i in idx] + [(i, j) for i in idx for j in idx]
    classes = {}
    for pre in prefixes:
        for per in periods:
            classes.setdefault((pre + per * 4)[:4], (pre, per))
    return [classes[key] for key in sorted(classes)]


def _classify(machine):
    return tv.classify_two_state_binary(machine).value


class ClassifySweep:
    name = "classify-sweep"
    SMOKE_MACHINES = 300

    def plan(self, seed, smoke):
        types = tv.admissible_binary_level_types()
        machines = sweep_classes(len(types))
        kinds = oracle.BinaryKindOracle(types)
        expected = [kinds.kind(pre, per) for pre, per in machines]
        problems = []
        if Counter(expected) != oracle.SWEEP_KIND_COUNTS:
            problems.append(f"reference kind counts {dict(Counter(expected))} differ from the paper's")
        order = list(range(len(machines)))
        random.Random(seed).shuffle(order)
        if smoke:
            order = order[: self.SMOKE_MACHINES]
        return [(machines[i], expected[i]) for i in order], problems

    def build(self, plan, workdir):
        types = tv.admissible_binary_level_types()
        schedule = tv.AlphabetSchedule.constant(2)
        ops = []
        for (pre, per), kind in plan:
            machine = tv.Automaton.from_periodic_tables(
                schedule, [types[i] for i in pre], [types[i] for i in per]
            )
            ops.append(Op("classify", functools.partial(_classify, machine), _equals(kind)))
        return ops


# ---------------------------------------------------------------------------
# level-closure


def _example2_3_4():
    return tv.cycle_transposition_automaton(tv.AlphabetSchedule.periodic((3, 4)))


DEEP_MACHINES = {
    "bellaterra_dual": lambda: tv.bellaterra_dual_automaton(),
    "lamplighter": lambda: tv.lamplighter_automaton(),
    "example2_3_4": _example2_3_4,
}


def _level_order(machine, level):
    return tv.level_group(machine, level).order


class LevelClosure:
    name = "level-closure"
    # Dual level 7 is left out: 32 s and ~900 MB per call.
    DEPTHS = {"bellaterra_dual": 6, "lamplighter": 8, "example2_3_4": 2}
    SMOKE_DEPTHS = {"bellaterra_dual": 4, "lamplighter": 5, "example2_3_4": 1}
    # Tiny machines per level-8 group order.  The cost of a closure grows
    # with the order, so the mix is fixed and only the machines in each
    # bucket are drawn from the seed.
    TINY_ORDERS = {1: 20, 2: 80, 4: 80, 8: 20}
    SMOKE_TINY_ORDERS = {1: 2, 2: 2, 4: 2, 8: 2}
    TINY_DEPTH = 8

    def plan(self, seed, smoke):
        rng = random.Random(seed)
        depths = self.SMOKE_DEPTHS if smoke else self.DEPTHS
        items = [
            ("deep", name, level, oracle.DEEP_ORDERS[name][level - 1])
            for name, depth in depths.items()
            for level in range(1, depth + 1)
        ]
        problems = []
        wanted = dict(self.SMOKE_TINY_ORDERS if smoke else self.TINY_ORDERS)
        for _ in range(100 * sum(wanted.values())):
            if not any(wanted.values()):
                break
            params = (rng.randrange(10**6), rng.randrange(3), rng.randrange(1, 3))
            prefix, period = tv.random_bir22_automaton(*params).periodic_tables
            table_at = oracle.periodic_table_at(prefix, period)
            orders = oracle.binary_level_orders(table_at, 2, self.TINY_DEPTH)
            if not set(orders) <= {1, 2, 4, 8}:
                problems.append(f"random_bir22{params} has level orders {orders}")
            elif wanted.get(orders[-1]):
                wanted[orders[-1]] -= 1
                items.extend(("tiny", params, k, orders[k - 1]) for k in range(1, self.TINY_DEPTH + 1))
        if any(wanted.values()):
            problems.append(f"could not draw tiny machines of every order: {wanted} missing")
        rng.shuffle(items)
        return items, problems

    def build(self, plan, workdir):
        machines = {}
        ops = []
        for kind, key, level, order in plan:
            machine = machines.get(key)
            if machine is None:
                machine = DEEP_MACHINES[key]() if kind == "deep" else tv.random_bir22_automaton(*key)
                machines[key] = machine
            ops.append(Op(kind, functools.partial(_level_order, machine, level), _equals(order)))
        return ops


# ---------------------------------------------------------------------------
# tvauto-mix


def _config(tail, builtin):
    return {"schedule": {"prefix": [], "tail": tail}, "automaton": {"builtin": builtin, "params": {}}}


STEER4_SIZES = (3, 4, 6, 8)
STEER5_SIZES = (3, 4, 6, 8, 12)

CONFIGS = {
    "steer4": _config({"kind": "periodic", "value": list(STEER4_SIZES)}, "example2"),
    "steer5": _config({"kind": "periodic", "value": list(STEER5_SIZES)}, "example2"),
    "dual": _config({"kind": "constant", "value": 3}, "bellaterra_dual"),
    "ramp": _config({"kind": "ramp", "value": {"offset": 0}}, "example1"),
    "z2z4": _config({"kind": "constant", "value": 2}, "z2z4"),
}


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(check, answer):
    code, text = answer
    return code == 0 and check(json.loads(text)["result"])


def _steer_check(sizes, target):
    table_at = oracle.periodic_sizes_table_at(sizes, oracle.example2_table)
    a, b, b_inv = (0, 1), (1, 1), (1, -1)

    def check(r):
        n0, n1 = r["n0"], r["n1"]
        if r["target"] != list(target) or r["base_word"] != [1] * len(target) or min(n0, n1) < 0:
            return False
        # c^n1 b^-1 c^n0 b with c = a b^-1
        factors = [a, b_inv] * n1 + [b_inv] + [a, b_inv] * n0 + [b]
        return (
            r["verified"] is True
            and oracle.raw_image(table_at, factors, r["base_word"]) == tuple(target)
            and r["word_length"] == len(oracle.free_reduce(factors))
        )

    return check


def _act_check(letters, expected):
    def check(r):
        return r["input"] == list(letters) and r["output"] == list(expected)

    return check


def _orbit_check(level):
    size = math.prod(STEER4_SIZES[:level])

    def check(r):
        return r["orbit_size"] == size and r["words"] == size and r["transitive"] is True

    return check


def _relations_check(max_len):
    checked = oracle.reduced_word_count(2, max_len)

    def check(r):
        return r["checked"] == checked and r["relations"] == [] and r["unsettled"] == []

    return check


def _classify_check(r):
    return r == {"kind": "Z2xZ4", "group_order": 8, "exponent": 4}


def _check_check(depth):
    rows = [
        dict(oracle.level_flags(oracle.example2_table(STEER5_SIZES[(i - 1) % 5])), level=i)
        for i in range(1, depth + 1)
    ]

    def check(r):
        verdict = r["bireversible"]
        return verdict["holds"] is True and verdict["exact"] is True and r["levels"] == rows

    return check


class TvautoMix:
    name = "tvauto-mix"
    ACT, ORBIT_LEVELS, RELATION_LEN = 240, 4, 6
    SMOKE_STEER4, SMOKE_ACT, SMOKE_ORBIT_LEVELS, SMOKE_RELATION_LEN = 10, 10, 2, 3
    # Long steering targets are fixed rather than drawn from the seed: the
    # cost of steering's c^n grows with n^2, and it swings 30x from
    # one target to the next, so six drawn targets would make the pass
    # time depend on the seed.
    STEER5_TARGETS = (
        (2, 3, 5, 7, 11),
        (0, 2, 4, 1, 6),
        (1, 0, 3, 5, 9),
        (2, 1, 0, 6, 3),
        (0, 3, 2, 4, 10),
        (1, 2, 5, 0, 7),
    )
    CHECK_DEPTH = 20

    def plan(self, seed, smoke):
        rng = random.Random(seed)
        dual = oracle.bellaterra_dual_table()
        items = []
        # Every target of length 1-4 is steered to: their cost ranges from
        # 2 to 15 ms with the exponents they need, so a drawn sample would
        # move the latency tail with the seed.
        targets = [
            target
            for length in range(1, len(STEER4_SIZES) + 1)
            for target in itertools.product(*(range(size) for size in STEER4_SIZES[:length]))
        ]
        for target in rng.sample(targets, self.SMOKE_STEER4) if smoke else targets:
            items.append(("steer", "steer4", ["steer", "--target", _letters(target)],
                          _steer_check(STEER4_SIZES, target)))
        # Word and input lengths are spread evenly and only the letters and
        # exponents are drawn, so the cost of a pass hardly depends on the seed.
        for target in self.STEER5_TARGETS[:1] if smoke else self.STEER5_TARGETS:
            items.append(("steer-long", "steer5", ["steer", "--target", _letters(target)],
                          _steer_check(STEER5_SIZES, target)))
        count = self.SMOKE_ACT if smoke else self.ACT
        for i in range(count):
            tokens, factors = [], []
            for _ in range(1 + i % 4):
                q, e = rng.randrange(2), rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
                tokens.append(f"d{q}" if e == 1 else f"d{q}^{e}")
                factors.extend([(q, 1 if e > 0 else -1)] * abs(e))
            letters = tuple(rng.randrange(3) for _ in range(1 + i * 100 // count))
            expected = oracle.raw_image(lambda level: dual, factors, letters)
            items.append(("act", "dual", ["act", "--word-expr", " ".join(tokens), "--input", _letters(letters)],
                          _act_check(letters, expected)))
        for level in range(1, (self.SMOKE_ORBIT_LEVELS if smoke else self.ORBIT_LEVELS) + 1):
            items.append(("orbit", "steer4", ["orbit", "--level", str(level)], _orbit_check(level)))
        max_len = self.SMOKE_RELATION_LEN if smoke else self.RELATION_LEN
        items.append(("relations", "ramp", ["relations", "--max-len", str(max_len), "--depth", "40"],
                      _relations_check(max_len)))
        items.append(("classify", "z2z4", ["classify"], _classify_check))
        items.append(("check", "steer5", ["check", "--depth", str(self.CHECK_DEPTH)],
                      _check_check(self.CHECK_DEPTH)))
        rng.shuffle(items)
        return items, []

    def build(self, plan, workdir):
        paths = {}
        for key, doc in CONFIGS.items():
            paths[key] = os.path.join(workdir, f"{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        ops = []
        for kind, config, args, check in plan:
            argv = [args[0], "--config", paths[config], *args[1:], "--format", "json"]
            ops.append(Op(kind, functools.partial(_run_cli, argv), functools.partial(_cli_check, check)))
        return ops


def _letters(word):
    return ",".join(str(x) for x in word)


WORKLOADS = {w.name: w for w in (ClassifySweep(), LevelClosure(), TvautoMix())}
