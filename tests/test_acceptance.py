"""Acceptance suite.

Each test is one numbered criterion.  A pass/fail line per criterion is
printed in the terminal summary (see conftest).  All expected values are
exact; the only tolerance anywhere is the wall-clock pin on criterion 1.
"""

import functools
import itertools
import math
import random
import time
from collections import Counter

from conftest import record_criterion
from reference import raw_image, raw_step, shortlex_words, word_order_apply

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    Budget,
    GroupKind,
    GroupWord,
    LevelTable,
    admissible_binary_level_types,
    apply_word,
    bellaterra_dual_automaton,
    classify_two_state_binary,
    cycle_transposition_automaton,
    decide_equal,
    element_order,
    lamplighter_automaton,
    level_group,
    orbit_at_level,
    random_bir22_automaton,
    random_bireversible_automaton,
    ratio_power_image,
    relation_search,
    steer_to_word,
    subsequence_embedding_automaton,
    torsion_exponent_bound,
    word_order_automaton,
    word_order_perm_a,
    word_order_perm_b,
    z2z4_automaton,
    z4_automaton,
)

A = GroupWord.generator(0)
B = GroupWord.generator(1)


def criterion(number):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                record_criterion(number, False)
                raise
            record_criterion(number, True)

        return wrapper

    return decorate


def all_binary_sweep_classes():
    """Deduplicated (prefix, period) type-index pairs, keyed by the first
    four level tables, which determine the machine completely."""
    count = len(admissible_binary_level_types())
    idx = range(count)
    prefixes = [()] + [(i,) for i in idx] + [(i, j) for i in idx for j in idx]
    periods = [(i,) for i in idx] + [(i, j) for i in idx for j in idx]
    classes = {}
    for pre in prefixes:
        for per in periods:
            classes.setdefault((pre + per * 4)[:4], (pre, per))
    return classes


def binary_machine(types, pre, per):
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2),
        [types[i] for i in pre],
        [types[i] for i in per],
    )


@criterion(1)
def test_criterion_01_classification_covers_exactly_five_groups():
    start = time.perf_counter()
    types = admissible_binary_level_types()
    classes = all_binary_sweep_classes()
    assert len(classes) == 20736

    counts = Counter()
    for pre, per in classes.values():
        counts[classify_two_state_binary(binary_machine(types, pre, per))] += 1
    assert set(counts) == set(GroupKind)
    assert counts == {
        GroupKind.TRIVIAL: 256,
        GroupKind.Z2: 4544,
        GroupKind.Z2xZ2: 10560,
        GroupKind.Z4: 2560,
        GroupKind.Z2xZ4: 2816,
    }

    rng = random.Random(101)
    for key in rng.sample(sorted(classes), 200):
        machine = binary_machine(types, *classes[key])
        kind = classify_two_state_binary(machine)
        stabilized = None
        for level in range(1, 9):
            order = level_group(machine, level).order
            assert order in {1, 2, 4, 8}
            if order == kind.group_order:
                stabilized = order
                break
        assert stabilized == kind.group_order

    assert time.perf_counter() - start < 60.0


@criterion(2)
def test_criterion_02_mixed_and_cyclic_order_eight_machines():
    z24 = z2z4_automaton()
    z4 = z4_automaton()
    assert classify_two_state_binary(z24) is GroupKind.Z2xZ4
    assert classify_two_state_binary(z4) is GroupKind.Z4
    assert decide_equal(z4, A * B).status == "equal"
    assert element_order(z24, A) == 4
    assert element_order(z4, A) == 4


@criterion(3)
def test_criterion_03_constant_table_machines_reach_only_three_groups():
    rows = list(itertools.product((0, 1), repeat=2))
    survivors = []
    for t0, t1, o0, o1 in itertools.product(rows, repeat=4):
        table = LevelTable((t0, t1), (o0, o1))
        machine = Automaton.from_periodic_tables(
            AlphabetSchedule.constant(2), (), (table,)
        )
        verdict = machine.bireversibility()
        if verdict.holds and verdict.exact:
            survivors.append(machine)
    assert len(survivors) == 12
    kinds = {classify_two_state_binary(machine) for machine in survivors}
    assert kinds == {GroupKind.TRIVIAL, GroupKind.Z2, GroupKind.Z2xZ2}


@criterion(4)
def test_criterion_04_binary_machines_satisfy_the_defining_relations():
    relations = [
        (A * B, B * A),
        (A * A, B * B),
        (A**4, GroupWord.identity()),
    ]
    for seed in range(200):
        machine = random_bir22_automaton(
            seed, prefix_len=seed % 3, period_len=1 + seed % 2
        )
        for left, right in relations:
            verdict = decide_equal(machine, left, right)
            assert verdict.status == "equal" and verdict.method == "periodic_bfs"
        if seed % 10 == 0:
            rng = random.Random(4000 + seed)
            for _ in range(5):
                word = tuple(rng.randrange(2) for _ in range(12))
                for left, right in relations:
                    assert apply_word(machine, left, word) == apply_word(
                        machine, right, word
                    )


@criterion(5)
def test_criterion_05_generator_ratio_is_torsion_on_bounded_alphabets():
    schedules = [
        AlphabetSchedule.constant(2),
        AlphabetSchedule.constant(3),
        AlphabetSchedule.constant(4),
        AlphabetSchedule.periodic((2, 3)),
        AlphabetSchedule.periodic((3, 4)),
        AlphabetSchedule.periodic((2, 4), prefix=(3,)),
        AlphabetSchedule.periodic((4, 2, 3)),
        AlphabetSchedule.constant(4, prefix=(2, 3)),
    ]
    ratio = A.inverse() * B
    rng = random.Random(505)
    for trial in range(100):
        schedule = schedules[trial % len(schedules)]
        machine = random_bireversible_automaton(
            rng, schedule, prefix_len=trial % 3, period_len=1 + trial % 2
        )
        exponent = torsion_exponent_bound(machine)
        assert exponent == math.factorial(schedule.bound())
        verdict = decide_equal(machine, ratio**exponent)
        assert verdict.status == "equal" and verdict.method == "periodic_bfs"
        for _ in range(50):
            n = rng.randint(-12, 12)
            word = tuple(
                rng.randrange(schedule.size_at(i + 1))
                for i in range(rng.randint(1, 10))
            )
            assert ratio_power_image(machine, n, word) == apply_word(
                machine, ratio**n, word
            )


@criterion(6)
def test_criterion_06_shortlex_words_enumerate_integer_images():
    words = shortlex_words(200)
    for n, word in enumerate(words, start=1):
        assert word_order_apply(word, 1) == n
    assert word_order_perm_a(1) == 2
    assert word_order_perm_b(1) == 4
    assert word_order_perm_a(2) == 6
    assert word_order_perm_a(3) == 1
    assert word_order_perm_b(2) == 12
    assert word_order_perm_b(4) == 14

    machine = word_order_automaton(AlphabetSchedule.ramp(0))
    for level in range(1, 61):
        table = machine.table_at(level)
        assert table.is_diagonal()
        assert table.is_invertible()
        assert table.is_reversible()
        assert table.inverted().is_reversible()


@criterion(7)
def test_criterion_07_no_short_relations_in_the_growing_alphabet_machines():
    budget = Budget(max_depth=40)
    searches = [
        (word_order_automaton(AlphabetSchedule.ramp(0)), 6, 1456),
        (word_order_automaton(AlphabetSchedule.ramp(1)), 6, 1456),
        (cycle_transposition_automaton(AlphabetSchedule.ramp(1)), 8, 13120),
    ]
    for machine, max_len, expected_checked in searches:
        found = relation_search(machine, max_len, budget=budget)
        assert found.checked == expected_checked
        assert found.equal == []
        assert found.unknown == []


@criterion(8)
def test_criterion_08_transitive_levels_and_steering_to_targets():
    sizes = (3, 4, 6, 8)
    machine = cycle_transposition_automaton(AlphabetSchedule.periodic(sizes))
    for level in range(1, 5):
        orbit = orbit_at_level(machine, level)
        assert len(orbit) == math.prod(sizes[:level])

    rng = random.Random(808)
    for level in range(1, 5):
        for _ in range(100):
            target = tuple(rng.randrange(sizes[i]) for i in range(level))
            result = steer_to_word(machine, target)
            assert apply_word(machine, result.word, result.base_word) == target

    worked = steer_to_word(
        cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4))), (2, 3)
    )
    assert (worked.n0, worked.n1) == (1, 4)

    narrow = cycle_transposition_automaton(AlphabetSchedule.constant(2))
    assert len(orbit_at_level(narrow, 2)) == 2


def _random_explicit_instance(rng):
    """An explicit machine plus its own level tables, for independent
    restepping."""
    n = rng.randint(1, 3)
    prefix_len = rng.randint(0, 2)
    period_len = rng.randint(1, 2)
    sizes = [rng.randint(1, 3) for _ in range(prefix_len + period_len)]
    schedule = AlphabetSchedule.periodic(
        sizes[prefix_len:], prefix=tuple(sizes[:prefix_len])
    )

    def table(size):
        transition = tuple(
            tuple(rng.randrange(n) for _ in range(size)) for _ in range(n)
        )
        output = []
        for _ in range(n):
            row = list(range(size))
            rng.shuffle(row)
            output.append(tuple(row))
        return LevelTable(transition, tuple(output))

    prefix = tuple(table(sizes[i]) for i in range(prefix_len))
    period = tuple(table(sizes[prefix_len + i]) for i in range(period_len))
    machine = Automaton.from_periodic_tables(schedule, prefix, period)
    tables = [
        prefix[i] if i < prefix_len else period[(i - prefix_len) % period_len]
        for i in range(12)
    ]
    return machine, tables


@criterion(9)
def test_criterion_09_equality_verdicts_match_brute_force():
    rng = random.Random(909)

    def random_word(n_states):
        return GroupWord(
            [
                (rng.randrange(n_states), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 4))
            ]
        )

    def table_at(level):
        return tables[level - 1]

    for trial in range(500):
        machine, tables = _random_explicit_instance(rng)
        g = random_word(machine.n_states)
        h = g if rng.random() < 0.2 else random_word(machine.n_states)
        verdict = decide_equal(machine, g, h)
        assert verdict.method == "periodic_bfs"

        reduced = g * h.inverse()
        phases = len(machine.periodic_tables[0]) + len(machine.periodic_tables[1])
        bound = (2 * machine.n_states) ** len(reduced.factors) * phases
        assert verdict.explored <= bound

        if verdict.status == "not_equal":
            witness = verdict.witness
            assert raw_image(table_at, g.factors, witness) != raw_image(
                table_at, h.factors, witness
            )
        else:
            assert verdict.status == "equal"
            # The images of every word of length 1 .. 10 agree iff they
            # agree letter by letter at every prefix: walk the word tree
            # once, stepping both sides' states over the raw rows.
            g_signs, h_signs = [s for _, s in g.factors], [s for _, s in h.factors]
            stack = [(1, [q for q, _ in g.factors], [q for q, _ in h.factors])]
            while stack:
                level, g_states, h_states = stack.pop()
                table = tables[level - 1]
                for x in range(table.alphabet_size):
                    y, g_next = raw_step(table, g_states, g_signs, x, level)
                    z, h_next = raw_step(table, h_states, h_signs, x, level)
                    assert y == z, (level, x)
                    if level < 10:
                        stack.append((level + 1, g_next, h_next))


@criterion(10)
def test_criterion_10_level_orders_grow_without_bound():
    lamp = lamplighter_automaton()
    for level in range(1, 9):
        assert lamp.table_at(level).is_reversible()
    verdict = lamp.bireversibility()
    assert not verdict.holds
    assert verdict.level == 1 and verdict.reason == "inverse_not_reversible"
    lamp_orders = [level_group(lamp, k).order for k in range(1, 9)]
    assert lamp_orders == [2, 8, 32, 64, 256, 512, 1024, 2048]
    assert all(x < y for x, y in zip(lamp_orders, lamp_orders[1:]))

    dual = bellaterra_dual_automaton()
    assert dual.n_states == 2
    assert all(dual.schedule.size_at(k) == 3 for k in range(1, 9))
    assert dual.bireversibility().holds
    dual_orders = [level_group(dual, k).order for k in range(1, 8)]
    assert dual_orders == [6, 48, 192, 1536, 12288, 98304, 786432]
    assert all(x < y for x, y in zip(dual_orders, dual_orders[1:]))


@criterion(11)
def test_criterion_11_interleaved_machine_acts_only_on_even_levels():
    inner = cycle_transposition_automaton(AlphabetSchedule.constant(4))
    spread = subsequence_embedding_automaton(
        inner, AlphabetSchedule.constant(4), start=2, step=2
    )
    verdict = spread.bireversibility()
    assert verdict.holds and verdict.exact
    for level in range(1, 42, 2):
        assert spread.table_at(level).is_identity()

    rng = random.Random(1111)
    for _ in range(100):
        word = GroupWord(
            [(rng.randrange(2), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        )
        letters = tuple(rng.randrange(4) for _ in range(rng.randint(1, 12)))
        image = apply_word(spread, word, letters)
        assert image[0::2] == letters[0::2]
        assert image[1::2] == apply_word(inner, word, letters[1::2])
