"""Constructive transitivity: reaching chosen words from the base word."""

import collections
import itertools
import random
import time
import tracemalloc

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    GroupWord,
    NonCoprimeModuliError,
    NotBiReversibleError,
    SteeringError,
    VerificationFailedError,
    apply_word,
    build_from_config,
    cycle_transposition_automaton,
    lamplighter_automaton,
    steer_to_word,
    two_state_level,
    z2z4_automaton,
)
from tvautomata import core, engine, families
from tvautomata.schedule import MAX_ALPHABET_SIZE

from reference import two_state_machines

A = GroupWord.generator(0)
B = GroupWord.generator(1)


def machine(*sizes):
    return cycle_transposition_automaton(AlphabetSchedule.periodic(sizes))


def test_worked_two_level_case():
    res = steer_to_word(machine(3, 4), (2, 3))
    assert res.n0 == 1
    assert res.n1 == 4
    assert res.base_word == (1, 1)
    assert res.target == (2, 3)
    c = A * B.inverse()
    assert res.word == c**4 * B.inverse() * c * B
    assert res.word.length == 10
    assert apply_word(machine(3, 4), res.word, (1, 1)) == (2, 3)


def test_steering_to_the_base_word_itself():
    res = steer_to_word(machine(3, 4), (1, 1))
    # Nothing to move: the first congruence pass degenerates to a full
    # turn of every cycle and the second is empty.
    assert res.n0 == 6
    assert res.n1 == 0
    assert apply_word(machine(3, 4), res.word, (1, 1)) == (1, 1)


def test_display_uses_state_names():
    res = steer_to_word(machine(3, 4), (2, 3))
    shown = res.display(("a", "b"))
    assert shown.startswith("a b^-1")
    assert "^" in shown


def test_noncoprime_cycle_lengths_are_rejected():
    with pytest.raises(NonCoprimeModuliError):
        steer_to_word(machine(3, 3), (2, 2))


def test_small_alphabets_are_rejected():
    with pytest.raises(SteeringError):
        steer_to_word(machine(2, 2), (1, 1))
    with pytest.raises(SteeringError):
        steer_to_word(machine(3, 4), ())


def _one_level(flips, alpha, beta):
    table = two_state_level(flips, alpha, beta)
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(len(alpha)), (), (table,))


@pytest.mark.parametrize(
    "automaton, target, error, message",
    [
        (z2z4_automaton(), (0, 1), SteeringError,
         "level 2: states must swap on exactly one common letter"),
        (_one_level((0, 1), (1, 2, 0), (1, 2, 0)), (0,), SteeringError,
         "level 1: states must swap on exactly one common letter"),
        (_one_level((0,), (1, 2, 0), (1, 2, 0)), (0,), SteeringError,
         "level 1: second labeling must swap the marked letter with one partner"),
        (_one_level((0,), (1, 0, 2, 3), (1, 0, 2, 3)), (0,), SteeringError,
         "level 1: first labeling must cycle all letters, marked to partner"),
        (lamplighter_automaton(), (0,), NotBiReversibleError,
         "level 1 fails: inverse_not_reversible"),
    ],
    ids=["no-flip", "two-flips", "second-labeling", "first-labeling", "not-bireversible"],
)
def test_each_steering_refusal_names_its_level(automaton, target, error, message):
    with pytest.raises(error) as err:
        steer_to_word(automaton, target)
    assert str(err.value) == message


def _steerable_by_definition(t):
    """The steering conditions read off a table directly: the states swap
    on exactly one marked letter and keep every other, both labelings are
    permutations, the second swaps the marked letter with a partner, and
    the first cycles all letters, sending the marked letter to it."""
    d = t.alphabet_size
    flips = [x for x in range(d) if t.transition[0][x] == 1]
    if len(flips) != 1 or any(
        t.transition[1][x] != (0 if x == flips[0] else 1) for x in range(d)
    ):
        return False
    if any(sorted(row) != list(range(d)) for row in t.output):
        return False
    marked = flips[0]
    long_cycle, swap = t.output
    partner = swap[marked]
    if partner == marked or any(swap[x] != x for x in range(d) if x not in (marked, partner)):
        return False
    orbit, x = [marked], long_cycle[marked]
    while x != marked:
        orbit.append(x)
        x = long_cycle[x]
    return len(orbit) == d and long_cycle[marked] == partner


def test_steering_levels_are_the_tables_the_definition_accepts():
    # Every two-state table on 2 and 3 letters: a table is steered exactly
    # when the definition accepts it, and is otherwise refused as not
    # bi-reversible or, when it is, as not steerable.
    steered = 0
    for m in two_state_machines((2, 3)):
        t = m.table_at(1)
        if _steerable_by_definition(t):
            assert engine._steering_level(t, 1) is t
            assert t._calculus.marked == t.transition[0].index(1)
            assert t._calculus.partner == t.output[0][t._calculus.marked]
            steered += 1
        else:
            error = SteeringError if t.failure is None else NotBiReversibleError
            with pytest.raises(error):
                engine._steering_level(t, 1)
    assert steered == 2 + 6


def test_every_target_is_reached_at_small_depths():
    sizes = (3, 4, 6, 8)
    a = machine(*sizes)
    rng = random.Random(0)
    for depth in range(1, 5):
        base = (1,) * depth
        for _ in range(10):
            target = tuple(rng.randrange(sizes[i]) for i in range(depth))
            res = steer_to_word(a, target)
            assert apply_word(a, res.word, base) == target


def test_steering_respects_nondefault_letters():
    a = cycle_transposition_automaton(
        AlphabetSchedule.periodic((4, 5)), x0=1, x1=2
    )
    res = steer_to_word(a, (3, 0))
    assert res.base_word == (2, 2)
    assert apply_word(a, res.word, (2, 2)) == (3, 0)


def test_every_short_target_gets_a_word_of_the_stated_length():
    sizes = (3, 4, 6, 8)
    a = machine(*sizes)
    targets = [
        target
        for length in range(1, len(sizes) + 1)
        for target in itertools.product(*(range(d) for d in sizes[:length]))
    ]
    assert len(targets) == 663
    for target in targets:
        res = steer_to_word(a, target)
        assert res.word_length == res.word.length
        assert apply_word(a, res.word, res.base_word) == target


def test_the_calculus_is_built_once_per_shared_table(monkeypatch):
    # Fresh shared tables, so that no earlier query has built their calculus.
    monkeypatch.setattr(families, "_shared_tables", collections.OrderedDict())
    monkeypatch.setattr(families, "_shared_letters", 0)
    built = []

    class Counting(core._TwoStateCalculus):
        __slots__ = ()

        def __init__(self, t):
            built.append(t.alphabet_size)
            super().__init__(t)

    monkeypatch.setattr(core, "_TwoStateCalculus", Counting)
    sizes = (3, 4, 6, 8)
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "periodic", "value": list(sizes)}},
        "automaton": {"builtin": "example2", "params": {}},
    }
    targets = [
        target
        for length in range(1, len(sizes) + 1)
        for target in itertools.product(*(range(d) for d in sizes[:length]))
    ]
    assert len(targets) == 663
    one, two = build_from_config(doc), build_from_config(doc)
    assert [steer_to_word(one, t) for t in targets] == [steer_to_word(two, t) for t in targets]
    assert sorted(built) == list(sizes)


def test_the_calculus_of_the_widest_table_is_linear():
    d = MAX_ALPHABET_SIZE
    t = families._cycle_transposition_table(d, 0, 1)
    t.signed_rows
    tracemalloc.start()
    try:
        calc = t._calculus
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(calc.home) == len(calc.position) == d
    assert sum(len(letters) for letters, _ in calc.cycles) == d
    assert sum(len(sums) for _, sums in calc.cycles) == d + len(calc.cycles)
    # Four integers per letter, 16 bytes under tracemalloc on Python 3.11.
    assert kept < 24 * d
    a = cycle_transposition_automaton(AlphabetSchedule.constant(d))
    res = steer_to_word(a, (d - 1,))
    assert apply_word(a, res.word, res.base_word) == (d - 1,)


def test_seven_coprime_levels_steer_without_expanding_the_word():
    a = machine(3, 4, 6, 8, 12, 14, 18)
    start = time.perf_counter()
    res = steer_to_word(a, (2, 3, 5, 7, 11, 13, 17))
    assert time.perf_counter() - start < 1.0
    assert "word" not in res.__dict__
    assert res.word_length == 2 * (res.n0 + res.n1)


def test_a_wrong_exponent_fails_verification(monkeypatch):
    solve, calls = engine.crt_solve, []

    def off_by_one_n1(congruences):
        calls.append(congruences)
        n = solve(congruences)
        return n + 1 if len(calls) == 2 else n

    monkeypatch.setattr(engine, "crt_solve", off_by_one_n1)
    with pytest.raises(VerificationFailedError):
        steer_to_word(machine(3, 4), (2, 3))
    assert len(calls) == 2
