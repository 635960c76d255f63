import itertools

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    GroupKind,
    LevelTable,
    NotBinaryError,
    NotBiReversibleError,
    NotTwoStateError,
    UndecidableRepresentationError,
    admissible_binary_level_types,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    classify_two_state_binary,
    cycle_transposition_automaton,
    lamplighter_automaton,
    level_group,
    two_state_level,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import engine

from reference import is_bireversible_table

FLIP = (1, 0)
IDENT = (0, 1)


def mealy(table: LevelTable) -> Automaton:
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(2), (), (table,))


def test_the_two_named_machines():
    assert classify_two_state_binary(z2z4_automaton()) is GroupKind.Z2xZ4
    assert classify_two_state_binary(z4_automaton()) is GroupKind.Z4


def test_identity_machine_is_trivial():
    ident = mealy(LevelTable.identity(2, 2))
    assert classify_two_state_binary(ident) is GroupKind.TRIVIAL


def test_single_level_examples():
    # Both states flip every letter everywhere: one common involution.
    assert (
        classify_two_state_binary(mealy(two_state_level((), FLIP, FLIP)))
        is GroupKind.Z2
    )
    # Always swap states, labelings disagreeing: the two states flip
    # alternate positions, giving independent involutions.
    assert (
        classify_two_state_binary(mealy(two_state_level((0, 1), IDENT, FLIP)))
        is GroupKind.Z2xZ2
    )


def test_constant_levels_stay_in_the_kleinian_range():
    kinds = {
        classify_two_state_binary(mealy(t)) for t in admissible_binary_level_types()
    }
    assert kinds == {GroupKind.TRIVIAL, GroupKind.Z2, GroupKind.Z2xZ2}


def test_kind_metadata():
    assert GroupKind.Z2xZ4.group_order == 8
    assert GroupKind.Z2xZ4.exponent == 4
    assert GroupKind.Z4.group_order == 4
    assert GroupKind.Z4.exponent == 4
    assert GroupKind.Z2xZ2.group_order == 4
    assert GroupKind.Z2xZ2.exponent == 2
    assert GroupKind.TRIVIAL.group_order == 1


def test_kinds_match_stabilized_level_group_orders():
    for a in (z2z4_automaton(), z4_automaton()):
        kind = classify_two_state_binary(a)
        orders = [level_group(a, k).order for k in range(1, 7)]
        assert orders[-1] == orders[-2] == kind.group_order
        assert level_group(a, 6).max_element_order() == kind.exponent


def test_preconditions():
    with pytest.raises(NotTwoStateError):
        classify_two_state_binary(bellaterra_automaton())
    with pytest.raises(NotBinaryError):
        classify_two_state_binary(bellaterra_dual_automaton())
    with pytest.raises(NotBinaryError):
        classify_two_state_binary(
            cycle_transposition_automaton(AlphabetSchedule.ramp(1))
        )
    with pytest.raises(NotBiReversibleError):
        classify_two_state_binary(lamplighter_automaton())
    odd = z2z4_automaton().table_at(1)
    even = z2z4_automaton().table_at(2)
    rule_only = Automaton.from_rule(
        AlphabetSchedule.constant(2), 2, lambda i: odd if i % 2 else even
    )
    with pytest.raises(UndecidableRepresentationError):
        classify_two_state_binary(rule_only)


def test_the_relations_are_proved_over_every_bireversible_binary_table(monkeypatch):
    # Every two-state binary table, enumerated apart from the library.
    rows = list(itertools.product(range(2), repeat=2))
    tables = {
        LevelTable(transition, output)
        for transition in itertools.product(rows, repeat=2)
        for output in itertools.product(rows, repeat=2)
    }
    admissible = {t for t in tables if is_bireversible_table(t)}
    assert len(tables) == 256 and len(admissible) == 12
    # The proof, run afresh, steps exactly these tables.
    stepped = []
    step_row = LevelTable.step_row

    def spy(table, *args):
        stepped.append(table)
        return step_row(table, *args)

    monkeypatch.setattr(LevelTable, "step_row", spy)
    assert engine._binary_relations_proved.__wrapped__() is True
    assert set(stepped) == admissible


def test_the_relations_proof_fails_once_lamplighter_joins_the_types():
    types = admissible_binary_level_types()
    assert engine._relations_hold(types) is True
    lamp = lamplighter_automaton().table_at(1)
    assert engine._relations_hold(types + (lamp,)) is False


def test_a_classification_asks_at_most_four_searches(monkeypatch):
    calls = []
    search = engine._search

    def counting(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(engine, "_search", counting)
    types = admissible_binary_level_types()
    schedule = AlphabetSchedule.constant(2)
    counts, kinds = set(), set()
    # Every fold (0, 2) and (1, 1) of the 12 types.
    for x, y in itertools.product(types, repeat=2):
        for prefix, period in (((), (x, y)), ((x,), (y,))):
            calls.clear()
            machine = Automaton.from_periodic_tables(schedule, prefix, period)
            kinds.add(classify_two_state_binary(machine))
            counts.add(len(calls))
    assert kinds == set(GroupKind) and max(counts) == 4
