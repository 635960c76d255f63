"""Level tables and the transducer calculus built on them."""

import random

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    InvalidWordError,
    LevelTable,
    NotInvertibleError,
    NotMealyError,
    ScheduleMismatchError,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    cycle_transposition_automaton,
    diagonal_automaton,
    embed_on_subsequence,
    lamplighter_automaton,
    sym_diagonal_automaton,
    tables_equal,
    word_order_automaton,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import perms

FLIP = (1, 0)
IDENT = (0, 1)

# Levels of the two-state machine generating Z2 x Z4: odd levels swap
# the state on letter 1 and flip under both labelings; even levels keep
# the state, flipping under the first labeling only.
ODD = LevelTable(((0, 1), (1, 0)), (FLIP, FLIP))
EVEN = LevelTable(((0, 0), (1, 1)), (FLIP, IDENT))


def catalog():
    return [
        z2z4_automaton(),
        z4_automaton(),
        lamplighter_automaton(),
        bellaterra_automaton(),
        bellaterra_dual_automaton(),
        cycle_transposition_automaton(AlphabetSchedule.constant(3)),
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)),
        word_order_automaton(AlphabetSchedule.ramp(0)),
        sym_diagonal_automaton([2, 3, 4]),
        sym_diagonal_automaton(start=2),
    ]


# -- level tables -----------------------------------------------------


def test_table_entry_ranges_are_checked():
    with pytest.raises(ValueError):
        LevelTable(((0, 2), (1, 0)), (FLIP, FLIP))
    with pytest.raises(ValueError):
        LevelTable(((0, 1), (1, 0)), ((1, 2), FLIP))
    with pytest.raises(ValueError):
        LevelTable(((0, 1),), (FLIP, FLIP))


def test_identity_table():
    t = LevelTable.identity(2, 3)
    assert t.is_identity()
    assert t.is_diagonal()
    assert t.labeling(1) == (0, 1, 2)


def test_predicates_on_the_z2z4_levels():
    assert ODD.is_invertible() and ODD.is_reversible()
    assert not ODD.is_diagonal()
    assert EVEN.is_invertible() and EVEN.is_reversible() and EVEN.is_diagonal()
    broken = LevelTable(((0, 1), (1, 0)), ((0, 0), FLIP))
    assert not broken.is_invertible()
    assert broken.first_noninvertible_state() == 0
    assert ODD.first_noninvertible_state() is None


def test_reversibility_is_a_column_condition():
    # Both states move to state 0 on letter 0: the letter-0 column is
    # constant, so it is no permutation of the states.
    t = LevelTable(((0, 1), (0, 1)), (IDENT, FLIP))
    assert not t.is_reversible()


def test_inverted_table():
    swap_cycle = LevelTable(
        ((1, 0, 0), (0, 1, 1)),
        ((1, 2, 0), (1, 0, 2)),
    )
    inv = swap_cycle.inverted()
    # The inverse machine swaps the state exactly on the letters the
    # labelings send to the swap letter, here letter 1.
    assert inv.output == (perms.invert((1, 2, 0)), perms.invert((1, 0, 2)))
    assert inv.transition == ((0, 1, 0), (1, 0, 1))
    with pytest.raises(ValueError):
        LevelTable(((0, 0),), ((0, 0),)).inverted()


def test_table_config_round_trip():
    assert LevelTable.from_config(ODD.to_config()) == ODD
    doc = ODD.to_config()
    doc["comment"] = "no"
    with pytest.raises(ValueError):
        LevelTable.from_config(doc)
    with pytest.raises(ValueError):
        LevelTable.from_config({"transition": [[0]], "output": [[0], [0]]})


# -- automata ---------------------------------------------------------


def test_period_one_table_repeats():
    lamp = lamplighter_automaton()
    assert lamp.table_at(9) == lamp.table_at(1)


def test_growing_alphabet_tables():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    t = e2.table_at(2)
    assert t.alphabet_size == 3
    assert t.transition == ((1, 0, 0), (0, 1, 1))
    assert t.output == (perms.rotation(3), perms.transposition(3, 0, 1))


def test_evaluate():
    z = z2z4_automaton()
    assert z.evaluate("a", (0, 0)) == (1, 1)
    assert z.evaluate("b", (1, 0)) == (0, 1)
    assert z.evaluate("a", ()) == ()
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert e2.evaluate(0, (0, 0)) == (1, 1)
    with pytest.raises(InvalidWordError):
        z.evaluate("a", (0, 2))


def test_run_reports_the_end_state():
    z = z2z4_automaton()
    out, end = z.run("b", (1, 0))
    assert out == (0, 1)
    # Level 1 swaps the state on letter 1, level 2 keeps it.
    assert end == 0


def test_prefix_of_image_is_image_of_prefix():
    rng = random.Random(7)
    for a in catalog():
        for q in range(a.n_states):
            word = tuple(rng.randrange(a.schedule.size_at(i)) for i in range(1, 9))
            image = a.evaluate(q, word)
            assert len(image) == len(word)
            for cut in range(len(word)):
                assert a.evaluate(q, word[:cut]) == image[:cut]


def test_inverse_undoes_every_catalog_automaton():
    rng = random.Random(1)
    for a in catalog():
        inv = a.inverse()
        for q in range(a.n_states):
            for _ in range(12):
                depth = rng.randrange(13)
                word = tuple(
                    rng.randrange(a.schedule.size_at(i)) for i in range(1, depth + 1)
                )
                assert inv.evaluate(q, a.evaluate(q, word)) == word
                assert a.evaluate(q, inv.evaluate(q, word)) == word


def test_inverse_of_the_cycle_transposition_machine():
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert e2.inverse().evaluate(0, (1, 1)) == (0, 0)
    # run(..., inverse=True) acts by the inverse without materializing it.
    assert e2.run(0, (1, 1), inverse=True)[0] == (0, 0)


def test_double_inversion_restores_tables():
    lamp = lamplighter_automaton()
    assert tables_equal(lamp.inverse().inverse(), lamp, 6)


def test_identity_diagonal_automaton_is_self_inverse():
    ident = diagonal_automaton(AlphabetSchedule.constant(2), (), (((0, 1),),))
    assert tables_equal(ident.inverse(), ident, 12)
    assert ident.evaluate(0, (0, 1, 1)) == (0, 1, 1)


def test_bireversibility_verdicts():
    z = z2z4_automaton()
    verdict = z.bireversibility()
    assert verdict.holds and verdict.exact
    assert bool(verdict)

    lamp = lamplighter_automaton()
    verdict = lamp.bireversibility()
    assert not verdict.holds
    assert verdict.exact
    assert verdict.level == 1
    assert verdict.reason == "inverse_not_reversible"
    assert lamp.is_reversible_at(1)
    assert not lamp.inverse().is_reversible_at(1)

    assert z4_automaton().bireversibility().holds


def test_bireversibility_of_rule_families_is_flagged_exact():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    verdict = e2.bireversibility()
    assert verdict.holds and verdict.exact


def test_depth_bounded_verdict_without_any_structure():
    odd_rule = Automaton.from_rule(
        AlphabetSchedule.constant(2), 2, lambda i: ODD if i % 2 else EVEN
    )
    verdict = odd_rule.bireversibility(10)
    assert verdict.holds
    assert not verdict.exact
    assert verdict.checked_up_to == 10


def test_shift():
    z = z2z4_automaton()
    assert z.shifted(0) is z
    assert z.shifted(1).table_at(1) == z.table_at(2)
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    assert e2.shifted(2).schedule.size_at(1) == 4
    assert tables_equal(e2.shifted(1).shifted(2), e2.shifted(3), 10)


def test_shift_keeps_exactness_and_finite_phases():
    z = z2z4_automaton()
    assert z.shifted(3).has_finite_phases
    assert z.shifted(3).bireversibility().exact


def test_restriction_acts_on_a_bounded_head():
    z = z2z4_automaton()
    cut = z.restricted(2)
    assert cut.evaluate("a", (0, 0, 1)) == (1, 1, 1)
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.randrange(2) for _ in range(6))
        assert cut.evaluate("a", word)[:2] == z.evaluate("a", word)[:2]
        assert cut.evaluate("a", word)[2:] == word[2:]


def test_restriction_to_depth_zero_is_trivial():
    z = z2z4_automaton()
    zero = z.restricted(0)
    for word in ((), (0,), (1, 0, 1)):
        assert zero.evaluate("a", word) == word
        assert zero.evaluate("b", word) == word


def test_restriction_preserves_bireversibility():
    verdict = z2z4_automaton().restricted(3).bireversibility()
    assert verdict.holds and verdict.exact


def test_restriction_over_a_growing_schedule():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    cut = e2.restricted(2)
    assert cut.has_finite_phases
    assert cut.table_at(3) == LevelTable.identity(2, 4)
    assert cut.evaluate(0, (0, 0, 3, 1)) == (1, 1, 3, 1)


def test_mealy_detection():
    lamp = lamplighter_automaton()
    assert lamp.is_mealy
    assert lamp.mealy_table() == lamp.table_at(1)
    assert not z2z4_automaton().is_mealy
    with pytest.raises(NotMealyError):
        z2z4_automaton().mealy_table()


def test_dual_swaps_states_and_letters():
    bella = bellaterra_automaton()
    dual = bella.dual()
    assert dual.n_states == 2
    assert dual.schedule.size_at(1) == 3
    t, d = bella.mealy_table(), dual.mealy_table()
    for q in range(3):
        for x in range(2):
            assert d.transition[x][q] == t.output[q][x]
            assert d.output[x][q] == t.transition[q][x]


def test_dual_is_an_involution():
    bella = bellaterra_automaton()
    assert tables_equal(bella.dual().dual(), bella, 6)


def test_dual_of_the_one_state_identity():
    ident = diagonal_automaton(AlphabetSchedule.constant(3), (), (((0, 1, 2),),))
    dual = ident.dual()
    assert dual.n_states == 3
    assert dual.schedule.size_at(1) == 1
    assert dual.mealy_table().output == ((0,), (0,), (0,))
    with pytest.raises(NotMealyError):
        z2z4_automaton().dual()


def test_phases():
    z = z2z4_automaton()
    assert z.has_finite_phases
    assert z.phase(1) == z.phase(3)
    assert z.phase(1) != z.phase(2)
    z4 = z4_automaton()
    assert z4.phase(3) == z4.phase(5)
    assert z4.inverse().phase(3) == 0
    rule = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    assert not rule.has_finite_phases


def test_state_lookup():
    bella = bellaterra_automaton()
    assert bella.state_names == ("a", "b", "c")
    assert bella.state_index("c") == 2
    assert bella.state_index(1) == 1
    with pytest.raises(ValueError):
        bella.state_index("d")
    with pytest.raises(ValueError):
        bella.state_index(3)
    assert bellaterra_dual_automaton().state_names == ("d0", "d1")


def test_explicit_tables_must_fit_the_schedule():
    with pytest.raises(ScheduleMismatchError):
        Automaton.from_periodic_tables(
            AlphabetSchedule.constant(2), (), (LevelTable.identity(2, 3),)
        )
    with pytest.raises(ScheduleMismatchError):
        Automaton.from_periodic_tables(AlphabetSchedule.ramp(0), (), (ODD,))


def test_a_fold_must_line_up_with_the_schedule():
    def rule(i):
        return ODD

    with pytest.raises(ScheduleMismatchError):
        Automaton(AlphabetSchedule.periodic((2, 2)), 2, rule, fold=(0, 1))
    with pytest.raises(ScheduleMismatchError):
        Automaton(AlphabetSchedule.constant(2, prefix=(2,)), 2, rule, fold=(0, 1))
    with pytest.raises(ScheduleMismatchError):
        Automaton(AlphabetSchedule.ramp(1), 2, rule, fold=(0, 1))
    folded = Automaton(AlphabetSchedule.periodic((2, 2)), 2, rule, fold=(0, 2))
    assert folded.periodic_tables == ((), (ODD, ODD))


def test_a_folded_rule_is_never_sampled_past_its_fold():
    calls = []

    def rule(i):
        calls.append(i)
        return ODD if i % 2 else EVEN

    schedule = AlphabetSchedule.periodic((2, 2), prefix=(2,))
    folded = Automaton(schedule, 2, rule, fold=(1, 2))
    unfolded = Automaton.from_rule(schedule, 2, lambda i: ODD if i % 2 else EVEN)
    rng = random.Random(5)
    for _ in range(10):
        word = tuple(rng.randrange(2) for _ in range(9))
        for inverse in (False, True):
            assert folded.run("b", word, inverse=inverse) == unfolded.run(
                "b", word, inverse=inverse
            )
    assert max(calls) == 3


def test_restricting_a_ramp_rule_checks_every_kept_level():
    collapse = LevelTable(((0,) * 11, (0,) * 11), (tuple(range(11)),) * 2)

    def rule(i):
        return collapse if i == 10 else LevelTable.identity(2, i + 1)

    machine = Automaton.from_rule(
        AlphabetSchedule.ramp(1), 2, rule, exact_bireversible=True
    )
    verdict = machine.restricted(12).bireversibility()
    assert not verdict.holds
    assert verdict.exact
    assert (verdict.level, verdict.reason) == (10, "not_reversible")


def test_tables_repeat_along_phases():
    for machine in catalog():
        if not machine.has_finite_phases:
            continue
        for k in range(1, 51):
            phase = machine.phase(k)
            if phase == 0:
                assert machine.table_at(k).is_identity()
            else:
                assert machine.table_at(k) == machine.table_at(phase)


# -- spreading a transducer over a subsequence of levels --------------


def test_embedding_with_the_identity_rule_copies_tables():
    inner = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    same = embed_on_subsequence(inner, AlphabetSchedule.constant(3), 1, 1)
    assert tables_equal(same, inner, 40)


def test_embedding_on_even_levels():
    inner = z2z4_automaton()
    host = AlphabetSchedule.constant(2)
    b = embed_on_subsequence(inner, host, 2, 2)
    for level in (1, 3, 5):
        assert b.table_at(level).is_identity()
    for j in (1, 2, 3):
        assert b.table_at(2 * j) == inner.table_at(j)


def test_embedding_keeps_the_inner_identity_tail():
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(1)).restricted(3)
    b = embed_on_subsequence(inner, AlphabetSchedule.ramp(0), 2, 1)
    assert b.has_finite_phases
    assert b.phase(5) == 0 and b.phase(4) == 4
    assert tables_equal(b.shifted(1), inner, 10)
    verdict = b.bireversibility()
    assert verdict.holds and verdict.exact


def test_embedding_projects_onto_the_inner_action():
    inner = z2z4_automaton()
    b = embed_on_subsequence(inner, AlphabetSchedule.constant(2), 2, 2)
    rng = random.Random(11)
    for _ in range(25):
        word = tuple(rng.randrange(2) for _ in range(10))
        image = b.evaluate("a", word)
        assert image[0::2] == word[0::2]
        assert image[1::2] == inner.evaluate("a", word[1::2])


def test_embedding_checks_the_schedule_match():
    inner = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    with pytest.raises(ScheduleMismatchError):
        embed_on_subsequence(inner, AlphabetSchedule.constant(2), 2, 2)
