"""Level tables and the transducer calculus built on them."""

import dataclasses
import gc
import inspect
import itertools
import random
import sys
import tracemalloc
import weakref

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    InvalidWordError,
    LevelTable,
    NotInvertibleError,
    NotMealyError,
    ScheduleMismatchError,
    admissible_binary_level_types,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    cycle_transposition_automaton,
    diagonal_automaton,
    embed_on_subsequence,
    lamplighter_automaton,
    level_groups,
    random_admissible_level,
    random_bireversible_automaton,
    sym_diagonal_automaton,
    word_order_automaton,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import perms
from tvautomata.core import MAX_LEVEL

from reference import tables_equal
from test_families import all_builtin_machines

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
    assert t.output[1] == (0, 1, 2)


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


def test_reversibility_matches_the_permutation_check_on_every_small_table():
    rows = list(itertools.product(range(2), repeat=2))
    for tr0, tr1, out0, out1 in itertools.product(rows, repeat=4):
        t = LevelTable((tr0, tr1), (out0, out1))
        columns = [[row[x] for row in t.transition] for x in range(2)]
        assert t.is_reversible() == all(map(perms.is_permutation, columns))
        if t.is_invertible():
            assert t.is_inverse_reversible() == t.inverted().is_reversible()
        else:
            with pytest.raises(ValueError):
                t.is_inverse_reversible()


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


def test_tables_built_apart_from_equal_rows_are_equal_and_hash_equal():
    rows = ([[0, 1], [1, 0]], [[1, 0], [1, 0]])
    built = [
        ODD,
        LevelTable(*rows),
        LevelTable(tuple(map(tuple, rows[0])), tuple(map(tuple, rows[1]))),
        LevelTable.from_config({"transition": rows[0], "output": rows[1]}),
    ]
    assert len({id(t) for t in built}) == len(built)
    assert all(t == ODD and hash(t) == hash(ODD) for t in built)
    assert hash(ODD) == hash((ODD.transition, ODD.output))
    assert {t: None for t in built} == {ODD: None}
    assert ODD != EVEN and LevelTable(rows[0], [[1, 0], [0, 1]]) != ODD
    # The dataclass hash reads the two row fields and nothing else.
    assert [f.name for f in dataclasses.fields(LevelTable)] == ["transition", "output"]
    assert repr(ODD) == "LevelTable(transition=((0, 1), (1, 0)), output=((1, 0), (1, 0)))"


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
    assert z.run("a", (0, 0))[0] == (1, 1)
    assert z.run("b", (1, 0))[0] == (0, 1)
    assert z.run("a", ())[0] == ()
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert e2.run(0, (0, 0))[0] == (1, 1)
    with pytest.raises(InvalidWordError):
        z.run("a", (0, 2))


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
            image = a.run(q, word)[0]
            assert len(image) == len(word)
            for cut in range(len(word)):
                assert a.run(q, word[:cut])[0] == image[:cut]


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
                assert inv.run(q, a.run(q, word)[0])[0] == word
                assert a.run(q, inv.run(q, word)[0])[0] == word


def test_inverse_of_the_cycle_transposition_machine():
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert e2.inverse().run(0, (1, 1))[0] == (0, 0)
    # run(..., inverse=True) acts by the inverse without materializing it.
    assert e2.run(0, (1, 1), inverse=True)[0] == (0, 0)


def test_double_inversion_restores_tables():
    lamp = lamplighter_automaton()
    assert tables_equal(lamp.inverse().inverse(), lamp, 6)


def test_identity_diagonal_automaton_is_self_inverse():
    ident = diagonal_automaton(AlphabetSchedule.constant(2), (), (((0, 1),),))
    assert tables_equal(ident.inverse(), ident, 12)
    assert ident.run(0, (0, 1, 1))[0] == (0, 1, 1)


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
    assert lamp.table_at(1).is_reversible()
    assert not lamp.inverse().table_at(1).is_reversible()

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


def test_a_user_rule_cannot_claim_exactness():
    # Bi-reversible at levels 1-8, not invertible at level 9.
    collapse = LevelTable(((0, 0), (1, 1)), ((0, 0), IDENT))
    rule = Automaton.from_rule(
        AlphabetSchedule.constant(2), 2, lambda i: collapse if i == 9 else EVEN
    )
    verdict = rule.bireversibility()
    assert (verdict.holds, verdict.level, verdict.reason) == (False, 9, "not_invertible")
    verdict = rule.bireversibility(8)
    assert (verdict.holds, verdict.exact, verdict.checked_up_to) == (True, False, 8)
    # No constructor takes a claim of exactness, public or private.
    for constructor, options in (
        (Automaton, ["state_names", "fold", "identity_from"]),
        (Automaton.from_rule, ["state_names", "identity_from"]),
    ):
        parameters = list(inspect.signature(constructor).parameters)
        assert parameters == ["schedule", "n_states", "table_fn", *options]
        with pytest.raises(TypeError):
            constructor(rule.schedule, 2, rule.table_at, _lemma_bireversible=True)


def test_machines_derived_from_a_size_builtin_keep_its_exact_verdict():
    # Over a ramp no fold or identity tail bounds the levels; only the
    # builders' lemma makes the verdict exact, and every derivation keeps it.
    for machine in (
        word_order_automaton(AlphabetSchedule.ramp(0)),
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)),
        sym_diagonal_automaton(start=3),
    ):
        # Host level 2j has the size of inner level j.
        host = AlphabetSchedule((), ((2, 0), *machine.schedule.block))
        for derived in (
            machine.inverse(),
            machine.shifted(1),
            machine.shifted(5),
            embed_on_subsequence(machine, host, 2, 2),
        ):
            assert not derived.has_finite_phases
            verdict = derived.bireversibility()
            assert (verdict.holds, verdict.exact, verdict.checked_up_to) == (True, True, None)
        verdict = Automaton.from_rule(machine.schedule, 2, machine.table_at).bireversibility()
        assert (verdict.holds, verdict.exact, verdict.checked_up_to) == (True, False, 20)


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
    assert cut.run("a", (0, 0, 1))[0] == (1, 1, 1)
    rng = random.Random(3)
    for _ in range(20):
        word = tuple(rng.randrange(2) for _ in range(6))
        assert cut.run("a", word)[0][:2] == z.run("a", word)[0][:2]
        assert cut.run("a", word)[0][2:] == word[2:]


def test_restriction_to_depth_zero_is_trivial():
    z = z2z4_automaton()
    zero = z.restricted(0)
    for word in ((), (0,), (1, 0, 1)):
        assert zero.run("a", word)[0] == word
        assert zero.run("b", word)[0] == word


def test_restriction_preserves_bireversibility():
    verdict = z2z4_automaton().restricted(3).bireversibility()
    assert verdict.holds and verdict.exact


def test_restriction_past_an_identity_tail_keeps_the_tail():
    z = z4_automaton()
    cut = z.restricted(5)
    assert (cut.identity_from, cut.fold) == (3, (5, 1))
    assert tables_equal(cut, z, 8)
    orders = [lg.order for lg in level_groups(z, 6)]
    assert [lg.order for lg in level_groups(cut, 6)] == orders


def test_machines_show_their_kind_and_first_sizes():
    assert repr(z4_automaton()) == "Automaton(2 states, periodic, sizes (2, 2, 2, 2)...)"
    ramp = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    assert repr(ramp) == "Automaton(2 states, rule, sizes (2, 3, 4, 5)...)"


def test_restriction_over_a_growing_schedule():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    cut = e2.restricted(2)
    assert cut.has_finite_phases
    assert cut.table_at(3) == LevelTable.identity(2, 4)
    assert cut.run(0, (0, 0, 3, 1))[0] == (1, 1, 3, 1)


def test_mealy_detection():
    lamp = lamplighter_automaton()
    assert lamp.mealy_table() == lamp.table_at(1)
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
    assert list(bella.name_index) == ["a", "b", "c", "q1", "q2", "q3"]
    with pytest.raises(TypeError):
        bella.name_index["d"] = 0
    assert bellaterra_dual_automaton().state_names == ("d0", "d1")
    assert bellaterra_dual_automaton().state_index("q2") == 1
    assert z2z4_automaton().state_index("q1") == 0
    # Past 26 states the default names are the q-names every machine
    # answers to, so q{k} is the k-th state and q0 names none.
    many = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (LevelTable.identity(30, 2),)
    )
    assert many.state_names == tuple(f"q{k}" for k in range(1, 31))
    assert many.state_index("q1") == 0
    assert many.state_index("q30") == 29
    assert many.state_index("z") == 25
    with pytest.raises(ValueError, match="unknown state 'q0'"):
        many.state_index("q0")
    # A machine's own names win over letters and q-names.
    swapped = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (ODD,), state_names=("q2", "a")
    )
    assert (swapped.state_index("a"), swapped.state_index("q2")) == (1, 0)
    assert swapped.state_index("q1") == 0


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


def test_constructions_take_their_fold_from_the_schedule():
    periodic = AlphabetSchedule.periodic((3, 4), prefix=(5,))
    assert cycle_transposition_automaton(periodic).fold == periodic.aligned_fold(0, 1) == (1, 2)
    assert cycle_transposition_automaton(AlphabetSchedule.ramp(1)).fold is None
    assert z2z4_automaton().restricted(3).fold == (3, 1)
    assert cycle_transposition_automaton(AlphabetSchedule.ramp(1)).restricted(3).fold is None
    binary = AlphabetSchedule.periodic((2, 2))
    machine = random_bireversible_automaton(random.Random(3), binary, 1, 3)
    assert machine.fold == binary.aligned_fold(1, 3) == (1, 6)
    with pytest.raises(ScheduleMismatchError):
        random_bireversible_automaton(random.Random(3), AlphabetSchedule.ramp(1))
    spread = embed_on_subsequence(z2z4_automaton(), AlphabetSchedule.constant(2), 2, 3)
    assert spread.fold == (1, 6)


def test_check_depths_run_from_one_to_the_level_budget():
    z = z2z4_automaton()
    rule = Automaton(AlphabetSchedule.constant(2), 2, lambda i: ODD)
    for machine in (z, rule):
        for depth in (-1, 0, MAX_LEVEL + 1):
            with pytest.raises(ValueError):
                machine.bireversibility(depth)
    assert rule.bireversibility(1).checked_up_to == 1
    assert rule.bireversibility(MAX_LEVEL).checked_up_to == MAX_LEVEL


def test_explicit_tables_are_read_level_by_level_from_one_tuple():
    schedule = AlphabetSchedule.periodic((2, 2), prefix=(2,))
    prefix, period = (EVEN,), (ODD, EVEN, EVEN)
    machine = Automaton.from_periodic_tables(schedule, prefix, period)
    assert machine.fold == (1, 6)
    assert machine.periodic_tables == ((EVEN,), (ODD, EVEN, EVEN, ODD, EVEN, EVEN))
    for level in range(1, 40):
        expected = EVEN if level == 1 else period[(level - 2) % 3]
        assert machine.table_at(level) is expected
    # Machines carry no per-instance dict, and share their default names.
    other = Automaton.from_periodic_tables(schedule, (), (ODD,))
    assert not hasattr(machine, "__dict__")
    assert machine.state_names is other.state_names == ("a", "b")


def _random_fold(rng):
    """A constant or periodic schedule with 0-2 prefix tables and 1-3
    period tables that line up with it: the 12 binary types, or random
    admissible levels of sizes 2-4."""
    p, m = rng.randrange(3), rng.randrange(1, 4)
    binary = rng.random() < 0.5
    if binary:
        # Every size is 2, so the size block and the schedule prefix may
        # have any length, and the fold may grow past (p, m).
        types = admissible_binary_level_types()
        block, prefix_sizes = (2,) * rng.randint(1, 3), (2,) * rng.randrange(4)
    else:
        # The size block's length divides m and the schedule prefix is no
        # longer than p, so each period table meets one size.
        length = rng.choice([k for k in (1, 2, 3) if m % k == 0])
        block = tuple(rng.randint(2, 4) for _ in range(length))
        prefix_sizes = tuple(rng.randint(2, 4) for _ in range(rng.randrange(p + 1)))
    if len(block) == 1 and rng.random() < 0.5:
        schedule = AlphabetSchedule.constant(block[0], prefix_sizes)
    else:
        schedule = AlphabetSchedule.periodic(block, prefix_sizes)
    tables = [
        rng.choice(types) if binary else random_admissible_level(rng, schedule.size_at(i))
        for i in range(1, p + m + 1)
    ]
    return schedule, tuple(tables[:p]), tuple(tables[p:])


def test_explicit_tables_and_a_rule_over_them_make_the_same_machine():
    rng = random.Random(19)
    for _ in range(240):
        schedule, prefix, period = _random_fold(rng)
        p, m = len(prefix), len(period)

        def rule(i):
            return prefix[i - 1] if i <= p else period[(i - p - 1) % m]

        explicit = Automaton.from_periodic_tables(schedule, prefix, period)
        sampled = Automaton(schedule, 2, rule, fold=schedule.aligned_fold(p, m))
        assert explicit.fold == sampled.fold
        (ep, eq), (sp, sq) = explicit.periodic_tables, sampled.periodic_tables
        assert len(ep + eq) == len(sp + sq) == sum(explicit.fold)
        assert all(x is y for x, y in zip(ep + eq, sp + sq))
        assert (ep, eq) == (sp, sq)
        assert explicit.state_names == sampled.state_names
        for level in range(1, 2 * sum(explicit.fold) + 1):
            assert explicit.table_at(level) is sampled.table_at(level)
        assert explicit.bireversibility() == sampled.bireversibility()


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


def test_a_machine_keeps_only_its_folds_tuple():
    dual = bellaterra_dual_automaton()
    rng = random.Random(11)
    word = tuple(rng.randrange(3) for _ in range(300_000))
    out, _ = dual.run(0, word)
    assert dual.run(0, out, inverse=True)[0] == word
    # A fold keeps levels 1 .. p + m in one tuple (entry 0 unused).
    assert len(dual._tables) - 1 <= sum(dual.fold)
    assert dual.table_at(299_999) is dual.table_at(1)

    # A table past the tuple, of a rule or of an identity tail, is made
    # for the caller and kept by nothing else.
    ramp = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    tail = z2z4_automaton().restricted(2)
    for machine, level in ((ramp, 5), (tail, 40)):
        table = machine.table_at(level)
        assert table == machine.table_at(level)
        kept = weakref.ref(table)
        del table
        gc.collect()
        assert kept() is None


def test_stepping_through_a_wide_ramp_keeps_no_tables():
    machine = cycle_transposition_automaton(AlphabetSchedule.ramp(2000))
    word = (0,) * 100
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for inverse in (False, True):
            machine.run(0, word, inverse=inverse)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        if not tracing:
            tracemalloc.stop()
    assert kept < 2_000_000


def _binary_folds(count, seed=14, types=admissible_binary_level_types()):
    """`count` seeded (prefix, period) pairs of binary level tables, by
    default the 12 admissible types, with prefix length 0-2 and period
    length 1-2."""
    rng = random.Random(seed)
    return [
        (
            tuple(rng.choice(types) for _ in range(rng.randrange(3))),
            tuple(rng.choice(types) for _ in range(1 + rng.randrange(2))),
        )
        for _ in range(count)
    ]


def test_a_folded_machine_keeps_its_tables_once():
    # About 250 B a machine; a per-machine phase dict (+220 B), a second
    # copy of the tables (+150 B) or the kept rule (+120 B) all pass 320.
    schedule = AlphabetSchedule.constant(2)
    shapes = _binary_folds(2000)
    tracing = tracemalloc.is_tracing()
    gc.collect()
    if not tracing:
        tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        machines = [Automaton.from_periodic_tables(schedule, *shape) for shape in shapes]
        gc.collect()
        used = tracemalloc.get_traced_memory()[0] - start - sys.getsizeof(machines)
    finally:
        if not tracing:
            tracemalloc.stop()
    assert used / len(machines) < 320


def _fold_cases():
    """(machine, reference table by level) for folds and the machines
    derived from them; the references never read a phase."""
    schedule = AlphabetSchedule.constant(2)
    for k, (prefix, period) in enumerate(_binary_folds(40, seed=3)):
        def ref(i, prefix=prefix, period=period):
            if i <= len(prefix):
                return prefix[i - 1]
            return period[(i - len(prefix) - 1) % len(period)]

        def cut(i, ref=ref, depth=k % 4):
            return ref(i) if i <= depth else LevelTable.identity(2, 2)

        def spread(i, ref=ref, start=1 + k % 3, step=1 + k % 2):
            if i < start or (i - start) % step:
                return LevelTable.identity(2, 2)
            return ref((i - start) // step + 1)

        base = Automaton.from_periodic_tables(schedule, prefix, period)
        yield base, ref
        yield base.shifted(1 + k % 3), lambda i, ref=ref, c=1 + k % 3: ref(i + c)
        yield base.inverse(), lambda i, ref=ref: ref(i).inverted()
        yield base.restricted(k % 4), cut
        yield embed_on_subsequence(base, schedule, 1 + k % 3, 1 + k % 2), spread
        t = period[0]
        mealy = Automaton.from_periodic_tables(schedule, (), (t,))
        trans = tuple(tuple(t.output[q][x] for q in range(2)) for x in range(2))
        out = tuple(tuple(t.transition[q][x] for q in range(2)) for x in range(2))
        yield mealy.dual(), lambda i, d=LevelTable(trans, out): d


def test_folded_tables_read_by_level_match_their_rule():
    for machine, ref in _fold_cases():
        p, m = machine.fold
        for i in range(1, 3 * (p + m) + 1):
            table = machine.table_at(i)
            assert table == ref(i)
            # Levels of one phase share its table; the identity tail's
            # tables are made fresh and compare by value only.
            phase = machine.phase(i)
            if phase:
                assert table is machine.table_at(phase)
        assert machine.periodic_tables == (
            tuple(ref(i) for i in range(1, p + 1)),
            tuple(ref(i) for i in range(p + 1, p + m + 1)),
        )


def _walk_cases():
    """Machines with every kind of table store: every builtin, explicit
    folds with and without a prefix, identity tails and bare rules."""
    yield from all_builtin_machines()
    yield from (machine for machine, _ in _fold_cases())
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4), prefix=(5,)))
    yield e2
    yield e2.restricted(3)
    yield e2.restricted(9)
    three, four = e2.table_at(2), e2.table_at(3)
    for prefix in ((), (three,), (three, four, three)):
        schedule = AlphabetSchedule.periodic((3, 4), prefix=[t.alphabet_size for t in prefix])
        yield Automaton.from_periodic_tables(schedule, prefix, (three, four))
    # A schedule prefix longer than the table prefix unrolls the block.
    yield Automaton.from_periodic_tables(
        AlphabetSchedule.periodic((4, 3), prefix=(3, 4, 3)), (), (three, four)
    )
    yield Automaton.from_periodic_tables(
        AlphabetSchedule.periodic((3, 4), prefix=(4,)), (four,), (three, four)
    )
    ramp = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    yield Automaton.from_rule(ramp.schedule, 2, ramp.table_at)
    yield Automaton.from_rule(ramp.schedule, 2, ramp.table_at, identity_from=4)
    # An identity tail past p + 1: the kept period still holds a live table.
    yield Automaton(AlphabetSchedule.constant(2), 2, lambda i: ODD, fold=(0, 2), identity_from=3)


def test_level_tables_are_the_tables_by_level():
    for machine in _walk_cases():
        p, m = machine.fold or (2, 3)
        for count in range(3 * (p + m) + 2):
            walk = list(machine.level_tables(count))
            assert walk == [machine.table_at(i) for i in range(1, count + 1)]
            if machine.fold is not None and machine.identity_from is None:
                assert all(t is machine.table_at(i) for i, t in enumerate(walk, 1))
    with pytest.raises(ValueError, match="nonnegative"):
        z2z4_automaton().level_tables(-1)


def test_an_early_identity_tail_is_walked_by_slices(monkeypatch):
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4), prefix=(5,)))
    cut = e2.restricted(3)
    expected = [cut.table_at(i) for i in range(1, 301)]
    built = []
    real = LevelTable.identity
    monkeypatch.setattr(
        LevelTable, "identity", staticmethod(lambda *a: built.append(a) or real(*a))
    )
    assert list(cut.level_tables(300)) == expected
    assert built == []


def test_a_rule_s_level_tables_ask_for_each_level_as_it_is_read():
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    calls = []

    def rule(level):
        calls.append(level)
        return inner.table_at(level)

    walk = iter(Automaton.from_rule(inner.schedule, 2, rule).level_tables(5))
    assert calls == []
    next(walk)
    next(walk)
    assert calls == [1, 2]


def test_derived_folds_do_not_keep_their_source_alive():
    derivations = (
        lambda a: a.shifted(1),
        Automaton.inverse,
        lambda a: a.restricted(2),
        lambda a: embed_on_subsequence(a, AlphabetSchedule.constant(2), 2, 2),
    )
    class Tracked(Automaton):
        __slots__ = ("__weakref__",)

    for derive in derivations:
        source = Tracked(
            AlphabetSchedule.constant(2), 2, (None, ODD, EVEN).__getitem__, fold=(0, 2)
        )
        alive = weakref.ref(source)
        derived = derive(source)
        del source
        gc.collect()
        assert alive() is None
        assert derived.fold is not None and derived.table_at(40) is not None


def test_restricting_a_ramp_rule_checks_every_kept_level():
    collapse = LevelTable(((0,) * 11, (0,) * 11), (tuple(range(11)),) * 2)

    def rule(i):
        return collapse if i == 10 else LevelTable.identity(2, i + 1)

    machine = Automaton.from_rule(AlphabetSchedule.ramp(1), 2, rule)
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
        image = b.run("a", word)[0]
        assert image[0::2] == word[0::2]
        assert image[1::2] == inner.run("a", word[1::2])[0]


def test_embedding_checks_the_schedule_match():
    inner = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    with pytest.raises(ScheduleMismatchError):
        embed_on_subsequence(inner, AlphabetSchedule.constant(2), 2, 2)


def test_a_ramp_embedding_that_mismatches_past_the_eager_window_is_refused_by_its_table():
    # Inner level j has j + 1 letters, and so has host level j + 1 up to
    # level 65; past the prefix the host ramp runs one letter ahead.
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    host = AlphabetSchedule.ramp(1, prefix=[1] + [j + 1 for j in range(1, 65)])
    with pytest.raises(ScheduleMismatchError) as err:
        embed_on_subsequence(inner, host, 2)
    assert str(err.value) == "inner level 65 has size 66 but host level 66 has size 67"


def test_an_embedding_is_checked_at_two_levels_past_both_prefixes():
    # Host sizes 2, 2, 3, 4, ...: the host ramp meets the binary inner
    # schedule at level 2, its first level, and leaves it at level 3.
    with pytest.raises(ScheduleMismatchError, match="inner level 3 has size 2 but host level 3"):
        embed_on_subsequence(z2z4_automaton(), AlphabetSchedule.ramp(0, prefix=[2]))


def test_a_ramp_embedding_that_matches_at_every_level_is_accepted():
    # Host level j + 1 has j + 1 letters past its one-letter first level.
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    spread = embed_on_subsequence(inner, AlphabetSchedule.ramp(0, prefix=[1]), 2)
    assert spread.table_at(1).is_identity()
    assert spread.table_at(101) == inner.table_at(100)


def test_explicit_tables_and_a_rule_are_refused_with_one_message():
    binary, two_three = AlphabetSchedule.constant(2), AlphabetSchedule.periodic((2, 3))
    cases = [
        # (schedule, table prefix, table block, level of the bad table)
        (binary, (LevelTable.identity(3, 2),), (LevelTable.identity(2, 2),), 1),
        (binary, (), (LevelTable.identity(2, 2), LevelTable.identity(3, 2)), 2),
        (two_three, (), (LevelTable.identity(2, 2),), 2),
        (two_three, (LevelTable.identity(2, 3),), (LevelTable.identity(2, 2),), 1),
    ]
    for schedule, prefix, period, level in cases:
        with pytest.raises(ScheduleMismatchError) as explicit:
            Automaton.from_periodic_tables(schedule, prefix, period)
        tables = prefix + period
        rule = Automaton.from_rule(schedule, 2, lambda i: tables[(i - 1) % len(tables)])
        with pytest.raises(ScheduleMismatchError) as ruled:
            rule.table_at(level)
        assert str(explicit.value) == str(ruled.value)
        assert str(ruled.value).startswith(f"table at level {level} has ")
