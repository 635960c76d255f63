"""The named constructions and their oracles."""

import itertools
import random

import pytest

from tvautomata import (
    AlphabetSchedule,
    GroupWord,
    LevelTable,
    ScheduleMismatchError,
    admissible_binary_level_types,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    build_from_config,
    config_of,
    cycle_transposition_automaton,
    decide_equal,
    diagonal_automaton,
    lamplighter_automaton,
    random_admissible_level,
    random_bir22_automaton,
    random_bireversible_automaton,
    relation_search,
    shortlex_reduced_words,
    subsequence_embedding_automaton,
    sym_diagonal_automaton,
    tables_equal,
    two_state_level,
    word_order_apply,
    word_order_automaton,
    word_order_perm_a,
    word_order_perm_a_inverse,
    word_order_perm_b,
    word_order_perm_b_inverse,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import perms


# -- the two integer permutations and their word-order property -------


def test_word_order_spot_values():
    assert word_order_perm_a(1) == 2
    assert word_order_perm_b(1) == 4
    assert word_order_perm_a(2) == 6
    assert word_order_perm_a(3) == 1
    assert word_order_perm_b(2) == 12
    assert word_order_perm_b(4) == 14


def test_word_order_perms_are_injective_small_range():
    for f in (word_order_perm_a, word_order_perm_b):
        values = [f(n) for n in range(1, 10**4 + 1)]
        assert len(set(values)) == len(values)


def test_word_order_inverses():
    for n in range(1, 2000):
        assert word_order_perm_a_inverse(word_order_perm_a(n)) == n
        assert word_order_perm_b_inverse(word_order_perm_b(n)) == n
        assert word_order_perm_a(word_order_perm_a_inverse(n)) == n
        assert word_order_perm_b(word_order_perm_b_inverse(n)) == n


def test_shortlex_enumeration():
    words = shortlex_reduced_words(12)
    assert words[0] == ()
    assert words[1:5] == [
        (("a", 1),),
        (("a", -1),),
        (("b", 1),),
        (("b", -1),),
    ]
    assert words[5] == (("a", 1), ("a", 1))
    assert words[11] == (("b", 1), ("a", 1))
    # Reduced: no symbol directly followed by its inverse.
    for w in shortlex_reduced_words(500):
        assert not any(
            w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]
            for i in range(len(w) - 1)
        )


def test_nth_word_sends_one_to_n():
    words = shortlex_reduced_words(300)
    for n, word in enumerate(words, start=1):
        assert word_order_apply(word, 1) == n


# -- diagonal machine realizing the word-order permutations -----------


def test_word_order_automaton_is_diagonal_and_bireversible():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    for level in range(1, 61):
        assert a.is_diagonal_at(level)
        t = a.table_at(level)
        assert t.is_invertible()
    assert a.bireversibility().holds


def test_word_order_automaton_small_labelings():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    # Level of size 6, 0-based letters: 1 -> a(1) = 2 and 2 -> a(2) = 6
    # shift down to 0 -> 1 and 1 -> 5.
    sigma = a.labeling_at(6, 0)
    assert sigma[0] == 1
    assert sigma[1] == 5
    assert perms.is_permutation(sigma)


def test_word_order_automaton_fills_out_of_range_images_in_order():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    for level in (3, 5, 8, 13):
        for state, forward in ((0, word_order_perm_a), (1, word_order_perm_b)):
            sigma = a.labeling_at(level, state)
            in_range = {
                x: forward(x + 1) - 1
                for x in range(level)
                if forward(x + 1) <= level
            }
            for x, y in in_range.items():
                assert sigma[x] == y
            spare_sources = sorted(set(range(level)) - set(in_range))
            spare_targets = sorted(set(range(level)) - set(in_range.values()))
            for x, y in zip(spare_sources, spare_targets):
                assert sigma[x] == y


# -- the cycle-and-transposition machine ------------------------------


def test_cycle_transposition_tables():
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(4))
    t = e2.table_at(1)
    assert t.output[0] == perms.rotation(4)
    assert t.output[1] == perms.transposition(4, 0, 1)
    # Both states swap exactly on letter 0, the cycle and the swap both
    # send it to letter 1.
    assert t.transition == ((1, 0, 0, 0), (0, 1, 1, 1))


def test_cycle_transposition_inverse_swaps_on_the_partner_letter():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    inv = e2.inverse()
    for level in range(1, 41):
        t = e2.table_at(level)
        it = inv.table_at(level)
        assert it.output[0] == perms.invert(t.output[0])
        assert it.output[1] == perms.invert(t.output[1])
        for q in range(2):
            for x in range(t.alphabet_size):
                assert it.transition[q][x] == (1 - q if x == 1 else q)


def test_cycle_transposition_letter_choices():
    e2 = cycle_transposition_automaton(
        AlphabetSchedule.constant(4), x0=2, x1=0
    )
    t = e2.table_at(1)
    assert t.transition[0] == (0, 0, 1, 0)
    assert t.output[0][2] == 0
    assert t.output[1] == perms.transposition(4, 2, 0)


def test_cycle_transposition_needs_two_letters_per_level():
    with pytest.raises(ValueError):
        cycle_transposition_automaton(AlphabetSchedule.ramp(0))
    with pytest.raises(ValueError):
        cycle_transposition_automaton(AlphabetSchedule.constant(4), x0=2, x1=4)


def test_cycle_transposition_over_a_ramp_after_a_prefix():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(0, prefix=(3, 3)))
    assert e2.schedule.sizes(5) == (3, 3, 3, 4, 5)
    assert e2.table_at(3).alphabet_size == 3


# -- small diagonal families ------------------------------------------


def test_sym_diagonal_single_level():
    a = sym_diagonal_automaton([2])
    t = a.table_at(1)
    assert t.output == ((1, 0), (1, 0))
    assert t.is_diagonal()
    assert a.table_at(2).is_identity()


def test_sym_diagonal_listed_levels():
    a = sym_diagonal_automaton([2, 3])
    t = a.table_at(2)
    assert t.output[0] == perms.rotation(3)
    assert t.output[1] == perms.transposition(3, 0, 1)
    for level in range(1, 10):
        assert a.is_diagonal_at(level)


def test_sym_diagonal_arithmetic_tail():
    a = sym_diagonal_automaton([2, 3], start=4)
    assert a.schedule.sizes(5) == (2, 3, 4, 5, 6)
    assert a.table_at(4).output[0] == perms.rotation(5)
    with pytest.raises(ValueError):
        sym_diagonal_automaton([2, 3], start=2)
    with pytest.raises(ValueError):
        sym_diagonal_automaton([2], step=2)
    with pytest.raises(ValueError):
        sym_diagonal_automaton([1, 3])


def test_diagonal_builder_validates_labelings():
    with pytest.raises(ValueError):
        diagonal_automaton(AlphabetSchedule.constant(2), (), (((0, 0),),))
    with pytest.raises(ValueError):
        diagonal_automaton(AlphabetSchedule.constant(2), ((((0, 1)),),), ())


# -- fixed machines ---------------------------------------------------


def test_z2z4_and_z4_tables():
    z = z2z4_automaton()
    assert z.table_at(1).transition == ((0, 1), (1, 0))
    assert z.table_at(1).output == ((1, 0), (1, 0))
    assert z.table_at(2).transition == ((0, 0), (1, 1))
    assert z.table_at(2).output == ((1, 0), (0, 1))
    assert z.table_at(3) == z.table_at(1)

    z4 = z4_automaton()
    assert z4.table_at(1) == z.table_at(1)
    assert z4.table_at(2) == z.table_at(2)
    assert z4.table_at(3).is_identity()


def test_lamplighter_tables():
    lamp = lamplighter_automaton()
    t = lamp.mealy_table()
    for q in range(2):
        for x in range(2):
            assert t.transition[q][x] == q ^ x
            assert t.output[q][x] == q ^ x


def test_bellaterra_tables_and_involutions():
    bella = bellaterra_automaton()
    t = bella.mealy_table()
    assert t.transition == ((2, 2), (0, 1), (1, 0))
    assert t.output == ((1, 0), (0, 1), (0, 1))
    assert bella.bireversibility().holds
    for q in range(3):
        g = GroupWord.generator(q)
        assert decide_equal(bella, g * g).is_equal
        assert not decide_equal(bella, g).is_equal


def test_bellaterra_dual():
    dual = bellaterra_dual_automaton()
    assert dual.n_states == 2
    assert dual.schedule.size_at(1) == 3
    t = dual.mealy_table()
    assert t.transition == ((1, 0, 0), (0, 1, 1))
    assert t.output == ((2, 0, 1), (2, 1, 0))
    assert dual.bireversibility().holds
    assert tables_equal(dual.dual(), bellaterra_automaton(), 6)


# -- admissible binary levels and seeded random machines --------------


def test_two_state_level_builder():
    t = two_state_level((1,), (1, 0), (1, 0))
    assert t.transition == ((0, 1), (1, 0))
    assert t.output == ((1, 0), (1, 0))


def test_admissible_types_match_the_brute_force_filter():
    def bireversible_level(t: LevelTable) -> bool:
        if not (t.is_invertible() and t.is_reversible()):
            return False
        return t.inverted().is_reversible()

    admissible = set(admissible_binary_level_types())
    assert len(admissible) == 12
    rows = list(itertools.product(range(2), repeat=2))
    everything = [
        LevelTable((tr0, tr1), (out0, out1))
        for tr0 in rows
        for tr1 in rows
        for out0 in rows
        for out1 in rows
    ]
    assert len(everything) == 256
    expected = {t for t in everything if bireversible_level(t)}
    assert admissible == expected


def test_random_admissible_levels_are_admissible():
    rng = random.Random(5)
    for size in (2, 3, 4, 6):
        for _ in range(25):
            t = random_admissible_level(rng, size)
            assert t.is_invertible() and t.is_reversible()
            assert t.inverted().is_reversible()


def test_random_bireversible_automaton_over_mixed_sizes():
    rng = random.Random(9)
    schedule = AlphabetSchedule.periodic((3, 4), prefix=(2,))
    a = random_bireversible_automaton(rng, schedule, prefix_len=2, period_len=2)
    assert a.bireversibility().holds
    with pytest.raises(ScheduleMismatchError):
        random_bireversible_automaton(rng, AlphabetSchedule.ramp(1))


def test_seeded_machine_is_deterministic():
    a = random_bir22_automaton(17, prefix_len=2, period_len=2)
    b = random_bir22_automaton(17, prefix_len=2, period_len=2)
    assert tables_equal(a, b, 12)
    assert a.bireversibility().holds
    c = random_bir22_automaton(18, prefix_len=2, period_len=2)
    assert any(not tables_equal(random_bir22_automaton(s, 2, 2), a, 6) for s in (18, 19, 20))
    assert c.bireversibility().holds
    with pytest.raises(ValueError):
        random_bir22_automaton(1, period_len=0)


# -- spreading the free machine over a subsequence --------------------


def test_embedded_machine_stays_bireversible_and_relation_free():
    inner = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    host = AlphabetSchedule.periodic((4, 3, 4, 4))
    b = subsequence_embedding_automaton(inner, host, start=2, step=2)
    assert b.bireversibility().holds
    found = relation_search(b, 6)
    assert found.equal == []
    assert found.unknown == []


# -- config registry --------------------------------------------------


def all_builtin_configs():
    return [
        config_of(z2z4_automaton()),
        config_of(z4_automaton()),
        config_of(lamplighter_automaton()),
        config_of(bellaterra_automaton()),
        config_of(bellaterra_dual_automaton()),
        config_of(word_order_automaton(AlphabetSchedule.ramp(0))),
        config_of(cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))),
        config_of(sym_diagonal_automaton([2, 3, 4])),
        config_of(sym_diagonal_automaton(start=2)),
        config_of(
            diagonal_automaton(AlphabetSchedule.constant(2), (), (((1, 0), (0, 1)),))
        ),
        config_of(random_bir22_automaton(3, prefix_len=1, period_len=2)),
        config_of(
            subsequence_embedding_automaton(
                cycle_transposition_automaton(AlphabetSchedule.constant(4)),
                AlphabetSchedule.constant(4),
                start=2,
                step=2,
            )
        ),
    ]


def test_every_builtin_config_round_trips():
    for doc in all_builtin_configs():
        rebuilt = build_from_config(doc)
        again = build_from_config(config_of(rebuilt))
        assert tables_equal(rebuilt, again, 40)


def test_explicit_config_round_trip():
    a = random_bir22_automaton(4, prefix_len=1, period_len=2)
    a.family = None
    doc = config_of(a)
    assert "explicit" in doc["automaton"]
    rebuilt = build_from_config(doc)
    assert tables_equal(rebuilt, a, 12)


def test_config_rejects_unknown_and_malformed_shapes():
    good = config_of(z2z4_automaton())
    with pytest.raises(ValueError):
        build_from_config({**good, "extra": 1})
    with pytest.raises(ValueError):
        build_from_config({"schedule": good["schedule"]})
    bad_family = {
        "schedule": good["schedule"],
        "automaton": {"builtin": "no_such_family", "params": {}},
    }
    with pytest.raises(ValueError):
        build_from_config(bad_family)
    bad_params = {
        "schedule": good["schedule"],
        "automaton": {"builtin": "z2z4", "params": {"seed": 1}},
    }
    with pytest.raises(ValueError):
        build_from_config(bad_params)
