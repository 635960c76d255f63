"""The named constructions and their oracles."""

import itertools
import random
import sys
import threading

import pytest

from tvautomata import (
    FAMILIES,
    AlphabetSchedule,
    Automaton,
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
    embed_on_subsequence,
    lamplighter_automaton,
    level_group,
    random_admissible_level,
    random_bir22_automaton,
    random_bireversible_automaton,
    reduced_words,
    relation_search,
    steer_to_word,
    subsequence_embedding_automaton,
    sym_diagonal_automaton,
    two_state_level,
    word_order_automaton,
    word_order_perm_a,
    word_order_perm_b,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import families, perms
from tvautomata.errors import AutomatonError, NotMealyError
from tvautomata.schedule import MAX_ALPHABET_SIZE

from reference import (
    shortlex_words,
    tables_equal,
    word_order_apply,
    word_order_perm_a_inverse,
    word_order_perm_b_inverse,
)


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
    words = shortlex_words(12)
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
    for w in shortlex_words(500):
        assert not any(
            w[i][0] == w[i + 1][0] and w[i][1] == -w[i + 1][1]
            for i in range(len(w) - 1)
        )


def test_nth_word_sends_one_to_n():
    words = shortlex_words(300)
    for n, word in enumerate(words, start=1):
        assert word_order_apply(word, 1) == n


# -- diagonal machine realizing the word-order permutations -----------


def test_word_order_automaton_is_diagonal_and_bireversible():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    for level in range(1, 61):
        t = a.table_at(level)
        assert t.is_diagonal()
        assert t.is_invertible()
    assert a.bireversibility().holds


def test_word_order_automaton_small_labelings():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    # Level of size 6, 0-based letters: 1 -> a(1) = 2 and 2 -> a(2) = 6
    # shift down to 0 -> 1 and 1 -> 5.
    sigma = a.table_at(6).output[0]
    assert sigma[0] == 1
    assert sigma[1] == 5
    assert perms.is_permutation(sigma)


def test_word_order_automaton_fills_out_of_range_images_in_order():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    for level in (3, 5, 8, 13):
        for state, forward in ((0, word_order_perm_a), (1, word_order_perm_b)):
            sigma = a.table_at(level).output[state]
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
        assert a.table_at(level).is_diagonal()


def test_sym_diagonal_arithmetic_tail():
    a = sym_diagonal_automaton([2, 3], start=4)
    assert a.schedule.sizes(5) == (2, 3, 4, 5, 6)
    assert a.table_at(4).output[0] == perms.rotation(5)
    with pytest.raises(ValueError):
        sym_diagonal_automaton([2, 3], start=2)
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
        assert decide_equal(bella, g * g).status == "equal"
        assert decide_equal(bella, g).status != "equal"


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


def _drawn_from_every_type(seed, prefix_len, period_len):
    """random_bir22's tables as drawn from all 12 built types."""
    rng = random.Random(seed)
    types = admissible_binary_level_types()
    prefix = tuple(rng.choice(types) for _ in range(prefix_len))
    return prefix, tuple(rng.choice(types) for _ in range(period_len))


def test_seeded_machines_draw_the_types_a_full_type_list_draws():
    for seed, prefix_len, period_len in itertools.product(range(51), range(3), (1, 2)):
        machine = random_bir22_automaton(seed, prefix_len, period_len)
        expected = _drawn_from_every_type(seed, prefix_len, period_len)
        assert machine.periodic_tables == expected, seed
        # A type drawn twice is one table object.
        drawn = sum(machine.periodic_tables, ())
        assert len({id(t) for t in drawn}) == len(set(drawn)), seed


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


def all_builtin_machines():
    return [
        z2z4_automaton(),
        z4_automaton(),
        lamplighter_automaton(),
        bellaterra_automaton(),
        bellaterra_dual_automaton(),
        word_order_automaton(AlphabetSchedule.ramp(0)),
        cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4))),
        sym_diagonal_automaton([2, 3, 4]),
        sym_diagonal_automaton(start=2),
        diagonal_automaton(AlphabetSchedule.constant(2), (), (((1, 0), (0, 1)),)),
        random_bir22_automaton(3, prefix_len=1, period_len=2),
        subsequence_embedding_automaton(
            cycle_transposition_automaton(AlphabetSchedule.constant(4)),
            AlphabetSchedule.constant(4),
            start=2,
            step=2,
        ),
    ]


def all_builtin_configs():
    return [config_of(machine) for machine in all_builtin_machines()]


def _assert_round_trip(machine, up_to):
    """`config_of` then `build_from_config` keeps the names, the family
    tag and the tables, and writes the same config again."""
    doc = config_of(machine)
    rebuilt = build_from_config(doc)
    assert rebuilt.state_names == machine.state_names, doc
    assert rebuilt.family == machine.family, doc
    assert tables_equal(rebuilt, machine, up_to), doc
    assert config_of(rebuilt) == doc


def test_every_builtin_config_round_trips():
    machines = all_builtin_machines()
    assert {m.family[0] for m in machines} == set(FAMILIES)
    for machine in machines:
        _assert_round_trip(machine, 40)


def _derived_machines(build):
    """The shift, inverse, restriction and both embeddings of a builtin
    over a constant schedule, and its dual where it has one."""
    machine = build()
    host = AlphabetSchedule.periodic((machine.schedule.size_at(1), 4))
    derived = [
        machine.shifted(1),
        machine.inverse(),
        machine.restricted(3),
        embed_on_subsequence(machine, host, 1, 2),
        subsequence_embedding_automaton(machine, host, 1, 2),
    ]
    try:
        derived.append(machine.dual())
    except NotMealyError:
        assert build is z2z4_automaton
    return derived


@pytest.mark.parametrize(
    "build", [z2z4_automaton, bellaterra_dual_automaton, bellaterra_automaton]
)
def test_derived_machines_round_trip_with_their_names(build):
    # The duals and every machine derived from bellaterra_dual are named
    # d0, d1, ...; the rest keep the default names a, b, ....
    for machine in _derived_machines(build):
        _assert_round_trip(machine, 12)
        auto = config_of(machine)["automaton"]
        if "explicit" in auto:
            # An explicit config carries names only when they are not the defaults.
            assert ("names" in auto["explicit"]) == (machine.state_names[0] == "d0")


def test_restricted_and_dual_machines_carry_their_family():
    for build, family in (
        (z4_automaton, "z4"),
        (bellaterra_dual_automaton, "bellaterra_dual"),
    ):
        a = build()
        doc = config_of(a)
        assert doc["automaton"] == {"builtin": family, "params": {}}
        rebuilt = build_from_config(doc)
        assert rebuilt.family == (family, {})
        assert tables_equal(rebuilt, a, 12)
    assert z2z4_automaton().restricted(2).family is None
    assert bellaterra_automaton().dual().family is None


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
    gi = config_of(sym_diagonal_automaton([2, 3]))
    gi["automaton"]["params"]["step"] = 1
    with pytest.raises(ValueError, match=r"unknown gi parameters: \['step'\]"):
        build_from_config(gi)


def _nested_embedding(depth):
    doc = config_of(z2z4_automaton())
    for _ in range(depth):
        doc = {
            "schedule": doc["schedule"],
            "automaton": {"builtin": "embed_subsequence", "params": {"inner": doc}},
        }
    return doc


def test_embeddings_nest_up_to_the_stated_limit():
    assert families.MAX_EMBED_NESTING == 32
    deepest = build_from_config(_nested_embedding(32))
    assert tables_equal(deepest, z2z4_automaton(), 6)
    for depth in (33, 3000):
        with pytest.raises(ValueError, match="nest deeper than the supported 32"):
            build_from_config(_nested_embedding(depth))


# -- size-keyed tables shared across machines -------------------------


def _example2_config(tail, prefix=()):
    return {
        "schedule": AlphabetSchedule.periodic(tail, prefix).to_config(),
        "automaton": {"builtin": "example2", "params": {}},
    }


def _with_fresh_tables(machine):
    """The same machine over new copies of its tables, which share no
    cached rows or search memos with any other machine."""
    prefix, period = (
        tuple(LevelTable(t.transition, t.output) for t in tables)
        for tables in machine.periodic_tables
    )
    return Automaton.from_periodic_tables(machine.schedule, prefix, period)


def _outcome(call, *args):
    try:
        return call(*args)
    except AutomatonError as e:
        return type(e), str(e)


def _answers(machine):
    """Equality verdicts, level orders to level 2 and steering outcomes,
    each asked of its own machine from `machine()`."""
    c = GroupWord.generator(0) * GroupWord.generator(1).inverse()
    # Powers of c fix the first levels, so their searches reach the
    # period and, behind a prefix, its memo.
    words = list(reduced_words(2, 3)) + [c**k for k in (4, 6, 8, 12)]
    out = []
    for g, h in [(g, None) for g in words] + list(zip(words, words[1:])):
        v = decide_equal(machine(), g, h)
        out.append((v.status, v.witness, v.explored))
    for k in (1, 2):
        out.append(_outcome(lambda: level_group(machine(), k).order))
    for target in ((2,), (0, 3), (1, 2), (2, 1, 4)):
        r = _outcome(steer_to_word, machine(), target)
        out.append(r if isinstance(r, tuple) else (r.base_word, r.n0, r.n1))
    return out


def test_shared_tables_answer_as_fresh_tables_do():
    # Tails that share their first size and differ after it, with and
    # without a prefix: the period memos of one table then serve several
    # periods.
    docs = [
        _example2_config(tail, prefix)
        for prefix in ((), (5,))
        for tail in ((3, 4), (3, 5), (4, 3), (3, 4, 5))
    ]
    for order in (docs, docs[::-1]):
        for doc in order:
            shared = _answers(lambda: build_from_config(doc))
            fresh = _answers(lambda: _with_fresh_tables(build_from_config(doc)))
            assert shared == fresh, doc["schedule"]


def test_each_size_recipe_is_bireversible_at_every_size():
    # The lemmas in the builders' docstrings, the finite argument behind
    # the exact verdict of a size-keyed builtin over a ramp, where no fold
    # or identity tail bounds the levels: every size up to 200 and the
    # widest sizes a schedule config may give.
    sizes = [*range(2, 201), *range(MAX_ALPHABET_SIZE - 2, MAX_ALPHABET_SIZE + 1)]
    for size in [1] + sizes:
        assert families._word_order_table(size).failure is None, size
    for size in sizes:
        assert families._sym_table(size).failure is None, size
        for x0, x1 in {(0, 1), (1, 0), (size - 1, 0), (0, size - 1)}:
            table = families._cycle_transposition_table(size, x0, x1)
            assert table.failure is None, (size, x0, x1)


def test_bounded_builtins_share_their_tables():
    docs = [
        config_of(word_order_automaton(AlphabetSchedule.periodic((3, 5), prefix=(4,)))),
        _example2_config((3, 4, 6, 8)),
        config_of(cycle_transposition_automaton(AlphabetSchedule.constant(5), x0=2, x1=0)),
        config_of(sym_diagonal_automaton([2, 3, 4, 3])),
        # Growing schedules: no fold, and so no shared table.
        config_of(word_order_automaton(AlphabetSchedule.ramp(0))),
        config_of(cycle_transposition_automaton(AlphabetSchedule.ramp(1))),
        config_of(sym_diagonal_automaton([3], start=3)),
    ]
    for doc in docs:
        one, two = build_from_config(doc), build_from_config(doc)
        folded = doc["schedule"]["tail"]["kind"] != "ramp"
        assert (one.fold is not None) == folded, doc
        # gi acts trivially past its list, on identity tables of its own.
        last = 4 if doc["automaton"]["builtin"] == "gi" or not folded else 2 * sum(one.fold)
        for i in range(1, last + 1):
            assert (one.table_at(i) is two.table_at(i)) == folded, (doc, i)
    a = build_from_config(_example2_config((3, 4)))
    b = build_from_config(_example2_config((4, 3), prefix=(3,)))
    assert a.table_at(1) is b.table_at(1) is b.table_at(3)


def _shared_sizes():
    return [size for _, size, *_ in families._shared_tables]


def test_the_shared_tables_stay_within_their_bound(monkeypatch):
    assert families.MAX_SHARED_LETTERS == 16 * MAX_ALPHABET_SIZE

    def charged():
        return sum(size + families._TABLE_CHARGE for size in _shared_sizes())

    # Seventeen sizes fit, so a rebuild builds no table.
    schedule = AlphabetSchedule.periodic(range(3, 20))
    first, again = (cycle_transposition_automaton(schedule) for _ in range(2))
    assert all(first.table_at(i) is again.table_at(i) for i in range(1, 18))
    assert families._shared_letters == charged() <= families.MAX_SHARED_LETTERS
    # Past the budget the least recently used tables go first.
    monkeypatch.setattr(families, "MAX_SHARED_LETTERS", 100)
    for size in range(3, 41):
        cycle_transposition_automaton(AlphabetSchedule.constant(size))
    assert _shared_sizes() == [39, 40]
    assert families._shared_letters == charged() == 99
    # A growing schedule builds its tables fresh, past the LRU.
    kept = list(families._shared_tables.items())
    for ramp in (
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)),
        word_order_automaton(AlphabetSchedule.ramp(0)),
        sym_diagonal_automaton(start=2),
    ):
        assert ramp.table_at(2) is not ramp.table_at(2)
    assert list(families._shared_tables.items()) == kept


def test_the_shared_letter_count_holds_across_threads(monkeypatch):
    # Four threads build over overlapping sizes under a budget of a few
    # tables, with frequent thread switches: a lost update would leave
    # the letter count apart from the tables it charges.
    monkeypatch.setattr(families, "MAX_SHARED_LETTERS", 60)
    errors = []

    def build(offset):
        try:
            for i in range(300):
                cycle_transposition_automaton(AlphabetSchedule.constant(3 + (i + offset) % 12))
        except Exception as exc:  # reported below, with the thread's failure
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    charged = sum(size + families._TABLE_CHARGE for size in _shared_sizes())
    assert families._shared_letters == charged <= 60


def test_fixed_builtins_share_their_tables():
    for build in (
        lamplighter_automaton,
        bellaterra_automaton,
        bellaterra_dual_automaton,
        z2z4_automaton,
    ):
        one, two = build(), build()
        assert one is not two
        pairs = zip(sum(one.periodic_tables, ()), sum(two.periodic_tables, ()))
        assert all(x is y for x, y in pairs), build
    drawn = random_bir22_automaton(5, 2, 2).periodic_tables
    again = random_bir22_automaton(5, 2, 2).periodic_tables
    assert all(x is y for x, y in zip(sum(drawn, ()), sum(again, ())))
    # The type list hands out copies, which share no memos.
    types = admissible_binary_level_types()
    assert types == families._binary_level_types()
    assert not set(map(id, types)) & set(map(id, families._binary_level_types()))
