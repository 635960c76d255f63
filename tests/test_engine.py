"""Group words, equality decisions, level groups, orbits, torsion."""

import itertools
import random
import time

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    Budget,
    BudgetExceededError,
    GroupWord,
    LevelTable,
    NotBiReversibleError,
    NotInvertibleError,
    OrbitTooLargeError,
    NotTwoStateError,
    OrderCapExceededError,
    RelationScanTooLargeError,
    UnboundedScheduleError,
    VerificationFailedError,
    apply_word,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    crt_solve,
    cycle_transposition_automaton,
    decide_equal,
    element_order,
    labeling_twist,
    lamplighter_automaton,
    letter_partition,
    level_group,
    level_groups,
    orbit_at_level,
    NonCoprimeModuliError,
    admissible_binary_level_types,
    random_admissible_level,
    random_bir22_automaton,
    ratio_power_image,
    reduced_words,
    relation_search,
    steer_to_word,
    subsequence_embedding_automaton,
    sym_diagonal_automaton,
    torsion_exponent_bound,
    word_order_automaton,
    word_order_perm_a,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import engine, perms
from tvautomata.core import MAX_LEVEL
from tvautomata.engine import MAX_WORD_FACTORS, _c_power_image

from reference import (
    element_leaf_permutations,
    is_bireversible_table,
    leaf_permutation,
    raw_image,
    two_state_machines,
    words_at_level,
)
from test_core import _binary_folds, catalog

A = GroupWord.generator(0)
B = GroupWord.generator(1)
E = GroupWord.identity()


# -- words ------------------------------------------------------------


def test_words_reduce_on_composition():
    assert (A * A.inverse()) == E
    assert (A * B * B.inverse()).factors == A.factors
    assert GroupWord([(0, 1), (0, -1), (1, 1)]).factors == ((1, 1),)
    assert (A**3).factors == ((0, 1),) * 3
    assert (A**-2) == A.inverse() * A.inverse()
    assert A**0 == E
    assert E.inverse() == E


def test_words_are_reduced_by_construction():
    names = ("a", "b")
    w = GroupWord(((0, 1), (0, -1)))
    assert w == E and w.length == 0 and w.display(names) == "e"
    assert GroupWord([(0, 1), (1, 1), (1, -1), (0, -1), (1, -1)]).factors == ((1, -1),)
    assert GroupWord([[1, 1], [0, -1]]) == B * A.inverse()
    assert hash(GroupWord(((0, 1), (1, 1), (1, -1)))) == hash(A)
    assert GroupWord.generator(1, -1) == B.inverse()


@pytest.mark.parametrize("factors", [((0, 0),), ((0, 2),), ((1, 1), (0, -2))])
def test_a_sign_other_than_one_or_minus_one_is_refused(factors):
    with pytest.raises(ValueError, match="sign"):
        GroupWord(factors)
    with pytest.raises(ValueError, match="sign"):
        GroupWord.generator(*factors[-1])


def test_a_negative_state_index_is_refused():
    with pytest.raises(ValueError, match="negative"):
        GroupWord(((-1, 1),))
    with pytest.raises(ValueError, match="negative"):
        GroupWord.generator(-2)


def test_equality_queries_check_state_indices():
    z = z2z4_automaton()
    # The unreduced form of the empty word explores nothing.
    assert decide_equal(z, GroupWord(((0, 1), (0, -1)))).explored == 0
    five = GroupWord(((5, 1),))
    # The test word g h^-1 is empty for (five, five), and still its
    # states are refused.
    for g, h in ((five, None), (A, five), (five, A), (five, five)):
        with pytest.raises(ValueError, match="state index 5 out of range"):
            decide_equal(z, g, h)
    with pytest.raises(ValueError, match="state index 5 out of range"):
        element_order(z, five)
    with pytest.raises(ValueError, match="state index 5 out of range"):
        apply_word(z, five, (0,))


def test_powers_equal_repeated_products():
    for w in (A * B * A.inverse(), A.inverse() * B * A * B, B * B * A.inverse()):
        for n in range(-7, 8):
            base = w if n >= 0 else w.inverse()
            product = E
            for _ in range(abs(n)):
                product = product * base
            assert w**n == product


def test_word_inverse_reverses_and_flips():
    w = A * B.inverse() * A
    assert w.inverse().factors == ((0, -1), (1, 1), (0, -1))
    assert (w * w.inverse()) == E
    assert w.length == 3


def _identity_machine(n_states, state_names=None):
    table = LevelTable.identity(n_states, 2)
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (table,), state_names=state_names
    )


def test_word_display_and_parse():
    z = z2z4_automaton()
    w = A * B.inverse() * B.inverse()
    assert w.display(z.state_names) == "a b^-1 b^-1"
    assert E.display(z.state_names) == "e"
    assert GroupWord.parse("a b^-1 b^-1", z) == w
    assert GroupWord.parse("a b^-2", z) == w
    assert GroupWord.parse("e", z) == E
    assert GroupWord.parse("a * a^-1", z) == E
    # Every name of `name_index` resolves, a machine's own names first.
    assert GroupWord.parse("q1 q2^-1", z) == A * B.inverse()
    assert GroupWord.parse("d1 b", bellaterra_dual_automaton()) == B * B
    # A state named e (or id) is that state, alone as in a product.
    for text in ("e", "e^1", "e * e e^-1"):
        assert GroupWord.parse(text, _identity_machine(5)) == GroupWord.generator(4)
    assert GroupWord.parse("id", _identity_machine(2, ("x", "id"))) == GroupWord.generator(1)
    with pytest.raises(ValueError, match="unknown state 'c'; states are a, b"):
        GroupWord.parse("a c", z)
    # Adjacent powers are summed first, so only the summed length is capped.
    assert GroupWord.parse("a^5 a^-2 b", z) == A**3 * B
    assert GroupWord.parse(f"a^{10 * MAX_WORD_FACTORS} a^{-10 * MAX_WORD_FACTORS}", z) == E
    with pytest.raises(ValueError, match="factors"):
        GroupWord.parse(f"a^{MAX_WORD_FACTORS} b", z)


def test_apply_word_is_right_to_left():
    z = z2z4_automaton()
    # b first, then a.
    assert apply_word(z, A * B, (1, 0)) == (1, 0)
    assert apply_word(z, E, (1, 0)) == (1, 0)
    assert apply_word(z, A * A.inverse(), (0, 1)) == (0, 1)


def test_apply_word_with_inverse_factors():
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    image = apply_word(e2, B.inverse(), (1, 1))
    assert image[0] == 0
    assert apply_word(e2, B, image) == (1, 1)


def test_reduced_word_enumeration_counts():
    words = list(reduced_words(2, 4))
    assert len(words) == 4 + 12 + 36 + 108
    assert len(set(words)) == len(words)
    assert all(w.factors for w in words)
    by_len = [w for w in words if w.length == 1]
    assert by_len == [A, A.inverse(), B, B.inverse()]


# -- stepping composite sections --------------------------------------


def test_step_section_single_direct_factor():
    z = z2z4_automaton()
    t = z.table_at(1)
    for x in range(2):
        y, nxt = t.step((0,), (1,), x, 1)
        assert y == t.output[0][x]
        assert nxt == (t.transition[0][x],)


def test_step_section_threads_right_to_left():
    z = z2z4_automaton()
    t = z.table_at(1)
    y, nxt = t.step((0, 1), (-1, 1), 1, 1)
    assert y == 1
    assert nxt == (1, 0)
    # Cross-check: the emitted letter must match the composite action on
    # one-letter words.
    for x in range(2):
        y, _ = t.step((0, 1), (-1, 1), x, 1)
        assert (y,) == apply_word(z, A.inverse() * B, (x,))


def test_step_section_on_identity_levels_keeps_the_section():
    z4 = z4_automaton()
    y, nxt = z4.table_at(3).step((0, 1), (1, -1), 1, 3)
    assert y == 1
    assert nxt == (0, 1)


# Level 1 is bi-reversible; from level 2 on the second state's output
# row (0, 0) is not a permutation, and state b reaches it on letter 0.
_GOOD_LEVEL = LevelTable(((0, 1), (1, 0)), ((1, 0), (0, 1)))
_BROKEN_LEVEL = LevelTable(((0, 0), (1, 1)), ((1, 0), (0, 0)))


def test_stepping_backward_through_a_noninvertible_row_names_level_and_state():
    m = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (_GOOD_LEVEL,), (_BROKEN_LEVEL,)
    )
    calls = [
        lambda: m.run(1, (0, 0), inverse=True),
        lambda: m.table_at(2).step((1,), (-1,), 0, 2),
        lambda: apply_word(m, B.inverse(), (0, 0)),
        lambda: decide_equal(m, B.inverse()),
        lambda: level_group(m, 2),
        lambda: _c_power_image(map(m.table_at, (1, 2)), 1, (0, 0)),
        lambda: ratio_power_image(m, 1, (0, 0)),
    ]
    for call in calls:
        with pytest.raises(NotInvertibleError) as err:
            call()
        assert (err.value.level, err.value.state) == (2, 1)
    assert m.run(1, (0, 0)) == ((0, 0), 1)

    # Period (ok, bad): b's output row is not a permutation on the second
    # phase, and a^-1 first reaches b there at level 4, which every call
    # names rather than the phase.
    ok = LevelTable(((0, 0), (1, 1)), ((0, 1), (0, 1)))
    bad = LevelTable(((0, 1), (1, 1)), ((0, 1), (0, 0)))
    m = Automaton.from_periodic_tables(AlphabetSchedule.constant(2), (), (ok, bad))
    calls = [
        lambda: decide_equal(m, A.inverse()),
        lambda: apply_word(m, A.inverse(), (0, 1, 0, 0)),
    ]
    for call in calls:
        with pytest.raises(NotInvertibleError) as err:
            call()
        assert (err.value.level, err.value.state) == (4, 1)
    # A level group's generators include b, which reaches the bad row
    # itself at level 2: the shallowest level reached is the one named.
    calls = [
        lambda: level_group(m, 4),
        lambda: list(level_groups(m, 4)),
        lambda: orbit_at_level(m, 4),
    ]
    for call in calls:
        with pytest.raises(NotInvertibleError) as err:
            call()
        assert (err.value.level, err.value.state) == (2, 1)


# -- equality ---------------------------------------------------------


def test_equality_by_closure():
    z4 = z4_automaton()
    v = decide_equal(z4, A * B)
    assert v.status == "equal"
    assert v.method == "periodic_bfs"

    z = z2z4_automaton()
    v = decide_equal(z, A, B)
    assert v.status == "not_equal"
    assert apply_word(z, A, v.witness) != apply_word(z, B, v.witness)
    assert v.witness == (1, 1)

    assert decide_equal(z, A * B, A * B).status == "equal"


def test_a_witness_for_words_past_the_machine_states_raises_value_error():
    # The test word a c c^-1 b^-1 reduces to a b^-1, and a c c^-1 a^-1
    # to e, so the search never reads c; it is refused before the search
    # starts, whether or not a witness is checked.
    c = GroupWord.generator(2)
    for g, h in ((A * c, B * c), (A * c, A * c)):
        with pytest.raises(ValueError, match="state index 2 out of range"):
            decide_equal(z2z4_automaton(), g, h)


def test_equality_depth_budget_on_rule_machines():
    ident = Automaton.from_rule(
        AlphabetSchedule.ramp(1), 2, lambda i: LevelTable.identity(2, i + 1)
    )
    v = decide_equal(ident, A, B)
    assert v.status == "unknown"
    assert v.method == "depth_bounded"
    assert v.exhausted_depth == 20
    v = decide_equal(ident, A, B, budget=Budget(max_depth=5))
    assert v.exhausted_depth == 5


def test_equality_witness_on_rule_machines():
    e2 = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    v = decide_equal(e2, A, B)
    assert v.status == "not_equal"
    assert v.method == "depth_bounded"
    assert apply_word(e2, A, v.witness) != apply_word(e2, B, v.witness)


def test_equality_state_budget():
    # A query that closes only after visiting more than two section
    # states must trip a two-state budget.
    with pytest.raises(BudgetExceededError):
        decide_equal(z2z4_automaton(), A**4, budget=Budget(max_states=2))


def test_element_orders():
    z = z2z4_automaton()
    assert element_order(z, A) == 4
    assert element_order(z, B) == 4
    assert element_order(z, A.inverse() * B) == 2
    assert element_order(z4_automaton(), A * B) == 1
    assert element_order(z, E) == 1
    lamp = lamplighter_automaton()
    assert element_order(lamp, A, max_order=8) is None


# -- relation scan ----------------------------------------------------


def test_relation_scan_finds_the_known_relations():
    z = z2z4_automaton()
    found = relation_search(z, 4)
    names = ("a", "b")
    words = {w.display(names) for w in found.equal}
    assert "a a b^-1 b^-1" in words
    assert "a b a^-1 b^-1" in words
    assert found.unknown == []
    assert found.checked == 4 + 12 + 36 + 108


def test_relation_scan_on_a_free_machine_is_empty():
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    found = relation_search(e2, 3)
    assert found.equal == []
    assert found.unknown == []


def test_a_relation_scan_reads_each_level_of_a_rule_once():
    # The mismatch witness is checked on the tables the search read, so
    # a rule is not asked for a level again even though the machine
    # keeps none of its tables.
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(1))
    calls = []

    def rule(level):
        calls.append(level)
        return inner.table_at(level)

    m = Automaton.from_rule(inner.schedule, 2, rule)
    found = relation_search(m, 4, budget=Budget(max_depth=10))
    assert found.equal == []
    assert calls and len(calls) == len(set(calls)) and max(calls) <= 10


def test_relation_scan_with_zero_length_budget():
    found = relation_search(z2z4_automaton(), 0)
    assert found.checked == 0
    assert found.equal == [] and found.unknown == []
    with pytest.raises(ValueError, match="word length"):
        relation_search(z2z4_automaton(), -1)


@pytest.mark.parametrize("n_states", [1, 2, 3])
def test_the_reduced_word_count_is_the_enumeration_s_length(n_states):
    symbols = [(q, s) for q in range(n_states) for s in (1, -1)]
    for max_len in range(0, 6):
        words = list(reduced_words(n_states, max_len))
        assert engine._reduced_word_totals(n_states, max_len) == (
            len(words),
            sum(w.length for w in words),
        )
        assert words == sorted(
            set(words), key=lambda w: (w.length, [symbols.index(f) for f in w.factors])
        )


def test_reduced_words_longer_than_the_interpreter_stack_are_enumerated():
    # One state has two reduced words per length, a^k and a^-k.
    words = reduced_words(1, 1500)
    assert sum(w.length for w in words) == 1500 * 1501


def test_a_relation_scan_past_the_word_budget_is_refused_before_it_starts(monkeypatch):
    assert engine.MAX_RELATION_WORDS == 200_000
    assert engine._reduced_word_totals(2, 10)[0] == 118_096
    assert engine._reduced_word_totals(2, 11)[0] == 354_292
    checked = []
    monkeypatch.setattr(engine, "_search", lambda *args: checked.append(args))
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    for max_len in (11, 12, 10**18):
        with pytest.raises(RelationScanTooLargeError) as err:
            relation_search(e2, max_len)
        assert (err.value.max_len, err.value.limit) == (max_len, 200_000)
    one_state = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (LevelTable([[0, 0]], [[1, 0]]),)
    )
    with pytest.raises(RelationScanTooLargeError):
        relation_search(one_state, 100_001)
    assert checked == []


def test_a_relation_scan_past_the_factor_budget_is_refused_before_it_starts(monkeypatch):
    assert engine.MAX_RELATION_FACTORS == 2_000_000
    # Two and three states reach the word budget first: the factor budget
    # moves neither cutoff.
    assert engine._reduced_word_totals(2, 10)[1] == 1_121_932
    assert engine._reduced_word_totals(3, 7)[1] == 791_016
    assert engine._reduced_word_totals(3, 8)[0] == 585_936
    with pytest.raises(RelationScanTooLargeError) as err:
        relation_search(bellaterra_automaton(), 8)
    assert (err.value.limit, err.value.what) == (200_000, "reduced words")
    # One state has two words per length, so only its factors bound it.
    assert engine._reduced_word_totals(1, 1413)[1] == 1_997_982
    assert engine._reduced_word_totals(1, 1414)[1] == 2_000_810
    one_state = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (LevelTable([[0, 0]], [[1, 0]]),)
    )
    scanned = []
    monkeypatch.setattr(
        engine, "reduced_words", lambda n, max_len: scanned.append(max_len) or iter(())
    )
    relation_search(one_state, 1413)
    for max_len in (1414, 100_000):
        with pytest.raises(RelationScanTooLargeError) as err:
            relation_search(one_state, max_len)
        assert (err.value.max_len, err.value.limit) == (max_len, 2_000_000)
        assert str(err.value) == (
            f"relation scan up to length {max_len} has more than 2000000 factors"
        )
    assert scanned == [1413]


@pytest.mark.parametrize(
    "limits",
    [{"max_depth": 0}, {"max_depth": -2}, {"max_depth": MAX_LEVEL + 1}, {"max_states": 0}],
)
def test_a_budget_out_of_range_is_refused(limits):
    with pytest.raises(ValueError):
        Budget(**limits)


def test_a_budget_at_its_limits_answers():
    ident = Automaton.from_rule(
        AlphabetSchedule.ramp(1), 2, lambda i: LevelTable.identity(2, i + 1)
    )
    assert decide_equal(ident, A, B, budget=Budget(max_depth=1)).exhausted_depth == 1
    assert decide_equal(z2z4_automaton(), A, budget=Budget(max_states=1)).status == "not_equal"


# -- level groups -----------------------------------------------------


def brute_force_level_group(a: Automaton, level: int) -> set:
    """Closure of the leaf permutations, computed directly from state
    evaluations; independent of the interned-portrait engine."""
    leaves = list(words_at_level(a.schedule, level))
    index = {w: i for i, w in enumerate(leaves)}
    gens = set()
    for q in range(a.n_states):
        p = tuple(index[a.run(q, w)[0]] for w in leaves)
        gens.add(p)
        gens.add(perms.invert(p))
    return leaf_closure(list(gens))


def leaf_closure(generators) -> set:
    """Every product of the given permutations of one set, the identity
    included."""
    identity = tuple(range(len(generators[0])))
    closure, frontier = {identity}, [identity]
    while frontier:
        g = frontier.pop()
        for h in generators:
            c = tuple(g[h[i]] for i in range(len(h)))
            if c not in closure:
                closure.add(c)
                frontier.append(c)
    return closure


def test_level_group_of_the_order_four_machine():
    lg = level_group(z4_automaton(), 2)
    assert lg.order == 4
    assert lg.leaf_count == 4
    gen = lg.generator_ids[0]
    assert leaf_permutation(lg, gen) == (3, 2, 0, 1)
    assert lg.element_order(gen) == 4
    assert lg.max_element_order() == 4
    ctx = lg.context
    for pid in lg.element_ids:
        assert ctx.compose(pid, ctx.inverse(pid)) == 0
        assert ctx.compose(ctx.inverse(pid), pid) == 0


def test_level_groups_match_brute_force_closures():
    for a, level in (
        (z2z4_automaton(), 2),
        (z2z4_automaton(), 3),
        (z4_automaton(), 3),
        (lamplighter_automaton(), 2),
        (bellaterra_dual_automaton(), 2),
    ):
        lg = level_group(a, level)
        brute = brute_force_level_group(a, level)
        assert lg.order == len(brute)
        assert set(element_leaf_permutations(lg)) == brute


def test_level_group_of_a_trivial_restriction():
    zero = z2z4_automaton().restricted(0)
    assert level_group(zero, 3).order == 1


def test_level_group_of_the_lamplighter_head():
    assert level_group(lamplighter_automaton(), 1).order == 2


def test_truncation_maps_level_groups_onto_shallower_ones():
    for a in (z2z4_automaton(), lamplighter_automaton()):
        for k in (1, 2):
            shallow = level_group(a, k)
            deep = level_group(a, k + 1)
            block = a.schedule.size_at(k + 1)
            projected = {
                tuple(p[i * block] // block for i in range(shallow.leaf_count))
                for p in element_leaf_permutations(deep)
            }
            assert projected == set(element_leaf_permutations(shallow))


def test_level_group_order_cap():
    # The closure stops at the first orbit growth past the cap: the
    # order of bellaterra_dual's level 2 is 48, and 12 is the bound the
    # chain has reached when it passes 10.
    with pytest.raises(OrderCapExceededError) as err:
        level_group(bellaterra_dual_automaton(), 2, order_cap=10)
    assert err.value.cap == 10
    assert err.value.reached == 12
    assert str(err.value) == "group order at least 12 exceeds cap 10"


def test_a_cap_at_the_order_returns_it_and_one_below_raises_with_it():
    # 48 is passed only at the chain's last orbit point.
    assert level_group(bellaterra_dual_automaton(), 2, order_cap=48).order == 48
    with pytest.raises(OrderCapExceededError) as err:
        level_group(bellaterra_dual_automaton(), 2, order_cap=47)
    assert (err.value.cap, err.value.reached) == (47, 48)


def test_a_huge_level_group_stops_at_its_cap():
    # Level 4 takes about a second to close in full; level 6 would run
    # out of memory.
    m = cycle_transposition_automaton(AlphabetSchedule.periodic([3, 4]))
    start = time.perf_counter()
    with pytest.raises(OrderCapExceededError) as err:
        level_group(m, 6, order_cap=10**7)
    assert time.perf_counter() - start < 5
    assert err.value.reached > err.value.cap == 10**7


def test_an_element_order_past_the_group_order_fails_its_check():
    lg = level_group(z2z4_automaton(), 2)
    a = lg.generator_ids[0]
    assert lg.element_order(a) == 4
    lg.order = 1
    with pytest.raises(VerificationFailedError, match="element order exceeds group order"):
        lg.element_order(a)


def test_chain_orders_match_element_enumeration():
    for a in catalog():
        for k in range(1, 9):
            try:
                lg = level_group(a, k, order_cap=5000)
            except OrderCapExceededError:
                break
            assert len(lg.element_ids) == lg.order, (a.family, k)


def _chain_outcome(a: Automaton, level: int, cap: int):
    """A level's order, or the cap error's bound and message, from the
    stabilizer chain alone."""
    ctx = engine._Context(a)
    gens = ctx.state_portraits(level)
    try:
        return engine._chain_order(ctx, gens, cap)
    except OrderCapExceededError as err:
        return err.reached, str(err)


def test_enumerated_level_groups_match_the_chain_on_random_folds():
    # Every group here has at most 8 elements, so level_group lists it;
    # machines with the same tables are compared as leaf permutations once.
    compared = set()
    for seed, prefix_len, period_len in itertools.product(range(200), range(3), (1, 2)):
        a = random_bir22_automaton(seed, prefix_len, period_len)
        tables = (prefix_len, period_len, a.periodic_tables)
        for k, lg in enumerate(level_groups(a, 8), 1):
            assert lg.order == _chain_outcome(a, k, 10**6), (seed, prefix_len, period_len, k)
            if tables not in compared:
                gens = [leaf_permutation(lg, g) for g in lg.generator_ids]
                elements = element_leaf_permutations(lg)
                assert len(elements) == lg.order
                assert set(elements) == leaf_closure(gens), (seed, prefix_len, period_len, k)
        compared.add(tables)


def _ternary_fold(seed: int) -> Automaton:
    rng = random.Random(seed)
    period = tuple(random_admissible_level(rng, 3) for _ in range(2))
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(3), (), period)


def test_every_cap_gives_the_chains_outcome():
    # Orders 12, 18 and 24 sit on both sides of the 16-element switch,
    # as do lamplighter levels 2-4 (orders 8, 32 and 64).
    cases = [(_ternary_fold(seed), 2, order) for seed, order in ((9, 12), (5, 18), (24, 24))]
    cases += [(lamplighter_automaton(), k, order) for k, order in ((2, 8), (3, 32), (4, 64))]
    for a, level, order in cases:
        assert _chain_outcome(a, level, 10**6) == order
        for cap in range(1, order + 2):
            try:
                outcome = level_group(a, level, order_cap=cap).order
            except OrderCapExceededError as err:
                outcome = err.reached, str(err)
            assert outcome == _chain_outcome(a, level, cap), (a.family, level, cap)
            assert (outcome == order) == (cap >= order)


def _rotation_machine(size: int) -> Automaton:
    """Level groups cyclic of order `size`: state 0 rotates the letter
    and moves to state 1, which copies it."""
    rotate = tuple((x + 1) % size for x in range(size))
    table = LevelTable(((1,) * size, (1,) * size), (rotate, tuple(range(size))))
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(size), (), (table,))


def test_groups_of_at_most_16_elements_are_counted_without_the_chain(monkeypatch):
    chain_orders = []

    def chain_order(ctx, gens, cap):
        chain_orders.append(chain(ctx, gens, cap))
        return chain_orders[-1]

    chain = engine._chain_order
    monkeypatch.setattr(engine, "_chain_order", chain_order)
    small = level_group(_rotation_machine(16), 2)
    assert (small.order, chain_orders) == (16, [])
    assert len(small.element_ids) == 16
    assert level_group(_rotation_machine(17), 2).order == 17
    assert chain_orders == [17]


def test_element_ids_check_the_order():
    # Level 2 of bellaterra_dual has 48 elements, past the enumeration,
    # so its order comes from the chain.
    lg = level_group(bellaterra_dual_automaton(), 2)
    assert lg.order == 48
    lg.order = 47
    with pytest.raises(VerificationFailedError) as err:
        lg.element_ids
    assert str(err.value) == "group has more than 47 elements, order says 47"
    lg.order = 49
    with pytest.raises(VerificationFailedError) as err:
        lg.element_ids
    assert str(err.value) == "group has 48 elements, order says 49"
    lg.order = 48
    assert len(lg.element_ids) == 48


def test_element_ids_refuse_a_group_past_the_element_budget():
    group = level_group(lamplighter_automaton(), 16, order_cap=10**13)
    assert group.order == 2**20 > engine.MAX_GROUP_ELEMENTS
    start = time.perf_counter()
    with pytest.raises(OrderCapExceededError) as err:
        group.element_ids
    with pytest.raises(OrderCapExceededError):
        group.max_element_order()
    assert time.perf_counter() - start < 1
    assert (err.value.cap, err.value.reached) == (engine.MAX_GROUP_ELEMENTS, 2**20)


def test_element_ids_list_a_group_exactly_at_the_budget(monkeypatch):
    # Level 2 of bellaterra_dual has 48 elements.
    monkeypatch.setattr(engine, "MAX_GROUP_ELEMENTS", 48)
    assert len(level_group(bellaterra_dual_automaton(), 2).element_ids) == 48
    monkeypatch.setattr(engine, "MAX_GROUP_ELEMENTS", 47)
    with pytest.raises(OrderCapExceededError) as err:
        level_group(bellaterra_dual_automaton(), 2).element_ids
    assert str(err.value) == "group order at least 48 exceeds cap 47"


def test_level_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    example2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    for a, levels in (
        (bellaterra_dual_automaton(), range(1, 9)),
        (lamplighter_automaton(), range(1, 11)),
        (example2, range(1, 4)),
    ):
        for k in levels:
            leaves = list(words_at_level(a.schedule, k))
            index = {w: i for i, w in enumerate(leaves)}
            gens = [
                combinatorics.Permutation([index[a.run(q, w)[0]] for w in leaves])
                for q in range(a.n_states)
            ]
            expected = combinatorics.PermutationGroup(gens).order()
            assert level_group(a, k, order_cap=10**13).order == expected, (a.family, k)


def test_levels_past_the_recursion_budget_are_refused():
    assert level_group(z2z4_automaton(), MAX_LEVEL).order == 8
    with pytest.raises(ValueError, match="deeper than"):
        level_group(z2z4_automaton(), MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="at least 1"):
        level_group(z2z4_automaton(), 0)
    # A sweep checks its depth when called, before any level is built.
    with pytest.raises(ValueError, match="deeper than"):
        level_groups(z2z4_automaton(), MAX_LEVEL + 1)
    with pytest.raises(ValueError, match="at least 1"):
        level_groups(z2z4_automaton(), 0)


@pytest.mark.parametrize("cap", [0, -1])
def test_an_order_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="order cap"):
        level_group(z2z4_automaton(), 1, order_cap=cap)
    with pytest.raises(ValueError, match="order cap"):
        level_groups(z2z4_automaton(), 1, order_cap=cap)
    assert level_group(z4_automaton(), 1, order_cap=2).order == 2


def _sweep_machines():
    """The catalog, plus identity tails of one and of growing alphabet
    sizes, an embedding and both ramp examples."""
    return catalog() + [
        z2z4_automaton().restricted(0),
        z2z4_automaton().restricted(3),
        sym_diagonal_automaton([3, 2]),
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)).restricted(2),
        subsequence_embedding_automaton(
            z2z4_automaton(), AlphabetSchedule.constant(2), start=2, step=3
        ),
        word_order_automaton(AlphabetSchedule.ramp(1)),
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)),
    ]


def test_a_sweep_gives_the_orders_of_single_levels():
    for a in _sweep_machines():
        orders = []
        for k in range(1, 9):
            try:
                orders.append(level_group(a, k, order_cap=5000).order)
            except OrderCapExceededError as exc:
                reached = exc.reached
                break
        else:
            reached = None
        swept = []
        try:
            for lg in level_groups(a, 8, order_cap=5000):
                assert lg.level == len(swept) + 1
                swept.append(lg.order)
        except OrderCapExceededError as exc:
            assert exc.reached == reached, a.family
        else:
            assert reached is None, a.family
        assert swept == orders, a.family


def test_a_sweep_to_the_level_budget_grows_its_context_linearly(monkeypatch):
    # Leaf counts come in closed form, not from every size down again.
    sizes_read = []
    size_at = AlphabetSchedule.size_at

    def counting(schedule, level):
        sizes_read.append(level)
        return size_at(schedule, level)

    monkeypatch.setattr(AlphabetSchedule, "size_at", counting)
    groups = list(level_groups(z2z4_automaton(), MAX_LEVEL))
    assert [lg.order for lg in groups] == [2, 4, 4] + [8] * (MAX_LEVEL - 3)
    assert groups[-1].leaf_count == 2**MAX_LEVEL
    assert len(sizes_read) < 10 * MAX_LEVEL
    ctx = groups[0].context
    assert all(lg.context is ctx for lg in groups)
    assert len(ctx.nodes) < 20 * MAX_LEVEL


def test_a_sweep_builds_each_level_of_a_fold_from_the_one_before(monkeypatch):
    # z2z4 folds as (0, 2): level k + 2 starts from level k's portraits,
    # so each level makes 2 * 2 state portraits, and its closure about 30
    # compositions and inverses.  Built afresh, the state portraits alone
    # take about MAX_LEVEL**2 calls.
    made = []
    mk = engine._Context.mk
    monkeypatch.setattr(
        engine._Context, "mk", lambda ctx, root, kids: made.append(root) or mk(ctx, root, kids)
    )
    assert sum(lg.order for lg in level_groups(z2z4_automaton(), MAX_LEVEL)) > 0
    assert len(made) < 40 * MAX_LEVEL


def _three_state_fold(period_transition):
    """Level 1 sends every state to state 0; the period's one table moves
    the states along `period_transition` on both letters, so some states
    are never reached."""
    flip = ((1, 0),) * 3
    first = LevelTable(((0, 0),) * 3, flip)
    period = LevelTable(tuple((q, q) for q in period_transition), ((0, 1), (1, 0), (1, 0)))
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(2), (first,), (period,))


def _invertible_binary_tables():
    perms2 = ((0, 1), (1, 0))
    pairs = tuple(itertools.product(range(2), repeat=2))
    return tuple(
        LevelTable(transition, output)
        for transition in itertools.product(pairs, repeat=2)
        for output in itertools.product(perms2, repeat=2)
    )


def test_generator_portraits_move_every_leaf_as_raw_tables_do():
    folds = _binary_folds(50) + _binary_folds(50, seed=3, types=_invertible_binary_tables())
    machines = catalog() + [
        Automaton.from_periodic_tables(AlphabetSchedule.constant(2), prefix, period)
        for prefix, period in folds
    ]
    types = admissible_binary_level_types()
    machines += [
        z2z4_automaton().restricted(3),
        Automaton.from_rule(
            AlphabetSchedule.constant(2), 2, lambda i: types[i * i % 12], identity_from=5
        ),
        Automaton.from_rule(AlphabetSchedule.constant(2), 2, lambda i: types[i * i % 12]),
        _three_state_fold((1, 2, 0)),
        _three_state_fold((0, 0, 1)),
    ]
    for a in machines:
        # As `level_groups` and `level_group` build them, with and without
        # the rows a sweep carries, but without closing groups too large
        # to list.
        sweep, carried = engine._Context(a), {}
        for k in range(1, 6):
            alone = engine._Context(a)
            words = list(words_at_level(a.schedule, k))
            index = {w: i for i, w in enumerate(words)}
            for ctx, gens in (
                (sweep, sweep.state_portraits(k, carried)),
                (alone, alone.state_portraits(k)),
            ):
                for q in range(a.n_states):
                    raw = [index[raw_image(a.table_at, ((q, 1),), w)] for w in words]
                    assert [index[ctx.image(gens[q], w)] for w in words] == raw, (a, k, q)


def test_a_level_group_names_the_shallowest_level_a_state_fails():
    # State b's labeling is not a permutation at any level, and state a
    # reaches b at level 2: every call names level 1, where b is first
    # reached.
    m = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (LevelTable(((1, 1), (1, 1)), ((0, 1), (0, 0))),)
    )
    calls = [
        lambda: level_group(m, 2),
        lambda: list(level_groups(m, 2)),
        lambda: orbit_at_level(m, 2),
        lambda: decide_equal(m, B.inverse()),
    ]
    for call in calls:
        with pytest.raises(NotInvertibleError) as err:
            call()
        assert (err.value.level, err.value.state) == (1, 1)


def test_a_state_failing_at_a_repeated_phase_names_the_level_reached():
    # Period (A, B) after one prefix level: state b is not invertible at
    # every even level, but only level 4 reaches it (level 3 sends a to b).
    prefix = LevelTable(((0, 0), (0, 0)), ((1, 0), (0, 1)))
    even = LevelTable(((0, 0), (0, 0)), ((1, 0), (0, 0)))
    odd = LevelTable(((1, 1), (1, 1)), ((1, 0), (1, 0)))
    m = Automaton.from_periodic_tables(AlphabetSchedule.constant(2), (prefix,), (even, odd))
    assert [level_group(m, k).order for k in (1, 2, 3)] == [2, 4, 4]
    with pytest.raises(NotInvertibleError) as err:
        level_group(m, 4)
    assert (err.value.level, err.value.state) == (4, 1)
    swept = []
    with pytest.raises(NotInvertibleError) as err:
        for lg in level_groups(m, 6):
            swept.append(lg.order)
    assert swept == [2, 4, 4]
    assert (err.value.level, err.value.state) == (4, 1)
    # Orbits refuse by the same rule: b fails at level 2, but no word
    # reaches it there.
    assert [len(orbit_at_level(m, k)) for k in (1, 2, 3)] == [2, 4, 4]
    with pytest.raises(NotInvertibleError) as err:
        orbit_at_level(m, 4)
    assert (err.value.level, err.value.state) == (4, 1)


def _counting_example2(offset=1):
    """Example 2 over ramp(offset) as a rule machine that logs each level
    its rule is asked for."""
    inner = cycle_transposition_automaton(AlphabetSchedule.ramp(offset))
    calls = []

    def rule(level):
        calls.append(level)
        return inner.table_at(level)

    return Automaton.from_rule(inner.schedule, 2, rule), calls


def test_level_groups_and_orbits_ask_a_rule_once_per_level():
    # A rule machine keeps no tables, so only the query context's walk
    # keeps each level's table from being built again per state and span.
    for k in (1, 2, 3):
        m, calls = _counting_example2()
        level_group(m, k, order_cap=10**9)
        assert calls == list(range(1, k + 1))
    m, calls = _counting_example2()
    assert [lg.order for lg in level_groups(m, 3, order_cap=10**9)] == [2, 36, 35831808]
    assert calls == [1, 2, 3]
    m, calls = _counting_example2()
    assert len(orbit_at_level(m, 4)) == 120
    assert calls == [1, 2, 3, 4]


# -- orbits -----------------------------------------------------------


def test_orbits_of_the_cycle_transposition_machine():
    wide = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    assert len(orbit_at_level(wide, 2)) == 12
    assert len(orbit_at_level(wide, 2)) == wide.schedule.leaf_count(2)
    narrow = cycle_transposition_automaton(AlphabetSchedule.constant(2))
    assert len(orbit_at_level(narrow, 2)) == 2
    assert len(orbit_at_level(narrow, 2)) != narrow.schedule.leaf_count(2)
    assert orbit_at_level(wide, 0) == {()}


def test_orbit_from_a_seed_word():
    wide = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    assert orbit_at_level(wide, 2, seed=(2, 3)) == orbit_at_level(wide, 2)


def test_orbits_past_the_word_budget_are_refused(monkeypatch):
    wide = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    monkeypatch.setattr(engine, "MAX_ORBIT_WORDS", 100)
    assert len(orbit_at_level(wide, 3)) == 36
    with pytest.raises(OrbitTooLargeError) as info:
        orbit_at_level(wide, 4)
    assert (info.value.level, info.value.limit, info.value.what) == (4, 100, "words")
    # The letter budget counts words seen times their length.
    monkeypatch.setattr(engine, "MAX_ORBIT_LETTERS", 100)
    assert len(orbit_at_level(wide, 2)) == 12
    with pytest.raises(OrbitTooLargeError) as info:
        orbit_at_level(wide, 3)
    assert (info.value.level, info.value.limit, info.value.what) == (3, 100, "letters")
    assert str(info.value) == "orbit at level 3 has more than 100 letters"
    # Deep intransitive orbits stay small and still answer.
    assert len(orbit_at_level(bellaterra_dual_automaton(), 16)) == 3


@pytest.mark.parametrize("level", [-3, -1, MAX_LEVEL + 1])
def test_orbit_levels_run_from_the_root_to_the_level_budget(level):
    with pytest.raises(ValueError, match="level"):
        orbit_at_level(z2z4_automaton(), level)


def test_an_orbit_at_the_level_budget_is_answered():
    assert len(orbit_at_level(z2z4_automaton(), MAX_LEVEL)) == 8


def _reference_orbit(automaton, level):
    """The orbit of the zero word through `apply_word`, moving by every
    state and its inverse.  Read over raw tables first: the shallowest
    level 1 .. `level` where a state reachable from every state at level
    1 has a labeling that is not a permutation is refused, naming the
    lowest such state."""
    reach = range(automaton.n_states)
    for i in range(1, level + 1):
        t = automaton.table_at(i)
        for q in reach:
            if sorted(t.output[q]) != list(range(t.alphabet_size)):
                raise NotInvertibleError(i, q)
        reach = sorted({r for q in reach for r in t.transition[q]})
    moves = [GroupWord.generator(q, s) for q in range(automaton.n_states) for s in (1, -1)]
    seen = {(0,) * level}
    frontier = list(seen)
    while frontier:
        images = {apply_word(automaton, g, w) for w in frontier for g in moves}
        frontier = list(images - seen)
        seen |= images
    return frozenset(seen)


def _orbit_or_error(orbit, automaton, level):
    try:
        return orbit(automaton, level)
    except NotInvertibleError as exc:
        return ("NotInvertibleError", exc.level, exc.state)


_BINARY_ROWS = list(itertools.product(range(2), repeat=2))
_ALL_BINARY_TABLES = [
    LevelTable(transition, output)
    for transition in itertools.product(_BINARY_ROWS, repeat=2)
    for output in itertools.product(_BINARY_ROWS, repeat=2)
]


def test_orbits_match_a_search_through_apply_word():
    # Seeded binary folds over all 256 two-state tables, one in four
    # restricted to its first 0-3 levels, so that an identity tail follows.
    assert len(_ALL_BINARY_TABLES) == len(set(_ALL_BINARY_TABLES)) == 256
    rng = random.Random(16)
    machines = catalog()
    for prefix, period in _binary_folds(300, seed=16, types=_ALL_BINARY_TABLES):
        m = Automaton.from_periodic_tables(AlphabetSchedule.constant(2), prefix, period)
        machines.append(m.restricted(rng.randrange(4)) if rng.randrange(4) == 0 else m)
    refused = 0
    for m in machines:
        for level in range(6):
            expected = _orbit_or_error(_reference_orbit, m, level)
            assert _orbit_or_error(orbit_at_level, m, level) == expected, (m, level)
            refused += isinstance(expected, tuple)
            if level:
                # Orbits and level groups refuse by the one rule; a cap
                # passed comes after every level's labelings are checked.
                try:
                    group = _orbit_or_error(level_group, m, level)
                except OrderCapExceededError:
                    group = None
                assert isinstance(group, tuple) == isinstance(expected, tuple), (m, level)
                assert not isinstance(group, tuple) or group == expected, (m, level)
    assert refused > 100


# -- two-state structure, twist, and torsion --------------------------


def test_letter_partition():
    z = z2z4_automaton()
    assert letter_partition(z, 1) == ((0,), (1,))
    assert letter_partition(z, 2) == ((0, 1), ())
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert letter_partition(e2, 1) == ((1, 2), (0,))


def test_letter_partition_requires_two_states():
    with pytest.raises(NotTwoStateError):
        letter_partition(bellaterra_automaton(), 1)


def test_letter_partition_requires_bireversibility():
    with pytest.raises(NotBiReversibleError):
        letter_partition(lamplighter_automaton(), 1)


def test_labeling_twist():
    e2 = cycle_transposition_automaton(AlphabetSchedule.constant(3))
    assert labeling_twist(e2, 1) == (0, 2, 1)
    z = z2z4_automaton()
    assert labeling_twist(z, 1) == (0, 1)
    assert labeling_twist(z, 2) == (1, 0)


def test_partition_and_twist_match_brute_force_on_every_small_two_state_table():
    # On a bi-reversible level both labelings send the kept letters onto
    # one set, so the twist keeps both parts; every other level is refused.
    readable = 0
    for m in two_state_machines((2, 3)):
        t = m.table_at(1)
        assert (t.failure is None) == is_bireversible_table(t)
        if t.failure is not None:
            with pytest.raises(NotBiReversibleError, match=f"level 1 fails: {t.failure}"):
                letter_partition(m, 1)
            with pytest.raises(NotBiReversibleError, match=f"level 1 fails: {t.failure}"):
                labeling_twist(m, 1)
            continue
        readable += 1
        letters = range(t.alphabet_size)
        kept = tuple(x for x in letters if (t.transition[0][x], t.transition[1][x]) == (0, 1))
        flipped = tuple(x for x in letters if (t.transition[0][x], t.transition[1][x]) == (1, 0))
        twist = tuple(t.output[0].index(t.output[1][x]) for x in letters)
        assert letter_partition(m, 1) == (kept, flipped)
        assert labeling_twist(m, 1) == twist
        assert sorted(kept + flipped) == list(letters)
        assert {t.output[0][x] for x in kept} == {t.output[1][x] for x in kept}
        assert {twist[x] for x in kept} == set(kept)
        assert {twist[x] for x in flipped} == set(flipped)
    assert readable == 12 + 144


def test_the_two_state_calculus_reads_a_level_once():
    m, calls = _counting_example2()
    for level in (1, 2, 3):
        labeling_twist(m, level)
        letter_partition(m, level)
    assert calls == [1, 1, 2, 2, 3, 3]
    # a, then c^-n, then a undone, all on the tables of levels 1 .. 3.
    m, calls = _counting_example2()
    c = A.inverse() * B
    assert ratio_power_image(m, 3, (0, 1, 2)) == apply_word(
        cycle_transposition_automaton(AlphabetSchedule.ramp(1)), c**3, (0, 1, 2)
    )
    assert calls == [1, 2, 3]


def test_steering_and_the_two_word_witness_read_each_level_once():
    # Their checks act on the tables already read, not on the rule.
    m, calls = _counting_example2(offset=2)
    res = steer_to_word(m, (2, 3))
    assert (res.n0, res.n1) == (1, 4)
    assert calls == [1, 2]
    # The word action steps its factors one by one over the tables it read.
    m, calls = _counting_example2()
    word = A * B.inverse() * A.inverse() * B * B
    assert apply_word(m, word, (0, 1, 2)) == m.run_factors(word.factors, (0, 1, 2))[0]
    assert calls == [1, 2, 3] * 2
    aba, bab = A * B * A, B * A * B
    for g, h in ((aba, bab), (aba * bab.inverse(), None)):
        m, calls = _counting_example2()
        v = decide_equal(m, g, h, budget=Budget(max_depth=10))
        assert (v.status, v.witness, calls) == ("not_equal", (1, 1) if h else (0, 0), [1, 2])


def test_ratio_powers_match_word_application():
    z = z2z4_automaton()
    assert ratio_power_image(z, 1, (0, 0)) == (0, 1)
    assert ratio_power_image(z, 0, (0, 1)) == (0, 1)
    c = A.inverse() * B
    rng = random.Random(2)
    machines = [
        z,
        cycle_transposition_automaton(AlphabetSchedule.constant(3)),
        cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4), prefix=(2,))),
    ]
    for a in machines:
        for _ in range(25):
            n = rng.randrange(-6, 7)
            depth = rng.randrange(11)
            word = tuple(
                rng.randrange(a.schedule.size_at(i)) for i in range(1, depth + 1)
            )
            assert ratio_power_image(a, n, word) == apply_word(a, c**n, word)


def test_ratio_powers_need_only_invertible_labelings():
    # The lamplighter's labelings are permutations, but it is not
    # bi-reversible.
    lamp = lamplighter_automaton()
    c = A.inverse() * B
    rng = random.Random(5)
    for n in range(-12, 13):
        for _ in range(4):
            word = tuple(rng.randrange(2) for _ in range(rng.randrange(12)))
            assert ratio_power_image(lamp, n, word) == apply_word(lamp, c**n, word)


def test_torsion_exponent_bound():
    assert torsion_exponent_bound(z2z4_automaton()) == 2
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4), prefix=(2,)))
    assert torsion_exponent_bound(e2) == 24
    narrow = cycle_transposition_automaton(AlphabetSchedule.constant(2))
    assert torsion_exponent_bound(narrow) == 2
    with pytest.raises(UnboundedScheduleError):
        torsion_exponent_bound(cycle_transposition_automaton(AlphabetSchedule.ramp(1)))
    with pytest.raises(NotTwoStateError):
        torsion_exponent_bound(bellaterra_automaton())


def test_torsion_bound_annihilates_the_ratio():
    e2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    c = A.inverse() * B
    assert decide_equal(e2, c ** torsion_exponent_bound(e2)).status == "equal"


# -- congruence solving -----------------------------------------------


def test_crt_examples():
    assert crt_solve([(0, 2), (1, 3)]) == 4
    assert crt_solve([(1, 2), (1, 3)]) == 1
    assert crt_solve([]) == 0
    assert crt_solve([(2, 5), (3, 7), (1, 2)]) == 17
    with pytest.raises(NonCoprimeModuliError):
        crt_solve([(0, 2), (1, 4)])
    with pytest.raises(ValueError):
        crt_solve([(0, 0)])


# -- free action of the diagonal word-order machine -------------------


def test_word_order_states_act_like_the_integer_permutations():
    a = word_order_automaton(AlphabetSchedule.ramp(0))
    # On a level of size 8, the first state moves each 1-based letter x
    # to a(x) whenever that image fits on the level.
    t = a.table_at(8)
    for x in range(8):
        image = word_order_perm_a(x + 1)
        if image <= 8:
            assert t.output[0][x] == image - 1
