"""Group words, equality decisions, level groups, orbits, torsion."""

import random

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
    NotTwoStateError,
    OrderCapExceededError,
    UnboundedScheduleError,
    apply_word,
    bellaterra_automaton,
    bellaterra_dual_automaton,
    crt_solve,
    cycle_transposition_automaton,
    decide_equal,
    element_order,
    is_level_transitive_at,
    labeling_twist,
    lamplighter_automaton,
    letter_partition,
    level_group,
    orbit_at_level,
    NonCoprimeModuliError,
    ratio_power_image,
    reduced_words,
    relation_search,
    step_section,
    torsion_exponent_bound,
    word_order_automaton,
    word_order_perm_a,
    z2z4_automaton,
    z4_automaton,
)
from tvautomata import perms
from tvautomata.engine import MAX_LEVEL, MAX_WORD_FACTORS, _c_power_image

from test_core import catalog

A = GroupWord.generator(0)
B = GroupWord.generator(1)
E = GroupWord.identity()


# -- words ------------------------------------------------------------


def test_words_reduce_on_composition():
    assert (A * A.inverse()) == E
    assert (A * B * B.inverse()).factors == A.factors
    assert GroupWord.from_factors([(0, 1), (0, -1), (1, 1)]).factors == ((1, 1),)
    assert (A**3).factors == ((0, 1),) * 3
    assert (A**-2) == A.inverse() * A.inverse()
    assert A**0 == E
    assert E.inverse() == E


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


def test_word_display_and_parse():
    names = ("a", "b")
    w = A * B.inverse() * B.inverse()
    assert w.display(names) == "a b^-1 b^-1"
    assert E.display(names) == "e"
    assert GroupWord.parse("a b^-1 b^-1", names) == w
    assert GroupWord.parse("a b^-2", names) == w
    assert GroupWord.parse("e", names) == E
    assert GroupWord.parse("a * a^-1", names) == E
    with pytest.raises(ValueError):
        GroupWord.parse("a c", names)
    # Adjacent powers are summed first, so only the summed length is capped.
    assert GroupWord.parse("a^5 a^-2 b", names) == A**3 * B
    assert GroupWord.parse(f"a^{10 * MAX_WORD_FACTORS} a^{-10 * MAX_WORD_FACTORS}", names) == E
    with pytest.raises(ValueError, match="factors"):
        GroupWord.parse(f"a^{MAX_WORD_FACTORS} b", names)


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
        y, nxt = step_section(z, ((0, 1),), 1, x)
        assert y == t.output[0][x]
        assert nxt == ((t.transition[0][x], 1),)


def test_step_section_threads_right_to_left():
    z = z2z4_automaton()
    y, nxt = step_section(z, ((0, -1), (1, 1)), 1, 1)
    assert y == 1
    assert nxt == ((1, -1), (0, 1))
    # Cross-check: the emitted letter must match the composite action on
    # one-letter words.
    for x in range(2):
        y, _ = step_section(z, ((0, -1), (1, 1)), 1, x)
        assert (y,) == apply_word(z, A.inverse() * B, (x,))


def test_step_section_on_identity_levels_keeps_the_section():
    z4 = z4_automaton()
    section = ((0, 1), (1, -1))
    y, nxt = step_section(z4, section, 3, 1)
    assert y == 1
    assert nxt == section


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
        lambda: step_section(m, ((1, -1),), 2, 0),
        lambda: apply_word(m, B.inverse(), (0, 0)),
        lambda: decide_equal(m, B.inverse()),
        lambda: level_group(m, 2),
        lambda: _c_power_image(m, 1, (0, 0)),
        lambda: ratio_power_image(m, 1, (0, 0)),
    ]
    for call in calls:
        with pytest.raises(NotInvertibleError) as err:
            call()
        assert (err.value.level, err.value.state) == (2, 1)
    assert m.run(1, (0, 0)) == ((0, 0), 1)


# -- equality ---------------------------------------------------------


def test_equality_by_closure():
    z4 = z4_automaton()
    v = decide_equal(z4, A * B)
    assert v.status == "equal"
    assert v.method == "periodic_bfs"
    assert v.is_equal

    z = z2z4_automaton()
    v = decide_equal(z, A, B)
    assert v.status == "not_equal"
    assert apply_word(z, A, v.witness) != apply_word(z, B, v.witness)
    assert v.witness == (1, 1)

    assert decide_equal(z, A * B, A * B).is_equal


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


def test_relation_scan_with_zero_length_budget():
    found = relation_search(z2z4_automaton(), 0)
    assert found.checked == 0
    assert found.equal == [] and found.unknown == []


# -- level groups -----------------------------------------------------


def brute_force_level_group(a: Automaton, level: int) -> set:
    """Closure of the leaf permutations, computed directly from state
    evaluations; independent of the interned-portrait engine."""
    leaves = list(a.schedule.words_at_level(level))
    index = {w: i for i, w in enumerate(leaves)}
    gens = set()
    for q in range(a.n_states):
        p = tuple(index[a.evaluate(q, w)] for w in leaves)
        gens.add(p)
        gens.add(perms.invert(p))
    closure = set(gens)
    frontier = list(gens)
    while frontier:
        g = frontier.pop()
        for h in gens:
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
    assert lg.leaf_permutation(gen) == (3, 2, 0, 1)
    assert lg.element_order(gen) == 4
    assert lg.max_element_order() == 4


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
        assert set(lg.element_leaf_permutations()) == brute


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
                for p in deep.element_leaf_permutations()
            }
            assert projected == set(shallow.element_leaf_permutations())


def test_level_group_order_cap():
    with pytest.raises(OrderCapExceededError) as err:
        level_group(bellaterra_dual_automaton(), 2, order_cap=10)
    assert err.value.cap == 10
    assert err.value.reached == 48
    assert str(err.value) == "group order 48 exceeds cap 10"


def test_chain_orders_match_element_enumeration():
    for a in catalog():
        for k in range(1, 9):
            try:
                lg = level_group(a, k, order_cap=5000)
            except OrderCapExceededError:
                break
            assert len(lg.element_ids) == lg.order, (a.family, k)


def test_level_orders_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    example2 = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    for a, levels in (
        (bellaterra_dual_automaton(), range(1, 9)),
        (lamplighter_automaton(), range(1, 11)),
        (example2, range(1, 4)),
    ):
        for k in levels:
            leaves = list(a.schedule.words_at_level(k))
            index = {w: i for i, w in enumerate(leaves)}
            gens = [
                combinatorics.Permutation([index[a.evaluate(q, w)] for w in leaves])
                for q in range(a.n_states)
            ]
            expected = combinatorics.PermutationGroup(gens).order()
            assert level_group(a, k, order_cap=10**13).order == expected, (a.family, k)


def test_levels_past_the_recursion_budget_are_refused():
    assert level_group(z2z4_automaton(), MAX_LEVEL).order == 8
    with pytest.raises(ValueError, match="deeper than"):
        level_group(z2z4_automaton(), MAX_LEVEL + 1)


# -- orbits -----------------------------------------------------------


def test_orbits_of_the_cycle_transposition_machine():
    wide = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    assert len(orbit_at_level(wide, 2)) == 12
    assert is_level_transitive_at(wide, 2)
    narrow = cycle_transposition_automaton(AlphabetSchedule.constant(2))
    assert len(orbit_at_level(narrow, 2)) == 2
    assert not is_level_transitive_at(narrow, 2)
    assert orbit_at_level(wide, 0) == {()}


def test_orbit_from_a_seed_word():
    wide = cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4)))
    assert orbit_at_level(wide, 2, seed=(2, 3)) == orbit_at_level(wide, 2)


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
    assert decide_equal(e2, c ** torsion_exponent_bound(e2)).is_equal


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
