"""Property check of the equality search against a plain breadth-first
search over raw table rows.

Machines share level table objects, so one machine's search reads the
rows another machine's closure stored on those tables.  Scans, order
searches and classifications run many searches on one machine's search
context; they are checked against one `decide_equal` call per query.
"""

from collections import deque

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from tvautomata import (  # noqa: E402
    AlphabetSchedule,
    Automaton,
    AutomatonError,
    Budget,
    GroupKind,
    GroupWord,
    LevelTable,
    NotInvertibleError,
    VerificationFailedError,
    RelationSearchResult,
    admissible_binary_level_types,
    classify_two_state_binary,
    cycle_transposition_automaton,
    decide_equal,
    element_order,
    level_group,
    reduced_words,
    relation_search,
    word_order_automaton,
    z2z4_automaton,
)
from tvautomata import engine  # noqa: E402

from reference import raw_step  # noqa: E402


def _reference_image(automaton, word, letters):
    states, signs = [q for q, _ in word.factors], [s for _, s in word.factors]
    out = []
    for level, x in enumerate(letters, start=1):
        y, states = raw_step(automaton.table_at(level), states, signs, x, level)
        out.append(y)
    return tuple(out)


def _reference_decide(automaton, g, h, budget):
    # One node at a time in first-in first-out order, every letter
    # stepped from the raw rows, nothing kept between calls.
    e = g if h is None else g * h.inverse()
    if not e.factors:
        return ("equal", None, "periodic_bfs", 0, None)
    signs = [s for _, s in e.factors]
    finite = automaton.has_finite_phases
    root = (tuple(q for q, _ in e.factors), automaton.phase(1))
    parents = {root: None}
    level_of = {root: 1}  # the level a node was first found at
    queue = deque([root])
    truncated = False
    while queue:
        node = queue.popleft()
        states, phase = node
        level = level_of[node]
        if phase == 0:
            continue
        if not finite and phase > budget.max_depth:
            truncated = True
            continue
        table = automaton.table_at(phase)
        for x in range(table.alphabet_size):
            y, new_states = raw_step(table, states, signs, x, level)
            if y != x:
                path, at = [x], node
                while parents[at] is not None:
                    at, letter = parents[at]
                    path.append(letter)
                witness = tuple(reversed(path))
                if h is not None:
                    witness = _reference_image(automaton, h.inverse(), witness)
                    left = _reference_image(automaton, g, witness)
                    assert left != _reference_image(automaton, h, witness)
                method = "periodic_bfs" if finite else "depth_bounded"
                return ("not_equal", witness, method, len(parents), None)
            key = (new_states, automaton.phase(phase + 1))
            if key not in parents:
                parents[key] = (node, x)
                level_of[key] = level + 1
                if len(parents) > budget.max_states:
                    return ("BudgetExceededError", budget.max_states)
                queue.append(key)
    if truncated:
        return ("unknown", None, "depth_bounded", len(parents), budget.max_depth)
    return ("equal", None, "periodic_bfs", len(parents), None)


def _outcome(automaton, g, h, budget):
    try:
        v = decide_equal(automaton, g, h, budget=budget)
    except NotInvertibleError as exc:
        return ("NotInvertibleError", exc.level, exc.state)
    except AutomatonError as exc:
        return (type(exc).__name__, getattr(exc, "limit", None))
    return (v.status, v.witness, v.method, v.explored, v.exhausted_depth)


def _expected(automaton, g, h, budget):
    try:
        return _reference_decide(automaton, g, h, budget)
    except NotInvertibleError as exc:
        return ("NotInvertibleError", exc.level, exc.state)


_BINARY_TYPES = admissible_binary_level_types()


@st.composite
def shared_table_machines(draw):
    """Two or three explicit folded machines over sizes 2-3 whose level
    tables come from one pool, so they share table objects.  About one
    output row in six is not a permutation.  Two-state binary tables are
    often bi-reversible ones, whose groups are abelian, so that many
    queries close "equal" and store rows.  A machine often repeats an
    earlier machine's period behind its own prefix, some prefix levels
    fix every letter and keep every state, and about one machine in four
    is restricted to its first 0-3 levels: a fold plus an identity tail."""
    n = draw(st.sampled_from((1, 2, 2, 3)))
    pools = {}

    def table(d):
        pool = pools.setdefault(d, [])
        if pool and draw(st.booleans()):
            return pool[draw(st.integers(0, len(pool) - 1))]
        if n == 2 and d == 2 and draw(st.booleans()):
            # A fresh object, so no rows carry over between examples.
            kind = draw(st.sampled_from(_BINARY_TYPES))
            t = LevelTable(kind.transition, kind.output)
            pool.append(t)
            return t
        def output_row():
            if draw(st.integers(0, 5)) == 0:
                return draw(st.lists(st.integers(0, d - 1), min_size=d, max_size=d))
            return draw(st.permutations(range(d)))

        row = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
        t = LevelTable([draw(row) for _ in range(n)], [output_row() for _ in range(n)])
        pool.append(t)
        return t

    size = st.integers(2, 3)
    machines, periods = [], []
    for _ in range(draw(st.integers(2, 3))):
        prefix = draw(st.lists(size, max_size=2))
        if periods and draw(st.booleans()):
            # An earlier machine's period behind this prefix, so that
            # searches recall what the earlier machine's searches kept.
            period, period_tables = draw(st.sampled_from(periods))
        else:
            period = draw(st.lists(size, min_size=1, max_size=2))
            period_tables = [table(d) for d in period]
            periods.append((period, period_tables))
        # A prefix level that fixes every letter and keeps every state
        # hands the period the query's own states, so that queries that
        # differ only in signs meet at the same period entry.
        prefix_tables = [
            LevelTable.identity(n, d) if draw(st.integers(0, 2)) == 0 else table(d)
            for d in prefix
        ]
        machine = Automaton.from_periodic_tables(
            AlphabetSchedule.periodic(period, prefix), prefix_tables, period_tables
        )
        if draw(st.integers(0, 3)) == 0:
            machine = machine.restricted(draw(st.integers(0, 3)))
        machines.append(machine)
    return machines


def _words(n_states, max_size):
    factor = st.tuples(st.integers(0, n_states - 1), st.sampled_from((1, -1)))
    return st.lists(factor, max_size=max_size).map(GroupWord)


_RAMP_MACHINES = [
    word_order_automaton(AlphabetSchedule.ramp(1)),
    cycle_transposition_automaton(AlphabetSchedule.ramp(1)),
]


_a, _b = GroupWord.generator(0), GroupWord.generator(1)
# The queries `classify_two_state_binary` asks, written as pairs g, h; it
# asks each as the one word g h^-1, which runs the same search.
_CLASSIFY_QUERIES = [
    (_a * _b, _b * _a),
    (_a * _a, _b * _b),
    (_a**4, None),
    (_a, None),
    (_a * _a, None),
    (_a.inverse() * _b, None),
    (_a.inverse() * _b, _a),
    (_a.inverse() * _b, _a * _a),
]


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(shared_table_machines(), st.data())
def test_search_on_shared_tables_matches_the_reference(machines, data):
    n = machines[0].n_states
    budget = data.draw(
        st.sampled_from((Budget(), Budget(), Budget(), Budget(max_states=12)))
    )
    pair = st.tuples(_words(n, 6), st.one_of(st.none(), _words(n, 4)))
    queries = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(machines) - 1), pair),
            min_size=4,
            max_size=12,
        )
    )
    if n == 2:
        # The classification queries, on every machine, close "equal" on
        # bi-reversible tables with mixed signs over shared states.
        queries = [(i, q) for i in range(len(machines)) for q in _CLASSIFY_QUERIES] + queries
    # Every query runs twice, so the second run reads what the first stored.
    for i, (g, h) in queries + queries:
        m = machines[i]
        assert _outcome(m, g, h, budget) == _expected(m, g, h, budget)


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(
    st.sampled_from(_RAMP_MACHINES),
    _words(2, 6),
    st.one_of(st.none(), _words(2, 3)),
    st.integers(1, 6),
)
def test_depth_bounded_search_matches_the_reference(machine, g, h, depth):
    budget = Budget(max_depth=depth)
    assert _outcome(machine, g, h, budget) == _expected(machine, g, h, budget)
    tables = [machine.table_at(i) for i in range(1, depth + 2)]
    assert not any(t.__dict__.get("proven_rows") for t in tables)


def test_a_two_word_witness_is_moved_by_the_whole_of_h_inverse_first():
    # The test word g h^-1 reduces to b, which moves letter 0 at level 1.
    # h^-1 = a b^-1 moves that witness whole before g and h read it, and
    # it fails at level 2, where b^-1 has become a^-1; g's own a^-1 would
    # fail at level 1.
    m = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (LevelTable([[0, 0], [0, 0]], [[0, 0], [0, 1]]),)
    )
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    g, h = b * b * a.inverse(), b * a.inverse()
    expected = ("NotInvertibleError", 2, 0)
    assert _outcome(m, g, h, Budget()) == _expected(m, g, h, Budget()) == expected


def test_only_closures_that_end_equal_store_rows(monkeypatch):
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    # a flips every letter and b fixes it, level after level.
    flip = LevelTable([[0, 0], [1, 1]], [[1, 0], [0, 1]])
    m = Automaton.from_periodic_tables(AlphabetSchedule.constant(2), (), (flip,))
    assert decide_equal(m, a, b).status == "not_equal"
    assert decide_equal(m, a * b).status == "not_equal"
    assert flip.proven_rows == {}
    assert decide_equal(m, a * b, b * a).status == "equal"
    assert set(flip.proven_rows) == {(1, 1, -1, -1)}

    # A machine sharing the table reads those rows instead of stepping.
    stepped = []
    step_row = LevelTable.step_row

    def counting_step_row(table, *args):
        stepped.append(table)
        return step_row(table, *args)

    monkeypatch.setattr(LevelTable, "step_row", counting_step_row)
    prefix = LevelTable.identity(2, 2)
    shared = Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (prefix,), (flip,)
    )
    assert decide_equal(shared, a * b, b * a).status == "equal"
    assert stepped and flip not in stepped
    assert set(prefix.proven_rows) == {(1, 1, -1, -1)}


def _binary_fold(prefix, period):
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(2), prefix, period)


def _counting_step_row(monkeypatch):
    stepped = []
    step_row = LevelTable.step_row

    def counting(table, *args):
        stepped.append(table)
        return step_row(table, *args)

    monkeypatch.setattr(LevelTable, "step_row", counting)
    return stepped


def test_a_shared_period_is_searched_once(monkeypatch):
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    types = admissible_binary_level_types()
    period = [types[5], types[8]]
    first = _binary_fold([types[1]], period)
    queries = [(a * b, b * a), (a, None)]
    outcomes = [_outcome(first, g, h, Budget()) for g, h in queries]
    assert [o[0] for o in outcomes] == ["equal", "not_equal"]
    assert len(types[5].period_closures) == 2
    # Without its rows, the period could only be read from the memo.
    types[5].proven_rows.clear()
    types[8].proven_rows.clear()

    stepped = _counting_step_row(monkeypatch)
    second = _binary_fold([types[0], types[1]], period)
    again = [_outcome(second, g, h, Budget()) for g, h in queries]
    assert again == [_expected(second, g, h, Budget()) for g, h in queries]
    assert stepped and not set(map(id, stepped)) & set(map(id, period))
    # One more prefix level that fixes a and keeps its states: one more
    # node and one more letter in front of the recalled mismatch.
    assert again[1][3] == outcomes[1][3] + 1
    assert again[1][1] == (0,) + outcomes[1][1]


def test_a_recalled_node_count_still_meets_the_budget(monkeypatch):
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    types = admissible_binary_level_types()
    period = [types[4], types[9]]
    assert decide_equal(_binary_fold([types[1]], period), a * b, b * a).explored == 9
    ((stored,),) = types[4].period_closures.values()
    assert stored == 7

    stepped = _counting_step_row(monkeypatch)
    second = _binary_fold([types[0], types[1]], period)
    tight, short = Budget(max_states=10), Budget(max_states=9)
    assert _outcome(second, a * b, b * a, tight) == ("equal", None, "periodic_bfs", 10, None)
    assert _outcome(second, a * b, b * a, short) == ("BudgetExceededError", 9)
    assert _expected(second, a * b, b * a, short) == ("BudgetExceededError", 9)
    assert not set(map(id, stepped)) & set(map(id, period))


def _false_mismatch(monkeypatch):
    # Every node claims that letter 0 comes back moved.
    monkeypatch.setattr(LevelTable, "step_row", lambda table, *args: ((), 0))


@pytest.mark.parametrize("two_words", [False, True])
def test_a_false_mismatch_fails_its_check(monkeypatch, two_words):
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    fixed = LevelTable.identity(2, 2)
    m = _binary_fold([fixed], [fixed])
    _false_mismatch(monkeypatch)
    with pytest.raises(VerificationFailedError):
        decide_equal(m, a, b if two_words else None)


def test_a_false_recalled_mismatch_fails_its_check():
    a = GroupWord.generator(0)
    types = admissible_binary_level_types()
    period = [types[2]]  # a moves every letter here
    assert decide_equal(_binary_fold([types[0]], period), a).witness == (0, 0)
    ((key, (count, index, letters)),) = types[2].period_closures.items()
    assert (count, index, letters) == (0, 0, (0,))
    # Recalled without its last letter, the witness stops above the
    # level where a moves.
    types[2].period_closures[key] = (count, index, ())
    with pytest.raises(VerificationFailedError):
        decide_equal(_binary_fold([types[1]], period), a)


def test_a_pair_witness_both_words_send_alike_fails_its_check(monkeypatch):
    # With the word action made the identity, g and h send the witness to
    # itself, while the search's own check of g h^-1 still passes.
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    m = z2z4_automaton()
    assert decide_equal(m, a, b).status == "not_equal"
    monkeypatch.setattr(engine, "_act", lambda tables, factors, word: (tuple(word), ()))
    with pytest.raises(VerificationFailedError, match="mismatch witness failed its check"):
        decide_equal(m, a, b)


def test_a_classification_whose_relations_fail_is_refused(monkeypatch):
    monkeypatch.setattr(
        engine, "_search", lambda *args: ("not_equal", (0,), "periodic_bfs", 1, None)
    )
    with pytest.raises(VerificationFailedError, match="defining relations failed to hold"):
        classify_two_state_binary(z2z4_automaton())


def test_recalled_outcomes_are_told_apart_by_signs_and_entering_states():
    a, b = GroupWord.generator(0), GroupWord.generator(1)
    period = [
        LevelTable([[0, 0], [0, 1]], [[1, 0], [1, 0]]),
        LevelTable([[1, 0], [0, 1]], [[1, 0], [0, 1]]),
    ]
    # Behind levels that fix every letter and keep every state, a b and
    # a b^-1 enter the period with equal states and other signs, a b and
    # b a with equal signs and other states, and a b ends apart from both.
    words = [a * b, a * b.inverse(), b * a]
    fixed = LevelTable.identity(2, 2)
    for prefix in ([fixed], [fixed, fixed]):
        m = _binary_fold(prefix, period)
        outcomes = [_outcome(m, w, None, Budget()) for w in words]
        assert outcomes == [_expected(m, w, None, Budget()) for w in words]
        assert outcomes[0] not in outcomes[1:]
    assert len(period[0].period_closures) == 3


# -- many searches on one context --------------------------------------


def _settled(call):
    """What a call returns, or the type and message of the error it raises."""
    try:
        return call()
    except AutomatonError as exc:
        return (type(exc).__name__, str(exc))


def _scan_word_by_word(machine, max_len, budget):
    result = RelationSearchResult([], [], 0)
    for word in reduced_words(machine.n_states, max_len):
        result.checked += 1
        status = decide_equal(machine, word, budget=budget).status
        if status == "equal":
            result.equal.append(word)
        elif status == "unknown":
            result.unknown.append(word)
    return result


def _order_word_by_word(machine, g, max_order, budget):
    for n in range(1, max_order + 1):
        status = decide_equal(machine, g**n, budget=budget).status
        if status != "not_equal":
            return n if status == "equal" else None
    return None


def _check_context_calls(machine, data, budget, max_len):
    assert _settled(lambda: relation_search(machine, max_len, budget=budget)) == _settled(
        lambda: _scan_word_by_word(machine, max_len, budget)
    )
    g = data.draw(_words(machine.n_states, 3))
    max_order = data.draw(st.integers(1, 8))
    assert _settled(
        lambda: element_order(machine, g, max_order=max_order, budget=budget)
    ) == _settled(lambda: _order_word_by_word(machine, g, max_order, budget))


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(shared_table_machines(), st.data())
def test_scans_and_orders_answer_as_one_query_per_word(machines, data):
    n = machines[0].n_states
    budget = data.draw(st.sampled_from((Budget(), Budget(), Budget(max_states=12))))
    max_len = data.draw(st.integers(0, 3 if n < 3 else 2))
    # The second round reads what the first stored on the shared tables.
    for machine in machines + machines:
        _check_context_calls(machine, data, budget, max_len)


@hypothesis.settings(max_examples=30, deadline=None)
@hypothesis.given(st.sampled_from(_RAMP_MACHINES), st.integers(1, 5), st.data())
def test_scans_and_orders_on_a_ramp_answer_as_one_query_per_word(machine, depth, data):
    max_len = data.draw(st.integers(0, 3))
    _check_context_calls(machine, data, Budget(max_depth=depth), max_len)


_KINDS = {
    (1, 1): GroupKind.TRIVIAL,
    (2, 2): GroupKind.Z2,
    (4, 2): GroupKind.Z2xZ2,
    (4, 4): GroupKind.Z4,
    (8, 4): GroupKind.Z2xZ4,
}


def _portrait_kind(machine):
    # The level-8 group, from portraits alone: on folds of at most two
    # prefix and two period levels it is the whole group (every one of
    # the 20736 sweep classes reaches its order by level 6).
    group = level_group(machine, 8)
    return _KINDS[group.order, group.max_element_order()]


@st.composite
def binary_machines_sharing_tables(draw):
    """Two binary two-state machines over fresh copies of the twelve
    admissible tables: the second repeats the first's period, or only
    its first period table, or neither, behind a prefix of its own.
    Both prefixes are nonempty, so both searches meet the period memo
    of their first period table."""
    types = [LevelTable(t.transition, t.output) for t in _BINARY_TYPES]
    kind = st.integers(0, len(types) - 1)
    prefix = st.lists(kind, min_size=1, max_size=2)
    shared = draw(st.sampled_from(("period", "first period table", "none")))
    if shared == "first period table":
        # Equal first period tables, other second ones.
        x, y = draw(kind), draw(kind)
        z = draw(kind.filter(lambda i: i != y))
        periods = [[x, y], [x, z]]
    else:
        periods = [draw(st.lists(kind, min_size=1, max_size=2))]
        periods.append(periods[0] if shared == "period" else draw(st.lists(kind, min_size=1, max_size=2)))
    first, second = ((draw(prefix), period) for period in periods)
    return [
        Automaton.from_periodic_tables(
            AlphabetSchedule.constant(2),
            [types[i] for i in pre],
            [types[i] for i in per],
        )
        for pre, per in (first, second)
    ]


@hypothesis.settings(max_examples=80, deadline=None)
@hypothesis.given(binary_machines_sharing_tables(), st.booleans())
def test_machines_sharing_tables_classify_as_their_portraits_in_either_order(
    machines, reverse
):
    expected = [_portrait_kind(m) for m in machines]
    order = [1, 0] if reverse else [0, 1]
    for i in order + order:
        assert classify_two_state_binary(machines[i]) is expected[i]


@pytest.mark.parametrize("reverse", [False, True])
def test_periods_sharing_only_their_first_table_keep_their_outcomes_apart(reverse):
    # Fresh tables, so that only these two machines fill the memo of
    # their common first period table; the second period tables differ.
    t = [LevelTable(k.transition, k.output) for k in _BINARY_TYPES[:2]]
    machines = [_binary_fold([t[0]], [t[0], t[0]]), _binary_fold([t[0]], [t[0], t[1]])]
    expected = [GroupKind.TRIVIAL, GroupKind.Z2]
    assert [_portrait_kind(m) for m in machines] == expected
    order = [1, 0] if reverse else [0, 1]
    assert [classify_two_state_binary(machines[i]) for i in order] == [
        expected[i] for i in order
    ]
    assert len(t[0].period_closures) > 1
