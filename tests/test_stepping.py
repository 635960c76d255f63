"""Property checks of the letter-stepping kernel against a reference fold."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from tvautomata import (  # noqa: E402
    AlphabetSchedule,
    Automaton,
    GroupWord,
    LevelTable,
    NotInvertibleError,
    apply_word,
    bellaterra_automaton,
    cycle_transposition_automaton,
    decide_equal,
)
from tvautomata.core import _act  # noqa: E402
from tvautomata.engine import _c_power_image  # noqa: E402

from reference import raw_image, raw_step  # noqa: E402


@st.composite
def explicit_machines(draw, states=st.integers(2, 3)):
    """Explicit periodic machines with 2-3 states over sizes 2-4 and
    permutational output rows, so every state can be run backward."""
    n = draw(states)
    size = st.integers(2, 4)
    prefix_sizes = draw(st.lists(size, max_size=2))
    period_sizes = draw(st.lists(size, min_size=1, max_size=2))

    def table(d):
        row = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
        transition = [draw(row) for _ in range(n)]
        output = [draw(st.permutations(range(d))) for _ in range(n)]
        return LevelTable(transition, output)

    return Automaton.from_periodic_tables(
        AlphabetSchedule.periodic(period_sizes, prefix_sizes),
        [table(d) for d in prefix_sizes],
        [table(d) for d in period_sizes],
    )


ramp_machines = st.sampled_from(
    [cycle_transposition_automaton(AlphabetSchedule.ramp(offset)) for offset in (1, 2)]
)


@st.composite
def cases(draw):
    automaton = draw(st.one_of(explicit_machines(), ramp_machines))
    length = draw(st.integers(0, 7))
    sizes = automaton.schedule.sizes(length)
    letters = tuple(draw(st.integers(0, d - 1)) for d in sizes)
    # Raw factor lists, often unreduced: the kernel steps them as given.
    factors = draw(
        st.lists(
            st.tuples(st.integers(0, automaton.n_states - 1), st.sampled_from((1, -1))),
            max_size=5,
        )
    )
    return automaton, tuple(factors), letters


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(cases())
def test_kernel_agrees_with_the_reference_fold(case):
    automaton, factors, letters = case
    image = automaton.run_factors(factors, letters)[0]
    assert image == raw_image(automaton.table_at, factors, letters)
    # Every output row is a permutation, so reducing the word keeps its action.
    assert apply_word(automaton, GroupWord(factors), letters) == image

    for q in range(automaton.n_states):
        out, _ = automaton.run(q, letters)
        assert automaton.run(q, out, inverse=True)[0] == letters

    states, signs = tuple(q for q, _ in factors), tuple(s for _, s in factors)
    stepped = []
    for level, x in enumerate(letters, start=1):
        y, states = automaton.table_at(level).step(states, signs, x, level)
        stepped.append(y)
    assert tuple(stepped) == image


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(
    st.one_of(explicit_machines(states=st.just(2)), ramp_machines),
    st.integers(-40, 40),
    st.data(),
)
def test_positional_powers_of_c_match_the_expanded_word(automaton, n, data):
    # Transitions are drawn freely, so most machines are not reversible.
    length = data.draw(st.integers(0, 7))
    sizes = automaton.schedule.sizes(length)
    letters = tuple(data.draw(st.integers(0, d - 1)) for d in sizes)
    c = GroupWord.generator(0) * GroupWord.generator(1).inverse()
    tables = map(automaton.table_at, range(1, length + 1))
    assert _c_power_image(tables, n, letters) == apply_word(automaton, c**n, letters)


def _made(build):
    """What a call returns, or the type and text of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return (type(exc), str(exc))


# Raw factor lists, neither reduced nor always well signed or indexed.
_raw_factors = st.lists(
    st.tuples(st.integers(-1, 2), st.sampled_from((1, -1, 1, -1, 2))), max_size=6
)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(_raw_factors, st.one_of(st.none(), _raw_factors))
def test_the_search_word_is_the_product_with_the_inverse(g, h):
    # Three states and a fold: every drawn state is in range and every
    # search is exact.
    m = bellaterra_automaton()
    two = _made(lambda: decide_equal(m, GroupWord(g), None if h is None else GroupWord(h)))
    one = _made(lambda: decide_equal(m, GroupWord(g) * GroupWord(h or ()).inverse()))
    if isinstance(two, tuple):
        assert two == one
        return
    assert (two.status, two.method, two.explored) == (one.status, one.method, one.explored)
    if two.status == "not_equal":
        w, left, right = two.witness, GroupWord(g), GroupWord(h or ())
        assert apply_word(m, right, w) == one.witness
        assert apply_word(m, left, w) != apply_word(m, right, w)


@st.composite
def rough_machines(draw):
    """Explicit periodic machines with 2-3 states over sizes 2-3 whose
    output rows are often not permutations, so negative factors fail."""
    n = draw(st.integers(2, 3))
    size = st.integers(2, 3)
    prefix_sizes = draw(st.lists(size, max_size=3))
    period_sizes = draw(st.lists(size, min_size=1, max_size=2))

    def table(d):
        states = st.lists(st.integers(0, n - 1), min_size=d, max_size=d)
        letters = st.one_of(
            st.permutations(range(d)), st.lists(st.integers(0, d - 1), min_size=d, max_size=d)
        )
        return LevelTable([draw(states) for _ in range(n)], [draw(letters) for _ in range(n)])

    return Automaton.from_periodic_tables(
        AlphabetSchedule.periodic(period_sizes, prefix_sizes),
        [table(d) for d in prefix_sizes],
        [table(d) for d in period_sizes],
    )


def _letter_major(automaton, factors, letters):
    """The action stepped letter by letter through all factors at once,
    over raw rows: (output word, end states)."""
    states, signs = tuple(q for q, _ in factors), tuple(s for _, s in factors)
    out = []
    for level, x in enumerate(letters, start=1):
        y, states = raw_step(automaton.table_at(level), states, signs, x, level)
        out.append(y)
    return tuple(out), states


def _acted(call):
    """What an action returns, or the level, state and text of the
    NotInvertibleError it raises."""
    try:
        return call()
    except NotInvertibleError as exc:
        return ("NotInvertibleError", exc.level, exc.state, str(exc))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(rough_machines(), st.data())
def test_factor_major_action_matches_the_letter_major_reference(automaton, data):
    length = data.draw(st.integers(0, 7))
    letters = tuple(data.draw(st.integers(0, d - 1)) for d in automaton.schedule.sizes(length))
    factors = tuple(
        data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, automaton.n_states - 1), st.sampled_from((1, -1, -1))
                ),
                max_size=6,
            )
        )
    )
    expected = _acted(lambda: _letter_major(automaton, factors, letters))
    tables = [automaton.table_at(i) for i in range(1, length + 1)]
    assert _acted(lambda: _act(tables, factors, letters)) == expected
    assert _acted(lambda: automaton.run_factors(factors, letters)) == expected


# Tables over two letters.  At level 1 the states swap and both labelings
# are permutations; the period acts trivially.
_SWAP = LevelTable(((1, 1), (0, 0)), ((1, 0), (0, 1)))
_KEEP = ((0, 0), (1, 1))
_IDENTITY = LevelTable(_KEEP, ((0, 1), (0, 1)))


def _failing(*tables):
    return Automaton.from_periodic_tables(AlphabetSchedule.constant(2), tables, (_IDENTITY,))


def test_the_shallowest_failing_level_is_named():
    # a^-1 b^-1: b runs first and, in state a from level 2 on, fails at
    # level 3; a, in state b from level 2 on, fails at level 2.
    m = _failing(_SWAP, LevelTable(_KEEP, ((0, 1), (1, 1))), LevelTable(_KEEP, ((0, 0), (0, 1))))
    factors = ((0, -1), (1, -1))
    expected = ("NotInvertibleError", 2, 1, "labeling at level 2, state 1 is not a permutation")
    assert _acted(lambda: _letter_major(m, factors, (0, 0, 0))) == expected
    assert _acted(lambda: m.run_factors(factors, (0, 0, 0))) == expected
    assert _acted(lambda: apply_word(m, GroupWord(factors), (0, 0, 0))) == expected
    # Up to level 2 only b's failure is past the word.
    assert _acted(lambda: m.run_factors(factors[1:], (0, 0))) == ((0, 0), (0,))


def test_the_rightmost_factor_failing_at_a_level_is_named():
    # Both labelings fail at level 2, where b's factor is in state a.
    m = _failing(_SWAP, LevelTable(_KEEP, ((0, 0), (1, 1))))
    factors = ((0, -1), (1, -1))
    expected = ("NotInvertibleError", 2, 0, "labeling at level 2, state 0 is not a permutation")
    assert _acted(lambda: _letter_major(m, factors, (1, 1))) == expected
    assert _acted(lambda: m.run_factors(factors, (1, 1))) == expected
    assert _acted(lambda: m.run_factors(factors[::-1], (1, 1)))[:3] == expected[:2] + (1,)
