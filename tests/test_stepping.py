"""Property checks of the letter-stepping kernel against a reference fold."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from tvautomata import (  # noqa: E402
    AlphabetSchedule,
    Automaton,
    GroupWord,
    LevelTable,
    apply_word,
    bellaterra_automaton,
    cycle_transposition_automaton,
    decide_equal,
)
from tvautomata.engine import _c_power_image  # noqa: E402

from reference import raw_image  # noqa: E402


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
