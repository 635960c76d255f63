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
    cycle_transposition_automaton,
    step_section,
)


def _reference_image(automaton, factors, word):
    # Factor-major fold over raw table rows: the rightmost factor runs
    # through the whole word before the next one starts.
    out = list(word)
    for q0, sign in reversed(factors):
        q = q0
        for i, x in enumerate(out):
            t = automaton.table_at(i + 1)
            if sign > 0:
                out[i] = t.output[q][x]
                q = t.transition[q][x]
            else:
                y = t.output[q].index(x)
                out[i] = y
                q = t.transition[q][y]
    return tuple(out)


@st.composite
def explicit_machines(draw):
    """Explicit periodic machines with 2-3 states over sizes 2-4 and
    permutational output rows, so every state can be run backward."""
    n = draw(st.integers(2, 3))
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
    factors = draw(
        st.lists(
            st.tuples(st.integers(0, automaton.n_states - 1), st.sampled_from((1, -1))),
            max_size=5,
        )
    )
    return automaton, GroupWord(tuple(factors)), letters


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(cases())
def test_kernel_agrees_with_the_reference_fold(case):
    automaton, word, letters = case
    image = apply_word(automaton, word, letters)
    assert image == _reference_image(automaton, word.factors, letters)

    for q in range(automaton.n_states):
        out, _ = automaton.run(q, letters)
        assert automaton.run(q, out, inverse=True)[0] == letters

    section, stepped = word.factors, []
    for level, x in enumerate(letters, start=1):
        y, section = step_section(automaton, section, level, x)
        stepped.append(y)
    assert tuple(stepped) == image
