"""Reference implementations the tests compare the library against.

None of this runs in the library: the inverses of the word-order
permutations and the word action built on them, the shortlex word list
they are checked on, table-by-table machine comparison, a word's image
folded over raw table rows and one letter stepped over them, the words
of one level, level-group
elements written out as permutations of those words, every small
two-state table with bi-reversibility read off its definition, and the
sizes of each schedule config kind read off its definition.
"""

from itertools import islice, product
from typing import Callable, Iterator, Sequence

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    LevelGroup,
    LevelTable,
    NotInvertibleError,
    reduced_words,
)
from tvautomata import word_order_perm_a, word_order_perm_b


def _invert_word_order(forward: Callable[[int], int], shifts, m: int) -> int:
    """Invert a word-order permutation by checking branch candidates."""
    if m < 1:
        raise ValueError("defined on positive integers only")
    if forward(1) == m:
        return 1
    p = 1
    while p <= 4 * m:
        for shift in shifts(p):
            n = m - shift
            if n >= 2 and forward(n) == m:
                return n
        p *= 3
    raise AssertionError("word-order permutations are bijections")


def word_order_perm_a_inverse(m: int) -> int:
    return _invert_word_order(word_order_perm_a, lambda p: (4 * p, -2 * p, 3 * p), m)


def word_order_perm_b_inverse(m: int) -> int:
    return _invert_word_order(
        word_order_perm_b, lambda p: (10 * p, -((13 * p) // 3), -4 * p), m
    )


def word_order_apply(word: Sequence[tuple[str, int]], n: int) -> int:
    """Apply a word over the two permutations to n, leftmost symbol last."""
    value = n
    for name, sign in reversed(tuple(word)):
        if name == "a":
            value = word_order_perm_a(value) if sign > 0 else word_order_perm_a_inverse(value)
        elif name == "b":
            value = word_order_perm_b(value) if sign > 0 else word_order_perm_b_inverse(value)
        else:
            raise ValueError(f"unknown symbol {name!r}")
    return value


def shortlex_words(count: int) -> list[tuple[tuple[str, int], ...]]:
    """The first `count` (at least 1) freely reduced words over a, a^-1,
    b, b^-1 in shortlex order, empty word first: `reduced_words(2, ...)`
    with states 0 and 1 named a and b."""
    words = islice(reduced_words(2, count), count - 1)
    return [()] + [tuple(("ab"[q], s) for q, s in w.factors) for w in words]


def tables_equal(a: Automaton, b: Automaton, up_to: int) -> bool:
    """Same state count and identical tables on levels 1 .. up_to."""
    if a.n_states != b.n_states:
        return False
    return all(a.table_at(i) == b.table_at(i) for i in range(1, up_to + 1))


def raw_image(
    table_at: Callable[[int], LevelTable],
    factors: Sequence[tuple[int, int]],
    word: Sequence[int],
) -> tuple[int, ...]:
    """The image of a word under (state, sign) factors, folded factor by
    factor over raw table rows: the rightmost factor runs through the
    whole word before the next one starts, and a negative factor looks
    its letter up in the output row.  `table_at` gives the table of a
    level, counted from 1."""
    tables = [table_at(level) for level in range(1, len(word) + 1)]
    out = list(word)
    for q0, sign in reversed(factors):
        q = q0
        for i, x in enumerate(out):
            t = tables[i]
            if sign > 0:
                out[i] = t.output[q][x]
                q = t.transition[q][x]
            else:
                y = t.output[q].index(x)
                out[i] = y
                q = t.transition[q][y]
    return tuple(out)


def raw_step(
    table: LevelTable, states: Sequence[int], signs: Sequence[int], x: int, level: int
) -> tuple[int, tuple[int, ...]]:
    """Step letter x of a level through (state, sign) factors over raw
    rows, rightmost factor first: the output letter and the new states.
    A negative factor looks its letter up in a row that must be a
    permutation, else NotInvertibleError."""
    new_states = list(states)
    for i in range(len(states) - 1, -1, -1):
        q, row = states[i], table.output[states[i]]
        if signs[i] > 0:
            new_states[i] = table.transition[q][x]
            x = row[x]
        else:
            if sorted(row) != list(range(len(row))):
                raise NotInvertibleError(level, q)
            x = row.index(x)
            new_states[i] = table.transition[q][x]
    return x, tuple(new_states)


def words_at_level(schedule: AlphabetSchedule, level: int) -> Iterator[tuple[int, ...]]:
    """All words of the given length in lexicographic order."""
    if level == 0:
        yield ()
        return
    for head in words_at_level(schedule, level - 1):
        for x in range(schedule.size_at(level)):
            yield head + (x,)


def leaf_permutation(group: LevelGroup, pid: int) -> tuple[int, ...]:
    """The action of one element on the level's words, numbered
    lexicographically."""
    words = words_at_level(group.automaton.schedule, group.level)
    index = {w: i for i, w in enumerate(words)}
    return tuple(index[group.context.image(pid, w)] for w in index)


def element_leaf_permutations(group: LevelGroup) -> list[tuple[int, ...]]:
    return [leaf_permutation(group, e) for e in group.element_ids]


def two_state_machines(sizes: Sequence[int]) -> Iterator[Automaton]:
    """For each size d, every two-state table on d letters (4^d transition
    pairs times d^(2d) labeling pairs), each as the one table of a machine
    over the constant alphabet of size d."""
    for d in sizes:
        schedule = AlphabetSchedule.constant(d)
        labelings = list(product(range(d), repeat=d))
        for transition in product(product(range(2), repeat=d), repeat=2):
            for output in product(labelings, repeat=2):
                table = LevelTable(transition, output)
                yield Automaton.from_periodic_tables(schedule, (), (table,))


def is_bireversible_table(t: LevelTable) -> bool:
    """Every labeling is a permutation, and for every letter both the
    states reading it and the states writing it go to distinct states."""
    letters = range(t.alphabet_size)
    if any(sorted(row) != list(letters) for row in t.output):
        return False
    states = range(t.n_states)
    for x in letters:
        if len({t.transition[q][x] for q in states}) != t.n_states:
            return False
        if len({t.transition[q][t.output[q].index(x)] for q in states}) != t.n_states:
            return False
    return True


def config_kind_size(prefix: Sequence[int], kind: str, value, level: int) -> int:
    """The alphabet size at a 1-based level of a schedule config: a
    prefix size, else the constant, the periodic list's entry, or for a
    ramp with offset `value` the level plus the offset."""
    if level <= len(prefix):
        return prefix[level - 1]
    if kind == "constant":
        return value
    if kind == "periodic":
        return value[(level - len(prefix) - 1) % len(value)]
    assert kind == "ramp"
    return level + value
