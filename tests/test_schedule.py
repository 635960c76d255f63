import enum
import itertools
import json
import math

import pytest

from tvautomata import (
    AlphabetSchedule,
    InvalidWordError,
    cycle_transposition_automaton,
    level_groups,
    relation_search,
)
from tvautomata.schedule import MAX_LEVEL

from reference import config_kind_size, words_at_level


def test_constant_tail_sizes():
    s = AlphabetSchedule.constant(2)
    assert s.size_at(7) == 2
    assert s.sizes(4) == (2, 2, 2, 2)


def test_prefix_overrides_tail():
    s = AlphabetSchedule.ramp(1, prefix=(3, 4))
    assert s.size_at(1) == 3
    assert s.size_at(2) == 4
    # Beyond the prefix the ramp uses the absolute level index.
    assert s.sizes(6) == (3, 4, 4, 5, 6, 7)


def test_ramp_uses_absolute_level():
    assert AlphabetSchedule.ramp(1).size_at(5) == 6
    assert AlphabetSchedule.ramp(0).sizes(3) == (1, 2, 3)


def test_periodic_tail_wraps():
    assert AlphabetSchedule.periodic((3, 4)).sizes(5) == (3, 4, 3, 4, 3)
    assert AlphabetSchedule.periodic((3, 4), prefix=(2,)).sizes(5) == (2, 3, 4, 3, 4)


def test_levels_start_at_one():
    with pytest.raises(ValueError):
        AlphabetSchedule.constant(2).size_at(0)


def test_bound():
    assert AlphabetSchedule.constant(2).bound() == 2
    assert AlphabetSchedule.periodic((2, 3), prefix=(5,)).bound() == 5
    assert AlphabetSchedule.ramp(0).bound() is None
    assert AlphabetSchedule.constant(2).bound() is not None
    assert AlphabetSchedule.ramp(3).bound() is None


def test_bound_dominates_sampled_sizes():
    for s in (
        AlphabetSchedule.constant(2),
        AlphabetSchedule.periodic((2, 3), prefix=(5,)),
        AlphabetSchedule.periodic((4, 1, 2)),
    ):
        r = s.bound()
        assert all(v <= r for v in s.sizes(10**4))


def test_ramp_strictly_increases_past_prefix():
    sizes = AlphabetSchedule.ramp(0, prefix=(7,)).sizes(40)
    assert all(sizes[i] < sizes[i + 1] for i in range(1, 39))


def test_word_validation():
    binary = AlphabetSchedule.constant(2)
    assert binary.check_word((0, 1, 1)) == (0, 1, 1)
    with pytest.raises(InvalidWordError):
        binary.check_word((0, 2))
    assert AlphabetSchedule.ramp(0).check_word((0, 1, 2)) == (0, 1, 2)
    assert binary.check_word(()) == ()
    # Over a ramp tail a word gets the level budget; bounded schedules
    # accept words of any length.
    ramp = AlphabetSchedule.ramp(1, prefix=(2,))
    assert ramp.check_word((1,) * MAX_LEVEL) == (1,) * MAX_LEVEL
    with pytest.raises(InvalidWordError, match=f"{MAX_LEVEL + 1} letters"):
        ramp.check_word((1,) * (MAX_LEVEL + 1))
    assert binary.check_word((1,) * 10_000) == (1,) * 10_000


def test_check_word():
    s = AlphabetSchedule.periodic((2, 3))
    assert s.check_word([0, 2]) == (0, 2)
    with pytest.raises(InvalidWordError):
        s.check_word([2, 0])


def test_check_word_takes_int_subclasses_but_not_bools_past_three_periods():
    class Letter(enum.IntEnum):
        ONE = 1
        TWO = 2

    s = AlphabetSchedule.periodic((3, 4), prefix=(5,))
    word = [0] * 9 + [Letter.TWO]
    assert s.check_word(word) == (0,) * 9 + (2,)
    assert type(s.check_word(word)[9]) is Letter
    word[9] = True
    with pytest.raises(InvalidWordError, match="^letter True at position 9 is not an integer$"):
        s.check_word(word)
    # A bad letter before a bool is refused first.
    word[7] = 3
    with pytest.raises(
        InvalidWordError, match="^letter 3 at position 7 is outside alphabet of size 3$"
    ):
        s.check_word(word)


def test_check_word_on_a_bounded_tail_takes_a_word_of_the_level_budget():
    s = AlphabetSchedule.periodic((3, 4), prefix=(5,))
    word = tuple(s.size_at(i) - 1 for i in range(1, MAX_LEVEL + 1))
    assert s.check_word(word) == word
    bad = word[:-1] + (4,)
    # Level 450 is the tail's 449th, a size-3 level.
    with pytest.raises(
        InvalidWordError, match="^letter 4 at position 449 is outside alphabet of size 3$"
    ):
        s.check_word(bad)


def _checked(schedule, word):
    """What `check_word` returns, or the type and text of what it raises."""
    try:
        return schedule.check_word(word)
    except InvalidWordError as exc:
        return (type(exc), str(exc))


def _checked_by_definition(prefix, kind, value, word):
    """`_checked` read off the definition: a ramp takes at most MAX_LEVEL
    letters, then the first letter that is not an integer, or not below
    its level's size, is refused by position."""
    if kind == "ramp" and len(word) > MAX_LEVEL:
        return (
            InvalidWordError,
            f"word of {len(word)} letters is longer than the supported {MAX_LEVEL} "
            "over a ramp schedule",
        )
    for i, x in enumerate(word):
        if type(x) is not int:
            return (InvalidWordError, f"letter {x!r} at position {i} is not an integer")
        size = config_kind_size(prefix, kind, value, i + 1)
        if not 0 <= x < size:
            return (
                InvalidWordError,
                f"letter {x} at position {i} is outside alphabet of size {size}",
            )
    return tuple(word)


@pytest.mark.parametrize(
    "prefix, kind, value",
    [
        ((), "constant", 3),
        ((2, 5), "constant", 3),
        ((), "periodic", [2, 4, 3]),
        ((4,), "periodic", [2, 3]),
        ((), "ramp", 0),
        ((2, 3), "ramp", 1),
    ],
)
def test_check_word_refuses_the_first_bad_letter_by_position(prefix, kind, value):
    doc = {
        "prefix": list(prefix),
        "tail": {"kind": kind, "value": {"offset": value} if kind == "ramp" else value},
    }
    schedule = AlphabetSchedule.from_config(doc)
    top = [config_kind_size(prefix, kind, value, level) - 1 for level in range(1, 13)]
    words = [(), tuple(top), (0,) * 12]
    # The first, a middle and the last position, and both sides of the
    # boundary between prefix and tail.
    for i in sorted({0, 6, 11, len(prefix), max(len(prefix) - 1, 0)}):
        for bad in (top[i] + 1, -1, True, False, 1.0, None, "0"):
            word = list(top)
            word[i] = bad
            words.append(tuple(word))
            word[9] = top[9] + 1
            words.append(tuple(word))
    words += [(0,) * MAX_LEVEL, (0,) * (MAX_LEVEL + 1), (-1,) * (MAX_LEVEL + 1)]
    for word in words:
        assert _checked(schedule, word) == _checked_by_definition(prefix, kind, value, word)
        assert _checked(schedule, list(word)) == _checked_by_definition(prefix, kind, value, word)


def test_words_at_level_lexicographic():
    s = AlphabetSchedule.periodic((2, 3))
    words = list(words_at_level(s, 2))
    assert words == [(x, y) for x in range(2) for y in range(3)]
    assert list(words_at_level(s, 0)) == [()]


def test_leaf_count_matches_enumeration():
    s = AlphabetSchedule.periodic((3, 2), prefix=(2,))
    for level in range(4):
        assert s.leaf_count(level) == len(list(words_at_level(s, level)))


@pytest.mark.parametrize(
    "schedule",
    [
        AlphabetSchedule.constant(3),
        AlphabetSchedule.constant(2, prefix=(4, 1, 5)),
        AlphabetSchedule.periodic((3, 1, 5)),
        AlphabetSchedule.periodic((2, 3), prefix=(7,)),
        AlphabetSchedule.ramp(0),
        AlphabetSchedule.ramp(2, prefix=(3, 1, 6)),
    ],
    ids=repr,
)
def test_leaf_count_is_the_product_of_the_sizes(schedule):
    for level in range(61):
        assert schedule.leaf_count(level) == math.prod(schedule.sizes(level))


def test_shift_drops_leading_levels():
    s = AlphabetSchedule.periodic((3, 4), prefix=(2,))
    shifted = s.shifted(2)
    assert shifted.sizes(6) == s.sizes(8)[2:]
    assert s.shifted(0) is s


def test_shift_of_ramp_keeps_absolute_sizes():
    s = AlphabetSchedule.ramp(1, prefix=(9,))
    assert s.shifted(3).size_at(1) == s.size_at(4)
    assert s.shifted(3).sizes(10) == s.sizes(13)[3:]


def test_shift_composes():
    s = AlphabetSchedule.periodic((3, 4, 5), prefix=(2, 2))
    assert s.shifted(2).shifted(3).sizes(20) == s.shifted(5).sizes(20)


def test_size_validation_on_construction():
    with pytest.raises(ValueError):
        AlphabetSchedule.constant(0)
    with pytest.raises(ValueError):
        AlphabetSchedule.periodic(())
    with pytest.raises(ValueError):
        AlphabetSchedule.periodic((1, 0))
    with pytest.raises(ValueError):
        AlphabetSchedule.ramp(-1)
    with pytest.raises(ValueError):
        AlphabetSchedule.constant(2, prefix=(0,))
    with pytest.raises(ValueError, match="slopes must be nonnegative"):
        AlphabetSchedule((), ((2, -1),))


def test_periodic_structure():
    assert AlphabetSchedule.constant(3, prefix=(2,)).periodic_structure() == (1, (3,))
    assert AlphabetSchedule.periodic((3, 4)).periodic_structure() == (0, (3, 4))
    assert AlphabetSchedule.ramp(0).periodic_structure() is None


_FOLD_SCHEDULES = {
    "constant": AlphabetSchedule.constant(2),
    "prefixed_constant": AlphabetSchedule.constant(3, prefix=(2, 5)),
    "periodic": AlphabetSchedule.periodic((3, 4)),
    "prefixed_periodic": AlphabetSchedule.periodic((2, 3, 4), prefix=(5,)),
    "long_prefixed_periodic": AlphabetSchedule.periodic((2, 2, 3, 3), prefix=(4, 4, 4)),
    "ramp": AlphabetSchedule.ramp(1),
    "prefixed_ramp": AlphabetSchedule.ramp(0, prefix=(3,)),
}


@pytest.mark.parametrize("name", sorted(_FOLD_SCHEDULES))
def test_aligned_fold_is_every_construction_s_fold(name):
    schedule = _FOLD_SCHEDULES[name]
    structure = schedule.periodic_structure()
    for p in range(7):
        for m in range(1, 8):
            fold = schedule.aligned_fold(p, m)
            if structure is None:
                assert fold is None
                continue
            sp, block = structure
            # Explicit and random periodic tables unroll to this fold.
            assert fold == (max(p, sp), math.lcm(m, len(block)))
            # A given fold lines up exactly when it is its own aligned fold.
            assert (fold == (p, m)) == (p >= sp and m % len(block) == 0)
            # Restriction to depth p.
            assert schedule.aligned_fold(p, 1) == (max(p, sp), len(block))
            # An inner fold (p, m) spread over levels start, start + step, ...
            for start in (1, 2, 4):
                for step in (1, 2, 3):
                    assert schedule.aligned_fold(start - 1 + step * p, step * m) == (
                        max(sp, start - 1 + step * p),
                        math.lcm(step * m, len(block)),
                    )
            # Least: any fold at or past (p, m) that lines up is at or past it.
            for p2 in range(p, 12):
                for m2 in range(m, 85, m):
                    lines_up = p2 >= sp and m2 % len(block) == 0
                    assert lines_up == (p2 >= fold[0] and m2 % fold[1] == 0)
    # A rule that reads the level only through its size.
    expected = None if structure is None else (structure[0], len(structure[1]))
    assert schedule.aligned_fold(0, 1) == expected


def test_config_round_trip():
    for s in (
        AlphabetSchedule.constant(2),
        AlphabetSchedule.periodic((3, 4), prefix=(2,)),
        AlphabetSchedule.ramp(1, prefix=(5, 2)),
        AlphabetSchedule.ramp(0),
    ):
        assert AlphabetSchedule.from_config(s.to_config()) == s


def test_config_rejects_malformed_documents():
    good = AlphabetSchedule.periodic((3, 4)).to_config()
    for bad in (
        [],
        {"prefix": []},
        {**good, "extra": 1},
        {"prefix": [1.5], "tail": good["tail"]},
        {"prefix": [], "tail": {"kind": "spiral", "value": 2}},
        {"prefix": [], "tail": {"kind": "constant", "value": [2]}},
        {"prefix": [], "tail": {"kind": "periodic", "value": 3}},
        {"prefix": [], "tail": {"kind": "ramp", "value": 1}},
        {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": "1"}}},
        {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": 1, "x": 2}}},
    ):
        with pytest.raises(ValueError):
            AlphabetSchedule.from_config(bad)


_KIND_PREFIXES = [(), (3,), (2, 5, 1), (4,) * 7]
_KIND_TAILS = [
    *(("constant", v) for v in (1, 2, 5)),
    *(("periodic", vs) for vs in ([3, 4], [2, 5, 1], [1, 1, 6, 2])),
    *(("ramp", offset) for offset in (0, 1, 3, 10)),
]


@pytest.mark.parametrize(
    "prefix, kind, value",
    [(prefix, *tail) for prefix, tail in itertools.product(_KIND_PREFIXES, _KIND_TAILS)],
    ids=lambda v: str(list(v)) if isinstance(v, tuple) else str(v),
)
def test_each_config_kind_matches_its_definition_to_level_500(prefix, kind, value):
    doc = {
        "prefix": list(prefix),
        "tail": {"kind": kind, "value": {"offset": value} if kind == "ramp" else value},
    }
    schedule = AlphabetSchedule.from_config(doc)
    expected = [config_kind_size(prefix, kind, value, level) for level in range(1, 501)]
    assert list(schedule.sizes(500)) == expected
    assert schedule.bound() == (None if kind == "ramp" else max(expected))
    for count in (1, 2, 3, 7, 50):
        assert list(schedule.shifted(count).sizes(500 - count)) == expected[count:]
    leaves = 1
    for level in range(1, 501):
        leaves *= expected[level - 1]
        assert schedule.leaf_count(level) == leaves
    assert json.dumps(schedule.to_config()) == json.dumps(doc)


def test_a_one_size_periodic_tail_is_the_constant_tail():
    assert AlphabetSchedule.periodic([3], prefix=(2,)) == AlphabetSchedule.constant(3, prefix=(2,))
    assert AlphabetSchedule.periodic([3]).to_config()["tail"] == {"kind": "constant", "value": 3}


def test_to_config_refuses_a_block_no_kind_writes():
    for block in (((2, 0), (3, 1)), ((3, 2),), ((1, 1),)):
        with pytest.raises(ValueError, match="no schedule config kind"):
            AlphabetSchedule((2,), block).to_config()


def test_example2_over_an_alternating_block():
    # Sizes 2, 3, 2, 4, 2, 5, ...: bounded levels recur forever.
    schedule = AlphabetSchedule((), ((2, 0), (3, 1)))
    assert schedule.sizes(8) == (2, 3, 2, 4, 2, 5, 2, 6)
    assert schedule.bound() is None and schedule.aligned_fold(0, 1) is None
    assert schedule.shifted(3).sizes(5) == schedule.sizes(8)[3:]
    assert [schedule.leaf_count(k) for k in range(1, 9)] == [
        math.prod(schedule.sizes(k)) for k in range(1, 9)
    ]
    machine = cycle_transposition_automaton(schedule)
    assert [g.order for g in level_groups(machine, 3)] == [2, 36, 36]
    found = relation_search(machine, 7)
    assert (found.checked, found.equal, found.unknown) == (4372, [], [])


def test_example2_needs_every_slot_s_first_size():
    # The growing slot starts at 5 letters, the bounded one stays at 2.
    with pytest.raises(ValueError, match="smallest level has 2"):
        cycle_transposition_automaton(AlphabetSchedule((), ((5, 1), (2, 0))), x1=2)
