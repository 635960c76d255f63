"""Refusals of malformed input across the public API: each case names
the exception type and a fragment of its message."""

import json
import random

import pytest

from tvautomata import (
    AlphabetSchedule,
    Automaton,
    Budget,
    GroupWord,
    InvalidWordError,
    LevelTable,
    NotInvertibleError,
    NotMealyError,
    ScheduleMismatchError,
    apply_word,
    build_from_config,
    config_of,
    crt_solve,
    cycle_transposition_automaton,
    diagonal_automaton,
    decide_equal,
    element_order,
    embed_on_subsequence,
    level_group,
    level_groups,
    orbit_at_level,
    random_bir22_automaton,
    ratio_power_image,
    random_bireversible_automaton,
    relation_search,
    steer_to_word,
    sym_diagonal_automaton,
    two_state_level,
    word_order_automaton,
    word_order_perm_a,
    word_order_perm_b,
    z2z4_automaton,
)
from tvautomata import cli, perms
from tvautomata.core import MAX_FOLD_LETTERS
from tvautomata.schedule import MAX_ALPHABET_SIZE

BINARY = AlphabetSchedule.constant(2)
IDENT = (0, 1)
P34 = AlphabetSchedule.periodic((3, 4))
C3 = AlphabetSchedule.constant(3)


def _explicit(doc):
    return build_from_config(
        {"schedule": BINARY.to_config(), "automaton": {"explicit": doc}}
    )


def _named(names):
    """An explicit two-state binary config that carries `names`."""
    period = [LevelTable.identity(2, 2).to_config()]
    return _explicit({"states": 2, "prefix": [], "period": period, "names": names})


def _identity_rule(n_states):
    return lambda level: LevelTable.identity(n_states, 2)


def _unreachable_rule(level):
    raise AssertionError(f"table at level {level} built before the refusal")


REFUSALS = {
    # core
    "level table without states": (
        lambda: LevelTable((), ()), ValueError, "at least one state"
    ),
    "automaton without states": (
        lambda: Automaton(BINARY, 0, _identity_rule(0)),
        ValueError,
        "state count must be at least 1",
    ),
    "duplicate state names": (
        lambda: Automaton.from_periodic_tables(
            BINARY, (), (LevelTable.identity(2, 2),), state_names=("a", "a")
        ),
        ValueError,
        "must be distinct",
    ),
    "fold with negative p": (
        lambda: Automaton(BINARY, 2, _identity_rule(2), fold=(-1, 1)),
        ValueError,
        "fold length must be nonnegative",
    ),
    "empty period": (
        lambda: Automaton.from_periodic_tables(BINARY, (), ()),
        ValueError,
        "must be nonempty",
    ),
    "mixed state counts": (
        lambda: Automaton.from_periodic_tables(
            BINARY, (LevelTable.identity(3, 2),), (LevelTable.identity(2, 2),)
        ),
        ScheduleMismatchError,
        "table at level 1 has 3 states, expected 2",
    ),
    "state names of the wrong length": (
        lambda: Automaton.from_periodic_tables(
            BINARY, (), (LevelTable.identity(2, 2),), state_names=("a",)
        ),
        ValueError,
        "one per state",
    ),
    "explicit table with the wrong alphabet size": (
        lambda: Automaton.from_periodic_tables(
            AlphabetSchedule.periodic((2, 3)), (), (LevelTable.identity(2, 2),)
        ),
        ScheduleMismatchError,
        "table at level 2 has alphabet size 2, schedule says 3",
    ),
    "table at level 0": (
        lambda: z2z4_automaton().table_at(0), ValueError, "levels start at 1"
    ),
    "automaton with a float state count": (
        lambda: Automaton(BINARY, 2.0, _identity_rule(2)),
        ValueError,
        "state count must be an integer, got 2.0",
    ),
    "automaton with a float identity level": (
        lambda: Automaton(BINARY, 2, _identity_rule(2), identity_from=2.5),
        ValueError,
        "identity level must be an integer, got 2.5",
    ),
    "identity table over 2.0 letters": (
        lambda: LevelTable.identity(2, 2.0),
        ValueError,
        "identity table size must be an integer, got 2.0",
    ),
    "automaton with a float fold": (
        lambda: Automaton(BINARY, 2, _identity_rule(2), fold=(0, 1.0)),
        ValueError,
        "fold length must be an integer, got 1.0",
    ),
    "level table with a float entry run": (
        lambda: Automaton.from_periodic_tables(
            BINARY, (), (LevelTable(((0, 0), (1, 1)), ((0, 1), (1, 0.0))),)
        ).run(0, (1,)),
        ValueError,
        "output entry must be an integer, got 0.0",
    ),
    "level table with a boolean transition entry": (
        lambda: LevelTable(((0, True), (1, 0)), (IDENT, IDENT)),
        ValueError,
        "transition entry must be an integer, got True",
    ),
    "run from state true": (
        lambda: z2z4_automaton().run(True, (0,)), ValueError, "unknown state True"
    ),
    "rule table with the wrong state count": (
        lambda: Automaton.from_rule(BINARY, 2, _identity_rule(3)).table_at(1),
        ScheduleMismatchError,
        "has 3 states, expected 2",
    ),
    "inverse of a labeling that is no permutation": (
        lambda: Automaton.from_periodic_tables(
            BINARY, (), (LevelTable(((0, 0),), ((0, 0),)),)
        ).inverse(),
        NotInvertibleError,
        "level 1",
    ),
    "automaton shifted by -1": (
        lambda: z2z4_automaton().shifted(-1), ValueError, "must be nonnegative"
    ),
    "automaton restricted to 1.5": (
        lambda: z2z4_automaton().restricted(1.5),
        ValueError,
        "restriction depth must be an integer, got 1.5",
    ),
    "automaton restricted to -1": (
        lambda: z2z4_automaton().restricted(-1), ValueError, "must be nonnegative"
    ),
    "mealy table of a rule machine": (
        lambda: cycle_transposition_automaton(AlphabetSchedule.ramp(1)).mealy_table(),
        NotMealyError,
        "explicit periodic tables",
    ),
    "embedding from level 0": (
        lambda: embed_on_subsequence(z2z4_automaton(), BINARY, start=0),
        ValueError,
        "at least 1",
    ),
    "embedding from level 1.5": (
        lambda: embed_on_subsequence(z2z4_automaton(), BINARY, start=1.5),
        ValueError,
        "embedding start must be an integer, got 1.5",
    ),
    "embedding with step true": (
        lambda: embed_on_subsequence(z2z4_automaton(), BINARY, step=True),
        ValueError,
        "embedding step must be an integer, got True",
    ),
    "embedding that fails past the eager check": (
        lambda: embed_on_subsequence(
            word_order_automaton(AlphabetSchedule.constant(3, prefix=[2] * 64)), BINARY
        ),
        ScheduleMismatchError,
        "inner level 65 has size 3 but host level 65 has size 2",
    ),
    # engine
    "element order up to 0": (
        lambda: element_order(z2z4_automaton(), GroupWord.generator(0), max_order=0),
        ValueError,
        "max order must be at least 1, got 0",
    ),
    "element order up to -3": (
        lambda: element_order(z2z4_automaton(), GroupWord.generator(0), max_order=-3),
        ValueError,
        "max order must be at least 1, got -3",
    ),
    "level 2.5": (
        lambda: level_group(z2z4_automaton(), 2.5),
        ValueError,
        "level must be an integer, got 2.5",
    ),
    "level true": (
        lambda: level_group(z2z4_automaton(), True),
        ValueError,
        "level must be an integer, got True",
    ),
    "order cap 10.0": (
        lambda: level_group(z2z4_automaton(), 2, order_cap=10.0),
        ValueError,
        "order cap must be an integer, got 10.0",
    ),
    "level sweep to 2.5": (
        lambda: level_groups(z2z4_automaton(), 2.5),
        ValueError,
        "max level must be an integer, got 2.5",
    ),
    "orbit at level 1.5": (
        lambda: orbit_at_level(z2z4_automaton(), 1.5),
        ValueError,
        "level must be an integer, got 1.5",
    ),
    "relation search up to 2.5": (
        lambda: relation_search(z2z4_automaton(), 2.5),
        ValueError,
        "word length must be an integer, got 2.5",
    ),
    "element order up to 2.5": (
        lambda: element_order(z2z4_automaton(), GroupWord.generator(0), max_order=2.5),
        ValueError,
        "max order must be an integer, got 2.5",
    ),
    "depth budget 2.5": (
        lambda: Budget(max_depth=2.5), ValueError, "depth budget must be an integer, got 2.5"
    ),
    "state budget 10.5": (
        lambda: Budget(max_states=10.5), ValueError, "state budget must be an integer, got 10.5"
    ),
    "bi-reversibility up to true": (
        lambda: z2z4_automaton().bireversibility(True),
        ValueError,
        "check depth must be an integer, got True",
    ),
    "group word with a float state decided": (
        lambda: decide_equal(z2z4_automaton(), GroupWord(((0.5, 1),))),
        ValueError,
        "state index must be an integer, got 0.5",
    ),
    "group word with a boolean state": (
        lambda: GroupWord(((True, 1),)), ValueError, "state index must be an integer, got True"
    ),
    "group word to the power 1.5": (
        lambda: GroupWord.generator(0) ** 1.5, ValueError, "exponent must be an integer, got 1.5"
    ),
    "ratio power 1.5": (
        lambda: ratio_power_image(cycle_transposition_automaton(P34), 1.5, (0, 1)),
        ValueError,
        "exponent must be an integer, got 1.5",
    ),
    "group word with a float sign": (
        lambda: GroupWord(((0, 1.0),)), ValueError, "sign must be an integer, got 1.0"
    ),
    "word expression with a stray symbol": (
        lambda: GroupWord.parse("a$", z2z4_automaton()), ValueError, "cannot parse factor 'a$'"
    ),
    "run with a float letter": (
        lambda: z2z4_automaton().run(0, (1.0,)),
        InvalidWordError,
        "letter 1.0 at position 0 is not an integer",
    ),
    "run with a string letter": (
        lambda: z2z4_automaton().run(0, ("1",)),
        InvalidWordError,
        "letter '1' at position 0 is not an integer",
    ),
    "run with a boolean letter": (
        lambda: z2z4_automaton().run(0, (True, 0)),
        InvalidWordError,
        "letter True at position 0 is not an integer",
    ),
    "word applied to a float letter": (
        lambda: apply_word(z2z4_automaton(), GroupWord.generator(0), (0, 1.0)),
        InvalidWordError,
        "letter 1.0 at position 1 is not an integer",
    ),
    "orbit seed with a float letter": (
        lambda: orbit_at_level(z2z4_automaton(), 1, seed=(1.0,)),
        InvalidWordError,
        "letter 1.0 at position 0 is not an integer",
    ),
    "steering target with a float letter": (
        lambda: steer_to_word(
            cycle_transposition_automaton(AlphabetSchedule.periodic((3, 4))), (2.0, 3)
        ),
        InvalidWordError,
        "letter 2.0 at position 0 is not an integer",
    ),
    "orbit seed of the wrong length": (
        lambda: orbit_at_level(z2z4_automaton(), 2, seed=(0,)),
        ValueError,
        "must have length 2",
    ),
    # families
    "word-order a at 0": (
        lambda: word_order_perm_a(0), ValueError, "positive integers only"
    ),
    "word-order b at 0": (
        lambda: word_order_perm_b(0), ValueError, "positive integers only"
    ),
    "example 2 with equal marked letters": (
        lambda: cycle_transposition_automaton(AlphabetSchedule.constant(3), x0=1, x1=1),
        ValueError,
        "must differ",
    ),
    "example 2 with a float marked letter": (
        lambda: cycle_transposition_automaton(P34, x0=0.0),
        ValueError,
        "marked letter must be an integer, got 0.0",
    ),
    # 0.0 == 0 would find the integer build's tables in the shared LRU.
    "example 2 with a float marked letter after an integer build": (
        lambda: [cycle_transposition_automaton(P34, x0=x0) for x0 in (0, 0.0)],
        ValueError,
        "marked letter must be an integer, got 0.0",
    ),
    "example 2 with a negative letter": (
        lambda: cycle_transposition_automaton(AlphabetSchedule.constant(3), x0=-1),
        ValueError,
        "nonnegative",
    ),
    "diagonal levels with unequal labeling counts": (
        lambda: diagonal_automaton(BINARY, [[IDENT]], [[IDENT, IDENT]]),
        ValueError,
        "one labeling per state",
    ),
    "diagonal machine without states": (
        lambda: diagonal_automaton(BINARY, [], [[]]), ValueError, "at least one state"
    ),
    "gi with a float index": (
        lambda: sym_diagonal_automaton([2.5, 3]), ValueError, "gi index must be an integer, got 2.5"
    ),
    "gi starting at 2.0": (
        lambda: sym_diagonal_automaton(start=2.0),
        ValueError,
        "gi index must be an integer, got 2.0",
    ),
    "gi starting at 1": (
        lambda: sym_diagonal_automaton(start=1), ValueError, "at least 2"
    ),
    "gi without a list or a start": (
        lambda: sym_diagonal_automaton(), ValueError, "index list or an arithmetic start"
    ),
    "gi config with a non-integer index": (
        lambda: build_from_config(
            {
                "schedule": BINARY.to_config(),
                "automaton": {"builtin": "gi", "params": {"indices": [2, "3"]}},
            }
        ),
        ValueError,
        "parameter 'indices' must be a list of integers",
    ),
    "diagonal labeling with a float entry": (
        lambda: diagonal_automaton(BINARY, [], [[(0.0, 1)]]),
        ValueError,
        "labeling entry must be an integer, got 0.0",
    ),
    "random_bir22 with a float prefix length": (
        lambda: random_bir22_automaton(1, 1.5),
        ValueError,
        "random_bir22 parameter must be an integer, got 1.5",
    ),
    "random machine with a float period length": (
        lambda: random_bireversible_automaton(random.Random(1), BINARY, 0, 1.0),
        ValueError,
        "block length must be an integer, got 1.0",
    ),
    "two-state level with labelings of unequal length": (
        lambda: two_state_level((), IDENT, (0,)), ValueError, "share one alphabet"
    ),
    "explicit config with wrong keys": (
        lambda: _explicit({"states": 2}), ValueError, "needs exactly the keys"
    ),
    "explicit prefix that is not a list": (
        lambda: _explicit({"states": 2, "prefix": {}, "period": []}),
        ValueError,
        "'prefix' must be a list",
    ),
    "explicit state-count mismatch": (
        lambda: _explicit(
            {"states": 3, "prefix": [], "period": [LevelTable.identity(2, 2).to_config()]}
        ),
        ValueError,
        "has 2 states, config says 3",
    ),
    "rule fold past the letter budget": (
        lambda: Automaton(
            AlphabetSchedule.periodic([10_000] * 101), 2, _unreachable_rule, fold=(0, 101)
        ),
        ValueError,
        "fold over levels 1 .. 101 samples 1010000 letters, past the budget of 1000000",
    ),
    "explicit names that are not a list": (
        lambda: _named("ab"),
        ValueError,
        "'names' must be a list of state name strings",
    ),
    "explicit names that are null": (
        lambda: _named(None),
        ValueError,
        "'names' must be a list of state name strings",
    ),
    "explicit names with a number": (
        lambda: _named(["a", 1]),
        ValueError,
        "'names' must be a list of state name strings",
    ),
    "explicit names one short": (
        lambda: _named(["x"]),
        ValueError,
        "state names must be distinct, one per state",
    ),
    "explicit names repeated": (
        lambda: _named(["x", "x"]),
        ValueError,
        "state names must be distinct, one per state",
    ),
    "config of an untagged rule machine": (
        lambda: config_of(Automaton.from_rule(BINARY, 2, _identity_rule(2))),
        ValueError,
        "serializable",
    ),
    # perms
    "permutation with a float entry": (
        lambda: perms.check_permutation((0.0, 1)), ValueError, "not a permutation of range(2)"
    ),
    "permutation with a bool entry": (
        lambda: perms.check_permutation((True, 0)), ValueError, "not a permutation of range(2)"
    ),
    # schedule
    "schedule shifted by -1": (
        lambda: BINARY.shifted(-1), ValueError, "must be nonnegative"
    ),
    "periodic schedule with a float size": (
        lambda: AlphabetSchedule.periodic([3, 4.0]),
        ValueError,
        "alphabet size must be an integer, got 4.0",
    ),
    "constant schedule of size true": (
        lambda: AlphabetSchedule.constant(True),
        ValueError,
        "alphabet size must be an integer, got True",
    ),
    "schedule prefix with a float size": (
        lambda: AlphabetSchedule.constant(2, prefix=[2.0]),
        ValueError,
        "alphabet size must be an integer, got 2.0",
    ),
    "tail block with a float slope": (
        lambda: AlphabetSchedule((), ((2, 0.5),)),
        ValueError,
        "tail slope must be an integer, got 0.5",
    ),
    "ramp with a float offset": (
        lambda: AlphabetSchedule.ramp(1.5), ValueError, "ramp offset must be an integer, got 1.5"
    ),
    "schedule shifted by 1.5": (
        lambda: BINARY.shifted(1.5), ValueError, "shift count must be an integer, got 1.5"
    ),
    "prefix size past the budget": (
        lambda: AlphabetSchedule.from_config(
            {"prefix": [MAX_ALPHABET_SIZE + 1], "tail": {"kind": "constant", "value": 2}}
        ),
        ValueError,
        "past the alphabet-size budget",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_malformed_input_is_refused(case):
    make, error, fragment = REFUSALS[case]
    with pytest.raises(error) as info:
        make()
    assert fragment in str(info.value)


# Every count argument, by site: (call taking the count, the name its
# refusals give it, its least value, or None where any integer goes).
COUNTS = {
    # core
    "state count": (lambda v: Automaton(BINARY, v, _identity_rule(2)), "state count", 1),
    "identity level": (
        lambda v: Automaton.from_rule(BINARY, 2, _identity_rule(2), identity_from=v),
        "identity level",
        1,
    ),
    "fold prefix": (
        lambda v: Automaton(BINARY, 2, _identity_rule(2), fold=(v, 1)), "fold length", 0
    ),
    "fold period": (
        lambda v: Automaton(BINARY, 2, _identity_rule(2), fold=(0, v)), "fold length", 1
    ),
    "level tables": (lambda v: z2z4_automaton().level_tables(v), "level count", 0),
    "bare rule level tables": (
        lambda v: Automaton.from_rule(BINARY, 2, _unreachable_rule).level_tables(v),
        "level count",
        0,
    ),
    "machine shift": (lambda v: z2z4_automaton().shifted(v), "shift count", 0),
    "restriction": (lambda v: z2z4_automaton().restricted(v), "restriction depth", 0),
    "check depth": (lambda v: z2z4_automaton().bireversibility(v), "check depth", 1),
    "embedding start": (
        lambda v: embed_on_subsequence(z2z4_automaton(), BINARY, start=v), "embedding start", 1
    ),
    "embedding step": (
        lambda v: embed_on_subsequence(z2z4_automaton(), BINARY, step=v), "embedding step", 1
    ),
    # schedule
    "ramp offset": (lambda v: AlphabetSchedule.ramp(v), "ramp offset", 0),
    "schedule shift": (lambda v: BINARY.shifted(v), "shift count", 0),
    # engine
    "congruence residue": (lambda v: crt_solve([(v, 2)]), "residue", None),
    "congruence modulus": (lambda v: crt_solve([(0, 2), (1, v)]), "modulus", 1),
    "depth budget": (lambda v: Budget(max_depth=v), "depth budget", 1),
    "state budget": (lambda v: Budget(max_states=v), "state budget", 1),
    "max order": (
        lambda v: element_order(z2z4_automaton(), GroupWord.generator(0), max_order=v),
        "max order",
        1,
    ),
    "relation word length": (lambda v: relation_search(z2z4_automaton(), v), "word length", 0),
    "level group": (lambda v: level_group(z2z4_automaton(), v), "level", 1),
    "order cap": (lambda v: level_group(z2z4_automaton(), 2, order_cap=v), "order cap", 1),
    "level sweep": (lambda v: level_groups(z2z4_automaton(), v), "max level", 1),
    "orbit level": (lambda v: orbit_at_level(z2z4_automaton(), v), "level", 0),
    # families
    "first marked letter": (
        lambda v: cycle_transposition_automaton(P34, x0=v, x1=1), "marked letter", 0
    ),
    "second marked letter": (
        lambda v: cycle_transposition_automaton(P34, x0=0, x1=v), "marked letter", 0
    ),
    "gi start": (lambda v: sym_diagonal_automaton(start=v), "gi index", 2),
    "gi start after a list": (
        lambda v: sym_diagonal_automaton([2, 3, 4], start=v), "gi index", 4
    ),
    "random prefix length": (
        lambda v: random_bireversible_automaton(random.Random(1), BINARY, v, 1),
        "block length",
        0,
    ),
    "random period length": (
        lambda v: random_bireversible_automaton(random.Random(1), BINARY, 0, v),
        "block length",
        1,
    ),
    "random_bir22 seed": (lambda v: random_bir22_automaton(v), "random_bir22 parameter", None),
    "random_bir22 prefix length": (
        lambda v: random_bir22_automaton(1, v), "random_bir22 parameter", 0
    ),
    "random_bir22 period length": (
        lambda v: random_bir22_automaton(1, 0, v), "random_bir22 parameter", 1
    ),
}


@pytest.mark.parametrize("site", sorted(COUNTS))
def test_a_count_that_is_no_integer_is_refused_by_name(site):
    make, what, least = COUNTS[site]
    valid = 1 if least is None else least
    # The str and the float each equal or parse to a valid count, and
    # true passes a range check wherever 1 is valid.
    for value in (str(valid), float(valid), True):
        with pytest.raises(ValueError) as info:
            make(value)
        assert str(info.value) == f"{what} must be an integer, got {value!r}"


@pytest.mark.parametrize("site", sorted(site for site in COUNTS if COUNTS[site][2] is not None))
def test_a_count_one_below_its_least_is_refused_by_name(site):
    make, what, least = COUNTS[site]
    bound = "nonnegative" if least == 0 else f"at least {least}"
    with pytest.raises(ValueError) as info:
        make(least - 1)
    assert str(info.value) == f"{what} must be {bound}, got {least - 1}"


# Counts that were once taken: a negative period that the fold's lcm
# made positive, a negative prefix, a float residue returned as the
# solution, true taken as modulus 1, identity level 0 (refused only
# later, as a level count), and a str or float count that fell through
# to a TypeError.
ONCE_TAKEN = {
    "random period of -2": (
        lambda: random_bireversible_automaton(random.Random(1), C3, 0, -2), "block length"
    ),
    "random prefix of -1": (
        lambda: random_bireversible_automaton(random.Random(1), C3, -1, 1), "block length"
    ),
    "residue 1.5": (lambda: crt_solve([(1.5, 2)]), "residue"),
    "modulus true": (lambda: crt_solve([(1, True)]), "modulus"),
    "identity from level 0": (
        lambda: Automaton.from_rule(BINARY, 2, _unreachable_rule, identity_from=0),
        "identity level",
    ),
    "shift by '2'": (lambda: z2z4_automaton().shifted("2"), "shift count"),
    "level tables of '2'": (lambda: z2z4_automaton().level_tables("2"), "level count"),
    "level tables of 1.5": (lambda: z2z4_automaton().level_tables(1.5), "level count"),
}


@pytest.mark.parametrize("case", sorted(ONCE_TAKEN))
def test_a_bad_count_is_refused_at_the_call(case):
    make, what = ONCE_TAKEN[case]
    with pytest.raises(ValueError, match=what):
        make()


def test_a_fold_past_the_letter_budget_exits_2_before_building(capsys, tmp_path):
    # 3,000 sizes of up to 9,999 letters: 15,010,648 letters in one
    # period, which ran into MemoryError when every table was built.
    sizes = [2 + (i * 7919) % 9998 for i in range(3000)]
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "periodic", "value": sizes}},
        "automaton": {"builtin": "example2", "params": {}},
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["check", "--config", str(path), "--depth", "3"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == (
        f"error: fold over levels 1 .. 3000 samples {sum(sizes)} letters, "
        f"past the budget of {MAX_FOLD_LETTERS}\n"
    )
    assert sum(sizes) == 15_010_648
