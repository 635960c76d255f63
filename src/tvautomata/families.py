"""Catalog of built-in automata and the config registry around them.

Contains the word-order integer permutations with their shortlex oracle,
the named machines used throughout the tests and the CLI, seeded random
instances, and the config (de)serialization entry points
`build_from_config` / `config_of`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Optional, Sequence

from . import perms
from .core import Automaton, LevelTable, embed_on_subsequence
from .errors import ScheduleMismatchError
from .schedule import AlphabetSchedule


# ---------------------------------------------------------------------------
# Word-order permutations and their shortlex oracle.
#
# a and b below are bijections of the positive integers with the defining
# property: the n-th reduced word over {a, a^-1, b, b^-1} in shortlex order
# (empty word first, symbol order a, a^-1, b, b^-1) maps 1 to n, with the
# leftmost symbol applied last.


def word_order_perm_a(n: int) -> int:
    if n < 1:
        raise ValueError("defined on positive integers only")
    if n == 1:
        return 2
    p = 1
    while 6 * p <= n:
        p *= 3
    # now 2p <= n < 6p with p a power of three
    if n < 3 * p:
        return n + 4 * p
    if n < 4 * p:
        return n - 2 * p
    return n + 3 * p


def word_order_perm_b(n: int) -> int:
    if n < 1:
        raise ValueError("defined on positive integers only")
    if n == 1:
        return 4
    p = 1
    while 6 * p <= n:
        p *= 3
    if n < 5 * p:
        return n + 10 * p
    if 3 * n < 17 * p:
        return n - (13 * p) // 3
    return n - 4 * p


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


_WORD_SYMBOLS = (("a", 1), ("a", -1), ("b", 1), ("b", -1))


def shortlex_reduced_words(count: int) -> list[tuple[tuple[str, int], ...]]:
    """First `count` freely reduced words over a, a^-1, b, b^-1.

    Shortlex order: by length, then left to right with
    a < a^-1 < b < b^-1.  Position 1 is the empty word.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    words: list[tuple[tuple[str, int], ...]] = []
    layer: list[tuple[tuple[str, int], ...]] = [()]
    while len(words) < count:
        words.extend(layer)
        layer = [
            w + (s,)
            for w in layer
            for s in _WORD_SYMBOLS
            if not (w and w[-1][0] == s[0] and w[-1][1] == -s[1])
        ]
    return words[:count]


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


# ---------------------------------------------------------------------------
# Shared builders.


def _diagonal_rows(n_states: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(q for _ in range(size)) for q in range(n_states))


def _size_fold(schedule: AlphabetSchedule) -> Optional[tuple[int, int]]:
    """Fold for a rule that depends on the level only through the
    alphabet size; None when the schedule is a ramp."""
    structure = schedule.periodic_structure()
    if structure is None:
        return None
    return structure[0], len(structure[1])


def _order_preserving_labeling(formula: Callable[[int], int], size: int) -> tuple[int, ...]:
    """Restrict a 1-based integer bijection to {1..size} as a 0-based
    permutation, routing out-of-range images through the order-preserving
    bijection onto the letters missed by the in-range images."""
    images = [formula(x) for x in range(1, size + 1)]
    in_range = {v for v in images if v <= size}
    spare = iter(sorted(set(range(1, size + 1)) - in_range))
    return tuple((v if v <= size else next(spare)) - 1 for v in images)


# ---------------------------------------------------------------------------
# Named constructions.


def word_order_automaton(schedule: AlphabetSchedule) -> Automaton:
    """Two-state diagonal automaton whose labelings restrict the word-order
    permutations a (state q1) and b (state q2) to each level alphabet."""

    def fn(level: int) -> LevelTable:
        size = schedule.size_at(level)
        return LevelTable(
            _diagonal_rows(2, size),
            (
                _order_preserving_labeling(word_order_perm_a, size),
                _order_preserving_labeling(word_order_perm_b, size),
            ),
        )

    return Automaton(
        schedule,
        2,
        fn,
        fold=_size_fold(schedule),
        exact_bireversible=True,
        family=("example1", {}),
    )


def cycle_transposition_automaton(
    schedule: AlphabetSchedule, *, x0: int = 0, x1: int = 1
) -> Automaton:
    """Two-state automaton that flips state exactly on the marked letter x0.

    State q1 is labeled by the long cycle through x0, x1, then the
    remaining letters in ascending order; state q2 by the transposition
    (x0 x1).  Needs every level alphabet to contain both letters.
    """
    if x0 == x1:
        raise ValueError("the marked letters must differ")
    if min(x0, x1) < 0:
        raise ValueError("letters are nonnegative")
    low = _min_size(schedule)
    if low <= max(x0, x1):
        raise ValueError(
            f"every level needs at least {max(x0, x1) + 1} letters, "
            f"smallest level has {low}"
        )

    def fn(level: int) -> LevelTable:
        size = schedule.size_at(level)
        tau = perms.transposition(size, x0, x1)
        pi = perms.from_cycles(
            size, [[x0, x1] + [x for x in range(size) if x not in (x0, x1)]]
        )
        transition = tuple(
            tuple((1 - q) if x == x0 else q for x in range(size)) for q in range(2)
        )
        return LevelTable(transition, (pi, tau))

    return Automaton(
        schedule,
        2,
        fn,
        fold=_size_fold(schedule),
        exact_bireversible=True,
        family=("example2", {"x0": x0, "x1": x1}),
    )


def _min_size(schedule: AlphabetSchedule) -> int:
    """Smallest alphabet size over all levels."""
    structure = schedule.periodic_structure()
    if structure is None:
        # A ramp tail only grows from its first level on.
        return min(schedule.sizes(len(schedule.prefix) + 1))
    return min((*schedule.prefix, *structure[1]))


def diagonal_automaton(
    schedule: AlphabetSchedule,
    prefix_labelings: Sequence[Sequence[Sequence[int]]],
    period_labelings: Sequence[Sequence[Sequence[int]]],
    *,
    state_names: Optional[Sequence[str]] = None,
) -> Automaton:
    """Diagonal automaton from explicit per-level labeling blocks.

    Each block entry is one level: a list with one permutation (as an
    image list) per state.  The two blocks repeat like an explicit
    periodic table set.
    """
    levels = tuple(tuple(tuple(row) for row in lv) for lv in prefix_labelings)
    block = tuple(tuple(tuple(row) for row in lv) for lv in period_labelings)
    if not block:
        raise ValueError("period block must be nonempty")
    counts = {len(lv) for lv in levels + block}
    if len(counts) != 1:
        raise ValueError("every level needs one labeling per state")
    for lv in levels + block:
        for row in lv:
            perms.check_permutation(row)
    n = counts.pop()
    if n < 1:
        raise ValueError("need at least one state")

    def table(lv) -> LevelTable:
        return LevelTable(_diagonal_rows(n, len(lv[0])), lv)

    return Automaton.from_periodic_tables(
        schedule,
        tuple(table(lv) for lv in levels),
        tuple(table(lv) for lv in block),
        state_names=state_names,
        family=(
            "diagonal",
            {
                "prefix": [[list(row) for row in lv] for lv in levels],
                "period": [[list(row) for row in lv] for lv in block],
            },
        ),
    )


def sym_diagonal_automaton(
    indices: Optional[Sequence[int]] = None,
    *,
    start: Optional[int] = None,
    step: int = 1,
) -> Automaton:
    """Diagonal automaton over the listed alphabet sizes with the long
    cycle (state q1) and the transposition of the first two letters
    (state q2) at every listed level.

    `indices` is a finite list of sizes, each at least 2; `start` adds an
    arithmetic tail start, start+1, ... after the list.  Beyond a finite
    list without tail the automaton acts as the identity on 1-letter
    alphabets.
    """
    listed = tuple(indices) if indices is not None else ()
    if any(i < 2 for i in listed):
        raise ValueError("indices must be at least 2")
    if step != 1:
        raise ValueError("only step-1 arithmetic tails are representable")
    params: dict = {}
    if listed:
        params["indices"] = list(listed)
    if start is not None:
        if start < 2:
            raise ValueError("indices must be at least 2")
        if start < len(listed) + 1:
            raise ValueError(
                "arithmetic tail must not lag behind the level number"
            )
        params["start"] = start
        schedule = AlphabetSchedule.ramp(start - len(listed) - 1, prefix=listed)
        identity_from = None
    elif listed:
        schedule = AlphabetSchedule.constant(1, prefix=listed)
        identity_from = len(listed) + 1
    else:
        raise ValueError("need a finite index list or an arithmetic start")

    def fn(level: int) -> LevelTable:
        size = schedule.size_at(level)
        if size < 2:
            return LevelTable.identity(2, size)
        return LevelTable(
            _diagonal_rows(2, size),
            (perms.rotation(size), perms.transposition(size, 0, 1)),
        )

    return Automaton(
        schedule,
        2,
        fn,
        fold=_size_fold(schedule),
        exact_bireversible=True,
        identity_from=identity_from,
        family=("gi", params),
    )


_Z2Z4_ODD = LevelTable(((0, 1), (1, 0)), ((1, 0), (1, 0)))
_Z2Z4_EVEN = LevelTable(((0, 0), (1, 1)), ((1, 0), (0, 1)))


def z2z4_automaton() -> Automaton:
    """Binary period-2 machine: odd levels flip the state on letter 1 and
    both labelings flip; even levels are diagonal with q1 flipping."""
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2),
        (),
        (_Z2Z4_ODD, _Z2Z4_EVEN),
        family=("z2z4", {}),
    )


def z4_automaton() -> Automaton:
    """The two-level truncation of the period-2 machine: identical tables
    on levels 1 and 2, identity from level 3 on."""
    a = z2z4_automaton().restricted(2)
    a.family = ("z4", {})
    return a


def lamplighter_automaton() -> Automaton:
    """Binary Mealy machine with transition and output both q xor x."""
    table = LevelTable(((0, 1), (1, 0)), ((0, 1), (1, 0)))
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2), (), (table,), family=("lamplighter", {})
    )


def bellaterra_automaton() -> Automaton:
    """Three-state binary Mealy machine with involutive generators.

    State a flips the letter and moves to c on both letters; b and c copy
    the letter, with b staying on 1 and going to a on 0, and c going to b
    on 0 and to a on 1.
    """
    table = LevelTable(
        ((2, 2), (0, 1), (1, 0)),
        ((1, 0), (0, 1), (0, 1)),
    )
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2),
        (),
        (table,),
        state_names=("a", "b", "c"),
        family=("bellaterra", {}),
    )


def bellaterra_dual_automaton() -> Automaton:
    """The state-letter dual: two states acting on a ternary alphabet."""
    a = bellaterra_automaton().dual()
    a.family = ("bellaterra_dual", {})
    return a


def subsequence_embedding_automaton(
    inner: Automaton, host: AlphabetSchedule, start: int = 1, step: int = 1
) -> Automaton:
    """Spread `inner` over the host levels start, start+step, ... and tag
    the result for config round-trips."""
    return embed_on_subsequence(
        inner,
        host,
        start,
        step,
        family=(
            "embed_subsequence",
            {"inner": config_of(inner), "start": start, "step": step},
        ),
    )


# ---------------------------------------------------------------------------
# Admissible two-state levels and seeded random instances.
#
# A two-state level table belongs to a bi-reversible automaton exactly
# when the transition splits the letters into a kept set Z and a flipped
# set T, both labelings are permutations, and they map T to the same set.


def two_state_level(
    flip_letters: Sequence[int], alpha: Sequence[int], beta: Sequence[int]
) -> LevelTable:
    """Two-state table flipping the state exactly on `flip_letters`, with
    labelings alpha (state 0) and beta (state 1)."""
    size = len(alpha)
    if len(beta) != size:
        raise ValueError("labelings must share one alphabet")
    flips = frozenset(flip_letters)
    transition = tuple(
        tuple((1 - q) if x in flips else q for x in range(size)) for q in range(2)
    )
    return LevelTable(transition, (tuple(alpha), tuple(beta)))


def admissible_binary_level_types() -> tuple[LevelTable, ...]:
    """All 12 two-state binary level tables compatible with
    bi-reversibility, in a fixed order."""
    ident, flip = (0, 1), (1, 0)
    out = []
    for flips in ((), (0, 1)):
        for alpha in (ident, flip):
            for beta in (ident, flip):
                out.append(two_state_level(flips, alpha, beta))
    for flips in ((0,), (1,)):
        for common in (ident, flip):
            out.append(two_state_level(flips, common, common))
    return tuple(out)


def random_admissible_level(rng: random.Random, size: int) -> LevelTable:
    """A uniformly structured random admissible two-state level table."""
    flips = [x for x in range(size) if rng.random() < 0.5]
    alpha = list(range(size))
    rng.shuffle(alpha)
    kept = [x for x in range(size) if x not in flips]
    beta = [0] * size
    for group in (kept, flips):
        images = [alpha[x] for x in group]
        rng.shuffle(images)
        for x, y in zip(group, images):
            beta[x] = y
    return two_state_level(flips, alpha, beta)


def random_bireversible_automaton(
    rng: random.Random,
    schedule: AlphabetSchedule,
    prefix_len: int = 0,
    period_len: int = 1,
) -> Automaton:
    """Random bi-reversible two-state automaton over a bounded schedule,
    with explicit tables drawn level by level."""
    structure = schedule.periodic_structure()
    if structure is None:
        raise ScheduleMismatchError("needs a constant or periodic schedule tail")
    sp, block = structure
    p = max(prefix_len, sp)
    m = math.lcm(period_len, len(block))
    prefix = tuple(random_admissible_level(rng, schedule.size_at(i)) for i in range(1, p + 1))
    period = tuple(
        random_admissible_level(rng, schedule.size_at(i)) for i in range(p + 1, p + m + 1)
    )
    return Automaton.from_periodic_tables(schedule, prefix, period)


def random_bir22_automaton(
    seed: int, prefix_len: int = 0, period_len: int = 1
) -> Automaton:
    """Seeded random binary machine built from the 12 admissible level
    types; identical seeds give identical tables."""
    if prefix_len < 0 or period_len < 1:
        raise ValueError("need prefix_len >= 0 and period_len >= 1")
    rng = random.Random(seed)
    types = admissible_binary_level_types()
    prefix = tuple(rng.choice(types) for _ in range(prefix_len))
    period = tuple(rng.choice(types) for _ in range(period_len))
    return Automaton.from_periodic_tables(
        AlphabetSchedule.constant(2),
        prefix,
        period,
        family=(
            "random_bir22",
            {"seed": seed, "prefix_len": prefix_len, "period_len": period_len},
        ),
    )


# ---------------------------------------------------------------------------
# Config registry.


def _check_params(params: dict, allowed: set, family: str, required: set = frozenset()):
    extra = set(params) - allowed
    if extra:
        raise ValueError(f"unknown {family} parameters: {sorted(extra)}")
    missing = required - set(params)
    if missing:
        raise ValueError(f"missing {family} parameters: {sorted(missing)}")


def _check_owned_schedule(given: AlphabetSchedule, built: Automaton, family: str):
    if given != built.schedule:
        raise ValueError(
            f"family {family!r} fixes its schedule to {built.schedule.to_config()}"
        )
    return built


def _int_param(params: dict, key: str, default=None):
    value = params.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"parameter {key!r} must be an integer")
    return value


def _build_example1(schedule, params):
    _check_params(params, set(), "example1")
    return word_order_automaton(schedule)


def _build_example2(schedule, params):
    _check_params(params, {"x0", "x1"}, "example2")
    return cycle_transposition_automaton(
        schedule, x0=_int_param(params, "x0", 0), x1=_int_param(params, "x1", 1)
    )


def _build_diagonal(schedule, params):
    _check_params(params, {"prefix", "period"}, "diagonal", {"prefix", "period"})
    return diagonal_automaton(schedule, params["prefix"], params["period"])


def _build_gi(schedule, params):
    _check_params(params, {"indices", "start", "step"}, "gi")
    indices = params.get("indices")
    if indices is not None and (
        not isinstance(indices, list) or not all(isinstance(i, int) for i in indices)
    ):
        raise ValueError("parameter 'indices' must be a list of integers")
    start = _int_param(params, "start") if "start" in params else None
    step = _int_param(params, "step", 1)
    built = sym_diagonal_automaton(indices, start=start, step=step)
    return _check_owned_schedule(schedule, built, "gi")


def _build_embed(schedule, params):
    _check_params(params, {"inner", "start", "step"}, "embed_subsequence", {"inner"})
    inner = build_from_config(params["inner"])
    return subsequence_embedding_automaton(
        inner,
        schedule,
        _int_param(params, "start", 1),
        _int_param(params, "step", 1),
    )


def _build_random_bir22(schedule, params):
    _check_params(params, {"seed", "prefix_len", "period_len"}, "random_bir22", {"seed"})
    built = random_bir22_automaton(
        _int_param(params, "seed"),
        _int_param(params, "prefix_len", 0),
        _int_param(params, "period_len", 1),
    )
    return _check_owned_schedule(schedule, built, "random_bir22")


def _fixed(family: str, builder: Callable[[], Automaton]):
    def build(schedule, params):
        _check_params(params, set(), family)
        return _check_owned_schedule(schedule, builder(), family)

    return build


FAMILIES: dict[str, Callable] = {
    "example1": _build_example1,
    "example2": _build_example2,
    "diagonal": _build_diagonal,
    "gi": _build_gi,
    "z2z4": _fixed("z2z4", z2z4_automaton),
    "z4": _fixed("z4", z4_automaton),
    "lamplighter": _fixed("lamplighter", lamplighter_automaton),
    "bellaterra": _fixed("bellaterra", bellaterra_automaton),
    "bellaterra_dual": _fixed("bellaterra_dual", bellaterra_dual_automaton),
    "embed_subsequence": _build_embed,
    "random_bir22": _build_random_bir22,
}

FAMILY_SUMMARIES: dict[str, str] = {
    "example1": "2-state diagonal automaton from the word-order integer permutations",
    "example2": "2-state automaton flipping on a marked letter, cycle and transposition labelings",
    "diagonal": "diagonal automaton from explicit per-level labeling blocks",
    "gi": "2-state diagonal automaton with long-cycle and transposition labelings",
    "z2z4": "binary period-2 machine generating a group of order 8",
    "z4": "two-level truncation of z2z4 generating a cyclic group of order 4",
    "lamplighter": "binary Mealy machine, reversible but not bi-reversible",
    "bellaterra": "3-state binary Mealy machine with involutive generators",
    "bellaterra_dual": "2-state ternary dual of the bellaterra machine",
    "embed_subsequence": "inner automaton spread over an arithmetic level subsequence",
    "random_bir22": "seeded random binary machine from the 12 admissible level types",
}


def build_from_config(doc: object) -> Automaton:
    """Build an automaton from a config document.

    The document holds exactly the keys "schedule" and "automaton"; the
    automaton part either names a builtin family with parameters or lists
    explicit periodic tables.
    """
    if not isinstance(doc, dict) or set(doc) != {"schedule", "automaton"}:
        raise ValueError("config needs exactly the keys 'schedule' and 'automaton'")
    schedule = AlphabetSchedule.from_config(doc["schedule"])
    auto = doc["automaton"]
    if not isinstance(auto, dict):
        raise ValueError("'automaton' must be an object")
    if set(auto) <= {"builtin", "params"} and "builtin" in auto:
        family = auto["builtin"]
        if family not in FAMILIES:
            raise ValueError(
                f"unknown builtin {family!r}; known: {sorted(FAMILIES)}"
            )
        params = auto.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        return FAMILIES[family](schedule, params)
    if set(auto) == {"explicit"}:
        return _explicit_from_config(schedule, auto["explicit"])
    raise ValueError(
        "'automaton' needs either the key 'builtin' (with optional 'params') "
        "or the key 'explicit'"
    )


def _explicit_from_config(schedule: AlphabetSchedule, doc: object) -> Automaton:
    if not isinstance(doc, dict) or set(doc) != {"states", "prefix", "period"}:
        raise ValueError(
            "explicit automaton config needs exactly the keys "
            "'states', 'prefix' and 'period'"
        )
    states = doc["states"]
    if not isinstance(states, int) or states < 1:
        raise ValueError("'states' must be a positive integer")
    for part in ("prefix", "period"):
        if not isinstance(doc[part], list):
            raise ValueError(f"'{part}' must be a list of level tables")
    prefix = tuple(LevelTable.from_config(t) for t in doc["prefix"])
    period = tuple(LevelTable.from_config(t) for t in doc["period"])
    for t in prefix + period:
        if t.n_states != states:
            raise ValueError(
                f"level table has {t.n_states} states, config says {states}"
            )
    return Automaton.from_periodic_tables(schedule, prefix, period)


def config_of(a: Automaton) -> dict:
    """Serialize an automaton back to a config document.

    Builtins keep their family id and parameters; anything else must
    carry explicit periodic tables.
    """
    if a.family is not None:
        family, params = a.family
        return {
            "schedule": a.schedule.to_config(),
            "automaton": {"builtin": family, "params": dict(params)},
        }
    if a.periodic_tables is None:
        raise ValueError(
            "only builtin families and explicit periodic automata are serializable"
        )
    prefix, period = a.periodic_tables
    return {
        "schedule": a.schedule.to_config(),
        "automaton": {
            "explicit": {
                "states": a.n_states,
                "prefix": [t.to_config() for t in prefix],
                "period": [t.to_config() for t in period],
            }
        },
    }
