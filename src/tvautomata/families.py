"""Catalog of built-in automata and the config registry around them.

Contains the word-order integer permutations, the named machines used
throughout the tests and the CLI, seeded random instances, and the
config (de)serialization entry points `build_from_config` / `config_of`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import random
import threading
from typing import Callable, Optional, Sequence

from . import perms
from .core import Automaton, LevelTable, _default_names, _diagonal_rows, embed_on_subsequence
from .errors import ScheduleMismatchError
from .schedule import MAX_ALPHABET_SIZE, AlphabetSchedule, _check_count, _check_ints, is_config_int


# ---------------------------------------------------------------------------
# Word-order permutations.
#
# a and b below are bijections of the positive integers with the defining
# property: the n-th reduced word over {a, a^-1, b, b^-1} in shortlex order
# (empty word first, symbol order a, a^-1, b, b^-1: the order of
# `engine.reduced_words(2, ...)`) maps 1 to n, with the leftmost symbol
# applied last.


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


# ---------------------------------------------------------------------------
# Shared builders.


def _tagged(automaton: Automaton, family: str, params: Optional[dict] = None) -> Automaton:
    """Mark a freshly built machine as the builtin `family` with these
    parameters: the tag `config_of` writes back as a builtin config."""
    automaton.family = (family, {} if params is None else params)
    return automaton


# The most letters the shared size-keyed tables may hold, each charged
# its alphabet size plus ten letters for its own objects.  Under
# tracemalloc (Python 3.11) a two-state table with its signed rows, its
# `failure` verdict and its two-state calculus takes at most about 197
# bytes per charged letter (2.0 MB at 10,000 letters, of which the
# calculus is 0.16 MB; 2.3 kB at 2), so at worst they take about 32 MB,
# plus the search memos left on them.
MAX_SHARED_LETTERS = 16 * MAX_ALPHABET_SIZE
_TABLE_CHARGE = 10

# The shared tables by (builder, size, params), least recently used
# first, the letters they are charged, and the lock that keeps the two in
# step across threads.
_shared_tables: collections.OrderedDict = collections.OrderedDict()
_shared_letters = 0
_shared_lock = threading.Lock()


def _shared_table(build: Callable[..., LevelTable], size: int, *params: int) -> LevelTable:
    global _shared_letters
    key = (build, size, *params)
    with _shared_lock:
        table = _shared_tables.pop(key, None)
        if table is None:
            table = build(size, *params)
            _shared_letters += size + _TABLE_CHARGE
        _shared_tables[key] = table
        # Only a table wider than the whole budget drops itself, last.
        while _shared_letters > MAX_SHARED_LETTERS:
            (_, dropped, *_), _ = _shared_tables.popitem(last=False)
            _shared_letters -= dropped + _TABLE_CHARGE
    return table


def _size_builtin(
    schedule: AlphabetSchedule,
    build: Callable[..., LevelTable],
    *params: int,
    identity_from: Optional[int] = None,
) -> Automaton:
    """The two-state builtin whose table at a level is `build(size,
    *params)` for the level's alphabet size: example 1, example 2 and gi.

    Each builder's table is bi-reversible at every size it is built for,
    by the lemma in its docstring.  That lemma is the finite argument
    behind an exact verdict over a ramp, where no fold or identity tail
    bounds the levels, so the machine is marked through the private
    slot `_lemma_bireversible`, which no constructor takes.  Over a
    bounded schedule the machine gets the aligned fold, and exactly then
    its tables come from one process-wide LRU keyed by (builder, size,
    params) that holds at most MAX_SHARED_LETTERS charged letters: every
    machine with those sizes holds the same table objects, with their
    cached signed rows, two-state calculus, `failure` verdicts and
    equality-search memos.  Over a growing schedule there is no fold and
    every table is built fresh on request, so a ramp keeps none."""
    fold = schedule.aligned_fold(0, 1)
    make = build if fold is None else functools.partial(_shared_table, build)
    machine = Automaton(
        schedule,
        2,
        lambda level: make(schedule.size_at(level), *params),
        fold=fold,
        identity_from=identity_from,
    )
    machine._lemma_bireversible = True
    return machine


def _order_preserving_labeling(formula: Callable[[int], int], size: int) -> tuple[int, ...]:
    """Restrict a 1-based integer bijection to {1..size} as a 0-based
    permutation, routing out-of-range images through the order-preserving
    bijection onto the letters missed by the in-range images.

    The result is a permutation at every size: the formula is injective,
    so the in-range images are distinct and miss exactly as many letters
    as there are out-of-range images, and each of those takes one spare
    letter."""
    images = [formula(x) for x in range(1, size + 1)]
    in_range = {v for v in images if v <= size}
    spare = iter(sorted(set(range(1, size + 1)) - in_range))
    return tuple((v if v <= size else next(spare)) - 1 for v in images)


# ---------------------------------------------------------------------------
# Named constructions.


def _word_order_table(size: int) -> LevelTable:
    """Example 1 at any size, 1 included: diagonal with the labelings of
    `_order_preserving_labeling`, so bi-reversible."""
    return LevelTable(
        _diagonal_rows(2, size),
        (
            _order_preserving_labeling(word_order_perm_a, size),
            _order_preserving_labeling(word_order_perm_b, size),
        ),
    )


def word_order_automaton(schedule: AlphabetSchedule) -> Automaton:
    """Two-state diagonal automaton whose labelings restrict the word-order
    permutations a (state q1) and b (state q2) to each level alphabet."""
    return _tagged(_size_builtin(schedule, _word_order_table), "example1")


def cycle_transposition_automaton(
    schedule: AlphabetSchedule, *, x0: int = 0, x1: int = 1
) -> Automaton:
    """Two-state automaton that flips state exactly on the marked letter x0.

    State q1 is labeled by the long cycle through x0, x1, then the
    remaining letters in ascending order; state q2 by the transposition
    (x0 x1).  Needs every level alphabet to contain both letters.
    """
    _check_count(x0, "marked letter", least=0)
    _check_count(x1, "marked letter", least=0)
    if x0 == x1:
        raise ValueError("the marked letters must differ")
    # Tail slopes are nonnegative, so a slot is smallest in its first turn.
    low = min((*schedule.prefix, *(base for base, _ in schedule.block)))
    if low <= max(x0, x1):
        raise ValueError(
            f"every level needs at least {max(x0, x1) + 1} letters, "
            f"smallest level has {low}"
        )

    return _tagged(
        _size_builtin(schedule, _cycle_transposition_table, x0, x1),
        "example2",
        {"x0": x0, "x1": x1},
    )


def _cycle_transposition_table(size: int, x0: int, x1: int) -> LevelTable:
    """Example 2 at one size holding the distinct letters x0 and x1.

    Both states flip exactly on x0, so every letter column of the
    transition lists both states.  Both labelings are permutations and
    send x0 to x1, so the inverse flips both states exactly on x1 and is
    reversible too: the table is bi-reversible."""
    tau = perms.transposition(size, x0, x1)
    pi = perms.from_cycles(size, [[x0, x1] + [x for x in range(size) if x not in (x0, x1)]])
    return two_state_level((x0,), pi, tau)


def diagonal_automaton(
    schedule: AlphabetSchedule,
    prefix_labelings: Sequence[Sequence[Sequence[int]]],
    period_labelings: Sequence[Sequence[Sequence[int]]],
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
            _check_ints(row, "labeling entry")
            perms.check_permutation(row)
    n = counts.pop()
    if n < 1:
        raise ValueError("need at least one state")

    def table(lv) -> LevelTable:
        return LevelTable(_diagonal_rows(n, len(lv[0])), lv)

    return _tagged(
        Automaton.from_periodic_tables(
            schedule, tuple(map(table, levels)), tuple(map(table, block))
        ),
        "diagonal",
        {
            "prefix": [[list(row) for row in lv] for lv in levels],
            "period": [[list(row) for row in lv] for lv in block],
        },
    )


def sym_diagonal_automaton(
    indices: Optional[Sequence[int]] = None,
    *,
    start: Optional[int] = None,
) -> Automaton:
    """Diagonal automaton over the listed alphabet sizes with the long
    cycle (state q1) and the transposition of the first two letters
    (state q2) at every listed level.

    `indices` is a finite list of sizes, each at least 2; `start` adds an
    arithmetic tail start, start+1, ... after the list, with start at
    least 2 and at least its level len(indices) + 1.  Beyond a finite
    list without tail the automaton acts as the identity on 1-letter
    alphabets.
    """
    listed = tuple(indices) if indices is not None else ()
    _check_ints(listed, "gi index")
    if any(i < 2 for i in listed):
        raise ValueError("indices must be at least 2")
    params: dict = {}
    if listed:
        params["indices"] = list(listed)
    if start is not None:
        # The tail's first size must not lag behind its level.
        _check_count(start, "gi index", least=max(2, len(listed) + 1))
        params["start"] = start
        schedule = AlphabetSchedule.ramp(start - len(listed) - 1, prefix=listed)
        identity_from = None
    elif listed:
        schedule = AlphabetSchedule.constant(1, prefix=listed)
        identity_from = len(listed) + 1
    else:
        raise ValueError("need a finite index list or an arithmetic start")

    return _tagged(_size_builtin(schedule, _sym_table, identity_from=identity_from), "gi", params)


def _sym_table(size: int) -> LevelTable:
    """gi at one size, at least 2: diagonal with the rotation and the
    transposition (0 1) as labelings, so bi-reversible."""
    return LevelTable(
        _diagonal_rows(2, size), (perms.rotation(size), perms.transposition(size, 0, 1))
    )


# The fixed builtins' schedules and tables, built once at import and
# shared by every machine built from them.
_BINARY = AlphabetSchedule.constant(2)
_TERNARY = AlphabetSchedule.constant(3)
_Z2Z4_ODD = LevelTable(((0, 1), (1, 0)), ((1, 0), (1, 0)))
_Z2Z4_EVEN = LevelTable(((0, 0), (1, 1)), ((1, 0), (0, 1)))
_LAMPLIGHTER = LevelTable(((0, 1), (1, 0)), ((0, 1), (1, 0)))
_BELLATERRA = LevelTable(((2, 2), (0, 1), (1, 0)), ((1, 0), (0, 1), (0, 1)))
# `bellaterra_automaton().dual()`: the letters of _BELLATERRA as states.
_BELLATERRA_DUAL = LevelTable(((1, 0, 0), (0, 1, 1)), ((2, 0, 1), (2, 1, 0)))


def z2z4_automaton() -> Automaton:
    """Binary period-2 machine: odd levels flip the state on letter 1 and
    both labelings flip; even levels are diagonal with q1 flipping."""
    return _tagged(Automaton.from_periodic_tables(_BINARY, (), (_Z2Z4_ODD, _Z2Z4_EVEN)), "z2z4")


def z4_automaton() -> Automaton:
    """The two-level truncation of the period-2 machine: identical tables
    on levels 1 and 2, identity from level 3 on."""
    return _tagged(z2z4_automaton().restricted(2), "z4")


def lamplighter_automaton() -> Automaton:
    """Binary Mealy machine with transition and output both q xor x."""
    return _tagged(Automaton.from_periodic_tables(_BINARY, (), (_LAMPLIGHTER,)), "lamplighter")


def bellaterra_automaton() -> Automaton:
    """Three-state binary Mealy machine with involutive generators.

    State a flips the letter and moves to c on both letters; b and c copy
    the letter, with b staying on 1 and going to a on 0, and c going to b
    on 0 and to a on 1.
    """
    return _tagged(Automaton.from_periodic_tables(_BINARY, (), (_BELLATERRA,)), "bellaterra")


def bellaterra_dual_automaton() -> Automaton:
    """The state-letter dual: two states d0 and d1 acting on a ternary
    alphabet."""
    return _tagged(
        Automaton.from_periodic_tables(
            _TERNARY, (), (_BELLATERRA_DUAL,), state_names=("d0", "d1")
        ),
        "bellaterra_dual",
    )


def subsequence_embedding_automaton(
    inner: Automaton, host: AlphabetSchedule, start: int = 1, step: int = 1
) -> Automaton:
    """Spread `inner` over the host levels start, start+step, ... and tag
    the result for config round-trips."""
    return _tagged(
        embed_on_subsequence(inner, host, start, step),
        "embed_subsequence",
        {"inner": config_of(inner), "start": start, "step": step},
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


@functools.cache
def _binary_level_types() -> tuple[LevelTable, ...]:
    """The 12 of the 16 candidate binary two-state levels, by flip set
    and then labelings, that `LevelTable.failure` passes: built on first
    use and shared by every `random_bir22` machine."""
    labelings = ((0, 1), (1, 0))
    candidates = itertools.product(((), (0, 1), (0,), (1,)), labelings, labelings)
    return tuple(t for t in itertools.starmap(two_state_level, candidates) if t.failure is None)


def admissible_binary_level_types() -> tuple[LevelTable, ...]:
    """All 12 two-state binary level tables compatible with
    bi-reversibility, in a fixed order, as new table objects each call."""
    return tuple(LevelTable(t.transition, t.output) for t in _binary_level_types())


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
    with explicit tables drawn level by level.  Its fold is the least one
    at or past (prefix_len, period_len) that lines up with the schedule,
    for integers prefix_len >= 0 and period_len >= 1."""
    _check_count(prefix_len, "block length", least=0)
    _check_count(period_len, "block length")
    fold = schedule.aligned_fold(prefix_len, period_len)
    if fold is None:
        raise ScheduleMismatchError("needs a constant or periodic schedule tail")
    p, m = fold
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
    _check_ints((seed,), "random_bir22 parameter")
    _check_count(prefix_len, "random_bir22 parameter", least=0)
    _check_count(period_len, "random_bir22 parameter")
    rng = random.Random(seed)
    types = _binary_level_types()
    prefix = tuple(rng.choice(types) for _ in range(prefix_len))
    period = tuple(rng.choice(types) for _ in range(period_len))
    return _tagged(
        Automaton.from_periodic_tables(_BINARY, prefix, period),
        "random_bir22",
        {"seed": seed, "prefix_len": prefix_len, "period_len": period_len},
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
    if not is_config_int(value):
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
    for key in ("prefix", "period"):
        block = params[key]
        if not isinstance(block, list) or not all(
            isinstance(lv, list)
            and all(isinstance(row, list) and all(is_config_int(v) for v in row) for row in lv)
            for lv in block
        ):
            raise ValueError(
                f"parameter {key!r} must be a list of levels of integer rows"
            )
    return diagonal_automaton(schedule, params["prefix"], params["period"])


def _build_gi(schedule, params):
    _check_params(params, {"indices", "start"}, "gi")
    indices = params.get("indices")
    if indices is not None and (
        not isinstance(indices, list) or not all(is_config_int(i) for i in indices)
    ):
        raise ValueError("parameter 'indices' must be a list of integers")
    start = _int_param(params, "start") if "start" in params else None
    built = sym_diagonal_automaton(indices, start=start)
    return _check_owned_schedule(schedule, built, "gi")


# The deepest chain of `embed_subsequence` configs a document may nest:
# building, and the first table lookup of a level on the result, recurse
# through every one (over a ramp, 300 overflow the interpreter stack).
MAX_EMBED_NESTING = 32


def _embed_nesting(params: dict) -> int:
    """How many `embed_subsequence` configs nest from the one with these
    parameters down, counted without recursion."""
    depth, doc = 1, params["inner"]
    while isinstance(doc, dict) and isinstance(doc.get("automaton"), dict):
        auto = doc["automaton"]
        if auto.get("builtin") != "embed_subsequence" or not isinstance(auto.get("params"), dict):
            break
        depth, doc = depth + 1, auto["params"].get("inner")
    return depth


def _build_embed(schedule, params):
    _check_params(params, {"inner", "start", "step"}, "embed_subsequence", {"inner"})
    if _embed_nesting(params) > MAX_EMBED_NESTING:
        raise ValueError(
            f"embed_subsequence configs nest deeper than the supported {MAX_EMBED_NESTING}"
        )
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


# Every builtin family: its id, a one-line summary and the builder that
# reads its config (schedule, params).
FAMILIES: dict[str, tuple[str, Callable[[AlphabetSchedule, dict], Automaton]]] = {
    "example1": (
        "2-state diagonal automaton from the word-order integer permutations",
        _build_example1,
    ),
    "example2": (
        "2-state automaton flipping on a marked letter, cycle and transposition labelings",
        _build_example2,
    ),
    "diagonal": (
        "diagonal automaton from explicit per-level labeling blocks",
        _build_diagonal,
    ),
    "gi": (
        "2-state diagonal automaton with long-cycle and transposition labelings",
        _build_gi,
    ),
    "z2z4": (
        "binary period-2 machine generating a group of order 8",
        _fixed("z2z4", z2z4_automaton),
    ),
    "z4": (
        "two-level truncation of z2z4 generating a cyclic group of order 4",
        _fixed("z4", z4_automaton),
    ),
    "lamplighter": (
        "binary Mealy machine, reversible but not bi-reversible",
        _fixed("lamplighter", lamplighter_automaton),
    ),
    "bellaterra": (
        "3-state binary Mealy machine with involutive generators",
        _fixed("bellaterra", bellaterra_automaton),
    ),
    "bellaterra_dual": (
        "2-state ternary dual of the bellaterra machine",
        _fixed("bellaterra_dual", bellaterra_dual_automaton),
    ),
    "embed_subsequence": (
        "inner automaton spread over an arithmetic level subsequence",
        _build_embed,
    ),
    "random_bir22": (
        "seeded random binary machine from the 12 admissible level types",
        _build_random_bir22,
    ),
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
        if not isinstance(family, str):
            raise ValueError("'builtin' must be a family name string")
        if family not in FAMILIES:
            raise ValueError(
                f"unknown builtin {family!r}; known: {sorted(FAMILIES)}"
            )
        params = auto.get("params", {})
        if not isinstance(params, dict):
            raise ValueError("'params' must be an object")
        return FAMILIES[family][1](schedule, params)
    if set(auto) == {"explicit"}:
        return _explicit_from_config(schedule, auto["explicit"])
    raise ValueError(
        "'automaton' needs either the key 'builtin' (with optional 'params') "
        "or the key 'explicit'"
    )


def _explicit_from_config(schedule: AlphabetSchedule, doc: object) -> Automaton:
    if not isinstance(doc, dict) or set(doc) - {"names"} != {"states", "prefix", "period"}:
        raise ValueError(
            "explicit automaton config needs exactly the keys "
            "'states', 'prefix' and 'period', and may carry 'names'"
        )
    states = doc["states"]
    if not is_config_int(states) or states < 1:
        raise ValueError("'states' must be a positive integer")
    for part in ("prefix", "period"):
        if not isinstance(doc[part], list):
            raise ValueError(f"'{part}' must be a list of level tables")
    names = doc.get("names", [])
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ValueError("'names' must be a list of state name strings")
    prefix = tuple(LevelTable.from_config(t) for t in doc["prefix"])
    period = tuple(LevelTable.from_config(t) for t in doc["period"])
    # The block's first table sets the machine's state count, and
    # `Automaton._check` holds every other table to it.
    if period and period[0].n_states != states:
        raise ValueError(f"level table has {period[0].n_states} states, config says {states}")
    return Automaton.from_periodic_tables(schedule, prefix, period, state_names=doc.get("names"))


def config_of(a: Automaton) -> dict:
    """Serialize an automaton back to a config document.

    Builtins keep their family id and parameters; anything else must
    carry explicit periodic tables, and names that are not the defaults.
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
    explicit = {
        "states": a.n_states,
        "prefix": [t.to_config() for t in prefix],
        "period": [t.to_config() for t in period],
    }
    if a.state_names != _default_names(a.n_states):
        explicit["names"] = list(a.state_names)
    return {"schedule": a.schedule.to_config(), "automaton": {"explicit": explicit}}
