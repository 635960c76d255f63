"""Transducers over changing alphabets.

A transducer here is a finite state set together with one transition and
output table per tree level.  Level tables may differ from level to
level; the alphabet at level i is the one given by the schedule.  States
act on words letter by letter: at level i in state q, input letter x is
rewritten to output[q][x] and the state moves to transition[q][x].

Every transducer has one representation: a rule giving the table at a
level, an optional fold saying that levels past p repeat with period m,
and an optional level from which on every state acts trivially.  A fold
or an identity tail leaves finitely many distinct levels, so decisions
downstream are exact; a bare rule is checked up to a depth, unless a
builder's lemma proves every level.  A folded machine keeps its tables;
every other table is built on request and kept only by the query that
reads it.  A rule may hand out tables other machines hold too.  Every
letter is stepped through a table's cached signed rows, its own rows
forward and the inverse transducer's rows backward: by `_act`, one
factor at a time over a whole word, or by `LevelTable.step`, one letter
through every factor at once.
"""

from __future__ import annotations

import array
import functools
import math
import types
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from . import perms
from .errors import (
    NotInvertibleError,
    NotMealyError,
    ScheduleMismatchError,
)
from .schedule import MAX_LEVEL, AlphabetSchedule, _check_count, _check_ints, is_config_int

NOT_INVERTIBLE = "not_invertible"
NOT_REVERSIBLE = "not_reversible"
INVERSE_NOT_REVERSIBLE = "inverse_not_reversible"

_DEFAULT_CHECK_DEPTH = 20
_SANITY_DEPTH = 8
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The most letters a rule's fold may sample, or a random builder draw
# tables for: the sum of the alphabet sizes over its levels 1 .. p + m.
# Explicit tables are not sampled and not counted.  A long period of
# wide alphabets would otherwise build table after table until memory
# runs out.
MAX_FOLD_LETTERS = 1_000_000


def _check_fold_letters(schedule: AlphabetSchedule, p: int, m: int) -> None:
    """Refuse a fold (p, m) that lines up with `schedule` when its levels
    1 .. p + m hold more than MAX_FOLD_LETTERS letters.  The sum comes in
    closed form from the schedule's prefix and size block, so a deep fold
    is refused as fast as a shallow one."""
    start, block = schedule.periodic_structure()
    turns, part = divmod(p + m - start, len(block))
    letters = sum(schedule.prefix) + turns * sum(block) + sum(block[:part])
    if letters > MAX_FOLD_LETTERS:
        raise ValueError(
            f"fold over levels 1 .. {p + m} samples {letters} letters, "
            f"past the budget of {MAX_FOLD_LETTERS}"
        )


def _diagonal_rows(n_states: int, size: int) -> tuple[tuple[int, ...], ...]:
    """The transition of a diagonal table: every state keeps itself on
    every letter.  Its letter columns, and those of its inverse (which
    also keeps each state), list every state once, so a diagonal table
    whose labelings are permutations is bi-reversible."""
    return tuple(tuple(q for _ in range(size)) for q in range(n_states))


def _columns_are_permutations(rows: Sequence[Sequence[int]]) -> bool:
    """Each letter column of n rows of states holds every state once.
    The entries are states already, so a column holds at most n distinct
    ones, and all of them exactly when the fewest any column holds is n."""
    return min(map(len, map(set, zip(*rows)))) == len(rows)


class _TwoStateCalculus:
    """What the two-state calculus needs of one level: the root
    permutation sigma of c = a b^-1 with its section exponents, and the
    steering level's marked letter and partner.

    c moves y to a[z], z being b's labeling undone at y, and its section
    there is (t0[z], +)(t1[z], -), which is c, e or c^-1: c^eps with
    eps = t1[z] - t0[z], t0 and t1 being the two transition rows.  The
    cycles of sigma are kept once each, as (letters from the cycle's
    first letter on, running sums of eps along them, one entry longer
    than the cycle), and each letter knows its cycle (`home`) and its
    place in it (`position`): O(alphabet) in all.

    Steering needs the states to swap on exactly one letter, the marked
    one, b's labeling to swap it with one partner and fix every other
    letter, and a's labeling to cycle all letters, marked to partner.
    `refusal` names the condition a level breaks, or is None; `marked`
    and `partner` are set only when it is None.
    """

    __slots__ = ("home", "position", "cycles", "marked", "partner", "refusal")

    def __init__(self, t: LevelTable):
        out_a, swap = t.output
        to_a, to_b = t.transition
        undo_b, d = t.inverse_labeling(1), t.alphabet_size
        home, position, cycles = [-1] * d, [0] * d, []
        for first in range(d):
            if home[first] >= 0:
                continue
            letters, sums, x = [], [0], first
            while home[x] < 0:
                home[x], position[x] = len(cycles), len(letters)
                letters.append(x)
                z = undo_b[x]
                sums.append(sums[-1] + to_b[z] - to_a[z])
                x = out_a[z]
            cycles.append((array.array("i", letters), array.array("i", sums)))
        self.home, self.position = array.array("i", home), array.array("i", position)
        self.cycles = tuple(cycles)

        self.marked = self.partner = self.refusal = None
        flips = [x for x, q in enumerate(to_a) if q == 1]
        if len(flips) != 1:
            self.refusal = "states must swap on exactly one common letter"
            return
        marked = flips[0]
        partner = swap[marked]
        if partner == marked or any(swap[x] != x for x in range(d) if x not in (marked, partner)):
            self.refusal = "second labeling must swap the marked letter with one partner"
        elif perms.cycle_length_through(out_a, marked) != d or out_a[marked] != partner:
            self.refusal = "first labeling must cycle all letters, marked to partner"
        else:
            self.marked, self.partner = marked, partner

    def power(self, x: int, k: int) -> tuple[int, int]:
        """c^k at letter x, for any integer k: (sigma^k(x), the exponent
        of c^k's section there).

        Sections of powers of c commute, so that exponent is the sum of
        eps over x, sigma(x), ..., sigma^(k-1)(x).  With x at place p of
        its cycle of length L and p + k = turns L + r, that sum is the
        running sum to place r, plus `turns` times the cycle's sum, less
        the running sum to place p; floor division keeps this true for
        negative k.
        """
        letters, sums = self.cycles[self.home[x]]
        p = self.position[x]
        turns, r = divmod(p + k, len(letters))
        return letters[r], turns * sums[-1] + sums[r] - sums[p]


@dataclass(frozen=True)
class LevelTable:
    """Transition and output tables for one level, indexed [state][letter].

    Tables compare and hash by value.  What is derived from the rows is
    computed on first use and kept on the table, outside its identity:
    the signed rows, the `failure` verdict, the two-state calculus
    (`_calculus`) and the equality search's proven rows.  A table object
    shared by several machines thus shares them too.
    """

    transition: tuple[tuple[int, ...], ...]
    output: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "transition", tuple(tuple(row) for row in self.transition)
        )
        object.__setattr__(self, "output", tuple(tuple(row) for row in self.output))
        n, d = self.n_states, self.alphabet_size
        if n == 0 or d == 0:
            raise ValueError("level table needs at least one state and one letter")
        if len(self.output) != n:
            raise ValueError("transition and output tables disagree on state count")
        for row in self.transition:
            _check_ints(row, "transition entry")
            if len(row) != d or min(row) < 0 or max(row) >= n:
                raise ValueError("transition entries must be states")
        for row in self.output:
            _check_ints(row, "output entry")
            if len(row) != d or min(row) < 0 or max(row) >= d:
                raise ValueError("output entries must be letters")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    @property
    def alphabet_size(self) -> int:
        return len(self.transition[0]) if self.transition else 0

    @staticmethod
    def identity(n_states: int, size: int) -> "LevelTable":
        _check_ints((n_states, size), "identity table size")
        return LevelTable(_diagonal_rows(n_states, size), (perms.identity(size),) * n_states)

    def inverse_labeling(self, state: int) -> Optional[tuple[int, ...]]:
        """The output row of one state inverted, or None when it is not a
        permutation."""
        row = self.signed_rows[-1][state]
        return None if row is None else row[0]

    @functools.cached_property
    def failure(self) -> Optional[str]:
        """Why this level breaks bi-reversibility, as one of the reason
        strings, or None when it does not.  Computed once per table."""
        if self.first_noninvertible_state() is not None:
            return NOT_INVERTIBLE
        if not self.is_reversible():
            return NOT_REVERSIBLE
        if not self.is_inverse_reversible():
            return INVERSE_NOT_REVERSIBLE
        return None

    @functools.cached_property
    def signed_rows(
        self,
    ) -> dict[int, tuple[Optional[tuple[tuple[int, ...], tuple[int, ...]]], ...]]:
        """Per sign, then per state, the pair (output row, next-state row),
        both indexed by the input letter: sign 1 reads the table forward
        and sign -1 acts by the inverse transducer, which undoes the
        output row first and then follows the transition on the undone
        letter.  An inverse entry is None when the state's output row is
        not a permutation.  Computed once per table and not part of its
        identity."""
        backward = []
        for out, trans in zip(self.output, self.transition):
            if perms.is_permutation(out):
                inv = perms.invert(out)
                backward.append((inv, tuple(map(trans.__getitem__, inv))))
            else:
                backward.append(None)
        return {1: tuple(zip(self.output, self.transition)), -1: tuple(backward)}

    @functools.cached_property
    def _calculus(self) -> Optional[_TwoStateCalculus]:
        """The per-level facts `engine`'s two-state calculus reads off a
        two-state table, or None when a labeling is not a permutation.
        Computed once per table, in O(alphabet), and not part of its
        identity, so every machine sharing this table object shares it."""
        if None in self.signed_rows[-1]:
            return None
        return _TwoStateCalculus(self)

    @functools.cached_property
    def proven_rows(self) -> dict[tuple[int, ...], dict[tuple[int, ...], tuple]]:
        """Rows the equality search proved, keyed by factor signs and then
        by factor states: each row lists the next states per input letter
        of a node whose every letter is emitted unchanged.  Filled only by
        `engine.decide_equal` closures that end "equal", and shared by
        every machine that uses this table object."""
        return {}

    def step(
        self, states: Sequence[int], signs: Sequence[int], x: int, level: int
    ) -> tuple[int, tuple[int, ...]]:
        """Feed letter `x` through the factors (states[i], signs[i]).

        The rightmost factor reads `x` and each emitted letter feeds the
        factor to its left; a negative factor acts by its inverse
        transducer.  Returns the letter the leftmost factor emits and
        every factor's next state.  `level` only labels the
        NotInvertibleError raised when a negative factor's row is not a
        permutation.
        """
        rows = self.signed_rows
        new_states = list(states)
        for i in range(len(states) - 1, -1, -1):
            row = rows[signs[i]][states[i]]
            if row is None:
                raise NotInvertibleError(level, states[i])
            out, nxt = row
            new_states[i] = nxt[x]
            x = out[x]
        return x, tuple(new_states)

    def step_row(
        self, states: Sequence[int], signs: Sequence[int], level: int
    ) -> tuple[tuple[tuple[int, ...], ...], Optional[int]]:
        """`step` for each input letter in turn, up to the first letter
        the factors do not give back unchanged.

        Returns the next states for every letter before that one, and
        that letter, or None when every letter comes back unchanged.
        Which factor fails does not depend on the letter, so this raises
        exactly the NotInvertibleError that `step` raises for any letter.
        """
        rows = self.signed_rows
        picked = [rows[s][q] for s, q in zip(signs, states)]
        if None in picked:
            i = len(picked) - 1 - picked[::-1].index(None)
            raise NotInvertibleError(level, states[i])
        picked.reverse()  # the rightmost factor reads the letter first
        nexts = []
        for x in range(self.alphabet_size):
            y, new_states = x, []
            for out, nxt in picked:
                new_states.append(nxt[y])
                y = out[y]
            if y != x:
                return tuple(nexts), x
            new_states.reverse()
            nexts.append(tuple(new_states))
        return tuple(nexts), None

    def first_noninvertible_state(self) -> Optional[int]:
        for q, row in enumerate(self.signed_rows[-1]):
            if row is None:
                return q
        return None

    def is_invertible(self) -> bool:
        return self.first_noninvertible_state() is None

    def is_reversible(self) -> bool:
        """Every letter column is a permutation of the states."""
        return _columns_are_permutations(self.transition)

    def is_inverse_reversible(self) -> bool:
        """`inverted().is_reversible()`, read off the signed rows without
        building the inverse table; a ValueError unless invertible."""
        q = self.first_noninvertible_state()
        if q is not None:
            raise ValueError(f"state {q} has a noninvertible labeling")
        return _columns_are_permutations([nxt for _, nxt in self.signed_rows[-1]])

    def is_diagonal(self) -> bool:
        return all(
            self.transition[q][x] == q
            for q in range(self.n_states)
            for x in range(self.alphabet_size)
        )

    def is_identity(self) -> bool:
        return self.is_diagonal() and all(
            perms.is_identity(row) for row in self.output
        )

    def inverted(self) -> "LevelTable":
        """Table of the inverse transducer at this level.

        The inverse undoes the labeling first, then follows the original
        transition on the undone letter.
        """
        q = self.first_noninvertible_state()
        if q is not None:
            raise ValueError(f"state {q} has a noninvertible labeling")
        backward = self.signed_rows[-1]
        return LevelTable(
            tuple(nxt for _, nxt in backward), tuple(inv for inv, _ in backward)
        )

    def to_config(self) -> dict:
        return {
            "transition": [list(row) for row in self.transition],
            "output": [list(row) for row in self.output],
        }

    @staticmethod
    def from_config(doc: object) -> "LevelTable":
        if not isinstance(doc, dict) or set(doc) != {"transition", "output"}:
            raise ValueError(
                "level table config needs exactly the keys 'transition' and 'output'"
            )

        def rows(obj, what):
            if not isinstance(obj, list) or not all(
                isinstance(r, list) and all(is_config_int(v) for v in r) for r in obj
            ):
                raise ValueError(f"{what} must be a list of integer rows")
            return tuple(tuple(r) for r in obj)

        return LevelTable(rows(doc["transition"], "transition"), rows(doc["output"], "output"))


def _act(
    tables: Sequence[LevelTable], factors: Sequence[tuple[int, int]], word: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Feed a word through a composite of (state, sign) factors, the
    rightmost applied first, on the tables of levels 1, 2, ... given one
    per letter; return (output word, end states).  Callers check the
    word's letters and the factors' states.

    The factors run one at a time, rightmost first, each over the whole
    word, reading the tables' signed rows.  The NotInvertibleError
    raised is the one stepping letter by letter through all factors
    would raise: it names the shallowest level where a negative factor's
    row is not a permutation, and at that level the rightmost such
    factor.  So a factor that fails at a level caps the levels the
    factors to its left step at the ones above it.
    """
    if len(tables) != len(word):
        raise ValueError(f"{len(tables)} tables for a word of {len(word)} letters")
    out, ends, failed, by_sign = word, [q for q, _ in factors], None, {}
    for i in range(len(factors) - 1, -1, -1):
        q, s = factors[i]
        rows = by_sign.get(s)
        if rows is None:
            rows = by_sign[s] = [t.signed_rows[s] for t in tables]
        # After a failure `out` holds only the levels above it.
        stepped = []
        for level_rows, x in zip(rows, out):
            row = level_rows[q]
            if row is None:
                failed = (len(stepped) + 1, q)
                break
            letters, nxt = row
            stepped.append(letters[x])
            q = nxt[x]
        out, ends[i] = stepped, q
    if failed is not None:
        raise NotInvertibleError(*failed)
    return tuple(out), tuple(ends)


@dataclass(frozen=True)
class BiReversibilityVerdict:
    """Outcome of a bi-reversibility check.

    `holds` with `exact` means the property holds at every level, by a
    fold, an identity tail or a builder's lemma.  With `exact` False it
    only means no failure up to `checked_up_to`.  A failure reports the
    first bad level and one of the reason strings.
    """

    holds: bool
    level: Optional[int] = None
    reason: Optional[str] = None
    exact: bool = True
    checked_up_to: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


@functools.cache
def _default_names(n: int) -> tuple[str, ...]:
    if n <= len(_LETTERS):
        return tuple(_LETTERS[:n])
    return tuple(f"q{i}" for i in range(1, n + 1))


class Automaton:
    """A transducer bound to an alphabet schedule.

    It is given by a rule `table_fn` from levels to tables, an optional
    `fold=(p, m)` and an optional `identity_from`.  The fold says that
    every level past p repeats the level m below it; it must line up
    with the schedule's own prefix and period, with p at least 0 and m
    at least 1.  `identity_from` is a level, at least 1.  A folded
    machine keeps one tuple of its tables at levels 0 .. p + m (None at
    0), and every table in it passes one check, against the state count
    and the schedule's alphabet size at its level.  `from_periodic_tables` hands
    its explicit tables to that check as they are; a rule with a fold is
    sampled once, at levels 1 .. p + m, into the tuple and then dropped.
    A deeper level reads the entry of its phase, `periodic_tables` is a
    (prefix, period) view of the tuple, and `level_tables` gives the
    tables of a word's levels in one walk.  From `identity_from` on
    every state acts trivially and the rule is not consulted.  The tuple
    is the only table store a machine keeps: an identity-tail table past
    it, and every table of a machine without a fold, is built each time
    it is asked for and passes the same check, and a query that reads a
    level more than once keeps the table itself.  A rule may hand out
    tables other machines hold too.  A rule's fold may sample at most
    MAX_FOLD_LETTERS letters over its levels 1 .. p + m.  Levels are
    1-based.

    A phase is a class of levels that share one table and one alphabet
    size, named by an int: its representative level, or 0 for the
    trivial tail.  A fold or an identity tail leaves finitely many
    phases; without either a level is its own phase.
    `phase(level + 1)` is the phase after `phase(level)`.

    `bireversibility()` is exact by a fold, an identity tail or a
    builder's lemma.  No constructor takes the lemma's mark: only
    `families._size_builtin` sets it, and `_derive` copies it.
    """

    __slots__ = (
        "schedule",
        "n_states",
        "state_names",
        "_table_fn",
        "fold",
        "identity_from",
        "_lemma_bireversible",
        "family",
        "_tables",
    )

    def __init__(
        self,
        schedule: AlphabetSchedule,
        n_states: int,
        table_fn: Callable[[int], LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
        fold: Optional[tuple[int, int]] = None,
        identity_from: Optional[int] = None,
    ):
        _check_count(n_states, "state count")
        self.schedule = schedule
        self.n_states = n_states
        if state_names is None:
            self.state_names = _default_names(n_states)
        else:
            try:
                self.state_names = tuple(state_names)
            except TypeError:
                raise ValueError(
                    f"state names must be a sequence, got {state_names!r}"
                ) from None
            if len(self.state_names) != n_states or len(set(self.state_names)) != n_states:
                raise ValueError("state names must be distinct, one per state")
        self._table_fn: Optional[Callable[[int], LevelTable]] = table_fn
        self.fold = fold
        self.identity_from = identity_from
        # Every level is bi-reversible by a builder's lemma.
        self._lemma_bireversible = False
        # A builtin's (family id, params), set only by `families`.
        self.family: Optional[tuple[str, dict]] = None
        self._tables: Optional[tuple[Optional[LevelTable], ...]] = None
        if identity_from is not None:
            _check_count(identity_from, "identity level")
        if fold is None:
            return
        if not isinstance(fold, (tuple, list)) or len(fold) != 2:
            raise ValueError(f"fold must be a pair (p, m), got {fold!r}")
        p, m = fold
        _check_count(p, "fold length", least=0)
        _check_count(m, "fold length")
        if schedule.aligned_fold(p, m) != (p, m):
            raise ScheduleMismatchError(
                f"fold {fold} does not line up with {schedule}"
            )
        _check_fold_letters(schedule, p, m)
        # From `identity_from` on the rule is not consulted.
        live = p + m + 1 if identity_from is None else identity_from
        tables = tuple(
            table_fn(i) if i < live else LevelTable.identity(n_states, schedule.size_at(i))
            for i in range(1, p + m + 1)
        )
        self._check(1, tables)
        # A fold's tables at levels 0 .. p + m (None at 0); the one table
        # store a machine keeps.
        self._tables = (None,) + tables
        self._table_fn = None

    def _check(self, first: int, tables: Sequence[LevelTable]) -> None:
        """Refuse the tables at levels `first`, `first` + 1, ... unless
        each has this machine's state count and the schedule's alphabet
        size at its level."""
        n, size_at = self.n_states, self.schedule.size_at
        for level, table in enumerate(tables, first):
            rows = table.transition
            if len(rows) != n:
                raise ScheduleMismatchError(
                    f"table at level {level} has {len(rows)} states, expected {n}"
                )
            size = size_at(level)
            if len(rows[0]) != size:
                raise ScheduleMismatchError(
                    f"table at level {level} has alphabet size {len(rows[0])}, "
                    f"schedule says {size}"
                )

    @staticmethod
    def from_periodic_tables(
        schedule: AlphabetSchedule,
        prefix: Sequence[LevelTable],
        period: Sequence[LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
    ) -> "Automaton":
        """Build from an explicit table prefix and repeating table block.

        The table block is aligned with the schedule by unrolling both to
        a common prefix length and to the least common multiple of the
        two period lengths.  Growing schedules are rejected since no finite
        table block can match ever-growing alphabets.  The unrolled
        tables, the whole prefix and at least one block, are kept as they
        are after `_check`, against the first block table's state count.
        """
        prefix = tuple(prefix)
        period = tuple(period)
        fold = schedule.aligned_fold(len(prefix), len(period))
        if fold is None:
            raise ScheduleMismatchError(
                "explicit periodic tables need a constant or periodic schedule tail"
            )
        if not period:
            raise ValueError("periodic table block must be nonempty")
        # A machine without a rule takes its fold and the fold's tables,
        # levels 1 .. p + m: the prefix, then the block unrolled, cut
        # where a schedule prefix longer than the table prefix ends it.
        machine = Automaton(schedule, period[0].n_states, None, state_names=state_names)
        machine.fold = fold
        last = sum(fold)
        tables = (prefix + period * -(-(last - len(prefix)) // len(period)))[:last]
        machine._check(1, tables)
        machine._tables = (None,) + tables
        return machine

    @staticmethod
    def from_rule(
        schedule: AlphabetSchedule,
        n_states: int,
        table_fn: Callable[[int], LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
        identity_from: Optional[int] = None,
    ) -> "Automaton":
        """A machine given by a bare rule, with no fold.  Its
        bi-reversibility is exact only by an identity tail."""
        return Automaton(
            schedule, n_states, table_fn, state_names=state_names, identity_from=identity_from
        )

    def __repr__(self) -> str:
        kind = "periodic" if self.fold else "rule"
        return f"Automaton({self.n_states} states, {kind}, sizes {self.schedule.sizes(4)}...)"

    @property
    def name_index(self) -> Mapping[str, int]:
        """Every name of a state, mapped to its index: the machine's own
        names first, then letters by position for the first 26 states,
        then q1 .. qn, none of which overrides an own name.  Built on
        each read, never kept."""
        n = self.n_states
        index = dict(zip(self.state_names, range(n)))
        for q, x in enumerate(_LETTERS[:n]):
            index.setdefault(x, q)
        for q in range(n):
            index.setdefault(f"q{q + 1}", q)
        return types.MappingProxyType(index)

    def state_index(self, state) -> int:
        """A state's index, given as itself or as a name in `name_index`."""
        if is_config_int(state):
            if not 0 <= state < self.n_states:
                raise ValueError(f"state index {state} out of range")
            return state
        try:
            return self.name_index[state]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown state {state!r}; states are {', '.join(self.state_names)}"
            ) from None

    @property
    def periodic_tables(
        self,
    ) -> Optional[tuple[tuple[LevelTable, ...], tuple[LevelTable, ...]]]:
        """A fold's tables as (levels 1 .. p, levels p + 1 .. p + m), or
        None without a fold."""
        if self._tables is None:
            return None
        p = self.fold[0]
        return self._tables[1 : p + 1], self._tables[p + 1 :]

    def table_at(self, level: int) -> LevelTable:
        tables = self._tables
        if tables is not None and 0 < level < len(tables):
            return tables[level]
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        return self._phase_table(level)

    def level_tables(self, count: int) -> Iterable[LevelTable]:
        """The tables of levels 1 .. `count`, in order, as `table_at`
        gives them.

        On a fold (p, m) they are one tuple of three slices of the kept
        tables: the prefix, the period repeated and a partial period, so
        no level goes through `phase`.  An identity tail from level p + 1
        or before leaves identity tables in every kept entry it covers,
        so the slices hold for it too.  On a bare rule, or a fold whose
        identity tail starts past p + 1, they are `table_at`'s, asked for
        one level at a time as the reader reaches it, so a reader that
        stops early asks a rule for no deeper level.  Built per call and
        never kept.
        """
        _check_count(count, "level count", least=0)
        tables = self._tables
        if tables is None or (self.identity_from or 0) > self.fold[0] + 1:
            return map(self.table_at, range(1, count + 1))
        p = self.fold[0]
        if count <= p:
            return tables[1 : count + 1]
        period = tables[p + 1 :]
        turns, part = divmod(count - p, len(period))
        return tables[1 : p + 1] + period * turns + period[:part]

    def _phase_table(self, level: int) -> LevelTable:
        """The table of `level`'s phase: a fresh identity table in the
        trivial tail, a fold's entry, or else the rule's table, checked
        and not kept."""
        phase = self.phase(level)
        if phase == 0:
            return LevelTable.identity(self.n_states, self.schedule.size_at(level))
        if self._tables is not None:
            return self._tables[phase]
        table = self._table_fn(phase)
        self._check(phase, (table,))
        return table

    # -- phases ---------------------------------------------------------

    def phase(self, level: int) -> int:
        """The representative level of the phase containing `level`, or 0
        once the tail acts trivially.

        Levels sharing a phase share tables and alphabet sizes, so any
        search keyed on phases instead of levels stays finite whenever
        the representation is folded or eventually trivial.
        """
        if self.identity_from is not None and level >= self.identity_from:
            return 0
        if self.fold is not None:
            p, m = self.fold
            if level > p:
                return p + 1 + (level - p - 1) % m
        return level

    @property
    def has_finite_phases(self) -> bool:
        return self.fold is not None or self.identity_from is not None

    # -- actions --------------------------------------------------------

    def run(self, state, word: Sequence[int], *, inverse: bool = False):
        """Feed a word through one state; return (output word, end state).

        With `inverse` set, act by the inverse transducer of this one
        without materializing it.
        """
        out, (q,) = self.run_factors(((state, -1 if inverse else 1),), word)
        return out, q

    def run_factors(
        self, factors: Sequence[tuple[int, int]], word: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Feed a word through a composite of (state, sign) factors, the
        rightmost applied first; return (output word, end states).

        The word's tables come from one `level_tables` walk, so each
        level's table is read once, and each factor steps the whole word
        in turn, as `_act` does.
        """
        word = self.schedule.check_word(word)
        factors = [(self.state_index(q), s) for q, s in factors]
        return _act(tuple(self.level_tables(len(word))), factors, word)

    # -- level predicates ----------------------------------------------

    def bireversibility(self, up_to: Optional[int] = None) -> BiReversibilityVerdict:
        """Check invertibility, reversibility, and inverse reversibility.

        A fold is checked exactly over levels 1 .. p + m, and an identity
        tail over the levels before it.  A rule a builder's lemma proves
        bi-reversible is checked over levels 1 .. min(`up_to`,
        `_SANITY_DEPTH`) and reported exact; any other rule up to `up_to`,
        with `exact` False.  `up_to` counts levels from 1 to MAX_LEVEL.
        """
        depth = _DEFAULT_CHECK_DEPTH if up_to is None else up_to
        _check_count(depth, "check depth", level=True)
        exact = True
        if self.fold is not None:
            last = sum(self.fold)
        elif self.identity_from is not None:
            last = self.identity_from - 1
        elif self._lemma_bireversible:
            last = min(depth, _SANITY_DEPTH)
        else:
            last, exact = depth, False
        for i, table in enumerate(self.level_tables(last), 1):
            reason = table.failure
            if reason is not None:
                return BiReversibilityVerdict(False, i, reason, exact=True)
        return BiReversibilityVerdict(
            True, exact=exact, checked_up_to=None if exact else depth
        )

    # -- derived transducers -------------------------------------------

    def _derive(self, schedule, table_fn, fold, identity_from) -> "Automaton":
        """A machine with this one's states and lemma mark: the one way a
        transducer is derived from another."""
        derived = Automaton(
            schedule,
            self.n_states,
            table_fn,
            state_names=self.state_names,
            fold=fold,
            identity_from=identity_from,
        )
        derived._lemma_bireversible = self._lemma_bireversible
        return derived

    def inverse(self) -> "Automaton":
        """The inverse transducer; each state undoes its namesake."""
        return self._derive(self.schedule, self._inverted_table, self.fold, self.identity_from)

    def _inverted_table(self, level: int) -> LevelTable:
        t = self.table_at(level)
        q = t.first_noninvertible_state()
        if q is not None:
            raise NotInvertibleError(level, q)
        return t.inverted()

    def shifted(self, count: int) -> "Automaton":
        """Drop the first `count` levels; level i becomes old level i + count."""
        _check_count(count, "shift count", least=0)
        if count == 0:
            return self
        fold = None
        if self.fold is not None:
            p, m = self.fold
            fold = (max(p - count, 0), m)
        identity_from = None
        if self.identity_from is not None:
            identity_from = max(1, self.identity_from - count)
        return self._derive(
            self.schedule.shifted(count), lambda i: self.table_at(i + count), fold, identity_from
        )

    def restricted(self, depth: int) -> "Automaton":
        """Keep the first `depth` levels, act trivially beyond them."""
        _check_count(depth, "restriction depth", least=0)
        ident = depth + 1
        if self.identity_from is not None:
            ident = min(ident, self.identity_from)
        fold = self.schedule.aligned_fold(depth, 1)
        return self._derive(self.schedule, self.table_at, fold, ident)

    def mealy_table(self) -> LevelTable:
        """The single level table of a level-independent transducer."""
        if self.periodic_tables is None:
            raise NotMealyError(
                "level independence is only decidable for explicit periodic tables"
            )
        prefix, period = self.periodic_tables
        tables = set(prefix) | set(period)
        if len(tables) != 1:
            raise NotMealyError("level tables differ across levels")
        return next(iter(tables))

    def dual(self) -> "Automaton":
        """Swap the roles of states and letters of a level-independent transducer.

        The dual's states are the letters and vice versa; its transition
        reads off the original outputs and its output reads off the
        original transitions.
        """
        t = self.mealy_table()
        n, d = t.n_states, t.alphabet_size
        trans = tuple(tuple(t.output[q][x] for q in range(n)) for x in range(d))
        out = tuple(tuple(t.transition[q][x] for q in range(n)) for x in range(d))
        return Automaton.from_periodic_tables(
            AlphabetSchedule.constant(n),
            (),
            (LevelTable(trans, out),),
            state_names=tuple(f"d{x}" for x in range(d)),
        )


def embed_on_subsequence(
    inner: Automaton,
    host: AlphabetSchedule,
    start: int = 1,
    step: int = 1,
) -> Automaton:
    """Spread a transducer over the host levels start, start+step, ....

    Level start + (j-1)*step of the result carries level j of `inner`;
    all other levels act trivially.  The inner schedule must match the
    host schedule along those positions, and the match is decided at
    construction.  From inner level `first` on both sides are past their
    prefixes, their slots repeat with period T, the lcm of the two block
    lengths, and on each residue class mod T each size is affine in the
    inner level; so levels 1 .. first + 2T - 1 settle every level.
    """
    _check_count(start, "embedding start")
    _check_count(step, "embedding step")
    own = inner.schedule
    first = max(len(own.prefix) + 1, (len(host.prefix) - start) // step + 2)
    for j in range(1, first + 2 * math.lcm(len(own.block), len(host.block))):
        level = start + (j - 1) * step
        if own.size_at(j) != host.size_at(level):
            raise ScheduleMismatchError(
                f"inner level {j} has size {own.size_at(j)} but host "
                f"level {level} has size {host.size_at(level)}"
            )

    def fn(i: int) -> LevelTable:
        if i >= start and (i - start) % step == 0:
            return inner.table_at((i - start) // step + 1)
        return LevelTable.identity(inner.n_states, host.size_at(i))

    fold = None
    if inner.fold is not None:
        pi, mi = inner.fold
        fold = host.aligned_fold(start - 1 + step * pi, step * mi)
    identity_from = None
    if inner.identity_from is not None:
        identity_from = start + (inner.identity_from - 1) * step
    return inner._derive(host, fn, fold, identity_from)
