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
downstream are exact; a bare rule is checked up to a depth unless the
construction carries a guarantee.  Every letter is stepped by
`LevelTable.step`, which reads the table's output rows forward and its
cached inverse output rows backward.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import perms
from .errors import (
    NotInvertibleError,
    NotMealyError,
    ScheduleMismatchError,
)
from .schedule import AlphabetSchedule

NOT_INVERTIBLE = "not_invertible"
NOT_REVERSIBLE = "not_reversible"
INVERSE_NOT_REVERSIBLE = "inverse_not_reversible"

_DEFAULT_CHECK_DEPTH = 20
_SANITY_DEPTH = 8


@dataclass(frozen=True)
class LevelTable:
    """Transition and output tables for one level, indexed [state][letter]."""

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
            if len(row) != d or any(not 0 <= q < n for q in row):
                raise ValueError("transition entries must be states")
        for row in self.output:
            if len(row) != d or any(not 0 <= x < d for x in row):
                raise ValueError("output entries must be letters")

    @property
    def n_states(self) -> int:
        return len(self.transition)

    @property
    def alphabet_size(self) -> int:
        return len(self.transition[0]) if self.transition else 0

    @staticmethod
    def identity(n_states: int, size: int) -> "LevelTable":
        row = tuple(range(size))
        return LevelTable(
            tuple(tuple(q for _ in range(size)) for q in range(n_states)),
            tuple(row for _ in range(n_states)),
        )

    def labeling(self, state: int) -> tuple[int, ...]:
        """The output row of one state, as a function of the input letter."""
        return self.output[state]

    @functools.cached_property
    def inverse_output(self) -> tuple[Optional[tuple[int, ...]], ...]:
        """Each state's output row inverted; None for a row that is not a
        permutation.  Computed once per table and not part of its identity."""
        return tuple(
            perms.invert(row) if perms.is_permutation(row) else None
            for row in self.output
        )

    @functools.cached_property
    def failure(self) -> Optional[str]:
        """Why this level breaks bi-reversibility, as one of the reason
        strings, or None when it does not.  Computed once per table."""
        if self.first_noninvertible_state() is not None:
            return NOT_INVERTIBLE
        if not self.is_reversible():
            return NOT_REVERSIBLE
        if not self.inverted().is_reversible():
            return INVERSE_NOT_REVERSIBLE
        return None

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
        new_states = list(states)
        for i in range(len(states) - 1, -1, -1):
            q = states[i]
            if signs[i] > 0:
                new_states[i] = self.transition[q][x]
                x = self.output[q][x]
            else:
                row = self.inverse_output[q]
                if row is None:
                    raise NotInvertibleError(level, q)
                x = row[x]
                new_states[i] = self.transition[q][x]
        return x, tuple(new_states)

    def first_noninvertible_state(self) -> Optional[int]:
        for q, row in enumerate(self.inverse_output):
            if row is None:
                return q
        return None

    def is_invertible(self) -> bool:
        return self.first_noninvertible_state() is None

    def is_reversible(self) -> bool:
        """Every letter column is a permutation of the states."""
        n = self.n_states
        for x in range(self.alphabet_size):
            if not perms.is_permutation([self.transition[q][x] for q in range(n)]):
                return False
        return True

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
        inv_out = self.inverse_output
        trans = tuple(
            tuple(self.transition[q][inv_out[q][x]] for x in range(self.alphabet_size))
            for q in range(self.n_states)
        )
        return LevelTable(trans, inv_out)

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
                isinstance(r, list) and all(isinstance(v, int) for v in r) for r in obj
            ):
                raise ValueError(f"{what} must be a list of integer rows")
            return tuple(tuple(r) for r in obj)

        return LevelTable(rows(doc["transition"], "transition"), rows(doc["output"], "output"))


@dataclass(frozen=True)
class BiReversibilityVerdict:
    """Outcome of a bi-reversibility check.

    `holds` with `exact` means the property holds at every level.  With
    `exact` False it only means no failure up to `checked_up_to`.  A
    failure reports the first bad level and one of the reason strings.
    """

    holds: bool
    level: Optional[int] = None
    reason: Optional[str] = None
    exact: bool = True
    checked_up_to: Optional[int] = None

    def __bool__(self) -> bool:
        return self.holds


def _default_names(n: int) -> tuple[str, ...]:
    letters = "abcdefghijklmnopqrstuvwxyz"
    if n <= len(letters):
        return tuple(letters[:n])
    return tuple(f"q{i}" for i in range(n))


class Automaton:
    """A transducer bound to an alphabet schedule.

    It is given by a rule `table_fn` from levels to tables, an optional
    `fold=(p, m)` and an optional `identity_from`.  The fold says that
    every level past p repeats the level m below it; it must line up
    with the schedule's own prefix and period.  The rule is sampled once
    at levels 1 .. p + m, which fills `periodic_tables` as a
    (prefix, period) pair, and never above that.  From `identity_from`
    on every state acts trivially and the rule is not consulted.
    Levels are 1-based and tables are cached on first use.

    A phase is a class of levels that share one table and one alphabet
    size, named by an int: its representative level, or 0 for the
    trivial tail.  A fold or an identity tail leaves finitely many
    phases; without either a level is its own phase.
    `phase(level + 1)` is the phase after `phase(level)`.
    """

    def __init__(
        self,
        schedule: AlphabetSchedule,
        n_states: int,
        table_fn: Callable[[int], LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
        fold: Optional[tuple[int, int]] = None,
        exact_bireversible: bool = False,
        identity_from: Optional[int] = None,
        family: Optional[tuple[str, dict]] = None,
    ):
        if n_states < 1:
            raise ValueError("need at least one state")
        self.schedule = schedule
        self.n_states = n_states
        self.state_names = (
            tuple(state_names) if state_names is not None else _default_names(n_states)
        )
        if len(self.state_names) != n_states or len(set(self.state_names)) != n_states:
            raise ValueError("state names must be distinct, one per state")
        self._table_fn = table_fn
        self.fold = fold
        self.exact_bireversible = exact_bireversible
        self.identity_from = identity_from
        self.family = family
        self._cache: dict[int, LevelTable] = {}
        self.periodic_tables = None
        if fold is not None:
            p, m = fold
            if p < 0 or m < 1:
                raise ValueError("a fold needs p >= 0 and m >= 1")
            structure = schedule.periodic_structure()
            if structure is None or p < structure[0] or m % len(structure[1]):
                raise ScheduleMismatchError(
                    f"fold {fold} does not line up with the schedule "
                    f"{schedule.to_config()}"
                )
            self.periodic_tables = (
                tuple(self.table_at(i) for i in range(1, p + 1)),
                tuple(self.table_at(i) for i in range(p + 1, p + m + 1)),
            )

    @staticmethod
    def from_periodic_tables(
        schedule: AlphabetSchedule,
        prefix: Sequence[LevelTable],
        period: Sequence[LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
        family: Optional[tuple[str, dict]] = None,
    ) -> "Automaton":
        """Build from an explicit table prefix and repeating table block.

        The table block is aligned with the schedule by unrolling both to
        a common prefix length and to the least common multiple of the
        two period lengths.  Ramp schedules are rejected since no finite
        table block can match ever-growing alphabets.
        """
        structure = schedule.periodic_structure()
        if structure is None:
            raise ScheduleMismatchError(
                "explicit periodic tables need a constant or periodic schedule tail"
            )
        prefix = tuple(prefix)
        period = tuple(period)
        if not period:
            raise ValueError("periodic table block must be nonempty")
        n = period[0].n_states
        if any(t.n_states != n for t in prefix + period):
            raise ValueError("all level tables must share one state count")
        sched_prefix_len, sched_period = structure

        def raw(level: int) -> LevelTable:
            if level <= len(prefix):
                return prefix[level - 1]
            return period[(level - len(prefix) - 1) % len(period)]

        return Automaton(
            schedule,
            n,
            raw,
            state_names=state_names,
            fold=(
                max(len(prefix), sched_prefix_len),
                math.lcm(len(period), len(sched_period)),
            ),
            family=family,
        )

    @staticmethod
    def from_rule(
        schedule: AlphabetSchedule,
        n_states: int,
        table_fn: Callable[[int], LevelTable],
        *,
        state_names: Optional[Sequence[str]] = None,
        exact_bireversible: bool = False,
        identity_from: Optional[int] = None,
        family: Optional[tuple[str, dict]] = None,
    ) -> "Automaton":
        """A machine given by a bare rule, with no fold.

        `exact_bireversible=True` is the caller's claim that every level
        is bi-reversible; `bireversibility()` then checks only levels
        1 .. `_SANITY_DEPTH` (8) and reports the verdict as exact.
        """
        return Automaton(
            schedule,
            n_states,
            table_fn,
            state_names=state_names,
            exact_bireversible=exact_bireversible,
            identity_from=identity_from,
            family=family,
        )

    def __repr__(self) -> str:
        kind = "periodic" if self.fold else "rule"
        return f"Automaton({self.n_states} states, {kind}, sizes {self.schedule.sizes(4)}...)"

    def state_index(self, state) -> int:
        if isinstance(state, int):
            if not 0 <= state < self.n_states:
                raise ValueError(f"state index {state} out of range")
            return state
        try:
            return self.state_names.index(state)
        except ValueError:
            raise ValueError(
                f"unknown state {state!r}; states are {', '.join(self.state_names)}"
            ) from None

    def table_at(self, level: int) -> LevelTable:
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        table = self._cache.get(level)
        if table is None:
            phase = self.phase(level)
            if phase == 0:
                table = LevelTable.identity(self.n_states, self.schedule.size_at(level))
            elif phase in self._cache:
                # A level shares its phase's sizes (the fold lines up with
                # the schedule), so only tables the rule produces are checked.
                table = self._cache[phase]
            else:
                table = self._table_fn(phase)
                if table.n_states != self.n_states:
                    raise ScheduleMismatchError(
                        f"table at level {phase} has {table.n_states} states, "
                        f"expected {self.n_states}"
                    )
                if table.alphabet_size != self.schedule.size_at(phase):
                    raise ScheduleMismatchError(
                        f"table at level {phase} has alphabet size {table.alphabet_size}, "
                        f"schedule says {self.schedule.size_at(phase)}"
                    )
                self._cache[phase] = table
            self._cache[level] = table
        return table

    def labeling_at(self, level: int, state) -> tuple[int, ...]:
        return self.table_at(level).labeling(self.state_index(state))

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
        factor = (self.state_index(state), -1 if inverse else 1)
        out, (q,) = self.run_factors((factor,), word)
        return out, q

    def run_factors(
        self, factors: Sequence[tuple[int, int]], word: Sequence[int]
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Feed a word through a composite of (state, sign) factors, the
        rightmost applied first; return (output word, end states).

        The word is stepped letter by letter through all factors at once.
        """
        word = self.schedule.check_word(word)
        states = tuple(self.state_index(q) for q, _ in factors)
        signs = tuple(s for _, s in factors)
        out = []
        for i, x in enumerate(word, start=1):
            y, states = self.table_at(i).step(states, signs, x, i)
            out.append(y)
        return tuple(out), states

    def evaluate(self, state, word: Sequence[int]) -> tuple[int, ...]:
        return self.run(state, word)[0]

    # -- level predicates ----------------------------------------------

    def is_reversible_at(self, level: int) -> bool:
        return self.table_at(level).is_reversible()

    def is_diagonal_at(self, level: int) -> bool:
        return self.table_at(level).is_diagonal()

    def bireversibility(self, up_to: Optional[int] = None) -> BiReversibilityVerdict:
        """Check invertibility, reversibility, and inverse reversibility.

        A folded representation is checked exactly over levels 1 .. p + m,
        and one with an identity tail over the levels before it.  A bare
        rule is checked up to a depth, unless the construction guarantees
        the property, in which case a short sanity window is verified.
        """
        depth = up_to if up_to is not None else _DEFAULT_CHECK_DEPTH
        exact = True
        if self.fold is not None:
            last = sum(self.fold)
        elif self.identity_from is not None:
            last = self.identity_from - 1
        elif self.exact_bireversible:
            last = min(depth, _SANITY_DEPTH)
        else:
            last, exact = depth, False
        for i in range(1, last + 1):
            reason = self.table_at(i).failure
            if reason is not None:
                return BiReversibilityVerdict(False, i, reason, exact=True)
        return BiReversibilityVerdict(
            True, exact=exact, checked_up_to=None if exact else depth
        )

    def is_bireversible(self, up_to: Optional[int] = None) -> bool:
        return self.bireversibility(up_to).holds

    # -- derived transducers -------------------------------------------

    def inverse(self) -> "Automaton":
        """The inverse transducer; each state undoes its namesake."""
        return Automaton(
            self.schedule,
            self.n_states,
            self._inverted_table,
            state_names=self.state_names,
            fold=self.fold,
            exact_bireversible=self.exact_bireversible,
            identity_from=self.identity_from,
        )

    def _inverted_table(self, level: int) -> LevelTable:
        t = self.table_at(level)
        q = t.first_noninvertible_state()
        if q is not None:
            raise NotInvertibleError(level, q)
        return t.inverted()

    def shifted(self, count: int) -> "Automaton":
        """Drop the first `count` levels; level i becomes old level i + count."""
        if count < 0:
            raise ValueError("shift count must be nonnegative")
        if count == 0:
            return self
        fold = None
        if self.fold is not None:
            p, m = self.fold
            fold = (max(p - count, 0), m)
        identity_from = None
        if self.identity_from is not None:
            identity_from = max(1, self.identity_from - count)
        return Automaton(
            self.schedule.shifted(count),
            self.n_states,
            lambda i: self.table_at(i + count),
            state_names=self.state_names,
            fold=fold,
            exact_bireversible=self.exact_bireversible,
            identity_from=identity_from,
        )

    def restricted(
        self, depth: int, *, family: Optional[tuple[str, dict]] = None
    ) -> "Automaton":
        """Keep the first `depth` levels, act trivially beyond them."""
        if depth < 0:
            raise ValueError("restriction depth must be nonnegative")
        fold = None
        structure = self.schedule.periodic_structure()
        if structure is not None:
            fold = (max(depth, structure[0]), len(structure[1]))
        ident = depth + 1
        if self.identity_from is not None:
            ident = min(ident, self.identity_from)
        return Automaton(
            self.schedule,
            self.n_states,
            self.table_at,
            state_names=self.state_names,
            fold=fold,
            identity_from=ident,
            family=family,
        )

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

    @property
    def is_mealy(self) -> bool:
        try:
            self.mealy_table()
            return True
        except NotMealyError:
            return False

    def dual(self, *, family: Optional[tuple[str, dict]] = None) -> "Automaton":
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
            family=family,
        )


def embed_on_subsequence(
    inner: Automaton,
    host: AlphabetSchedule,
    start: int = 1,
    step: int = 1,
    *,
    family: Optional[tuple[str, dict]] = None,
    check_depth: int = 64,
) -> Automaton:
    """Spread a transducer over the host levels start, start+step, ....

    Level start + (j-1)*step of the result carries level j of `inner`;
    all other levels act trivially.  The inner schedule must match the
    host schedule along those positions.  The match is verified eagerly
    for the first `check_depth` inner levels and lazily afterwards.
    """
    if start < 1 or step < 1:
        raise ValueError("start and step must be at least 1")
    for j in range(1, check_depth + 1):
        if inner.schedule.size_at(j) != host.size_at(start + (j - 1) * step):
            raise ScheduleMismatchError(
                f"inner level {j} has size {inner.schedule.size_at(j)} but host "
                f"level {start + (j - 1) * step} has size "
                f"{host.size_at(start + (j - 1) * step)}"
            )

    def fn(i: int) -> LevelTable:
        if i >= start and (i - start) % step == 0:
            j = (i - start) // step + 1
            t = inner.table_at(j)
            if t.alphabet_size != host.size_at(i):
                raise ScheduleMismatchError(
                    f"inner level {j} does not match host level {i}"
                )
            return t
        return LevelTable.identity(inner.n_states, host.size_at(i))

    fold = None
    host_structure = host.periodic_structure()
    if inner.fold is not None and host_structure is not None:
        sp, speriod = host_structure
        pi, mi = inner.fold
        fold = (max(sp, start - 1 + step * pi), math.lcm(step * mi, len(speriod)))
    identity_from = None
    if inner.identity_from is not None:
        identity_from = start + (inner.identity_from - 1) * step
    return Automaton(
        host,
        inner.n_states,
        fn,
        state_names=inner.state_names,
        fold=fold,
        exact_bireversible=inner.exact_bireversible,
        identity_from=identity_from,
        family=family,
    )


def tables_equal(a: Automaton, b: Automaton, up_to: int) -> bool:
    """Same state count and identical tables on levels 1 .. up_to."""
    if a.n_states != b.n_states:
        return False
    return all(a.table_at(i) == b.table_at(i) for i in range(1, up_to + 1))
