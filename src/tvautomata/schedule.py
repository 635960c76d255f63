"""Alphabet schedules: the sequence of alphabet sizes, one per tree level.

Levels are numbered from 1.  A schedule is a finite prefix of explicit
sizes followed by an infinite tail that repeats a block of (base, slope)
slots: slot j of the k-th repetition (k >= 0) has size base_j + slope_j*k.
A constant tail is one slot of slope 0, a periodic tail one slot of slope
0 per size, and a ramp growing by one per level one slot of slope 1.
Letters of the level-i alphabet are 0 .. size_at(i) - 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .errors import InvalidWordError

# Largest alphabet size, or ramp offset, a schedule config may give.
# Tables and level words are built letter by letter, so a larger size
# would only exhaust memory.
MAX_ALPHABET_SIZE = 10_000

# The level budget: the deepest level a check depth, an orbit level, an
# equality search's depth budget or a level group may name, and the
# longest word a schedule with a growing tail accepts.  Compositions and
# inverses of portraits, which level groups build, recurse two frames per
# level, so a much deeper level overflows the default interpreter stack
# (under pytest, levels up to about 475 run); over a growing tail, tables this
# deep already hold hundreds of letters, and stepping a word builds one
# table per letter.
MAX_LEVEL = 450


def is_config_int(value: object) -> bool:
    """An integer read from a JSON config; true and false do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(values: Sequence, what: str) -> None:
    """Refuse the first of `values` that is not an integer (true and
    false included) with a ValueError naming it as one `what`."""
    for v in values:
        if type(v) is not int and not is_config_int(v):
            raise ValueError(f"{what} must be an integer, got {v!r}")


def _check_count(value: int, what: str, least: int = 1, level: bool = False) -> None:
    """Refuse a count that is not an integer (true and false included),
    one below `least` and, when it names a level, one past MAX_LEVEL,
    with a ValueError naming it as `what`."""
    if type(value) is not int:
        _check_ints((value,), what)
    if value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ValueError(f"{what} must be {bound}, got {value}")
    if level and value > MAX_LEVEL:
        raise ValueError(f"{what} {value} is deeper than the supported {MAX_LEVEL}")


@functools.lru_cache(maxsize=256)
def _shared_fold(p: int, m: int) -> tuple[int, int]:
    """One tuple per recent fold, so that machines built with one fold
    hold one tuple: the classification sweep builds 20,736 machines over
    9 folds, and a tuple each took 1.1 MB."""
    return p, m


@dataclass(frozen=True)
class AlphabetSchedule:
    prefix: tuple[int, ...]
    block: tuple[tuple[int, int], ...]
    # The block's sizes when every slope is 0 (a bounded tail), else
    # None; derived once, since folds and sizes read it on every call.
    _sizes: Optional[tuple[int, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        object.__setattr__(self, "block", tuple((b, s) for b, s in self.block))
        if not self.block:
            raise ValueError("periodic tail needs at least one size")
        bases, slopes = zip(*self.block)
        sizes = self.prefix + bases
        _check_ints(sizes, "alphabet size")
        _check_ints(slopes, "tail slope")
        if min(sizes) < 1:
            raise ValueError("alphabet sizes must be at least 1")
        if min(slopes) < 0:
            raise ValueError("tail slopes must be nonnegative")
        object.__setattr__(self, "_sizes", None if any(slopes) else bases)

    @staticmethod
    def constant(value: int, prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        return AlphabetSchedule(prefix, ((value, 0),))

    @staticmethod
    def periodic(values: Sequence[int], prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        return AlphabetSchedule(prefix, tuple((v, 0) for v in values))

    @staticmethod
    def ramp(offset: int = 0, prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        """Sizes past the prefix are level + offset."""
        _check_count(offset, "ramp offset", least=0)
        return AlphabetSchedule(prefix, ((len(prefix) + 1 + offset, 1),))

    def size_at(self, level: int) -> int:
        """Alphabet size at a 1-based level."""
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        prefix, sizes = self.prefix, self._sizes
        if level <= len(prefix):
            return prefix[level - 1]
        if sizes is not None:
            return sizes[(level - len(prefix) - 1) % len(sizes)]
        turns, slot = divmod(level - len(prefix) - 1, len(self.block))
        base, slope = self.block[slot]
        return base + slope * turns

    def sizes(self, count: int) -> tuple[int, ...]:
        return tuple(self.size_at(i) for i in range(1, count + 1))

    def bound(self) -> int | None:
        """Supremum of all sizes, or None when the schedule is unbounded."""
        if self._sizes is None:
            return None
        return max((*self.prefix, *self._sizes))

    def periodic_structure(self) -> tuple[int, tuple[int, ...]] | None:
        """(prefix length, repeating size block), or None for a growing tail."""
        if self._sizes is None:
            return None
        return len(self.prefix), self._sizes

    def aligned_fold(self, p: int, m: int) -> tuple[int, int] | None:
        """The least fold at or past (p, m) that lines up with this
        schedule: its p covers the schedule's prefix and its period is a
        multiple of the size block's length.  None for a growing tail,
        which no fold lines up with."""
        if self._sizes is None:
            return None
        return _shared_fold(max(p, len(self.prefix)), math.lcm(m, len(self._sizes)))

    def shifted(self, count: int) -> "AlphabetSchedule":
        """The schedule with the first `count` levels dropped."""
        _check_count(count, "shift count", least=0)
        if count == 0:
            return self
        if count <= len(self.prefix):
            return AlphabetSchedule(self.prefix[count:], self.block)
        # The new first level is slot `slot` of repetition `turns`; slots
        # before it come next in repetition turns + 1.
        turns, slot = divmod(count - len(self.prefix), len(self.block))
        block = tuple(
            (base + slope * (turns + (j < slot)), slope)
            for j, (base, slope) in enumerate(self.block)
        )
        return AlphabetSchedule((), block[slot:] + block[:slot])

    def check_word(self, word: Sequence[int]) -> tuple[int, ...]:
        """Return `word` as a tuple, raising InvalidWordError on a letter
        that is not an integer (nor a bool) or not in its level's
        alphabet, or on a word longer than MAX_LEVEL over a growing tail.

        One pass pairs each letter with its level's size from
        `_level_sizes`; the first bad letter is refused, and a plain int
        skips the subclass test."""
        if self._sizes is None and len(word) > MAX_LEVEL:
            raise InvalidWordError(
                f"word of {len(word)} letters is longer than the supported "
                f"{MAX_LEVEL} over a ramp schedule"
            )
        for i, (x, size) in enumerate(zip(word, self._level_sizes())):
            if type(x) is not int and not is_config_int(x):
                raise InvalidWordError(f"letter {x!r} at position {i} is not an integer")
            if not 0 <= x < size:
                raise InvalidWordError(
                    f"letter {x} at position {i} is outside alphabet of size {size}"
                )
        return tuple(word)

    def _level_sizes(self) -> Iterator[int]:
        """The sizes at levels 1, 2, ..., without end: on a bounded tail
        the prefix and then the block's sizes cycled."""
        if self._sizes is not None:
            return itertools.chain(self.prefix, itertools.cycle(self._sizes))
        return itertools.chain(
            self.prefix,
            (base + slope * turns for turns in itertools.count() for base, slope in self.block),
        )

    def leaf_count(self, level: int) -> int:
        """The product of the sizes at levels 1 .. level, in closed form:
        a slot met n times gives base^n, or base (base + slope) ...
        (base + (n - 1) slope) when it grows."""
        p = len(self.prefix)
        count = math.prod(self.prefix[: max(level, 0)])
        if level <= p:
            return count
        turns, part = divmod(level - p, len(self.block))
        for j, (base, slope) in enumerate(self.block):
            n = turns + (j < part)
            count *= base**n if slope == 0 else math.prod(range(base, base + slope * n, slope))
        return count

    def to_config(self) -> dict:
        """The config of a constant, periodic or ramp tail; a ValueError
        for any other block."""
        (base, slope), width = self.block[0], len(self.block)
        if width == 1 and slope == 1 and base > len(self.prefix):
            doc = {"kind": "ramp", "value": {"offset": base - len(self.prefix) - 1}}
        elif width == 1 and slope == 0:
            doc = {"kind": "constant", "value": base}
        elif self._sizes is not None:
            doc = {"kind": "periodic", "value": list(self._sizes)}
        else:
            raise ValueError(f"no schedule config kind writes the tail block {self.block}")
        return {"prefix": list(self.prefix), "tail": doc}

    @staticmethod
    def from_config(doc: object) -> "AlphabetSchedule":
        """Read a schedule config; every size and the ramp offset must be
        at most MAX_ALPHABET_SIZE."""

        def within_budget(value: int, what: str) -> int:
            if value > MAX_ALPHABET_SIZE:
                raise ValueError(
                    f"{what} {value} is past the alphabet-size budget of "
                    f"{MAX_ALPHABET_SIZE}"
                )
            return value

        if not isinstance(doc, dict) or set(doc) != {"prefix", "tail"}:
            raise ValueError("schedule config needs exactly the keys 'prefix' and 'tail'")
        prefix = doc["prefix"]
        if not isinstance(prefix, list) or not all(is_config_int(v) for v in prefix):
            raise ValueError("schedule prefix must be a list of integers")
        for v in prefix:
            within_budget(v, "schedule prefix size")
        tail_doc = doc["tail"]
        if not isinstance(tail_doc, dict) or set(tail_doc) != {"kind", "value"}:
            raise ValueError("schedule tail needs exactly the keys 'kind' and 'value'")
        kind, value = tail_doc["kind"], tail_doc["value"]
        if kind == "constant":
            if not is_config_int(value):
                raise ValueError("constant tail value must be an integer")
            return AlphabetSchedule.constant(within_budget(value, "constant tail size"), prefix)
        if kind == "periodic":
            if not isinstance(value, list) or not all(is_config_int(v) for v in value):
                raise ValueError("periodic tail value must be a list of integers")
            sizes = [within_budget(v, "periodic tail size") for v in value]
            return AlphabetSchedule.periodic(sizes, prefix)
        if kind == "ramp":
            if (
                not isinstance(value, dict)
                or set(value) != {"offset"}
                or not is_config_int(value["offset"])
            ):
                raise ValueError("ramp tail value must be an object {'offset': int}")
            return AlphabetSchedule.ramp(within_budget(value["offset"], "ramp offset"), prefix)
        raise ValueError(f"unknown tail kind {kind!r}")
