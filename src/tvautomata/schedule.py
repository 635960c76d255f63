"""Alphabet schedules: the sequence of alphabet sizes, one per tree level.

Levels are numbered from 1.  A schedule is a finite prefix of explicit
sizes followed by an infinite tail, which is either constant, periodic,
or a ramp growing by one per level.  Letters of the level-i alphabet are
0 .. size_at(i) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import InvalidWordError

# Largest alphabet size, or ramp offset, a schedule config may give.
# Tables and level words are built letter by letter, so a larger size
# would only exhaust memory.
MAX_ALPHABET_SIZE = 10_000

# The level budget: the deepest level a check depth, an orbit level, an
# equality search's depth budget or a level group may name, and the
# longest word a schedule with a ramp tail accepts.  Portraits, which
# level groups and orbits both build, recurse two frames per level, so a
# much deeper level overflows the default interpreter stack (under
# pytest, levels up to about 475 run); over a ramp, tables this deep
# already hold hundreds of letters, and stepping a word builds one table
# per letter.
MAX_LEVEL = 450


def is_config_int(value: object) -> bool:
    """An integer read from a JSON config; true and false do not count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class Constant:
    value: int

    def __post_init__(self):
        if self.value < 1:
            raise ValueError("alphabet sizes must be at least 1")


@dataclass(frozen=True)
class Periodic:
    values: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("periodic tail needs at least one size")
        if any(v < 1 for v in self.values):
            raise ValueError("alphabet sizes must be at least 1")


@dataclass(frozen=True)
class Ramp:
    """Tail whose size at absolute level i is i + offset."""

    offset: int = 0

    def __post_init__(self):
        if self.offset < 0:
            raise ValueError("ramp offset must be nonnegative")


Tail = Union[Constant, Periodic, Ramp]


@dataclass(frozen=True)
class AlphabetSchedule:
    prefix: tuple[int, ...]
    tail: Tail

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        if any(v < 1 for v in self.prefix):
            raise ValueError("alphabet sizes must be at least 1")

    @staticmethod
    def constant(value: int, prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        return AlphabetSchedule(tuple(prefix), Constant(value))

    @staticmethod
    def periodic(values: Sequence[int], prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        return AlphabetSchedule(tuple(prefix), Periodic(tuple(values)))

    @staticmethod
    def ramp(offset: int = 0, prefix: Sequence[int] = ()) -> "AlphabetSchedule":
        return AlphabetSchedule(tuple(prefix), Ramp(offset))

    def size_at(self, level: int) -> int:
        """Alphabet size at a 1-based level."""
        if level < 1:
            raise ValueError(f"levels start at 1, got {level}")
        if level <= len(self.prefix):
            return self.prefix[level - 1]
        tail = self.tail
        if isinstance(tail, Constant):
            return tail.value
        if isinstance(tail, Periodic):
            return tail.values[(level - len(self.prefix) - 1) % len(tail.values)]
        return level + tail.offset

    def sizes(self, count: int) -> tuple[int, ...]:
        return tuple(self.size_at(i) for i in range(1, count + 1))

    def bound(self) -> int | None:
        """Supremum of all sizes, or None when the schedule is unbounded."""
        if isinstance(self.tail, Ramp):
            return None
        tail_max = (
            self.tail.value if isinstance(self.tail, Constant) else max(self.tail.values)
        )
        return max((*self.prefix, tail_max))

    def periodic_structure(self) -> tuple[int, tuple[int, ...]] | None:
        """(prefix length, repeating size block), or None for a ramp tail."""
        if isinstance(self.tail, Constant):
            return len(self.prefix), (self.tail.value,)
        if isinstance(self.tail, Periodic):
            return len(self.prefix), self.tail.values
        return None

    def aligned_fold(self, p: int, m: int) -> tuple[int, int] | None:
        """The least fold at or past (p, m) that lines up with this
        schedule: its p covers the schedule's prefix and its period is a
        multiple of the size block's length.  None for a ramp tail, which
        no fold lines up with."""
        structure = self.periodic_structure()
        if structure is None:
            return None
        return max(p, structure[0]), math.lcm(m, len(structure[1]))

    def shifted(self, count: int) -> "AlphabetSchedule":
        """The schedule with the first `count` levels dropped."""
        if count < 0:
            raise ValueError("shift count must be nonnegative")
        if count == 0:
            return self
        tail = self.tail
        if isinstance(tail, Ramp):
            return AlphabetSchedule(self.prefix[count:], Ramp(tail.offset + count))
        if count <= len(self.prefix):
            return AlphabetSchedule(self.prefix[count:], tail)
        if isinstance(tail, Constant):
            return AlphabetSchedule((), tail)
        turns = (count - len(self.prefix)) % len(tail.values)
        return AlphabetSchedule((), Periodic(tail.values[turns:] + tail.values[:turns]))

    def check_word(self, word: Sequence[int]) -> tuple[int, ...]:
        """Return `word` as a tuple, raising InvalidWordError on a letter
        that is not an integer (nor a bool) or not in its level's
        alphabet, or on a word longer than MAX_LEVEL over a ramp tail."""
        if isinstance(self.tail, Ramp) and len(word) > MAX_LEVEL:
            raise InvalidWordError(
                f"word of {len(word)} letters is longer than the supported "
                f"{MAX_LEVEL} over a ramp schedule"
            )
        for i, x in enumerate(word):
            if not is_config_int(x):
                raise InvalidWordError(f"letter {x!r} at position {i} is not an integer")
            if not (0 <= x < self.size_at(i + 1)):
                raise InvalidWordError(
                    f"letter {x} at position {i} is outside alphabet of size "
                    f"{self.size_at(i + 1)}"
                )
        return tuple(word)

    def leaf_count(self, level: int) -> int:
        """The product of the sizes at levels 1 .. level, in closed form."""
        p = len(self.prefix)
        count = math.prod(self.prefix[: max(level, 0)])
        if level <= p:
            return count
        structure = self.periodic_structure()
        if structure is None:
            offset = self.tail.offset
            return count * math.prod(range(p + 1 + offset, level + offset + 1))
        block = structure[1]
        turns, part = divmod(level - p, len(block))
        return count * math.prod(block) ** turns * math.prod(block[:part])

    def to_config(self) -> dict:
        tail = self.tail
        if isinstance(tail, Constant):
            doc = {"kind": "constant", "value": tail.value}
        elif isinstance(tail, Periodic):
            doc = {"kind": "periodic", "value": list(tail.values)}
        else:
            doc = {"kind": "ramp", "value": {"offset": tail.offset}}
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
            tail: Tail = Constant(within_budget(value, "constant tail size"))
        elif kind == "periodic":
            if not isinstance(value, list) or not all(is_config_int(v) for v in value):
                raise ValueError("periodic tail value must be a list of integers")
            tail = Periodic(tuple(within_budget(v, "periodic tail size") for v in value))
        elif kind == "ramp":
            if (
                not isinstance(value, dict)
                or set(value) != {"offset"}
                or not is_config_int(value["offset"])
            ):
                raise ValueError("ramp tail value must be an object {'offset': int}")
            tail = Ramp(within_budget(value["offset"], "ramp offset"))
        else:
            raise ValueError(f"unknown tail kind {kind!r}")
        return AlphabetSchedule(tuple(prefix), tail)
