"""Permutations of range(n) represented as tuples.

`p[x]` is the image of `x`.  Composition is written right to left, so
`compose(p, q)` maps `x` to `p[q[x]]`.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence


def is_permutation(p: Sequence[int]) -> bool:
    n = len(p)
    seen = [False] * n
    for x in p:
        if not (0 <= x < n) or seen[x]:
            return False
        seen[x] = True
    return True


def check_permutation(p: Sequence[int]) -> tuple[int, ...]:
    """Return `p` as a tuple, raising ValueError if it is not a permutation."""
    if not is_permutation(p):
        raise ValueError(f"not a permutation of range({len(p)}): {p!r}")
    return tuple(p)


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))

def is_identity(p: Sequence[int]) -> bool:
    return all(p[x] == x for x in range(len(p)))


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """The permutation applying `q` first, then `p`."""
    return tuple(p[q[x]] for x in range(len(q)))


def invert(p: Sequence[int]) -> tuple[int, ...]:
    out = [0] * len(p)
    for x, y in enumerate(p):
        out[y] = x
    return tuple(out)


def cycles(p: Sequence[int]) -> list[tuple[int, ...]]:
    """Cycle decomposition, fixed points included, each cycle led by its minimum."""
    seen = [False] * len(p)
    out = []
    for start in range(len(p)):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        out.append(tuple(cyc))
    return out


def order(p: Sequence[int]) -> int:
    return math.lcm(*(len(c) for c in cycles(p))) if p else 1


def from_cycles(n: int, cycle_list: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Build a permutation of range(n) from disjoint cycles."""
    out = list(range(n))
    for cyc in cycle_list:
        for i, x in enumerate(cyc):
            if out[x] != x:
                raise ValueError("cycles are not disjoint")
            out[x] = cyc[(i + 1) % len(cyc)]
    return check_permutation(out)


def transposition(n: int, a: int, b: int) -> tuple[int, ...]:
    out = list(range(n))
    out[a], out[b] = b, a
    return tuple(out)


def rotation(n: int) -> tuple[int, ...]:
    """The n-cycle sending each x to x + 1 mod n."""
    return tuple((x + 1) % n for x in range(n))


def cycle_length_through(p: Sequence[int], x: int) -> int:
    """Length of the cycle of `p` containing `x`."""
    length = 1
    y = p[x]
    while y != x:
        length += 1
        y = p[y]
    return length
