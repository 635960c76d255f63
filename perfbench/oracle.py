"""Expected answers for the benchmark, computed without the library's algorithms.

Everything here steps raw level tables with this file's own code, or
uses numbers fixed by the acceptance suite.  Level tables are read as
plain data: objects with `transition` and `output` rows indexed
[state][letter], as `tvautomata.LevelTable` has.  Composition is right
to left as in the library: in a factor list the rightmost (state, sign)
factor acts first.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, namedtuple

Table = namedtuple("Table", "transition output")


def step(table, states, signs, letter):
    """Feed one letter through a composite of states at one level.

    Returns the emitted letter and the states active one level down.
    """
    y = letter
    below = list(states)
    for i in range(len(states) - 1, -1, -1):
        q = states[i]
        if signs[i] > 0:
            below[i] = table.transition[q][y]
            y = table.output[q][y]
        else:
            y = table.output[q].index(y)
            below[i] = table.transition[q][y]
    return y, tuple(below)


def raw_image(table_at, factors, word):
    """Image of a word under a product of (state, sign) factors."""
    out = list(word)
    for q0, sign in reversed(factors):
        q = q0
        for i, x in enumerate(out):
            t = table_at(i + 1)
            if sign > 0:
                out[i] = t.output[q][x]
                q = t.transition[q][x]
            else:
                y = t.output[q].index(x)
                out[i] = y
                q = t.transition[q][y]
    return tuple(out)


def free_reduce(factors):
    stack = []
    for q, s in factors:
        if stack and stack[-1] == (q, -s):
            stack.pop()
        else:
            stack.append((q, s))
    return stack


# ---------------------------------------------------------------------------
# five-way classification of binary two-state bi-reversible machines

# Words whose triviality settles the kind.  With a = state 0, b = state 1
# and c = a^-1 b, such a group is abelian with a^2 = b^2 and a^4 = 1, so
# c^2 = 1 and the group is <a> x <c> up to whether c lies in <a>.
_KIND_WORDS = {
    "a": ((0, 1),),
    "c": ((0, -1), (1, 1)),
    "a^2": ((0, 1), (0, 1)),
    "c=a": ((0, -1), (1, 1), (0, -1)),
    "c=a^2": ((0, -1), (1, 1), (0, -1), (0, -1)),
}

SWEEP_KIND_COUNTS = {"Trivial": 256, "Z2": 4544, "Z2xZ2": 10560, "Z4": 2560, "Z2xZ4": 2816}


class BinaryKindOracle:
    """Kinds of machines given as (prefix, period) index tuples into a
    list of binary two-state level tables.

    A word acts trivially exactly when no section reachable from the root
    moves a letter.  The periodic part is solved once per (period, sign
    pattern) by backward reachability over all section states, so each
    machine only walks its prefix levels.
    """

    def __init__(self, types):
        self.types = types
        self._bad_starts = {}

    def _moving_starts(self, period, signs):
        key = (period, signs)
        found = self._bad_starts.get(key)
        if found is not None:
            return found
        p = len(period)
        preds = defaultdict(list)
        bad = set()
        for states in itertools.product((0, 1), repeat=len(signs)):
            for r in range(p):
                table = self.types[period[r]]
                for x in (0, 1):
                    y, below = step(table, states, signs, x)
                    if y != x:
                        bad.add((states, r))
                    preds[(below, (r + 1) % p)].append((states, r))
        todo = list(bad)
        while todo:
            for node in preds[todo.pop()]:
                if node not in bad:
                    bad.add(node)
                    todo.append(node)
        found = frozenset(states for states, r in bad if r == 0)
        self._bad_starts[key] = found
        return found

    def trivial(self, prefix, period, factors):
        signs = tuple(s for _, s in factors)
        frontier = {tuple(q for q, _ in factors)}
        for i in prefix:
            table = self.types[i]
            below = set()
            for states in frontier:
                for x in (0, 1):
                    y, nxt = step(table, states, signs, x)
                    if y != x:
                        return False
                    below.add(nxt)
            frontier = below
        return not (frontier & self._moving_starts(period, signs))

    def kind(self, prefix, period):
        def trivial(name):
            return self.trivial(prefix, period, _KIND_WORDS[name])

        if trivial("a"):
            return "Trivial" if trivial("c") else "Z2"
        if trivial("a^2"):
            return "Z2" if trivial("c") or trivial("c=a") else "Z2xZ2"
        return "Z4" if trivial("c") or trivial("c=a^2") else "Z2xZ4"


# ---------------------------------------------------------------------------
# level group orders


# Orders from the acceptance suite (criterion 10 and the (3, 4) example).
DEEP_ORDERS = {
    "bellaterra_dual": (6, 48, 192, 1536, 12288, 98304),
    "lamplighter": (2, 8, 32, 64, 256, 512, 1024, 2048),
    "example2_3_4": (6, 20736),
}


def _closure_order(generators):
    n = len(generators[0])
    identity = tuple(range(n))
    seen = {identity}
    todo = [identity]
    while todo:
        g = todo.pop()
        for s in generators:
            h = tuple(g[s[x]] for x in range(n))
            if h not in seen:
                seen.add(h)
                todo.append(h)
    return len(seen)


def binary_level_orders(table_at, n_states, depth):
    """Orders of the groups induced on levels 1 .. depth of a binary tree.

    Each state's action on the words of length k is built from its action
    on length k - 1 by one more raw table step; words are indexed as
    binary numbers, level 1 most significant.
    """
    actions = [[(0, q)] for q in range(n_states)]
    orders = []
    for level in range(1, depth + 1):
        t = table_at(level)
        actions = [
            [
                (image * 2 + t.output[end][x], t.transition[end][x])
                for image, end in act
                for x in (0, 1)
            ]
            for act in actions
        ]
        orders.append(_closure_order([tuple(img for img, _ in act) for act in actions]))
    return orders


def periodic_table_at(prefix, period):
    """Level lookup over an explicit (prefix, period) table pair."""

    def table_at(level):
        if level <= len(prefix):
            return prefix[level - 1]
        return period[(level - len(prefix) - 1) % len(period)]

    return table_at


# ---------------------------------------------------------------------------
# raw tables of the builtin machines the CLI workload uses


def example2_table(size):
    """Cycle-transposition machine with marked letters 0 and 1: both
    states swap on letter 0; state 0 is labelled by x -> x + 1 mod size,
    state 1 by the transposition (0 1)."""
    transition = (
        tuple(1 if x == 0 else 0 for x in range(size)),
        tuple(0 if x == 0 else 1 for x in range(size)),
    )
    output = (
        tuple((x + 1) % size for x in range(size)),
        (1, 0) + tuple(range(2, size)),
    )
    return Table(transition, output)


def bellaterra_dual_table():
    """State-letter dual of the three-state bellaterra machine.

    Bellaterra: a flips the letter and moves to c; b and c copy it, b
    going to a on 0 and staying on 1, c going to b on 0 and to a on 1.
    The dual's states are those letters and its letters those states.
    """
    transition = ((2, 2), (0, 1), (1, 0))
    output = ((1, 0), (0, 1), (0, 1))
    return Table(
        tuple(tuple(output[q][x] for q in range(3)) for x in range(2)),
        tuple(tuple(transition[q][x] for q in range(3)) for x in range(2)),
    )


def periodic_sizes_table_at(sizes, make_table):
    cache = {}

    def table_at(level):
        size = sizes[(level - 1) % len(sizes)]
        if size not in cache:
            cache[size] = make_table(size)
        return cache[size]

    return table_at


def level_flags(table):
    """The per-level booleans `tvauto check` reports for one table."""
    n = len(table.output)
    d = len(table.output[0])

    def is_perm(row, k):
        return sorted(row) == list(range(k))

    invertible = all(is_perm(row, d) for row in table.output)
    reversible = all(is_perm([table.transition[q][x] for q in range(n)], n) for x in range(d))
    inverse_reversible = None
    if invertible:
        inverse_reversible = all(
            is_perm([table.transition[q][table.output[q].index(x)] for q in range(n)], n)
            for x in range(d)
        )
    diagonal = all(table.transition[q][x] == q for q in range(n) for x in range(d))
    return {
        "size": d,
        "invertible": invertible,
        "reversible": reversible,
        "inverse_reversible": inverse_reversible,
        "diagonal": diagonal,
    }


def reduced_word_count(n_states, max_len):
    """Number of nonempty freely reduced words up to a length."""
    letters = 2 * n_states
    return sum(letters * (letters - 1) ** (k - 1) for k in range(1, max_len + 1))
