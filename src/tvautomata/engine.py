"""Group computations for invertible transducer states.

States of an invertible transducer generate a group of tree
automorphisms.  This module works with reduced words in those states,
decides word equality by a breadth-first search over sections, computes
the finite permutation groups induced on single levels, and implements
the exponent calculus available for two-state bi-reversible machines:
letter partitions, labeling twists, positional powers of the generator
ratio, torsion bounds, and steering a base word onto a chosen target.

Composition is right to left throughout: in a word, the leftmost factor
is applied last.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence, Union

from . import perms
from .core import Automaton
from .errors import (
    BudgetExceededError,
    InvalidWordError,
    NonCoprimeModuliError,
    NotBinaryError,
    NotBiReversibleError,
    NotInvertibleError,
    NotTwoStateError,
    OrderCapExceededError,
    SteeringError,
    UndecidableRepresentationError,
    UnboundedScheduleError,
    VerificationFailedError,
)

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# words in the generators


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word in transducer states and their inverses.

    Factors are (state index, sign) pairs with sign +1 or -1.  The
    leftmost factor is applied last when the word acts on tree words.
    """

    factors: tuple[tuple[int, int], ...] = ()

    @staticmethod
    def identity() -> "GroupWord":
        return GroupWord(())

    @staticmethod
    def generator(state: int, sign: int = 1) -> "GroupWord":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return GroupWord(((state, sign),))

    @staticmethod
    def from_factors(factors: Sequence[tuple[int, int]]) -> "GroupWord":
        stack: list[tuple[int, int]] = []
        for q, s in factors:
            if s not in (1, -1):
                raise ValueError("sign must be +1 or -1")
            if stack and stack[-1][0] == q and stack[-1][1] == -s:
                stack.pop()
            else:
                stack.append((q, s))
        return GroupWord(tuple(stack))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord.from_factors(self.factors + other.factors)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((q, -s) for q, s in reversed(self.factors)))

    def __pow__(self, n: int) -> "GroupWord":
        base = self if n >= 0 else self.inverse()
        return GroupWord.from_factors(base.factors * abs(n))

    @property
    def length(self) -> int:
        return len(self.factors)

    def display(self, names: Sequence[str]) -> str:
        if not self.factors:
            return "e"
        return " ".join(
            names[q] if s > 0 else f"{names[q]}^-1" for q, s in self.factors
        )

    @staticmethod
    def parse(
        text: str, names: Union[Sequence[str], Mapping[str, int]]
    ) -> "GroupWord":
        """Parse expressions like 'a b^-1' or 'a^3*b'; 'e' is the identity.

        `names` lists the state names by index, or maps every accepted
        name to its state index.
        """
        index = (
            names
            if isinstance(names, Mapping)
            else {name: q for q, name in enumerate(names)}
        )
        tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
        if tokens in ([], ["e"], ["id"]):
            return GroupWord.identity()
        factors: list[tuple[int, int]] = []
        for tok in tokens:
            m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", tok)
            if m is None:
                raise ValueError(f"cannot parse factor {tok!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in index:
                raise ValueError(
                    f"unknown state {name!r}; states are {', '.join(index)}"
                )
            factors.extend([(index[name], 1 if exp > 0 else -1)] * abs(exp))
        return GroupWord.from_factors(factors)


def apply_word(automaton: Automaton, word: GroupWord, letters: Sequence[int]) -> Word:
    """Act on a tree word by each factor in turn, rightmost first."""
    return automaton.run_factors(word.factors, letters)[0]


# ---------------------------------------------------------------------------
# sections and equality


@dataclass(frozen=True)
class Budget:
    max_depth: int = 20
    max_states: int = 200_000


@dataclass(frozen=True)
class EqualityVerdict:
    """Outcome of an equality query.

    `method` is "periodic_bfs" when the section search closed finitely,
    in which case "equal" is exact; "depth_bounded" searches report
    "unknown" when no mismatch shows up before the depth budget.
    """

    status: str
    witness: Optional[Word] = None
    method: str = "periodic_bfs"
    explored: int = 0
    exhausted_depth: Optional[int] = None

    @property
    def is_equal(self) -> bool:
        return self.status == "equal"


Section = tuple[tuple[int, int], ...]


def step_section(
    automaton: Automaton, section: Section, level: int, letter: int
) -> tuple[int, Section]:
    """Feed one letter through a composite of states at one level.

    The section lists (state, sign) factors, leftmost applied last, so
    the letter enters at the rightmost factor and each emitted letter
    feeds the next factor to its left.  Returns the letter emitted by
    the whole composite and the section active below this node.
    """
    t = automaton.table_at(level)
    if not 0 <= letter < t.alphabet_size:
        raise InvalidWordError(f"letter {letter} out of range at level {level}")
    signs = tuple(s for _, s in section)
    y, states = t.step(tuple(q for q, _ in section), signs, letter, level)
    return y, tuple(zip(states, signs))


def _witness_path(parents: dict, node) -> Word:
    letters: list[int] = []
    while parents[node] is not None:
        node, x = parents[node]
        letters.append(x)
    return tuple(reversed(letters))


def decide_equal(
    automaton: Automaton,
    g: GroupWord,
    h: Optional[GroupWord] = None,
    *,
    budget: Optional[Budget] = None,
) -> EqualityVerdict:
    """Decide whether two words act identically on the whole tree.

    The test word is g h^-1.  Nodes of the search are pairs (tuple of
    factor states, phase), the phase being the int `Automaton.phase`
    gives; factor signs never change while stepping, so the node space
    is finite whenever the automaton has finitely many phases, and the
    search is then a complete closure.  Otherwise levels
    are explored up to the depth budget and the verdict may be unknown.

    A "not_equal" verdict carries a shortest mismatch witness w found by
    the search, already transformed so that g(w) differs from h(w).
    """
    budget = budget or Budget()
    e = g if h is None else g * h.inverse()
    if not e.factors:
        return EqualityVerdict("equal", method="periodic_bfs", explored=0)
    signs = tuple(s for _, s in e.factors)
    init = tuple(q for q, _ in e.factors)
    finite = automaton.has_finite_phases
    root = (init, automaton.phase(1))
    parents: dict = {root: None}
    queue = deque([root])
    truncated = False
    while queue:
        node = queue.popleft()
        states, level = node
        if level == 0:
            continue
        if not finite and level > budget.max_depth:
            truncated = True
            continue
        t = automaton.table_at(level)
        next_phase = automaton.phase(level + 1)
        for x in range(t.alphabet_size):
            y, new_states = t.step(states, signs, x, level)
            if y != x:
                raw = _witness_path(parents, node) + (x,)
                if h is None:
                    witness = raw
                else:
                    witness = apply_word(automaton, h.inverse(), raw)
                    left = apply_word(automaton, g, witness)
                    right = apply_word(automaton, h, witness)
                    if left == right:
                        raise VerificationFailedError(
                            "mismatch witness failed its check"
                        )
                return EqualityVerdict(
                    "not_equal",
                    witness=witness,
                    method="periodic_bfs" if finite else "depth_bounded",
                    explored=len(parents),
                )
            key = (new_states, next_phase)
            if key not in parents:
                parents[key] = (node, x)
                if len(parents) > budget.max_states:
                    raise BudgetExceededError("states", budget.max_states)
                queue.append(key)
    if truncated:
        return EqualityVerdict(
            "unknown",
            method="depth_bounded",
            explored=len(parents),
            exhausted_depth=budget.max_depth,
        )
    return EqualityVerdict("equal", method="periodic_bfs", explored=len(parents))


def element_order(
    automaton: Automaton,
    g: GroupWord,
    *,
    max_order: int = 64,
    budget: Optional[Budget] = None,
) -> Optional[int]:
    """Smallest n >= 1 with g^n trivial, or None if not established."""
    for n in range(1, max_order + 1):
        verdict = decide_equal(automaton, g**n, budget=budget)
        if verdict.status == "equal":
            return n
        if verdict.status == "unknown":
            return None
    return None


def reduced_words(n_states: int, max_len: int) -> Iterator[GroupWord]:
    """All nonempty freely reduced words up to a length, in shortlex order.

    The symbol order interleaves each state with its inverse: first
    state, its inverse, second state, and so on.
    """
    symbols = [(q, s) for q in range(n_states) for s in (1, -1)]

    def of_length(prefix: list[tuple[int, int]], todo: int) -> Iterator[GroupWord]:
        if todo == 0:
            yield GroupWord(tuple(prefix))
            return
        for sym in symbols:
            if prefix and prefix[-1][0] == sym[0] and prefix[-1][1] == -sym[1]:
                continue
            prefix.append(sym)
            yield from of_length(prefix, todo - 1)
            prefix.pop()

    for length in range(1, max_len + 1):
        yield from of_length([], length)


@dataclass
class RelationSearchResult:
    equal: list[GroupWord]
    unknown: list[GroupWord]
    checked: int


def relation_search(
    automaton: Automaton,
    max_len: int = 6,
    *,
    budget: Optional[Budget] = None,
) -> RelationSearchResult:
    """Scan reduced words for ones acting trivially.

    Words proved trivial land in `equal`; words the search could not
    settle land in `unknown`.  Both empty means the states generate a
    group that is free on them, as far as the scan can see.
    """
    result = RelationSearchResult([], [], 0)
    for word in reduced_words(automaton.n_states, max_len):
        result.checked += 1
        verdict = decide_equal(automaton, word, budget=budget)
        if verdict.status == "equal":
            result.equal.append(word)
        elif verdict.status == "unknown":
            result.unknown.append(word)
    return result


# ---------------------------------------------------------------------------
# level groups through interned portraits


class _PortraitContext:
    """Hash-consed action portraits over levels 1 .. depth.

    A portrait at level L is (root permutation, child portrait ids one
    level down).  Equal actions intern to equal ids, so group closure
    never materializes permutations of the full leaf set.
    """

    def __init__(self, automaton: Automaton, depth: int):
        self.automaton = automaton
        self.depth = depth
        self.sizes = [0] + [automaton.schedule.size_at(i) for i in range(1, depth + 1)]
        self.nodes: list[list[tuple]] = [[] for _ in range(depth + 2)]
        self.intern: list[dict] = [{} for _ in range(depth + 2)]
        self.identity_ids = [0] * (depth + 2)
        self.mk(depth + 1, (), ())
        for level in range(depth, 0, -1):
            d = self.sizes[level]
            self.identity_ids[level] = self.mk(
                level, perms.identity(d), (self.identity_ids[level + 1],) * d
            )
        self._compose_memo: list[dict] = [{} for _ in range(depth + 2)]
        self._inverse_memo: list[dict] = [{} for _ in range(depth + 2)]
        self._state_memo: dict = {}
        self._tree_memo: dict = {}

    def mk(self, level: int, root: tuple[int, ...], kids: tuple[int, ...]) -> int:
        key = (root, kids)
        table = self.intern[level]
        pid = table.get(key)
        if pid is None:
            pid = len(self.nodes[level])
            self.nodes[level].append(key)
            table[key] = pid
        return pid

    def from_state(self, level: int, q: int) -> int:
        if level > self.depth:
            return 0
        key = (level, q)
        pid = self._state_memo.get(key)
        if pid is None:
            t = self.automaton.table_at(level)
            if t.inverse_output[q] is None:
                raise NotInvertibleError(level, q)
            kids = tuple(
                self.from_state(level + 1, t.transition[q][x])
                for x in range(self.sizes[level])
            )
            pid = self.mk(level, t.output[q], kids)
            self._state_memo[key] = pid
        return pid

    def compose(self, level: int, u: int, v: int) -> int:
        """Portrait of u applied after v."""
        if level > self.depth:
            return 0
        memo = self._compose_memo[level]
        key = (u, v)
        pid = memo.get(key)
        if pid is None:
            ru, ku = self.nodes[level][u]
            rv, kv = self.nodes[level][v]
            root = tuple(ru[rv[x]] for x in range(self.sizes[level]))
            kids = tuple(
                self.compose(level + 1, ku[rv[x]], kv[x])
                for x in range(self.sizes[level])
            )
            pid = self.mk(level, root, kids)
            memo[key] = pid
        return pid

    def inverse(self, level: int, u: int) -> int:
        if level > self.depth:
            return 0
        memo = self._inverse_memo[level]
        pid = memo.get(u)
        if pid is None:
            ru, ku = self.nodes[level][u]
            root = perms.invert(ru)
            kids = tuple(
                self.inverse(level + 1, ku[root[x]]) for x in range(self.sizes[level])
            )
            pid = self.mk(level, root, kids)
            memo[u] = pid
        return pid

    def tree(self, level: int, pid: int, depth_cap: Optional[int] = None):
        """Canonical nested-tuple form, truncated at `depth_cap` levels."""
        if level > self.depth or depth_cap == 0:
            return None
        cap = None if depth_cap is None else depth_cap - 1
        key = (level, pid, depth_cap)
        out = self._tree_memo.get(key)
        if out is None:
            root, kids = self.nodes[level][pid]
            out = (root, tuple(self.tree(level + 1, k, cap) for k in kids))
            self._tree_memo[key] = out
        return out

    def leaf_permutation(self, pid: int) -> tuple[int, ...]:
        """The action on leaves of the truncated tree, leaves ordered
        lexicographically by word."""
        blocks = [1] * (self.depth + 2)
        for level in range(self.depth, 0, -1):
            blocks[level] = blocks[level + 1] * self.sizes[level]

        def walk(level: int, p: int) -> list[int]:
            if level > self.depth:
                return [0]
            root, kids = self.nodes[level][p]
            out = []
            for x in range(self.sizes[level]):
                base = root[x] * blocks[level + 1]
                out.extend(base + v for v in walk(level + 1, kids[x]))
            return out

        return tuple(walk(1, pid))


@dataclass
class LevelGroup:
    """The permutation group induced on one level's words.

    Elements are portrait ids into a private context, listed in
    discovery order starting from the identity.
    """

    automaton: Automaton
    level: int
    leaf_count: int
    order: int
    element_ids: tuple[int, ...]
    generator_ids: tuple[int, ...]
    inverse_generator_ids: tuple[int, ...]
    context: _PortraitContext = field(repr=False)

    def leaf_permutation(self, pid: int) -> tuple[int, ...]:
        return self.context.leaf_permutation(pid)

    def element_leaf_permutations(self) -> list[tuple[int, ...]]:
        return [self.leaf_permutation(e) for e in self.element_ids]

    def element_trees(self, depth: Optional[int] = None) -> set:
        return {self.context.tree(1, e, depth) for e in self.element_ids}

    def element_order(self, pid: int) -> int:
        ctx = self.context
        acc = pid
        n = 1
        while acc != ctx.identity_ids[1]:
            acc = ctx.compose(1, acc, pid)
            n += 1
            if n > self.order:
                raise VerificationFailedError("element order exceeds group order")
        return n

    def max_element_order(self) -> int:
        return max(self.element_order(e) for e in self.element_ids)


def level_group(
    automaton: Automaton, level: int, *, order_cap: int = 10**6
) -> LevelGroup:
    """Close the states' action on all words of one length into a group.

    Raises OrderCapExceededError when the closure passes `order_cap`
    elements, and NotInvertibleError when some state does not act
    invertibly down to that level.
    """
    if level < 1:
        raise ValueError("levels start at 1")
    ctx = _PortraitContext(automaton, level)
    gens = [ctx.from_state(1, q) for q in range(automaton.n_states)]
    inv_gens = [ctx.inverse(1, g) for g in gens]
    steps = gens + inv_gens
    identity = ctx.identity_ids[1]
    order_index: dict[int, int] = {identity: 0}
    elements = [identity]
    queue = deque([identity])
    while queue:
        current = queue.popleft()
        for step in steps:
            new = ctx.compose(1, current, step)
            if new not in order_index:
                order_index[new] = len(elements)
                elements.append(new)
                if len(elements) > order_cap:
                    raise OrderCapExceededError(order_cap, len(elements))
                queue.append(new)
    return LevelGroup(
        automaton,
        level,
        automaton.schedule.leaf_count(level),
        len(elements),
        tuple(elements),
        tuple(gens),
        tuple(inv_gens),
        ctx,
    )


def orbit_at_level(
    automaton: Automaton, level: int, seed: Optional[Sequence[int]] = None
) -> frozenset:
    """Orbit of one word of the given length under the generated group."""
    if seed is None:
        seed_word: Word = (0,) * level
    else:
        seed_word = automaton.schedule.check_word(seed)
        if len(seed_word) != level:
            raise ValueError(f"seed word must have length {level}")
    for i in range(1, level + 1):
        q = automaton.table_at(i).first_noninvertible_state()
        if q is not None:
            raise NotInvertibleError(i, q)
    seen = {seed_word}
    queue = deque([seed_word])
    moves = [(q, inv) for q in range(automaton.n_states) for inv in (False, True)]
    while queue:
        word = queue.popleft()
        for q, inv in moves:
            image = automaton.run(q, word, inverse=inv)[0]
            if image not in seen:
                seen.add(image)
                queue.append(image)
    return frozenset(seen)


def is_level_transitive_at(automaton: Automaton, level: int) -> bool:
    return len(orbit_at_level(automaton, level)) == automaton.schedule.leaf_count(level)


# ---------------------------------------------------------------------------
# two-state exponent calculus


def _require_two_states(automaton: Automaton) -> None:
    if automaton.n_states != 2:
        raise NotTwoStateError(
            f"operation needs exactly 2 states, automaton has {automaton.n_states}"
        )


def _check_bireversible_level(automaton: Automaton, level: int) -> None:
    reason = automaton.table_at(level).failure
    if reason is not None:
        raise NotBiReversibleError(f"level {level} fails: {reason}")


def letter_partition(automaton: Automaton, level: int) -> tuple[Word, Word]:
    """Split a level's letters into state-keeping and state-swapping ones.

    Reversibility makes both states induce the same split.  The split is
    respected by both labelings: each maps the keeping set onto the same
    image set, which is checked here.
    """
    _require_two_states(automaton)
    _check_bireversible_level(automaton, level)
    t = automaton.table_at(level)
    kept = tuple(x for x in range(t.alphabet_size) if t.transition[0][x] == 0)
    flipped = tuple(x for x in range(t.alphabet_size) if t.transition[0][x] == 1)
    if {t.output[0][x] for x in kept} != {t.output[1][x] for x in kept}:
        raise NotBiReversibleError(
            f"level {level}: labelings send the state-keeping letters to different sets"
        )
    return kept, flipped


def labeling_twist(automaton: Automaton, level: int) -> tuple[int, ...]:
    """First labeling undone, then the second applied: the per-level
    mismatch between the two states' outputs.

    Preserves both parts of the letter partition; violating that would
    mean the level is not bi-reversible, so it is verified.
    """
    kept, flipped = letter_partition(automaton, level)
    t = automaton.table_at(level)
    twist = perms.compose(t.inverse_output[0], t.output[1])
    if {twist[x] for x in kept} != set(kept):
        raise VerificationFailedError(
            f"level {level}: twist does not preserve the letter partition"
        )
    return twist


def ratio_power_image(
    automaton: Automaton, n: int, letters: Sequence[int]
) -> Word:
    """Image of a word under the n-th power of (first state)^-1 (second state),
    computed positionally.

    Each position applies a power of the labeling twist; the exponent
    sign flips after every state-swapping input letter.  Valid for
    two-state bi-reversible transducers.
    """
    _require_two_states(automaton)
    word = automaton.schedule.check_word(letters)
    out = []
    exponent = n
    for i, x in enumerate(word, start=1):
        twist = labeling_twist(automaton, i)
        out.append(perms.power(twist, exponent % perms.order(twist))[x])
        if x in letter_partition(automaton, i)[1]:
            exponent = -exponent
    return tuple(out)


def torsion_exponent_bound(automaton: Automaton) -> int:
    """Factorial of the alphabet size bound; powers of the generator
    ratio by this exponent act trivially on bounded-schedule two-state
    bi-reversible transducers."""
    _require_two_states(automaton)
    bound = automaton.schedule.bound()
    if bound is None:
        raise UnboundedScheduleError("torsion bound needs a bounded schedule")
    return math.factorial(bound)


# ---------------------------------------------------------------------------
# congruences and steering


def crt_solve(congruences: Sequence[tuple[int, int]]) -> int:
    """Smallest nonnegative solution of simultaneous congruences
    (residue, modulus) with pairwise coprime moduli."""
    x, modulus = 0, 1
    for residue, m in congruences:
        if m < 1:
            raise ValueError("moduli must be positive")
        if math.gcd(modulus, m) != 1:
            raise NonCoprimeModuliError(f"moduli are not pairwise coprime at {m}")
        delta = (residue - x) % m
        x += modulus * (delta * pow(modulus, -1, m) % m)
        modulus *= m
    return x % modulus


@dataclass(frozen=True)
class _SteeringLevel:
    size: int
    marked: int            # letter both states swap on
    partner: int           # image of the marked letter under both labelings
    long_cycle: tuple[int, ...]
    swap: tuple[int, ...]
    twist: tuple[int, ...]  # long cycle after undoing the swap


def _steering_level(automaton: Automaton, level: int) -> _SteeringLevel:
    t = automaton.table_at(level)
    d = t.alphabet_size
    flips = [x for x in range(d) if t.transition[0][x] == 1]
    if len(flips) != 1 or any(
        t.transition[1][x] != (0 if x == flips[0] else 1) for x in range(d)
    ):
        raise SteeringError(
            f"level {level}: states must swap on exactly one common letter"
        )
    marked = flips[0]
    long_cycle, swap = t.output[0], t.output[1]
    if None in t.inverse_output:
        raise SteeringError(f"level {level}: labelings must be permutations")
    partner = swap[marked]
    if partner == marked or any(
        swap[x] != x for x in range(d) if x not in (marked, partner)
    ):
        raise SteeringError(
            f"level {level}: second labeling must swap the marked letter with one partner"
        )
    if perms.cycle_length_through(long_cycle, marked) != d or long_cycle[marked] != partner:
        raise SteeringError(
            f"level {level}: first labeling must cycle all letters, marked to partner"
        )
    twist = perms.compose(long_cycle, t.inverse_output[1])
    return _SteeringLevel(d, marked, partner, tuple(long_cycle), tuple(swap), twist)


@dataclass(frozen=True)
class SteeringResult:
    word: GroupWord
    base_word: Word
    target: Word
    n0: int
    n1: int

    def display(self, names: Sequence[str]) -> str:
        return self.word.display(names)


def steer_to_word(automaton: Automaton, target: Sequence[int]) -> SteeringResult:
    """Build a word in the two states sending the base word to `target`.

    The base word consists of each level's partner letter.  The
    construction is c^n1 b^-1 c^n0 b with c the first state composed
    with the second state undone; n0 and n1 come from simultaneous
    congruences modulo the cycle lengths (size - 1), so those must be
    pairwise coprime and every involved size at least 3.
    """
    _require_two_states(automaton)
    target = automaton.schedule.check_word(target)
    if not target:
        raise SteeringError("target word must be nonempty")
    levels = [_steering_level(automaton, i) for i in range(1, len(target) + 1)]
    for lv in levels:
        if lv.size < 3:
            raise SteeringError("steering needs every involved alphabet size >= 3")
    moduli = [lv.size - 1 for lv in levels]
    for i, m in enumerate(moduli):
        for m2 in moduli[i + 1 :]:
            if math.gcd(m, m2) != 1:
                raise NonCoprimeModuliError(
                    f"cycle lengths {m} and {m2} are not coprime"
                )
    base = tuple(lv.partner for lv in levels)
    on_target = [i for i, lv in enumerate(levels) if target[i] == lv.partner]
    off_target = [i for i in range(len(levels)) if target[i] != levels[i].partner]
    if off_target:
        n0 = crt_solve(
            [(0 if i in on_target else 1, moduli[i]) for i in range(len(levels))]
        )
    else:
        n0 = math.lcm(*(moduli[i] for i in on_target))
    congruences = []
    sign = 1
    for i, lv in enumerate(levels):
        if target[i] != lv.partner:
            # After undoing the second state, this position holds the marked
            # letter twisted n0 times and swapped; walk the twist cycle on.
            reached = lv.swap[perms.power(lv.twist, n0 % moduli[i])[lv.marked]]
            e = perms.discrete_log_on_cycle(lv.twist, reached, target[i])
            congruences.append((sign * e % moduli[i], moduli[i]))
        else:
            sign = -sign
    n1 = crt_solve(congruences)
    a = GroupWord.generator(0)
    b = GroupWord.generator(1)
    c = a * b.inverse()
    word = c**n1 * b.inverse() * c**n0 * b
    image = apply_word(automaton, word, base)
    if image != target:
        raise VerificationFailedError(
            f"steering produced {image}, wanted {tuple(target)}"
        )
    return SteeringResult(word, base, tuple(target), n0, n1)


# ---------------------------------------------------------------------------
# classification of two-state binary bi-reversible machines


class GroupKind(Enum):
    TRIVIAL = "Trivial"
    Z2 = "Z2"
    Z2xZ2 = "Z2xZ2"
    Z4 = "Z4"
    Z2xZ4 = "Z2xZ4"

    @property
    def group_order(self) -> int:
        return {"Trivial": 1, "Z2": 2, "Z2xZ2": 4, "Z4": 4, "Z2xZ4": 8}[self.value]

    @property
    def exponent(self) -> int:
        return {"Trivial": 1, "Z2": 2, "Z2xZ2": 2, "Z4": 4, "Z2xZ4": 4}[self.value]


def classify_two_state_binary(automaton: Automaton) -> GroupKind:
    """Identify the group generated by a two-state all-binary
    bi-reversible transducer.

    Such groups satisfy commutativity, equal generator squares, and
    fourth powers trivial, which pins them to one of five kinds.  The
    decision runs exact equality queries, so the representation must
    have finitely many phases.
    """
    _require_two_states(automaton)
    structure = automaton.schedule.periodic_structure()
    if structure is None:
        raise NotBinaryError("schedule is unbounded, sizes cannot all be 2")
    sp, speriod = structure
    if any(v != 2 for v in automaton.schedule.prefix) or any(
        v != 2 for v in speriod
    ):
        raise NotBinaryError("every level must have a two-letter alphabet")
    if not automaton.has_finite_phases:
        raise UndecidableRepresentationError(
            "classification needs an eventually periodic or eventually trivial representation"
        )
    verdict = automaton.bireversibility()
    if not (verdict.holds and verdict.exact):
        raise NotBiReversibleError(
            f"bi-reversibility fails at level {verdict.level}: {verdict.reason}"
        )
    a = GroupWord.generator(0)
    b = GroupWord.generator(1)

    def equal(x: GroupWord, y: Optional[GroupWord] = None) -> bool:
        v = decide_equal(automaton, x, y)
        if v.status == "unknown":
            raise UndecidableRepresentationError("equality query did not close")
        return v.is_equal

    # The three relations every such machine satisfies; a failure here
    # means the preconditions were not really met.
    if not (equal(a * b, b * a) and equal(a * a, b * b) and equal(a**4)):
        raise VerificationFailedError("defining relations failed to hold")
    c = a.inverse() * b
    if equal(a):
        return GroupKind.TRIVIAL if equal(c) else GroupKind.Z2
    if equal(a * a):
        return GroupKind.Z2 if (equal(c) or equal(c, a)) else GroupKind.Z2xZ2
    return GroupKind.Z4 if (equal(c) or equal(c, a * a)) else GroupKind.Z2xZ4
