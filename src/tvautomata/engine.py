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

import functools
import math
import re
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Mapping, Optional, Sequence, Union

from . import perms
from .core import Automaton, LevelTable
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

# Longest word `GroupWord.parse` expands, counted after adjacent powers of
# one state are summed.
MAX_WORD_FACTORS = 10**6


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
        # Adjacent powers of one state are summed before anything is
        # expanded, so the cap applies to the word's actual length.
        powers: list[list[int]] = []
        for tok in tokens:
            m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", tok)
            if m is None:
                raise ValueError(f"cannot parse factor {tok!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            if name not in index:
                raise ValueError(
                    f"unknown state {name!r}; states are {', '.join(index)}"
                )
            if powers and powers[-1][0] == index[name]:
                powers[-1][1] += exp
            else:
                powers.append([index[name], exp])
        total = sum(abs(exp) for _, exp in powers)
        if total > MAX_WORD_FACTORS:
            raise ValueError(
                f"word expression has {total} factors, at most "
                f"{MAX_WORD_FACTORS} are allowed"
            )
        factors: list[tuple[int, int]] = []
        for q, exp in powers:
            factors.extend([(q, 1 if exp > 0 else -1)] * abs(exp))
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


_DEFAULT_BUDGET = Budget()


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
    budget = budget or _DEFAULT_BUDGET
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
        if level > self.depth or v == self.identity_ids[level]:
            return u
        if u == self.identity_ids[level]:
            return v
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
        if level > self.depth or u == self.identity_ids[level]:
            return u
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

    def image(self, pid: int, vertex: Word) -> Word:
        """Where the level-1 portrait `pid` sends a tree vertex (a word of
        length at most `depth`), read off one path of root permutations."""
        out = []
        for level, x in enumerate(vertex, 1):
            root, kids = self.nodes[level][pid]
            out.append(root[x])
            pid = kids[x]
        return tuple(out)

    def first_moved_vertex(self, pid: int) -> Optional[Word]:
        """The lexicographically first vertex moved by the level-1
        portrait `pid` on the shallowest level it moves, or None for the
        identity."""
        frontier = [((), pid)]
        level = 1
        while frontier:
            nodes, fixed = self.nodes[level], self.identity_ids[level + 1]
            deeper = []
            for vertex, p in frontier:
                root, kids = nodes[p]
                for x, y in enumerate(root):
                    if x != y:
                        return vertex + (x,)
                deeper.extend((vertex + (x,), k) for x, k in enumerate(kids) if k != fixed)
            frontier = deeper
            level += 1
        return None


class _ChainLevel:
    """One level of a stabilizer chain: a base vertex, the strong
    generators fixing every earlier base vertex, and the orbit of the
    base vertex with a transversal element (and its inverse) per point.

    Orbit and generators only grow, so `tested[k]` records how many
    generators have already been tried on the k-th orbit point.
    """

    __slots__ = ("point", "generators", "orbit", "transversal", "tested")

    def __init__(self, point: Word, identity: int):
        self.point = point
        self.generators: list[int] = []
        self.orbit = [point]
        self.transversal = {point: (identity, identity)}
        self.tested = [0]


def _chain_order(ctx: _PortraitContext, generators: Sequence[int]) -> int:
    """Order of the group generated by level-1 portraits, as the product
    of the basic orbit lengths of a deterministic Schreier-Sims chain
    (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).

    Points are tree vertices and elements are interned portraits, so the
    identity test is an id comparison.  A new base vertex is the
    shallowest one a residue moves.  Levels are completed deepest first;
    a residue found while completing level i joins levels i+1 .. j, and
    completion resumes at level j.
    """
    identity = ctx.identity_ids[1]
    chain: list[_ChainLevel] = []

    def sift(h: int, i: int) -> tuple[int, int]:
        while i < len(chain) and h != identity:
            u = chain[i].transversal.get(ctx.image(h, chain[i].point))
            if u is None:
                break
            h = ctx.compose(1, u[1], h)
            i += 1
        return h, i

    def add(h: int, low: int, high: int) -> None:
        if high == len(chain):
            chain.append(_ChainLevel(ctx.first_moved_vertex(h), identity))
        for lv in chain[low : high + 1]:
            lv.generators.append(h)

    def residue(i: int) -> Optional[tuple[int, int]]:
        lv = chain[i]
        k = 0
        while k < len(lv.orbit):
            beta = lv.orbit[k]
            u = lv.transversal[beta][0]
            while lv.tested[k] < len(lv.generators):
                s = lv.generators[lv.tested[k]]
                lv.tested[k] += 1
                su = ctx.compose(1, s, u)
                gamma = ctx.image(s, beta)
                t = lv.transversal.get(gamma)
                if t is None:
                    lv.transversal[gamma] = (su, ctx.inverse(1, su))
                    lv.orbit.append(gamma)
                    lv.tested.append(0)
                elif t[0] != su:
                    h, j = sift(ctx.compose(1, t[1], su), i + 1)
                    if h != identity:
                        return h, j
            k += 1
        return None

    for g in generators:
        h, j = sift(g, 0)
        if h != identity:
            add(h, 0, j)
    i = len(chain) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
        else:
            add(found[0], i + 1, found[1])
            i = found[1]
    return math.prod(len(lv.orbit) for lv in chain)


@dataclass
class LevelGroup:
    """The permutation group induced on one level's words.

    `order` comes from a stabilizer chain and is exact.  Elements are
    portrait ids into a private context; `element_ids` enumerates them
    on first access, in discovery order starting from the identity.
    """

    automaton: Automaton
    level: int
    leaf_count: int
    order: int
    generator_ids: tuple[int, ...]
    context: _PortraitContext = field(repr=False)

    @functools.cached_property
    def element_ids(self) -> tuple[int, ...]:
        """Every element, found breadth-first from the identity."""
        ctx, gens = self.context, self.generator_ids
        steps = gens + tuple(ctx.inverse(1, g) for g in gens)
        identity = ctx.identity_ids[1]
        seen = {identity}
        elements = [identity]
        queue = deque([identity])
        while queue:
            current = queue.popleft()
            for step in steps:
                new = ctx.compose(1, current, step)
                if new not in seen:
                    seen.add(new)
                    elements.append(new)
                    queue.append(new)
        return tuple(elements)

    @functools.cached_property
    def _leaf_index(self) -> dict[Word, int]:
        words = self.automaton.schedule.words_at_level(self.level)
        return {w: i for i, w in enumerate(words)}

    def leaf_permutation(self, pid: int) -> tuple[int, ...]:
        """The action on the level's words, numbered lexicographically."""
        index = self._leaf_index
        return tuple(index[self.context.image(pid, w)] for w in index)

    def element_leaf_permutations(self) -> list[tuple[int, ...]]:
        return [self.leaf_permutation(e) for e in self.element_ids]

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


# Building and composing portraits recurses two frames per level, so a
# much deeper level overflows the default interpreter stack (1000 frames).
# Such levels are refused before any portrait is built.  Under pytest,
# levels up to about 475 still run; this leaves some headroom.
MAX_LEVEL = 450


def level_group(
    automaton: Automaton, level: int, *, order_cap: int = 10**6
) -> LevelGroup:
    """The group the states induce on all words of one length.

    Its order is the product of the basic orbit lengths of a stabilizer
    chain over tree vertices; elements are enumerated only when
    `element_ids` is first read.  Raises OrderCapExceededError, carrying
    the exact order, when that order exceeds `order_cap`;
    NotInvertibleError when some state does not act invertibly down to
    that level; and ValueError for a level outside 1 .. MAX_LEVEL.
    """
    if level < 1:
        raise ValueError("levels start at 1")
    if level > MAX_LEVEL:
        raise ValueError(f"level {level} is deeper than the supported {MAX_LEVEL}")
    ctx = _PortraitContext(automaton, level)
    gens = tuple(ctx.from_state(1, q) for q in range(automaton.n_states))
    order = _chain_order(ctx, gens)
    if order > order_cap:
        raise OrderCapExceededError(order_cap, order)
    return LevelGroup(
        automaton,
        level,
        automaton.schedule.leaf_count(level),
        order,
        gens,
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


_GEN_A = GroupWord.generator(0)
_GEN_B = GroupWord.generator(1)


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

    With c = (first state)(second state)^-1, the ratio is a^-1 c^-1 a, so
    its n-th power is a^-1 c^-n a: the word is fed through the first
    state, moved by c^-n as `_c_power_image` does, and fed back through
    the first state undone.  Every labeling must be a permutation.
    """
    _require_two_states(automaton)
    image = automaton.run(0, letters)[0]
    image = _c_power_image(automaton, -n, image)
    return automaton.run(0, image, inverse=True)[0]


def _c_cycle(t: LevelTable, x: int) -> tuple[list[int], list[int]]:
    """The cycle of c's root permutation through `x` at one level, from
    `x` on, and the running sums of the section exponents along it (one
    entry longer than the cycle: the last is the sum over the cycle).

    c = (first state)(second state)^-1 moves y to a[z] with z the second
    state's labeling undone at y, and its section there is
    (t0[z], +)(t1[z], -), which is c, e or c^-1: c^eps with
    eps = t1[z] - t0[z], t0 and t1 being the two transition rows.
    """
    undo_b, out_a = t.inverse_output[1], t.output[0]
    to_a, to_b = t.transition
    cycle, sums = [x], [0]
    while True:
        z = undo_b[cycle[-1]]
        sums.append(sums[-1] + to_b[z] - to_a[z])
        y = out_a[z]
        if y == x:
            return cycle, sums
        cycle.append(y)


def _c_power_image(automaton: Automaton, n: int, letters: Sequence[int]) -> Word:
    """Image of a word under c^n, c = (first state)(second state)^-1,
    computed positionally in O(length * alphabet) for any integer n.

    Sections of powers of c commute, so c^k sends x to sigma^k(x), sigma
    being c's root permutation, with section c^(sum_{j<k} eps(sigma^j x))
    (see `_c_cycle`).  For k = q L + r, L the length of the sigma cycle
    through x and 0 <= r < L, that exponent is q (sum over the cycle) +
    sum_{j<r} eps(sigma^j x); floor division keeps this true for negative
    k.  Every labeling must be a permutation; reversibility is not needed.
    """
    _require_two_states(automaton)
    word = automaton.schedule.check_word(letters)
    out = []
    k = n
    for i, x in enumerate(word, start=1):
        t = automaton.table_at(i)
        q = t.first_noninvertible_state()
        if q is not None:
            raise NotInvertibleError(i, q)
        cycle, sums = _c_cycle(t, x)
        turns, r = divmod(k, len(cycle))
        out.append(cycle[r])
        k = turns * sums[-1] + sums[r]
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
    swap: tuple[int, ...]
    cycle: list[int]       # c's root cycle from the marked letter on


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
    return _SteeringLevel(d, marked, partner, tuple(swap), _c_cycle(t, marked)[0])


@dataclass(frozen=True)
class SteeringResult:
    """A steering word c^n1 b^-1 c^n0 b, c = a b^-1, kept as (n0, n1).

    `word` expands it on first access.  `word_length` is its reduced
    length without expanding: c^n reduces to the 2n factors (a b^-1)^n,
    and of the three seams only c^n0 b cancels, one b^-1 against b, since
    c^n1 ends in b^-1 before b^-1 and c^n0 starts with a (n0 >= 1 always,
    and the count holds for n0 = 0 as well).  That leaves
    2 n1 + 1 + 2 n0 - 1 = 2 (n0 + n1) factors.
    """

    base_word: Word
    target: Word
    n0: int
    n1: int

    @functools.cached_property
    def word(self) -> GroupWord:
        c = _GEN_A * _GEN_B.inverse()
        return c**self.n1 * _GEN_B.inverse() * c**self.n0 * _GEN_B

    @property
    def word_length(self) -> int:
        return 2 * (self.n0 + self.n1)

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
            # letter moved n0 times by c's root and swapped; walk c's cycle on.
            reached = lv.swap[lv.cycle[n0 % moduli[i]]]
            e = lv.cycle.index(target[i]) - lv.cycle.index(reached)
            congruences.append((sign * e % moduli[i], moduli[i]))
        else:
            sign = -sign
    n1 = crt_solve(congruences)
    # Verify c^n1 b^-1 c^n0 b factor by factor, the powers positionally.
    image = automaton.run(1, base)[0]
    image = _c_power_image(automaton, n0, image)
    image = automaton.run(1, image, inverse=True)[0]
    image = _c_power_image(automaton, n1, image)
    if image != target:
        raise VerificationFailedError(
            f"steering produced {image}, wanted {tuple(target)}"
        )
    return SteeringResult(base, tuple(target), n0, n1)


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


# The query words of `classify_two_state_binary`, built once.
_AB, _BA = _GEN_A * _GEN_B, _GEN_B * _GEN_A
_AA, _BB = _GEN_A * _GEN_A, _GEN_B * _GEN_B
_A4 = _GEN_A**4
_A_INV_B = _GEN_A.inverse() * _GEN_B


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

    def equal(x: GroupWord, y: Optional[GroupWord] = None) -> bool:
        v = decide_equal(automaton, x, y)
        if v.status == "unknown":
            raise UndecidableRepresentationError("equality query did not close")
        return v.is_equal

    # The three relations every such machine satisfies; a failure here
    # means the preconditions were not really met.
    if not (equal(_AB, _BA) and equal(_AA, _BB) and equal(_A4)):
        raise VerificationFailedError("defining relations failed to hold")
    a, c = _GEN_A, _A_INV_B
    if equal(a):
        return GroupKind.TRIVIAL if equal(c) else GroupKind.Z2
    if equal(_AA):
        return GroupKind.Z2 if (equal(c) or equal(c, a)) else GroupKind.Z2xZ2
    return GroupKind.Z4 if (equal(c) or equal(c, _AA)) else GroupKind.Z2xZ4
