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
from typing import Iterable, Iterator, Optional, Sequence

from . import perms
from .core import Automaton, LevelTable, _act
from .errors import (
    BudgetExceededError,
    NonCoprimeModuliError,
    NotBinaryError,
    NotBiReversibleError,
    NotInvertibleError,
    NotTwoStateError,
    OrbitTooLargeError,
    OrderCapExceededError,
    RelationScanTooLargeError,
    SteeringError,
    UndecidableRepresentationError,
    UnboundedScheduleError,
    VerificationFailedError,
)
from .schedule import _check_count, _check_ints

Word = tuple[int, ...]

# Longest word `GroupWord.parse` expands, counted after adjacent powers of
# one state are summed.
MAX_WORD_FACTORS = 10**6

# Most words `orbit_at_level` collects before it gives up, and most
# letters in them: over a ramp, deep words are long enough that a few
# thousand of them already cost seconds to step.
MAX_ORBIT_WORDS = 200_000
MAX_ORBIT_LETTERS = 4_000_000

# Most elements `LevelGroup.element_ids` lists; a larger order is refused.
MAX_GROUP_ELEMENTS = 200_000

# Most reduced words `relation_search` checks in one scan, and most
# factors in all of them: one state has only two words per length, so
# its scans are bounded by their factors.
MAX_RELATION_WORDS = 200_000
MAX_RELATION_FACTORS = 2_000_000


# ---------------------------------------------------------------------------
# words in the generators


@dataclass(frozen=True)
class GroupWord:
    """A freely reduced word in transducer states and their inverses.

    Factors are (state index, sign) pairs with a nonnegative state index
    and sign +1 or -1.  The constructor takes any such factors and keeps
    them freely reduced, so equal reduced words compare equal; a bad
    sign, a negative index or a state or sign that is not an integer
    (true and false included) raises ValueError.  The leftmost factor is
    applied last when the word acts on tree words.
    """

    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "factors", _free_reduction(self.factors))

    @functools.cached_property
    def _states_signs(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The factors' states and their signs, split on first use."""
        return tuple(zip(*self.factors)) or ((), ())

    @staticmethod
    def identity() -> "GroupWord":
        return GroupWord(())

    @staticmethod
    def generator(state: int, sign: int = 1) -> "GroupWord":
        return GroupWord(((state, sign),))

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.factors + other.factors)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((q, -s) for q, s in reversed(self.factors)))

    def __pow__(self, n: int) -> "GroupWord":
        _check_ints((n,), "exponent")
        base = self if n >= 0 else self.inverse()
        return GroupWord(base.factors * abs(n))

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
    def parse(text: str, automaton: Automaton) -> "GroupWord":
        """Parse expressions like 'a b^-1' or 'a^3*b' into a word in the
        states of `automaton`.  An empty text is the identity, and so is
        a lone 'e' or 'id' that is not in its `name_index`.  Every name
        resolves through `automaton.state_index`, which refuses an
        unknown one.
        """
        tokens = [t for t in re.split(r"[\s*]+", text.strip()) if t]
        if not tokens or (tokens in (["e"], ["id"]) and tokens[0] not in automaton.name_index):
            return GroupWord.identity()
        # Adjacent powers of one state are summed before anything is
        # expanded, so the cap applies to the word's actual length.
        powers: list[list[int]] = []
        # `state_index` builds `name_index` on each call, so each name is resolved once.
        resolved: dict[str, int] = {}
        for tok in tokens:
            m = re.fullmatch(r"([A-Za-z]\w*)(?:\^(-?\d+))?", tok)
            if m is None:
                raise ValueError(f"cannot parse factor {tok!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            q = resolved.get(name)
            if q is None:
                q = resolved[name] = automaton.state_index(name)
            if powers and powers[-1][0] == q:
                powers[-1][1] += exp
            else:
                powers.append([q, exp])
        total = sum(abs(exp) for _, exp in powers)
        if total > MAX_WORD_FACTORS:
            raise ValueError(
                f"word expression has {total} factors, at most "
                f"{MAX_WORD_FACTORS} are allowed"
            )
        factors: list[tuple[int, int]] = []
        for q, exp in powers:
            factors.extend([(q, 1 if exp > 0 else -1)] * abs(exp))
        return GroupWord(factors)


def _free_reduction(factors: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Cancel adjacent inverse factors, checking every factor on the way."""
    stack: list[tuple[int, int]] = []
    for q, s in factors:
        if type(q) is not int or type(s) is not int:
            _check_ints((q,), "state index")
            _check_ints((s,), "sign")
        if s not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if q < 0:
            raise ValueError(f"state index {q} is negative")
        if stack and stack[-1] == (q, -s):
            stack.pop()
        else:
            stack.append((q, s))
    return tuple(stack)


def apply_word(automaton: Automaton, word: GroupWord, letters: Sequence[int]) -> Word:
    """Act on a tree word by each factor in turn, rightmost first."""
    return automaton.run_factors(word.factors, letters)[0]


# ---------------------------------------------------------------------------
# sections and equality


@dataclass(frozen=True)
class Budget:
    """Limits of one equality search: the deepest level it steps to on a
    machine without finitely many phases (1 .. MAX_LEVEL), and the most
    nodes it keeps (at least 1)."""

    max_depth: int = 20
    max_states: int = 200_000

    def __post_init__(self):
        _check_count(self.max_depth, "depth budget", level=True)
        _check_count(self.max_states, "state budget")


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


def _path(node: tuple) -> Word:
    """Letters from the root down to a search node (states, parent, letter)."""
    letters = []
    while node[1] is not None:
        letters.append(node[2])
        node = node[1]
    return tuple(reversed(letters))


class _Context:
    """What every query on one machine reads, worked out once.

    The equality search reads whether the machine has finitely many
    phases, the phase `entry` = p + 1 at which a fold (p, m) with p >= 1
    and no identity tail first reaches its period, the period's other
    tables (the table part of every `period_closures` key) and the first
    phase.  Every reader steps through one `walk` from each phase to its
    table and the next phase, filled on first use.  Level groups and
    orbits read hash-consed portraits (root permutation, child ids),
    shared by every level: id 0 is the identity at every level and equal
    actions intern to equal ids, so no closure materializes permutations
    of a full leaf set.  A context lives for one public call (a query, a
    classification, a scan, a level sweep, an orbit); machines never
    keep one.
    """

    def __init__(self, automaton: Automaton):
        self.automaton = automaton
        self.finite = automaton.has_finite_phases
        fold = automaton.fold
        if fold is not None and fold[0] and automaton.identity_from is None:
            self.entry = fold[0] + 1
            self.period_key = automaton.periodic_tables[1][1:]
        else:
            self.entry = self.period_key = None
        self.start = automaton.phase(1)
        self.walk: dict[int, tuple[LevelTable, int]] = {}
        # Id 0, the identity: no letter to move and no child to visit.
        self.nodes: list[tuple] = [((), ())]
        self.intern: dict = {}
        self._compose_memo: dict = {}
        self._inverse_memo: dict = {}
        self._state_memo: dict = {}

    def step(self, phase: int) -> tuple[LevelTable, int]:
        """The table at a phase (not 0) and the phase after it, kept in `walk`."""
        automaton = self.automaton
        out = self.walk[phase] = (automaton.table_at(phase), automaton.phase(phase + 1))
        return out

    def walked(self, count: int) -> Iterator[LevelTable]:
        """The tables of levels 1 .. `count` along the walk, none of them
        in the trivial tail."""
        phase = self.start
        for _ in range(count):
            t, phase = self.walk.get(phase) or self.step(phase)
            yield t

    def mk(self, root: tuple[int, ...], kids: tuple[int, ...]) -> int:
        key = (root, kids)
        pid = self.intern.get(key)
        if pid is None:
            if any(kids) or not perms.is_identity(root):
                pid = len(self.nodes)
                self.nodes.append(key)
            else:
                pid = 0
            self.intern[key] = pid
        return pid

    def from_state(self, phase: int, level: int, q: int, span: int) -> int:
        """Portrait of state q over `span` levels from `phase`, the phase of
        `level`: kept per phase, as levels of one phase share tables from
        there on, and 0 in the identity tail; `level` names a failing level."""
        if span == 0 or phase == 0:
            return 0
        key = (phase, span, q)
        pid = self._state_memo.get(key)
        if pid is None:
            t, next_phase = self.walk.get(phase) or self.step(phase)
            if t.signed_rows[-1][q] is None:
                raise NotInvertibleError(level, q)
            kids = tuple(
                self.from_state(next_phase, level + 1, r, span - 1)
                for r in t.transition[q]
            )
            pid = self.mk(t.output[q], kids)
            self._state_memo[key] = pid
        return pid

    def compose(self, u: int, v: int) -> int:
        """Portrait of u applied after v."""
        if v == 0:
            return u
        if u == 0:
            return v
        key = (u, v)
        pid = self._compose_memo.get(key)
        if pid is None:
            ru, ku = self.nodes[u]
            rv, kv = self.nodes[v]
            root = tuple(ru[y] for y in rv)
            kids = tuple(self.compose(ku[y], k) for y, k in zip(rv, kv))
            pid = self.mk(root, kids)
            self._compose_memo[key] = pid
        return pid

    def inverse(self, u: int) -> int:
        if u == 0:
            return 0
        pid = self._inverse_memo.get(u)
        if pid is None:
            ru, ku = self.nodes[u]
            root = perms.invert(ru)
            pid = self.mk(root, tuple(self.inverse(ku[y]) for y in root))
            self._inverse_memo[u] = pid
        return pid

    def image(self, pid: int, vertex: Word) -> Word:
        """Where the portrait `pid` sends a tree vertex, read off one path
        of root permutations down to the first identity section."""
        out = []
        for x in vertex:
            if pid == 0:
                break
            root, kids = self.nodes[pid]
            out.append(root[x])
            pid = kids[x]
        return tuple(out) + vertex[len(out) :]

    def first_moved_vertex(self, pid: int) -> Optional[Word]:
        """The lexicographically first vertex moved by the portrait `pid`
        on the shallowest level it moves, or None for the identity."""
        frontier = [((), pid)]
        while frontier:
            deeper = []
            for vertex, p in frontier:
                root, kids = self.nodes[p]
                for x, y in enumerate(root):
                    if x != y:
                        return vertex + (x,)
                deeper.extend((vertex + (x,), k) for x, k in enumerate(kids) if k)
            frontier = deeper
        return None


# A search outcome: the fields of an EqualityVerdict, in order.
_Outcome = tuple[str, Optional[Word], str, int, Optional[int]]

_TRIVIAL_WORD: _Outcome = ("equal", None, "periodic_bfs", 0, None)


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

    The search is level-synchronous: every node of one breadth-first
    layer sits at the same phase, so each layer reads one table, and
    nodes are visited in the order of a plain breadth-first search.  A
    node's row (its next states per letter) is read from the table's
    `proven_rows` when an earlier closure stored it there, and is
    stepped otherwise.  Only a closure that ends "equal" stores the rows
    it stepped, on each table it used, so the stored rows are exactly
    rows of proven identities; a machine without finitely many phases
    never closes "equal" and keeps nothing.

    On a fold (p, m) with p >= 1 and no identity tail, the period's
    phases are first reached by one layer, at phase p + 1, when no node
    of theirs has been seen.  What the search does from there on depends
    only on the period's tables, the signs and that layer's ordered
    states, so its outcome is kept in the first period table's
    `period_closures` and recalled by any machine with the same period,
    whatever its prefix: the verdict, the node count it adds and the
    letters from an entering node down to the first mismatch.

    A "not_equal" verdict carries a mismatch witness.  The search finds a
    shortest word that g h^-1 moves and checks it level by level.  With
    two words, that word is then moved through h^-1 to a witness w, and
    acting with g and h on the tables the search read checks that g(w)
    differs from h(w).  A witness that fails either check raises
    VerificationFailedError.  A state index past the machine's states in
    g or h raises ValueError before the search starts, even where it
    cancels in g h^-1.
    """
    _check_states(automaton, g, h)
    ctx = _Context(automaton)
    word = g if h is None else g * h.inverse()
    outcome = _search(ctx, word, budget or _DEFAULT_BUDGET)
    if h is not None and outcome[0] == "not_equal":
        raw = outcome[1]
        tables = tuple(ctx.walked(len(raw)))
        w = _act(tables, h.inverse().factors, raw)[0]
        if _act(tables, g.factors, w)[0] == _act(tables, h.factors, w)[0]:
            raise VerificationFailedError("mismatch witness failed its check")
        outcome = (outcome[0], w, *outcome[2:])
    return EqualityVerdict(*outcome)


def _check_states(automaton: Automaton, *words: Optional[GroupWord]) -> None:
    """Refuse a state index past the machine's states, as `state_index` does."""
    for word in words:
        if word is not None and max(word.factors, default=(0,))[0] >= automaton.n_states:
            automaton.state_index(max(word.factors)[0])


def _search(ctx: _Context, word: GroupWord, budget: Budget) -> _Outcome:
    """The search `decide_equal` describes, for whether one test word acts
    trivially, on one machine's context.  A "not_equal" outcome carries
    the word's own checked witness.  Callers check the word's states
    against the machine first."""
    states, signs = word._states_signs
    if not states:
        return _TRIVIAL_WORD
    finite, entry, walk = ctx.finite, ctx.entry, ctx.walk
    closure = None  # (memo, key, nodes before the period, entering layer)
    phase, level = ctx.start, 1
    # A node is (states, parent node, letter from the parent); each phase
    # keeps its own dict of the nodes found at it, keyed by states.
    root = (states, None, None)
    found_at = {phase: {states: root}}
    layer = [root]
    explored = 1
    stepped: list[tuple[LevelTable, tuple[int, ...], tuple]] = []
    max_states = budget.max_states
    while layer and phase != 0:
        if not finite and phase > budget.max_depth:
            return ("unknown", None, "depth_bounded", explored, budget.max_depth)
        t, next_phase = walk.get(phase) or ctx.step(phase)
        if phase == entry:
            entry = None
            memo = t.period_closures
            key = (ctx.period_key, signs, tuple([node[0] for node in layer]))
            outcome = memo.get(key)
            if outcome is not None:
                # The node count only grows, so the search would have
                # raised exactly when its total passes the budget.
                explored += outcome[0]
                if explored > max_states:
                    raise BudgetExceededError("states", max_states)
                if len(outcome) == 1:
                    break
                raw = _path(layer[outcome[1]]) + outcome[2]
                witness = _mismatch_witness(ctx, states, signs, raw)
                return ("not_equal", witness, "periodic_bfs", explored, None)
            closure = (memo, key, explored, layer)
        found = found_at.get(next_phase)
        if found is None:
            found = found_at[next_phase] = {}
        # Only a machine with finitely many phases can close "equal", so
        # only its searches read or keep proven rows.
        proven = t.proven_rows.get(signs) if finite else None
        next_layer = []
        for node in layer:
            row = proven.get(node[0]) if proven else None
            mismatch = None
            if row is None:
                row, mismatch = t.step_row(node[0], signs, level)
                if mismatch is None and finite:
                    stepped.append((t, node[0], row))
            for x, new_states in enumerate(row):
                if new_states not in found:
                    child = found[new_states] = (new_states, node, x)
                    explored += 1
                    if explored > max_states:
                        raise BudgetExceededError("states", max_states)
                    next_layer.append(child)
            if mismatch is not None:
                raw = _path(node) + (mismatch,)
                if closure is not None:
                    # The entering node on this path sits p levels down.
                    memo, key, before, entering = closure
                    p = ctx.entry - 1
                    for _ in range(len(raw) - 1 - p):
                        node = node[1]
                    memo[key] = (explored - before, entering.index(node), raw[p:])
                witness = _mismatch_witness(ctx, states, signs, raw)
                method = "periodic_bfs" if finite else "depth_bounded"
                return ("not_equal", witness, method, explored, None)
        layer, phase, level = next_layer, next_phase, level + 1
    for t, row_states, row in stepped:
        t.proven_rows.setdefault(signs, {})[row_states] = row
    if closure is not None:
        memo, key, before, _ = closure
        memo[key] = (explored - before,)
    return ("equal", None, "periodic_bfs", explored, None)


def _mismatch_witness(
    ctx: _Context, states: tuple[int, ...], signs: tuple[int, ...], raw: Word
) -> Word:
    """`raw`, once checked to tell the test word (states, signs) from the
    identity: stepped level by level through `LevelTable.step`, up to the
    first letter it moves, on the tables of the context's walk, which the
    search has already read."""
    phase = ctx.start
    for level, x in enumerate(raw, start=1):
        t, phase = ctx.walk.get(phase) or ctx.step(phase)
        y, states = t.step(states, signs, x, level)
        if y != x:
            return raw
    raise VerificationFailedError("mismatch witness failed its check")


def element_order(
    automaton: Automaton,
    g: GroupWord,
    *,
    max_order: int = 64,
    budget: Optional[Budget] = None,
) -> Optional[int]:
    """Smallest n >= 1 with g^n trivial, or None if not established.
    A `max_order` below 1 raises ValueError."""
    _check_count(max_order, "max order")
    _check_states(automaton, g)
    ctx, budget = _Context(automaton), budget or _DEFAULT_BUDGET
    for n in range(1, max_order + 1):
        status = _search(ctx, g**n, budget)[0]
        if status == "equal":
            return n
        if status == "unknown":
            return None
    return None


def reduced_words(n_states: int, max_len: int) -> Iterator[GroupWord]:
    """All nonempty freely reduced words up to a length, in shortlex order.

    The symbol order interleaves each state with its inverse: first
    state, its inverse, second state, and so on.
    """
    symbols = [(q, s) for q in range(n_states) for s in (1, -1)]

    def of_length(length: int) -> Iterator[GroupWord]:
        # Depth first without recursion, so any length the relation
        # budget admits is enumerated: one symbol iterator per position
        # of the prefix, and one more for the position after it.
        prefix: list[tuple[int, int]] = []
        choices = [iter(symbols)]
        while choices:
            sym = next(choices[-1], None)
            if sym is None:
                choices.pop()
                if prefix:
                    prefix.pop()
            elif not prefix or prefix[-1] != (sym[0], -sym[1]):
                prefix.append(sym)
                if len(prefix) == length:
                    yield GroupWord(tuple(prefix))
                    prefix.pop()
                else:
                    choices.append(iter(symbols))

    for length in range(1, max_len + 1):
        yield from of_length(length)


def _reduced_word_totals(n_states: int, max_len: int) -> tuple[int, int]:
    """How many words `reduced_words` yields and how many factors they
    hold together: the sums over k = 1 .. max_len of 2n (2n - 1)^(k - 1)
    and of k 2n (2n - 1)^(k - 1), in closed form."""
    r, L = 2 * n_states - 1, max_len
    if r == 1:
        return 2 * L, L * (L + 1)
    power = r**L
    factors = (L * power * r - (L + 1) * power + 1) // (r - 1) ** 2
    return 2 * n_states * (power - 1) // (r - 1), 2 * n_states * factors


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
    group that is free on them, as far as the scan can see.  `max_len`
    may be 0, which scans no word.  A scan of more than
    MAX_RELATION_WORDS words, or of more than MAX_RELATION_FACTORS
    factors in all its words, raises RelationScanTooLargeError before it
    starts.
    """
    _check_count(max_len, "word length", least=0)
    # Each length adds at least two words, so a length past the word
    # budget already passes it, and the count never needs a longer one.
    words, factors = _reduced_word_totals(
        automaton.n_states, min(max_len, MAX_RELATION_WORDS)
    )
    if words > MAX_RELATION_WORDS:
        raise RelationScanTooLargeError(max_len, MAX_RELATION_WORDS)
    if factors > MAX_RELATION_FACTORS:
        raise RelationScanTooLargeError(max_len, MAX_RELATION_FACTORS, "factors")
    ctx, budget = _Context(automaton), budget or _DEFAULT_BUDGET
    result = RelationSearchResult([], [], 0)
    for word in reduced_words(automaton.n_states, max_len):
        result.checked += 1
        status = _search(ctx, word, budget)[0]
        if status == "equal":
            result.equal.append(word)
        elif status == "unknown":
            result.unknown.append(word)
    return result


# ---------------------------------------------------------------------------
# level groups through interned portraits


class _ChainLevel:
    """One level of a stabilizer chain: a base vertex, the strong
    generators fixing every earlier base vertex, and the orbit of the
    base vertex with a transversal element (and its inverse) per point.

    Orbit and generators only grow, so `tested[k]` records how many
    generators have already been tried on the k-th orbit point.
    """

    __slots__ = ("point", "generators", "orbit", "transversal", "tested")

    def __init__(self, point: Word):
        self.point = point
        self.generators: list[int] = []
        self.orbit = [point]
        self.transversal = {point: (0, 0)}
        self.tested = [0]


def _elements(
    ctx: _Context, generators: Sequence[int], limit: int
) -> Optional[tuple[int, ...]]:
    """The elements of the group generated by portraits, breadth-first
    from the identity as products of generators, or None once more than
    `limit` are found.  A level group acts on a finite set, so the powers
    of a generator reach its inverse."""
    elements = [0]
    seen = {0}
    for current in elements:
        for g in generators:
            new = ctx.compose(g, current)
            if new not in seen:
                if len(elements) == limit:
                    return None
                seen.add(new)
                elements.append(new)
    return tuple(elements)


def _chain_order(ctx: _Context, generators: Sequence[int], cap: int) -> int:
    """Order of the group generated by portraits, as the product
    of the basic orbit lengths of a deterministic Schreier-Sims chain
    (Sims 1970; Seress, Permutation Group Algorithms, 2003, ch. 4).

    Points are tree vertices and elements are interned portraits, so the
    identity test is an id comparison.  A new base vertex is the
    shallowest one a residue moves.  Levels are completed deepest first;
    a residue found while completing level i joins levels i+1 .. j, and
    completion resumes at level j.  Base points are never removed and
    orbits only grow, so the running product of the orbit lengths bounds
    the order from below, raised in OrderCapExceededError once past `cap`.
    """
    chain: list[_ChainLevel] = []
    order = 1

    def sift(h: int, i: int) -> tuple[int, int]:
        while i < len(chain) and h != 0:
            u = chain[i].transversal.get(ctx.image(h, chain[i].point))
            if u is None:
                break
            h = ctx.compose(u[1], h)
            i += 1
        return h, i

    def add(h: int, low: int, high: int) -> None:
        if high == len(chain):
            chain.append(_ChainLevel(ctx.first_moved_vertex(h)))
        for lv in chain[low : high + 1]:
            lv.generators.append(h)

    def residue(i: int) -> Optional[tuple[int, int]]:
        nonlocal order
        lv = chain[i]
        k = 0
        while k < len(lv.orbit):
            beta = lv.orbit[k]
            u = lv.transversal[beta][0]
            while lv.tested[k] < len(lv.generators):
                s = lv.generators[lv.tested[k]]
                lv.tested[k] += 1
                su = ctx.compose(s, u)
                gamma = ctx.image(s, beta)
                t = lv.transversal.get(gamma)
                if t is None:
                    lv.transversal[gamma] = (su, ctx.inverse(su))
                    lv.orbit.append(gamma)
                    lv.tested.append(0)
                    order = order // (len(lv.orbit) - 1) * len(lv.orbit)
                    if order > cap:
                        raise OrderCapExceededError(cap, order)
                elif t[0] != su:
                    h, j = sift(ctx.compose(t[1], su), i + 1)
                    if h != 0:
                        return h, j
            k += 1
        return None

    for g in generators:
        h, j = sift(g, 0)
        if h != 0:
            add(h, 0, j)
    i = len(chain) - 1
    while i >= 0:
        found = residue(i)
        if found is None:
            i -= 1
        else:
            add(found[0], i + 1, found[1])
            i = found[1]
    return order


@dataclass
class LevelGroup:
    """The permutation group induced on one level's words.

    `order` is exact: a group of at most 16 elements is counted by
    listing it, a larger one by a stabilizer chain.  Elements are portrait
    ids into the context that built it, where 0 is the identity;
    `element_ids` lists them, when first read, in discovery order of
    generator products, breadth-first from the identity, up to
    MAX_GROUP_ELEMENTS.
    """

    automaton: Automaton
    level: int
    leaf_count: int
    order: int
    generator_ids: tuple[int, ...]
    context: _Context = field(repr=False)

    @functools.cached_property
    def element_ids(self) -> tuple[int, ...]:
        """Every element, as products of generators; there must be `order`,
        and an order past MAX_GROUP_ELEMENTS is refused before listing."""
        if self.order > MAX_GROUP_ELEMENTS:
            raise OrderCapExceededError(MAX_GROUP_ELEMENTS, self.order)
        elements = _elements(self.context, self.generator_ids, self.order)
        if elements is None or len(elements) != self.order:
            found = f"more than {self.order}" if elements is None else len(elements)
            raise VerificationFailedError(
                f"group has {found} elements, order says {self.order}"
            )
        return elements

    def element_order(self, pid: int) -> int:
        ctx = self.context
        acc = pid
        n = 1
        while acc != 0:
            acc = ctx.compose(acc, pid)
            n += 1
            if n > self.order:
                raise VerificationFailedError("element order exceeds group order")
        return n

    def max_element_order(self) -> int:
        return max(self.element_order(e) for e in self.element_ids)


def level_group(
    automaton: Automaton, level: int, *, order_cap: int = 10**6
) -> LevelGroup:
    """The group the states induce on all words of one length.

    A group of at most 16 elements (and at most `order_cap`) is counted
    by listing products of generators, a larger one by a stabilizer
    chain over tree vertices; `element_ids` lists either when first
    read, up to MAX_GROUP_ELEMENTS elements.  Raises
    OrderCapExceededError as soon as the chain shows the order exceeds
    `order_cap`, carrying the lower bound on the order it had reached then;
    NotInvertibleError when some state does not act invertibly down to
    that level; and ValueError for a level outside 1 .. MAX_LEVEL, an
    order cap below 1, or either of them not an integer.  Levels past
    MAX_LEVEL are refused before any portrait is built, since portraits
    recurse two frames per level.
    """
    _check_count(level, "level", level=True)
    _check_count(order_cap, "order cap")
    return _level_group(_Context(automaton), level, order_cap)


def level_groups(
    automaton: Automaton, max_level: int, *, order_cap: int = 10**6
) -> Iterator[LevelGroup]:
    """`level_group` for levels 1 .. max_level in turn, on one context:
    a level reuses the portraits and compositions of the levels before
    it, so on a folded machine a sweep costs about as much as its
    deepest level.

    Arguments are checked when called, as in `level_group`; the errors a
    level raises come when that level is reached.
    """
    _check_count(max_level, "max level", level=True)
    _check_count(order_cap, "order cap")
    ctx = _Context(automaton)
    return (_level_group(ctx, level, order_cap) for level in range(1, max_level + 1))


def _level_group(ctx: _Context, level: int, order_cap: int) -> LevelGroup:
    automaton = ctx.automaton
    gens = tuple(ctx.from_state(ctx.start, 1, q, level) for q in range(automaton.n_states))
    # Up to about 16 elements, listing products of generators is cheaper
    # than building a chain; past that, or past the cap, the chain counts.
    elements = _elements(ctx, gens, min(order_cap, 16))
    order = _chain_order(ctx, gens, order_cap) if elements is None else len(elements)
    leaves = automaton.schedule.leaf_count(level)
    return LevelGroup(automaton, level, leaves, order, gens, ctx)


def orbit_at_level(
    automaton: Automaton, level: int, seed: Optional[Sequence[int]] = None
) -> frozenset:
    """Orbit of one word of the given length under the generated group.

    `level` runs from 0, the root, to MAX_LEVEL.  The first level
    1 .. `level` with a labeling that is not a permutation raises
    NotInvertibleError for its first such state.  Words move by the
    states' portraits; as each state permutes the words of one length,
    its powers reach its inverse.  Raises OrbitTooLargeError once more
    than MAX_ORBIT_WORDS words, or more than MAX_ORBIT_LETTERS letters in
    them, are reached.
    """
    _check_count(level, "level", least=0, level=True)
    if seed is None:
        seed_word: Word = (0,) * level
    else:
        seed_word = automaton.schedule.check_word(seed)
        if len(seed_word) != level:
            raise ValueError(f"seed word must have length {level}")
    ctx = _Context(automaton)
    phase = ctx.start
    for i in range(1, level + 1):
        if phase == 0:
            break
        t, phase = ctx.walk.get(phase) or ctx.step(phase)
        q = t.first_noninvertible_state()
        if q is not None:
            raise NotInvertibleError(i, q)
    moves = [ctx.from_state(ctx.start, 1, q, level) for q in range(automaton.n_states)]
    seen = {seed_word}
    queue = deque([seed_word])
    while queue:
        word = queue.popleft()
        for move in moves:
            image = ctx.image(move, word)
            if image not in seen:
                seen.add(image)
                if len(seen) > MAX_ORBIT_WORDS:
                    raise OrbitTooLargeError(level, MAX_ORBIT_WORDS)
                if len(seen) * level > MAX_ORBIT_LETTERS:
                    raise OrbitTooLargeError(level, MAX_ORBIT_LETTERS, "letters")
                queue.append(image)
    return frozenset(seen)


# ---------------------------------------------------------------------------
# two-state exponent calculus


_GEN_A = GroupWord.generator(0)
_GEN_B = GroupWord.generator(1)


def _require_two_states(automaton: Automaton) -> None:
    if automaton.n_states != 2:
        raise NotTwoStateError(
            f"operation needs exactly 2 states, automaton has {automaton.n_states}"
        )


def _bireversible_level(t: LevelTable, level: int) -> LevelTable:
    """`t`, the table of `level`, refused unless it is bi-reversible."""
    if t.failure is not None:
        raise NotBiReversibleError(f"level {level} fails: {t.failure}")
    return t


def _bireversible_table(automaton: Automaton, level: int) -> LevelTable:
    """The table of `level` on a two-state machine, refused unless that
    level is bi-reversible."""
    _require_two_states(automaton)
    return _bireversible_level(automaton.table_at(level), level)


def letter_partition(automaton: Automaton, level: int) -> tuple[Word, Word]:
    """Split a level's letters into state-keeping and state-swapping ones.

    Reversibility makes both states induce the same split.  Inverse
    reversibility makes both labelings send the keeping letters onto one
    set, so the split is respected by both labelings.
    """
    row = _bireversible_table(automaton, level).transition[0]
    kept = tuple(x for x, q in enumerate(row) if q == 0)
    flipped = tuple(x for x, q in enumerate(row) if q == 1)
    return kept, flipped


def labeling_twist(automaton: Automaton, level: int) -> tuple[int, ...]:
    """First labeling undone, then the second applied: the per-level
    mismatch between the two states' outputs.

    It preserves both parts of the letter partition, since both labelings
    send the keeping letters onto one set.
    """
    t = _bireversible_table(automaton, level)
    return perms.compose(t.inverse_labeling(0), t.output[1])


def ratio_power_image(
    automaton: Automaton, n: int, letters: Sequence[int]
) -> Word:
    """Image of a word under the n-th power of (first state)^-1 (second state),
    computed positionally.

    With c = (first state)(second state)^-1, the ratio is a^-1 c^-1 a, so
    its n-th power is a^-1 c^-n a: the word is fed through the first
    state, moved by c^-n as `_c_power_image` does, and fed back through
    the first state undone.  The word is checked first, and its tables
    come from one `Automaton.level_tables` walk, read by all three.
    Every labeling must be a permutation.
    """
    _require_two_states(automaton)
    _check_ints((n,), "exponent")
    letters = automaton.schedule.check_word(letters)
    tables = tuple(automaton.level_tables(len(letters)))
    image = _act(tables, ((0, 1),), letters)[0]
    image = _c_power_image(tables, -n, image)
    return _act(tables, ((0, -1),), image)[0]


def _c_power_image(tables: Iterable[LevelTable], n: int, letters: Sequence[int]) -> Word:
    """Image of a word under c^n, c = (first state)(second state)^-1,
    computed positionally for any integer n: one lookup in each level's
    cached calculus (`LevelTable._calculus`) and one `divmod` per letter.

    c^k sends x to sigma^k(x), sigma being c's root permutation, with
    section c^e, e the exponent `_TwoStateCalculus.power` gives; that
    section moves the next letter.  Every labeling must be a
    permutation; reversibility is not needed.  Callers check the letters
    and give two-state tables, one per letter.
    """
    out = []
    k = n
    for i, (t, x) in enumerate(zip(tables, letters, strict=True), start=1):
        calc = t._calculus
        if calc is None:
            raise NotInvertibleError(i, t.first_noninvertible_state())
        x, k = calc.power(x, k)
        out.append(x)
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
    (residue, modulus) with pairwise coprime moduli: integer residues and
    integer moduli of at least 1, true and false refused."""
    x, modulus = 0, 1
    for residue, m in congruences:
        _check_ints((residue,), "residue")
        _check_count(m, "modulus")
        if math.gcd(modulus, m) != 1:
            raise NonCoprimeModuliError(f"moduli are not pairwise coprime at {m}")
        delta = (residue - x) % m
        x += modulus * (delta * pow(modulus, -1, m) % m)
        modulus *= m
    return x % modulus


def _steering_level(t: LevelTable, level: int) -> LevelTable:
    """`t`, the two-state table of `level`, refused unless it is
    bi-reversible, flips on one marked letter, and is labeled by a full
    cycle sending it to its partner and by the transposition of the two.
    The table's calculus holds the checked marked letter and partner, or
    the condition the level breaks."""
    _bireversible_level(t, level)
    refusal = t._calculus.refusal
    if refusal is not None:
        raise SteeringError(f"level {level}: {refusal}")
    return t


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
    tables = [
        _steering_level(t, level)
        for level, t in enumerate(automaton.level_tables(len(target)), 1)
    ]
    moduli = [t.alphabet_size - 1 for t in tables]
    if min(moduli) < 2:
        raise SteeringError("steering needs every involved alphabet size >= 3")
    for i, m in enumerate(moduli):
        for m2 in moduli[i + 1 :]:
            if math.gcd(m, m2) != 1:
                raise NonCoprimeModuliError(
                    f"cycle lengths {m} and {m2} are not coprime"
                )
    levels = [t._calculus for t in tables]
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
            # letter moved n0 times by c's root and swapped; walk c's cycle
            # on, whose length is the modulus.
            reached = tables[i].output[1][lv.power(lv.marked, n0)[0]]
            e = lv.position[target[i]] - lv.position[reached]
            congruences.append((sign * e % moduli[i], moduli[i]))
        else:
            sign = -sign
    n1 = crt_solve(congruences)
    # Verify c^n1 b^-1 c^n0 b factor by factor, the powers positionally,
    # on the tables the levels were read from.
    image = _act(tables, ((1, 1),), base)[0]
    image = _c_power_image(tables, n0, image)
    image = _act(tables, ((1, -1),), image)[0]
    image = _c_power_image(tables, n1, image)
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


# The query words of `classify_two_state_binary`, built once.  Each asks
# whether one word acts trivially: "does g equal h" is asked of the test
# word g h^-1 itself, so no query forms a product.
_AA = _GEN_A * _GEN_A
_A_INV_B = _GEN_A.inverse() * _GEN_B
_COMMUTATOR = _GEN_A * _GEN_B * (_GEN_B * _GEN_A).inverse()
_SQUARES = _AA * (_GEN_B * _GEN_B).inverse()
_A4 = _GEN_A**4
_C_A = _A_INV_B * _GEN_A.inverse()
_C_AA = _A_INV_B * _AA.inverse()


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

    ctx = _Context(automaton)

    # The machine has finitely many phases, so no query answers "unknown".
    def trivial(word: GroupWord) -> bool:
        return _search(ctx, word, _DEFAULT_BUDGET)[0] == "equal"

    # The three relations every such machine satisfies (ab = ba,
    # a^2 = b^2, a^4 = e); a failure here means the preconditions were
    # not really met.
    if not (trivial(_COMMUTATOR) and trivial(_SQUARES) and trivial(_A4)):
        raise VerificationFailedError("defining relations failed to hold")
    # With c = a^-1 b: is a trivial, is a^2, is c, and is c equal to a
    # or to a^2?
    c = _A_INV_B
    if trivial(_GEN_A):
        return GroupKind.TRIVIAL if trivial(c) else GroupKind.Z2
    if trivial(_AA):
        return GroupKind.Z2 if (trivial(c) or trivial(_C_A)) else GroupKind.Z2xZ2
    return GroupKind.Z4 if (trivial(c) or trivial(_C_AA)) else GroupKind.Z2xZ4
