"""Command line front end.

Reads a JSON config describing a schedule and an automaton, runs one
analysis subcommand, and prints a text or JSON report.  Exit codes: 0
for a positive outcome, 1 when the analysis itself comes back negative
(a failed check, relations found, an intransitive orbit, a partial
order sweep), 2 for usage, config, or precondition errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from . import engine
from .core import Automaton
from .engine import Budget, GroupWord
from .errors import (
    BudgetExceededError,
    InvalidWordError,
    NonCoprimeModuliError,
    NotBinaryError,
    NotBiReversibleError,
    NotInvertibleError,
    NotMealyError,
    NotTwoStateError,
    OrderCapExceededError,
    ScheduleMismatchError,
    SteeringError,
    UnboundedScheduleError,
    UndecidableRepresentationError,
    VerificationFailedError,
)
from .families import FAMILIES, FAMILY_SUMMARIES, build_from_config

_USAGE_ERRORS = (
    ValueError,
    OSError,
    InvalidWordError,
    NonCoprimeModuliError,
    NotBinaryError,
    NotBiReversibleError,
    NotInvertibleError,
    NotMealyError,
    NotTwoStateError,
    ScheduleMismatchError,
    SteeringError,
    UnboundedScheduleError,
    UndecidableRepresentationError,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _load_automaton(args) -> Automaton:
    with open(args.config, encoding="utf-8") as fh:
        doc = json.load(fh)
    seed = getattr(args, "seed", None)
    if seed is not None:
        if (
            isinstance(doc, dict)
            and isinstance(doc.get("automaton"), dict)
            and doc["automaton"].get("builtin") == "random_bir22"
        ):
            auto = dict(doc["automaton"])
            params = dict(auto.get("params", {}))
            params["seed"] = seed
            auto["params"] = params
            doc = {**doc, "automaton": auto}
        else:
            raise ValueError("--seed only applies to the random_bir22 builtin")
    return build_from_config(doc)


def _state_aliases(a: Automaton) -> dict[str, int]:
    """Names accepted for states: letters by position, q1..qn, and the
    automaton's own names, the latter winning on collision."""
    aliases: dict[str, int] = {}
    for i in range(min(a.n_states, len(_LETTERS))):
        aliases[_LETTERS[i]] = i
    for i in range(a.n_states):
        aliases[f"q{i + 1}"] = i
    for i, name in enumerate(a.state_names):
        aliases[name] = i
    return aliases


def _parse_letters(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise ValueError(
            f"cannot parse letters {text!r}: need comma-separated integers"
        ) from None


def _fmt_letters(letters: Sequence[int]) -> str:
    return ",".join(str(x) for x in letters)


def _yes(flag: Optional[bool]) -> str:
    return "n/a" if flag is None else ("yes" if flag else "no")


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (options, result, text lines, exit code)


def _cmd_check(args):
    a = _load_automaton(args)
    verdict = a.bireversibility(args.depth)
    rows = []
    for i in range(1, args.depth + 1):
        t = a.table_at(i)
        invertible = t.is_invertible()
        rows.append(
            {
                "level": i,
                "size": t.alphabet_size,
                "invertible": invertible,
                "reversible": t.is_reversible(),
                "inverse_reversible": t.inverted().is_reversible() if invertible else None,
                "diagonal": t.is_diagonal(),
            }
        )
    summary = {
        "holds": verdict.holds,
        "exact": verdict.exact,
        "checked_up_to": verdict.checked_up_to,
        "fails_at": verdict.level,
        "reason": verdict.reason,
    }
    if verdict.holds:
        scope = "exact, all levels" if verdict.exact else f"checked to level {verdict.checked_up_to}"
        head = f"bi-reversible: holds ({scope})"
    else:
        head = f"bi-reversible: fails at level {verdict.level} ({verdict.reason})"
    lines = [head]
    for r in rows:
        lines.append(
            f"level {r['level']}: size {r['size']}  invertible {_yes(r['invertible'])}  "
            f"reversible {_yes(r['reversible'])}  inverse-reversible "
            f"{_yes(r['inverse_reversible'])}  diagonal {_yes(r['diagonal'])}"
        )
    options = {"config": args.config, "depth": args.depth}
    return options, {"bireversible": summary, "levels": rows}, lines, (0 if verdict.holds else 1)


def _cmd_act(args):
    a = _load_automaton(args)
    letters = _parse_letters(args.input)
    if args.state is not None:
        aliases = _state_aliases(a)
        if args.state not in aliases:
            raise ValueError(
                f"unknown state {args.state!r}; states are {', '.join(a.state_names)}"
            )
        q = aliases[args.state]
        out, end = a.run(q, letters)
        result = {
            "input": list(letters),
            "output": list(out),
            "state": a.state_names[q],
            "end_state": a.state_names[end],
        }
        lines = [
            f"state {a.state_names[q]} on {_fmt_letters(letters)} -> "
            f"{_fmt_letters(out)} (ends in {a.state_names[end]})"
        ]
        options = {"config": args.config, "state": args.state, "input": args.input}
    else:
        word = GroupWord.parse(args.word_expr, _state_aliases(a))
        out = engine.apply_word(a, word, letters)
        result = {
            "input": list(letters),
            "output": list(out),
            "word": word.display(a.state_names),
        }
        lines = [
            f"word {word.display(a.state_names)} on {_fmt_letters(letters)} -> {_fmt_letters(out)}"
        ]
        options = {"config": args.config, "word_expr": args.word_expr, "input": args.input}
    return options, result, lines, 0


def _cmd_levels(args):
    if args.max_level > engine.MAX_LEVEL:
        raise ValueError(f"--max-level must be at most {engine.MAX_LEVEL}")
    a = _load_automaton(args)
    rows = []
    capped = None
    for level in range(1, args.max_level + 1):
        try:
            group = engine.level_group(a, level, order_cap=args.order_cap)
        except OrderCapExceededError as exc:
            capped = {"level": level, "cap": exc.cap, "reached": exc.reached}
            break
        rows.append({"level": level, "order": group.order, "words": group.leaf_count})
    lines = [f"level {r['level']}: group order {r['order']} on {r['words']} words" for r in rows]
    if capped is not None:
        lines.append(
            f"level {capped['level']}: order cap {capped['cap']} exceeded, partial results"
        )
    options = {
        "config": args.config,
        "max_level": args.max_level,
        "order_cap": args.order_cap,
    }
    result = {"orders": rows, "capped": capped}
    return options, result, lines, (0 if capped is None else 1)


def _cmd_classify(args):
    a = _load_automaton(args)
    kind = engine.classify_two_state_binary(a)
    result = {
        "kind": kind.value,
        "group_order": kind.group_order,
        "exponent": kind.exponent,
    }
    lines = [
        f"classification: {kind.value} (order {kind.group_order}, exponent {kind.exponent})"
    ]
    return {"config": args.config}, result, lines, 0


def _cmd_relations(args):
    a = _load_automaton(args)
    budget = Budget(max_depth=args.depth)
    found = engine.relation_search(a, args.max_len, budget=budget)
    names = a.state_names
    relations = [w.display(names) for w in found.equal]
    unsettled = [w.display(names) for w in found.unknown]
    lines = [
        f"checked {found.checked} reduced words up to length {args.max_len}"
    ]
    if relations:
        lines.append("trivial words found:")
        lines.extend(f"  {w}" for w in relations)
    if unsettled:
        lines.append("not settled within depth budget:")
        lines.extend(f"  {w}" for w in unsettled)
    if not relations and not unsettled:
        lines.append("none found")
    options = {"config": args.config, "max_len": args.max_len, "depth": args.depth}
    result = {"checked": found.checked, "relations": relations, "unsettled": unsettled}
    code = 0 if not relations and not unsettled else 1
    return options, result, lines, code


def _cmd_steer(args):
    a = _load_automaton(args)
    target = _parse_letters(args.target)
    res = engine.steer_to_word(a, target)
    names = a.state_names
    compact = f"c^{res.n1} {names[1]}^-1 c^{res.n0} {names[1]}"
    result = {
        "target": list(res.target),
        "base_word": list(res.base_word),
        "n0": res.n0,
        "n1": res.n1,
        "word": compact,
        "word_length": res.word_length,
        "verified": True,
    }
    lines = [
        f"base word {_fmt_letters(res.base_word)} -> target {_fmt_letters(res.target)}",
        f"n0 = {res.n0}, n1 = {res.n1}",
        f"g = {compact}  (c = {names[0]} {names[1]}^-1, {res.word_length} factors reduced)",
        "verified: yes",
    ]
    return {"config": args.config, "target": args.target}, result, lines, 0


def _cmd_orbit(args):
    a = _load_automaton(args)
    if args.level < 0:
        raise ValueError("level must be nonnegative")
    orbit = engine.orbit_at_level(a, args.level)
    leaves = a.schedule.leaf_count(args.level)
    transitive = len(orbit) == leaves
    result = {
        "level": args.level,
        "orbit_size": len(orbit),
        "words": leaves,
        "transitive": transitive,
    }
    lines = [
        f"orbit at level {args.level}: {len(orbit)}/{leaves} words reached - "
        + ("transitive" if transitive else "not transitive")
    ]
    return (
        {"config": args.config, "level": args.level},
        result,
        lines,
        0 if transitive else 1,
    )


def _cmd_list_builtins(args):
    families = [
        {"id": fid, "summary": FAMILY_SUMMARIES[fid]} for fid in sorted(FAMILIES)
    ]
    lines = [f"{f['id']}: {f['summary']}" for f in families]
    return {}, {"families": families}, lines, 0


# ---------------------------------------------------------------------------
# parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvauto",
        description="Analyze transducers over changing alphabets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        if config:
            sp.add_argument("--config", required=True, help="path to a JSON config")
            sp.add_argument(
                "--seed",
                type=int,
                default=None,
                help="seed override for the random_bir22 builtin",
            )
        sp.add_argument(
            "--format", choices=("text", "json"), default="text", help="report format"
        )

    sp = sub.add_parser("check", help="invertibility, reversibility, and bi-reversibility")
    common(sp)
    sp.add_argument("--depth", type=int, default=20, help="levels to inspect")
    sp.set_defaults(handler=_cmd_check)

    sp = sub.add_parser("act", help="apply a state or a word to input letters")
    common(sp)
    who = sp.add_mutually_exclusive_group(required=True)
    who.add_argument("--state", help="state name")
    who.add_argument(
        "--word-expr",
        help="whitespace-separated state names with optional ^-1, leftmost applied last",
    )
    sp.add_argument("--input", required=True, help="comma-separated 0-based letters")
    sp.set_defaults(handler=_cmd_act)

    sp = sub.add_parser("levels", help="orders of the level groups")
    common(sp)
    sp.add_argument("--max-level", type=int, default=6, help="deepest level")
    sp.add_argument("--order-cap", type=int, default=10**6, help="largest group order to report")
    sp.set_defaults(handler=_cmd_levels)

    sp = sub.add_parser("classify", help="five-way classification of binary 2-state machines")
    common(sp)
    sp.set_defaults(handler=_cmd_classify)

    sp = sub.add_parser("relations", help="scan short words for relations")
    common(sp)
    sp.add_argument("--max-len", type=int, default=6, help="longest word length")
    sp.add_argument("--depth", type=int, default=20, help="depth budget per query")
    sp.set_defaults(handler=_cmd_relations)

    sp = sub.add_parser("steer", help="build a word reaching a target from the base word")
    common(sp)
    sp.add_argument("--target", required=True, help="comma-separated 0-based letters")
    sp.set_defaults(handler=_cmd_steer)

    sp = sub.add_parser("orbit", help="orbit of one word under the generated group")
    common(sp)
    sp.add_argument("--level", type=int, required=True, help="word length")
    sp.set_defaults(handler=_cmd_orbit)

    sp = sub.add_parser("list-builtins", help="list builtin automaton families")
    common(sp, config=False)
    sp.set_defaults(handler=_cmd_list_builtins)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built on the first `main` call and reused: parse_args returns a new
    # Namespace each time and the handlers are parser defaults, so no
    # state carries from one call to the next.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        options, result, lines, code = args.handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceededError, VerificationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        report = {"command": args.command, "options": options, "result": result}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
