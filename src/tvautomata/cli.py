"""Command line front end.

Reads a JSON config describing a schedule and an automaton, runs one
analysis subcommand, and prints a text or JSON report.  Exit codes: 0
for a positive outcome, 1 when the analysis itself comes back negative
(a failed check, relations found, an intransitive orbit, a partial
order sweep, an exhausted search budget, a certificate that failed its
check), 2 for usage, config, or precondition errors: every other
AutomatonError, ValueError or OSError.  An error prints one `error:`
line.  A report that cannot be written, as on a closed stdout pipe, is
an OSError too.  A `--format json` report is the bytes of
`json.dumps(report, indent=2, sort_keys=True)` plus a newline; its keys
are strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional, Sequence

from . import engine
from .core import Automaton
from .engine import Budget, GroupWord
from .errors import (
    AutomatonError,
    BudgetExceededError,
    OrderCapExceededError,
    VerificationFailedError,
)
from .families import FAMILIES, build_from_config
from .schedule import _check_count


def _load_automaton(args) -> Automaton:
    with open(args.config, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("config nests too deeply to decode") from None
    return build_from_config(doc)


def _parse_letters(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(map(int, text.split(",")))
    except ValueError:
        raise ValueError(
            f"cannot parse letters {text!r}: need comma-separated integers"
        ) from None


def _fmt_letters(letters: Sequence[int]) -> str:
    return ",".join(str(x) for x in letters)


def _yes(flag: Optional[bool]) -> str:
    return "n/a" if flag is None else ("yes" if flag else "no")


_encode = json.JSONEncoder().encode


def _json_text(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for a value whose dict
    keys are strings, byte for byte; `indent` is the newline and spaces
    that precede the value's closing bracket.  With an indent,
    `json.dumps` cannot use its C encoder, so this recurses only over
    non-empty dicts and lists (or tuples) and hands every key and scalar
    to it; a list of plain ints (no bools) is joined in one step."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        items = (_encode(k) + ": " + _json_text(value[k], inner) for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, (list, tuple)) and value:
        if all(type(x) is int for x in value):
            items = map(int.__repr__, value)
        else:
            items = (_json_text(x, inner) for x in value)
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    return _encode(value)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (result, renderer, exit code).  The
# renderer takes no arguments and returns the text report's lines; `main`
# calls it only for a text report.  It formats values the handler has
# already computed and calls no library code, so it raises nothing a
# handler would.


def _cmd_check(args):
    a = _load_automaton(args)
    verdict = a.bireversibility(args.depth)
    rows = []
    for i, t in enumerate(a.level_tables(args.depth), 1):
        invertible = t.is_invertible()
        rows.append(
            {
                "level": i,
                "size": t.alphabet_size,
                "invertible": invertible,
                "reversible": t.is_reversible(),
                "inverse_reversible": t.is_inverse_reversible() if invertible else None,
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

    def render():
        if not verdict.holds:
            head = f"bi-reversible: fails at level {verdict.level} ({verdict.reason})"
        elif verdict.exact:
            head = "bi-reversible: holds (exact, all levels)"
        else:
            head = f"bi-reversible: holds (checked to level {verdict.checked_up_to})"
        return [head] + [
            f"level {r['level']}: size {r['size']}  invertible {_yes(r['invertible'])}  "
            f"reversible {_yes(r['reversible'])}  inverse-reversible "
            f"{_yes(r['inverse_reversible'])}  diagonal {_yes(r['diagonal'])}"
            for r in rows
        ]

    return {"bireversible": summary, "levels": rows}, render, (0 if verdict.holds else 1)


def _cmd_act(args):
    a = _load_automaton(args)
    letters = _parse_letters(args.input)
    if args.state is not None:
        q = a.state_index(args.state)
        out, end = a.run(q, letters)
        result = {
            "input": list(letters),
            "output": list(out),
            "state": a.state_names[q],
            "end_state": a.state_names[end],
        }

        def render():
            return [
                f"state {result['state']} on {_fmt_letters(letters)} -> "
                f"{_fmt_letters(out)} (ends in {result['end_state']})"
            ]
    else:
        word = GroupWord.parse(args.word_expr, a)
        out = engine.apply_word(a, word, letters)
        result = {
            "input": list(letters),
            "output": list(out),
            "word": word.display(a.state_names),
        }

        def render():
            return [f"word {result['word']} on {_fmt_letters(letters)} -> {_fmt_letters(out)}"]
    return result, render, 0


def _cmd_levels(args):
    # Checked before the config is read, and named by its flag.
    _check_count(args.max_level, "--max-level", level=True)
    a = _load_automaton(args)
    rows = []
    capped = None
    try:
        for group in engine.level_groups(a, args.max_level, order_cap=args.order_cap):
            rows.append({"level": group.level, "order": group.order, "words": group.leaf_count})
    except OrderCapExceededError as exc:
        capped = {"level": len(rows) + 1, "cap": exc.cap, "reached": exc.reached}

    def render():
        lines = [
            f"level {r['level']}: group order {r['order']} on {r['words']} words" for r in rows
        ]
        if capped is not None:
            lines.append(
                f"level {capped['level']}: order cap {capped['cap']} exceeded, partial results"
            )
        return lines

    result = {"orders": rows, "capped": capped}
    return result, render, (0 if capped is None else 1)


def _cmd_classify(args):
    a = _load_automaton(args)
    kind = engine.classify_two_state_binary(a)
    result = {
        "kind": kind.value,
        "group_order": kind.group_order,
        "exponent": kind.exponent,
    }

    def render():
        return [
            f"classification: {result['kind']} (order {result['group_order']}, "
            f"exponent {result['exponent']})"
        ]

    return result, render, 0


def _cmd_relations(args):
    budget = Budget(max_depth=args.depth)
    a = _load_automaton(args)
    found = engine.relation_search(a, args.max_len, budget=budget)
    names = a.state_names
    relations = [w.display(names) for w in found.equal]
    unsettled = [w.display(names) for w in found.unknown]

    def render():
        lines = [f"checked {found.checked} reduced words up to length {args.max_len}"]
        if relations:
            lines.append("trivial words found:")
            lines.extend(f"  {w}" for w in relations)
        if unsettled:
            lines.append("not settled within depth budget:")
            lines.extend(f"  {w}" for w in unsettled)
        if not relations and not unsettled:
            lines.append("none found")
        return lines

    result = {"checked": found.checked, "relations": relations, "unsettled": unsettled}
    code = 0 if not relations and not unsettled else 1
    return result, render, code


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

    def render():
        return [
            f"base word {_fmt_letters(res.base_word)} -> target {_fmt_letters(res.target)}",
            f"n0 = {res.n0}, n1 = {res.n1}",
            f"g = {compact}  (c = {names[0]} {names[1]}^-1, "
            f"{result['word_length']} factors reduced)",
            "verified: yes",
        ]

    return result, render, 0


def _cmd_orbit(args):
    a = _load_automaton(args)
    orbit = engine.orbit_at_level(a, args.level)
    leaves = a.schedule.leaf_count(args.level)
    transitive = len(orbit) == leaves
    result = {
        "level": args.level,
        "orbit_size": len(orbit),
        "words": leaves,
        "transitive": transitive,
    }

    def render():
        return [
            f"orbit at level {args.level}: {result['orbit_size']}/{leaves} words reached - "
            + ("transitive" if transitive else "not transitive")
        ]

    return result, render, (0 if transitive else 1)


def _cmd_list_builtins(args):
    families = [
        {"id": fid, "summary": summary} for fid, (summary, _) in sorted(FAMILIES.items())
    ]

    def render():
        return [f"{f['id']}: {f['summary']}" for f in families]

    return {"families": families}, render, 0


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


# Parsed arguments that the JSON report does not echo as options.
_NOT_OPTIONS = frozenset({"command", "handler", "format"})


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        result, render, code = args.handler(args)
    except (BudgetExceededError, VerificationFailedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (AutomatonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            options = {
                k: v for k, v in vars(args).items() if v is not None and k not in _NOT_OPTIONS
            }
            report = {"command": args.command, "options": options, "result": result}
            print(_json_text(report))
        else:
            for line in render():
                print(line)
        sys.stdout.flush()
    except OSError as exc:
        _discard_stdout()
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the report
    still buffered there is dropped at exit instead of failing again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    null = os.open(os.devnull, os.O_WRONLY)
    os.dup2(null, fd)
    os.close(null)


if __name__ == "__main__":
    sys.exit(main())
