"""End-to-end runs of the command line front end."""

import contextlib
import copy
import io
import json
import os
import resource
import subprocess
import sys
import time

import pytest

import tvautomata
from tvautomata import cli, errors
from tvautomata.cli import main
from tvautomata.core import MAX_LEVEL
from tvautomata.errors import (
    AutomatonError,
    BudgetExceededError,
    NotInvertibleError,
    OrbitTooLargeError,
    OrderCapExceededError,
    RelationScanTooLargeError,
    VerificationFailedError,
)
from tvautomata.schedule import MAX_ALPHABET_SIZE

from test_families import all_builtin_configs

Z2Z4 = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {"builtin": "z2z4", "params": {}},
}
Z4 = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {"builtin": "z4", "params": {}},
}
LAMP = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {"builtin": "lamplighter", "params": {}},
}
E2_34 = {
    "schedule": {"prefix": [], "tail": {"kind": "periodic", "value": [3, 4]}},
    "automaton": {"builtin": "example2", "params": {}},
}
E2_33 = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 3}},
    "automaton": {"builtin": "example2", "params": {}},
}
E2_22 = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {"builtin": "example2", "params": {}},
}
# Thirty states are named q1 .. q30, and only q30 moves a letter.
THIRTY = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {
        "explicit": {
            "states": 30,
            "prefix": [],
            "period": [
                {
                    "transition": [[q, q] for q in range(30)],
                    "output": [[0, 1]] * 29 + [[1, 0]],
                }
            ],
        }
    },
}


@pytest.fixture
def config(tmp_path):
    def write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


# -- check ------------------------------------------------------------


def test_check_passes_on_an_exactly_bireversible_machine(capsys, config):
    code, report, _ = run_json(capsys, "check", "--config", config(Z2Z4))
    assert code == 0
    assert report["command"] == "check"
    assert report["result"]["bireversible"]["holds"] is True
    assert report["result"]["bireversible"]["exact"] is True
    level1 = report["result"]["levels"][0]
    assert level1["reversible"] is True and level1["diagonal"] is False


def test_check_reports_the_failing_level(capsys, config):
    code, report, _ = run_json(capsys, "check", "--config", config(LAMP))
    assert code == 1
    summary = report["result"]["bireversible"]
    assert summary["holds"] is False
    assert summary["fails_at"] == 1
    assert summary["reason"] == "inverse_not_reversible"


def test_check_text_output(capsys, config):
    code, out, _ = run(capsys, "check", "--config", config(Z2Z4), "--depth", "3")
    assert code == 0
    assert "bi-reversible: holds" in out
    assert out.count("level ") == 3


def test_check_on_a_long_period_of_two_sizes_is_quick(capsys, config):
    # 200,000 levels read two shared tables; building one table per
    # level took 11.6 s and 368 MB.
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "periodic", "value": [3, 4] * 100_000}},
        "automaton": {"builtin": "example2", "params": {}},
    }
    path = config(doc)
    start = time.perf_counter()
    code, out, _ = run(capsys, "check", "--config", path, "--depth", "3")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert out.splitlines()[0] == "bi-reversible: holds (exact, all levels)"
    assert [line.split()[3] for line in out.splitlines()[1:]] == ["3", "4", "3"]


# -- act --------------------------------------------------------------


def test_act_by_state(capsys, config):
    code, report, _ = run_json(
        capsys, "act", "--config", config(Z2Z4), "--state", "q1", "--input", "0,0"
    )
    assert code == 0
    assert report["result"]["output"] == [1, 1]
    code, report, _ = run_json(
        capsys, "act", "--config", config(Z2Z4), "--state", "a", "--input", "0,0"
    )
    assert report["result"]["output"] == [1, 1]
    assert run(capsys, "act", "--config", config(Z2Z4), "--state", "a", "--input", "") == (
        0, "state a on  ->  (ends in a)\n", ""
    )
    many = config(THIRTY)
    code, report, _ = run_json(
        capsys, "act", "--config", many, "--state", "q30", "--input", "0"
    )
    assert code == 0
    assert report["result"]["state"] == "q30"
    assert report["result"]["output"] == [1]
    assert run(capsys, "act", "--config", many, "--state", "q0", "--input", "0")[0] == 2


def test_an_unknown_name_lists_the_state_names_on_both_act_paths(capsys, config):
    thirty = ", ".join(f"q{k}" for k in range(1, 31))
    for doc, names in ((Z2Z4, "a, b"), (THIRTY, thirty)):
        path = config(doc)
        for flag, name in (("--state", "xx"), ("--word-expr", "zz")):
            assert run(capsys, "act", "--config", path, flag, name, "--input", "0") == (
                2, "", f"error: unknown state {name!r}; states are {names}\n"
            )


def test_act_by_word_expression(capsys, config):
    code, report, _ = run_json(
        capsys,
        "act",
        "--config",
        config(Z2Z4),
        "--word-expr",
        "a a^-1",
        "--input",
        "1,0,1",
    )
    assert code == 0
    assert report["result"]["output"] == [1, 0, 1]

    code, report, _ = run_json(
        capsys,
        "act",
        "--config",
        config(E2_33),
        "--word-expr",
        "b^-1",
        "--input",
        "1,1",
    )
    assert code == 0
    assert report["result"]["output"][0] == 0


def test_act_formats_its_letters_only_for_a_text_report(capsys, config, monkeypatch):
    path = config(Z2Z4)
    cases = (
        (("--word-expr", "a b^-1 a", "--input", "1,0,1"), "word a b^-1 a on 1,0,1 -> 0,1,0\n"),
        (("--state", "a", "--input", "0,0"), "state a on 0,0 -> 1,1 (ends in a)\n"),
    )
    reports = [
        run(capsys, "act", "--config", path, *argv, "--format", "json") for argv, _ in cases
    ]

    def refuse(letters):
        raise AssertionError("letters formatted for a JSON report")

    monkeypatch.setattr(cli, "_fmt_letters", refuse)
    for (argv, _), report in zip(cases, reports):
        assert report[0] == 0
        assert run(capsys, "act", "--config", path, *argv, "--format", "json") == report
    monkeypatch.undo()
    for argv, line in cases:
        assert run(capsys, "act", "--config", path, *argv) == (0, line, "")


def test_act_word_expression_takes_state_aliases(capsys, config):
    dual = {
        "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 3}},
        "automaton": {"builtin": "bellaterra_dual", "params": {}},
    }
    path = config(dual)
    reports = [
        run_json(
            capsys, "act", "--config", path, "--word-expr", expr, "--input", "2,1,0"
        )
        for expr in ("a q2^-1", "d0 d1^-1")
    ]
    assert reports[0][0] == reports[1][0] == 0
    assert reports[0][1]["result"] == reports[1][1]["result"]
    assert reports[0][1]["result"]["word"] == "d0 d1^-1"
    code, _, err = run(
        capsys, "act", "--config", path, "--word-expr", "d0 x1", "--input", "0"
    )
    assert code == 2
    assert "unknown state 'x1'" in err


def test_an_explicit_config_names_its_states(capsys, config):
    doc = tvautomata.config_of(tvautomata.bellaterra_automaton().dual())
    assert doc["automaton"]["explicit"]["names"] == ["d0", "d1"]
    path = config(doc)
    code, report, _ = run_json(
        capsys, "act", "--config", path, "--word-expr", "d0 d1^-1", "--input", "2,1,0"
    )
    assert (code, report["result"]["word"]) == (0, "d0 d1^-1")
    code, report, _ = run_json(capsys, "act", "--config", path, "--state", "d1", "--input", "0")
    assert (code, report["result"]["state"]) == (0, "d1")


def test_a_state_named_e_is_that_state_in_a_word_expression(capsys, config):
    # Five states are named a .. e, and only e moves a letter.
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
        "automaton": {
            "explicit": {
                "states": 5,
                "prefix": [],
                "period": [
                    {
                        "transition": [[q, q] for q in range(5)],
                        "output": [[0, 1]] * 4 + [[1, 0]],
                    }
                ],
            }
        },
    }
    path = config(doc)
    args = ("act", "--config", path, "--input", "0,1,1")
    _, by_state, _ = run_json(capsys, *args, "--state", "e")
    assert by_state["result"]["output"] == [1, 0, 0]
    for expr in ("e", "e^1", "q5"):
        code, report, _ = run_json(capsys, *args, "--word-expr", expr)
        assert code == 0
        assert report["result"]["output"] == by_state["result"]["output"]
        assert report["result"]["word"] == "e"
    _, report, _ = run_json(capsys, *args, "--word-expr", "id")
    assert report["result"]["output"] == [0, 1, 1]


def test_act_rejects_inverting_a_noninvertible_state(capsys, config):
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
        "automaton": {
            "explicit": {
                "states": 2,
                "prefix": [
                    {"transition": [[0, 1], [1, 0]], "output": [[1, 0], [0, 1]]}
                ],
                "period": [
                    {"transition": [[0, 0], [1, 1]], "output": [[1, 0], [0, 0]]}
                ],
            }
        },
    }
    path = config(doc)
    code, _, err = run(
        capsys, "act", "--config", path, "--word-expr", "b^-1", "--input", "0,0"
    )
    assert code == 2
    assert "level 2, state 1" in err
    code, _, _ = run(
        capsys, "act", "--config", path, "--word-expr", "b", "--input", "0,0"
    )
    assert code == 0


# a^-1 b^-1 over these tables: b, in state a from level 2 on, fails at
# level 3, and a, in state b from level 2 on, fails at level 2.
TWO_FAILING_LEVELS = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {
        "explicit": {
            "states": 2,
            "prefix": [
                {"transition": [[1, 1], [0, 0]], "output": [[1, 0], [0, 1]]},
                {"transition": [[0, 0], [1, 1]], "output": [[0, 1], [1, 1]]},
                {"transition": [[0, 0], [1, 1]], "output": [[0, 0], [0, 1]]},
            ],
            "period": [{"transition": [[0, 0], [1, 1]], "output": [[0, 1], [0, 1]]}],
        }
    },
}


def test_act_names_the_shallowest_failing_level(capsys, config):
    path = config(TWO_FAILING_LEVELS)
    code, out, err = run(
        capsys, "act", "--config", path, "--word-expr", "a^-1 b^-1", "--input", "0,0,0"
    )
    assert (code, out) == (2, "")
    assert err == "error: labeling at level 2, state 1 is not a permutation\n"


def test_act_rejects_bad_input(capsys, config):
    code, _, err = run(
        capsys, "act", "--config", config(Z2Z4), "--state", "a", "--input", "0,2"
    )
    assert code == 2
    assert "error" in err
    code, _, err = run(
        capsys, "act", "--config", config(Z2Z4), "--state", "nope", "--input", "0"
    )
    assert code == 2
    code, out, err = run(
        capsys, "act", "--config", config(Z2Z4), "--state", "a", "--input", "x,1"
    )
    assert (code, out) == (2, "")
    assert err == "error: cannot parse letters 'x,1': need comma-separated integers\n"
    with pytest.raises(SystemExit):
        main(["act", "--config", "x.json", "--state", "a", "--word-expr", "b", "--input", "0"])


def test_act_refuses_an_oversized_word_expression_at_once(capsys, config):
    path = config(Z2Z4)
    start = time.perf_counter()
    code, out, err = run(
        capsys, "act", "--config", path, "--word-expr", "a^30000000", "--input", "0"
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    code, report, _ = run_json(
        capsys,
        "act",
        "--config",
        path,
        "--word-expr",
        "a^30000000 a^-29999999",
        "--input",
        "1,0",
    )
    assert code == 0
    assert report["result"]["word"] == "a"


# -- levels -----------------------------------------------------------


def test_levels_orders(capsys, config):
    code, report, _ = run_json(
        capsys, "levels", "--config", config(Z4), "--max-level", "3"
    )
    assert code == 0
    assert [row["order"] for row in report["result"]["orders"]] == [2, 4, 4]
    assert report["result"]["capped"] is None


def test_levels_with_a_tight_order_cap(capsys, config):
    code, report, _ = run_json(
        capsys,
        "levels",
        "--config",
        config(LAMP),
        "--max-level",
        "4",
        "--order-cap",
        "4",
    )
    assert code == 1
    assert report["result"]["capped"]["level"] == 2
    assert report["result"]["capped"]["cap"] == 4
    assert [row["order"] for row in report["result"]["orders"]] == [2]


@pytest.mark.parametrize("size", [20, 60, 200])
def test_levels_stop_at_the_order_cap_at_once(capsys, config, size):
    # Example 2's level 2 over a large constant alphabet has a group far
    # past the cap; closing it in full took 92 s over 200 letters.
    doc = {
        "schedule": {"prefix": [2], "tail": {"kind": "constant", "value": size}},
        "automaton": {"builtin": "example2", "params": {}},
    }
    start = time.perf_counter()
    code, report, _ = run_json(
        capsys,
        "levels",
        "--config",
        config(doc),
        "--max-level",
        "2",
        "--order-cap",
        "1000000",
    )
    assert time.perf_counter() - start < 5
    capped = report["result"]["capped"]
    assert code == 1
    assert (capped["level"], capped["cap"]) == (2, 1_000_000)
    assert capped["reached"] > capped["cap"]
    assert [row["order"] for row in report["result"]["orders"]] == [2]


def test_levels_to_the_level_budget(capsys, config):
    code, out, err = run(
        capsys, "levels", "--config", config(Z2Z4), "--max-level", str(MAX_LEVEL)
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == MAX_LEVEL
    assert all(" group order 8 on " in line for line in lines[3:])


def test_levels_past_the_recursion_budget_exit_2(capsys, config):
    code, out, err = run(
        capsys, "levels", "--config", config(Z2Z4), "--max-level", "1200"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# -- classify ---------------------------------------------------------


def test_classify(capsys, config):
    code, report, _ = run_json(capsys, "classify", "--config", config(Z2Z4))
    assert code == 0
    assert report["result"]["kind"] == "Z2xZ4"
    assert report["result"]["group_order"] == 8

    code, report, _ = run_json(capsys, "classify", "--config", config(Z4))
    assert report["result"]["kind"] == "Z4"


def test_classify_rejects_nonbinary_machines(capsys, config):
    bad = {
        "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
        "automaton": {"builtin": "bellaterra_dual", "params": {}},
    }
    code, _, err = run(capsys, "classify", "--config", config(bad))
    assert code == 2
    assert "error" in err


# -- relations --------------------------------------------------------


def test_relations_lists_known_relations(capsys, config):
    code, report, _ = run_json(
        capsys, "relations", "--config", config(Z2Z4), "--max-len", "4"
    )
    assert code == 1
    assert "a a b^-1 b^-1" in report["result"]["relations"]
    assert "a b a^-1 b^-1" in report["result"]["relations"]
    assert report["result"]["unsettled"] == []


def test_relations_none_found(capsys, config):
    code, out, _ = run(
        capsys, "relations", "--config", config(E2_34), "--max-len", "3"
    )
    assert code == 0
    assert "none found" in out


def test_relations_lists_the_words_left_unsettled(capsys, config):
    e1 = _builtin("example1", {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": 0}}})
    code, out, _ = run(
        capsys, "relations", "--config", config(e1), "--max-len", "2", "--depth", "3"
    )
    assert code == 1
    assert out == (
        "checked 16 reduced words up to length 2\n"
        "not settled within depth budget:\n"
        "  b\n  b^-1\n  b b\n  b^-1 b^-1\n"
    )


def test_relations_past_the_word_budget_exit_2_at_once(capsys, config):
    start = time.perf_counter()
    code, out, err = run(capsys, "relations", "--config", config(E2_34), "--max-len", "11")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: relation scan up to length 11 has more than 200000 reduced words\n"


def test_relations_past_the_factor_budget_exit_2_at_once(capsys, config):
    # One state passes the word budget up to length 100,000; its words'
    # factors stop it past length 1,413.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "relations", "--config", config(_one_state()), "--max-len", "100000"
    )
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == "error: relation scan up to length 100000 has more than 2000000 factors\n"


def _src_env():
    src = os.path.dirname(os.path.dirname(tvautomata.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", [["classify"], ["relations", "--max-len", "8"]])
def test_a_closed_stdout_exits_2_with_one_error_line(config, command, fmt):
    # The pipe's read end is closed before the child starts, so its
    # first write to stdout fails, whether at a print or at the flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "tvautomata.cli", *command, "--config", config(Z2Z4),
             "--format", fmt],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=_src_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == "error: [Errno 32] Broken pipe\n"


# -- steer ------------------------------------------------------------


def test_steer_worked_case(capsys, config):
    code, report, _ = run_json(
        capsys, "steer", "--config", config(E2_34), "--target", "2,3"
    )
    assert code == 0
    assert report["result"]["n0"] == 1
    assert report["result"]["n1"] == 4
    assert report["result"]["word"] == "c^4 b^-1 c^1 b"
    assert report["result"]["verified"] is True
    assert report["result"]["base_word"] == [1, 1]


def test_steer_rejects_noncoprime_sizes(capsys, config):
    code, _, err = run(capsys, "steer", "--config", config(E2_33), "--target", "2,2")
    assert code == 2
    assert "error" in err


def test_steer_refuses_levels_it_cannot_steer(capsys, config):
    code, out, err = run(capsys, "steer", "--config", config(Z2Z4), "--target", "0,1")
    assert (code, out) == (2, "")
    assert err == "error: level 2: states must swap on exactly one common letter\n"
    code, out, err = run(capsys, "steer", "--config", config(LAMP), "--target", "0")
    assert (code, out) == (2, "")
    assert err == "error: level 1 fails: inverse_not_reversible\n"


# -- orbit ------------------------------------------------------------


def test_orbit_full(capsys, config):
    code, report, _ = run_json(
        capsys, "orbit", "--config", config(E2_34), "--level", "2"
    )
    assert code == 0
    assert report["result"]["orbit_size"] == 12
    assert report["result"]["words"] == 12
    assert report["result"]["transitive"] is True


def test_orbit_not_transitive(capsys, config):
    code, report, _ = run_json(
        capsys, "orbit", "--config", config(E2_22), "--level", "2"
    )
    assert code == 1
    assert report["result"]["orbit_size"] == 2
    assert report["result"]["words"] == 4


def test_orbit_at_the_root(capsys, config):
    code, report, _ = run_json(
        capsys, "orbit", "--config", config(E2_34), "--level", "0"
    )
    assert code == 0
    assert report["result"]["orbit_size"] == 1


def test_orbit_past_the_word_budget_exits_2_at_once(capsys, config):
    start = time.perf_counter()
    code, out, err = run(capsys, "orbit", "--config", config(E2_34), "--level", "13")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err == "error: orbit at level 13 has more than 200000 words\n"


# -- list-builtins ----------------------------------------------------


def test_list_builtins(capsys):
    code, report, _ = run_json(capsys, "list-builtins")
    assert code == 0
    ids = [f["id"] for f in report["result"]["families"]]
    assert ids == sorted(ids)
    for fid in (
        "bellaterra",
        "bellaterra_dual",
        "diagonal",
        "embed_subsequence",
        "example1",
        "example2",
        "gi",
        "lamplighter",
        "random_bir22",
        "z2z4",
        "z4",
    ):
        assert fid in ids


# -- determinism and config errors ------------------------------------


def test_seed_is_no_option(capsys, config):
    # A config's params are a builtin's only input: `params.seed` picks
    # the random_bir22 machine.
    path = config(_builtin("random_bir22", Z2Z4["schedule"], {"seed": 5, "period_len": 2}))
    first = run(capsys, "check", "--config", path, "--format", "json")
    assert first[0] in (0, 1)
    assert run(capsys, "check", "--config", path, "--format", "json") == first
    with pytest.raises(SystemExit) as err:
        main(["check", "--config", path, "--seed", "5"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


def test_json_reports_are_deterministic(capsys, config):
    path = config(E2_34)
    _, first, _ = run(capsys, "levels", "--config", path, "--format", "json")
    _, second, _ = run(capsys, "levels", "--config", path, "--format", "json")
    assert first == second


def _yes(flag):
    return "n/a" if flag is None else ("yes" if flag else "no")


def _text_from_json(report):
    """The lines of a text report, read off the JSON report of the same
    command: its `result`, and its `options` for what the result does
    not echo."""
    command, r = report["command"], report["result"]
    if command == "check":
        v = r["bireversible"]
        if not v["holds"]:
            head = f"bi-reversible: fails at level {v['fails_at']} ({v['reason']})"
        elif v["exact"]:
            head = "bi-reversible: holds (exact, all levels)"
        else:
            head = f"bi-reversible: holds (checked to level {v['checked_up_to']})"
        return [head] + [
            f"level {row['level']}: size {row['size']}  invertible {_yes(row['invertible'])}  "
            f"reversible {_yes(row['reversible'])}  inverse-reversible "
            f"{_yes(row['inverse_reversible'])}  diagonal {_yes(row['diagonal'])}"
            for row in r["levels"]
        ]
    if command == "levels":
        lines = [
            f"level {o['level']}: group order {o['order']} on {o['words']} words"
            for o in r["orders"]
        ]
        if r["capped"] is not None:
            c = r["capped"]
            lines.append(f"level {c['level']}: order cap {c['cap']} exceeded, partial results")
        return lines
    if command == "classify":
        return [
            f"classification: {r['kind']} (order {r['group_order']}, exponent {r['exponent']})"
        ]
    if command == "relations":
        max_len = report["options"]["max_len"]
        lines = [f"checked {r['checked']} reduced words up to length {max_len}"]
        if r["relations"]:
            lines += ["trivial words found:"] + [f"  {w}" for w in r["relations"]]
        if r["unsettled"]:
            lines += ["not settled within depth budget:"] + [f"  {w}" for w in r["unsettled"]]
        if not r["relations"] and not r["unsettled"]:
            lines.append("none found")
        return lines
    if command == "orbit":
        reach = "transitive" if r["transitive"] else "not transitive"
        return [
            f"orbit at level {r['level']}: {r['orbit_size']}/{r['words']} words reached - {reach}"
        ]
    assert command == "list-builtins"
    return [f"{f['id']}: {f['summary']}" for f in r["families"]]


def _bare_rule(doc):
    """A rule without fold, identity tail or lemma: no config builds one,
    and only its check is reported as checked to a level."""
    binary = tvautomata.AlphabetSchedule.constant(2)
    return tvautomata.Automaton.from_rule(
        binary, 2, lambda level: tvautomata.LevelTable.identity(2, 2)
    )


# Each text report branch: (config, arguments, exit code).  None stands
# for a bare rule machine.
_TEXT_REPORTS = {
    "check_fails": (LAMP, ("check", "--depth", "3"), 1),
    "check_exact": (Z2Z4, ("check", "--depth", "3"), 0),
    "check_checked_to_level": (None, ("check", "--depth", "3"), 0),
    "levels_capped": (Z2Z4, ("levels", "--max-level", "3", "--order-cap", "3"), 1),
    "levels": (E2_34, ("levels", "--max-level", "2"), 0),
    "classify": (Z2Z4, ("classify",), 0),
    "relations_found": (Z2Z4, ("relations", "--max-len", "4"), 1),
    "relations_none_found": (E2_34, ("relations", "--max-len", "3"), 0),
    "orbit_transitive": (E2_34, ("orbit", "--level", "2"), 0),
    "orbit_not_transitive": (E2_22, ("orbit", "--level", "2"), 1),
    "list_builtins": (Z2Z4, ("list-builtins",), 0),
}


@pytest.mark.parametrize("case", sorted(_TEXT_REPORTS))
def test_every_text_line_agrees_with_the_json_report(capsys, config, monkeypatch, case):
    doc, argv, status = _TEXT_REPORTS[case]
    if doc is None:
        monkeypatch.setattr(cli, "build_from_config", _bare_rule)
    if argv[0] != "list-builtins":
        argv += ("--config", config(doc or Z2Z4))
    code, report, err = run_json(capsys, *argv)
    assert (code, err) == (status, "")
    code, out, err = run(capsys, *argv, "--format", "text")
    assert (code, err) == (status, "")
    assert out.splitlines() == _text_from_json(report)


def test_malformed_config_files(capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(capsys, "check", "--config", str(broken))
    assert code == 2

    code, _, err = run(capsys, "check", "--config", str(tmp_path / "missing.json"))
    assert code == 2

    unknown = tmp_path / "unknown.json"
    unknown.write_text(
        json.dumps(
            {
                "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
                "automaton": {"builtin": "mystery", "params": {}},
            }
        )
    )
    code, _, err = run(capsys, "check", "--config", str(unknown))
    assert code == 2


_C2 = {"prefix": [], "tail": {"kind": "constant", "value": 2}}
_FLIP = {"transition": [[0, 0]], "output": [[1, 0]]}


def _one_state(schedule=_C2, states=1, prefix=(), period=(_FLIP,)):
    return {
        "schedule": schedule,
        "automaton": {
            "explicit": {"states": states, "prefix": list(prefix), "period": list(period)}
        },
    }


def _builtin(name, schedule, params=None):
    return {"schedule": schedule, "automaton": {"builtin": name, "params": params or {}}}


# Each document would load if `true` were read as 1 or `false` as 0.
_BOOLEAN_FIELDS = {
    "schedule_prefix": _one_state(
        {"prefix": [True], "tail": {"kind": "constant", "value": 2}},
        prefix=[{"transition": [[0]], "output": [[0]]}],
    ),
    "constant_tail": _builtin(
        "example1", {"prefix": [], "tail": {"kind": "constant", "value": True}}
    ),
    "periodic_tail": _builtin(
        "example1", {"prefix": [], "tail": {"kind": "periodic", "value": [2, True]}}
    ),
    "ramp_offset": _builtin(
        "example2", {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": True}}}
    ),
    "explicit_states": _one_state(states=True),
    "table_rows": _one_state(period=[{"transition": [[0, 0]], "output": [[True, False]]}]),
    "diagonal_labelings": _builtin(
        "diagonal", _C2, {"prefix": [], "period": [[[True, False]]]}
    ),
}


@pytest.mark.parametrize("field", sorted(_BOOLEAN_FIELDS))
def test_a_boolean_where_an_integer_belongs_exits_2(capsys, config, field):
    code, out, err = run(capsys, "check", "--config", config(_BOOLEAN_FIELDS[field]))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "int" in err


def test_a_builtin_name_that_is_not_a_string_exits_2(capsys, config):
    doc = {"schedule": _C2, "automaton": {"builtin": [[0, 1]]}}
    code, out, err = run(capsys, "check", "--config", config(doc))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# Configs of the wrong shape, each refused by the key it names.
_MISSHAPEN = {
    "automaton_list": ({"schedule": _C2, "automaton": []}, "'automaton' must be an object"),
    "example2_string_letter": (
        _builtin("example2", _C2, {"x0": "0"}), "parameter 'x0' must be an integer"
    ),
    "random_bir22_float_seed": (
        _builtin("random_bir22", _C2, {"seed": 1.5}), "parameter 'seed' must be an integer"
    ),
}


@pytest.mark.parametrize("case", sorted(_MISSHAPEN))
def test_a_misshapen_config_exits_2_naming_its_key(capsys, config, case):
    doc, message = _MISSHAPEN[case]
    code, out, err = run(capsys, "check", "--config", config(doc))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_an_embedding_that_mismatches_past_the_eager_window_exits_2(capsys, config):
    ramp = {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": 1}}}
    host = {"prefix": [1] + [j + 1 for j in range(1, 65)], "tail": ramp["tail"]}
    params = {"inner": _builtin("example2", ramp), "start": 2}
    path = config(_builtin("embed_subsequence", host, params))
    code, out, err = run(capsys, "check", "--config", path, "--depth", "70")
    assert (code, out) == (2, "")
    assert err == "error: inner level 65 has size 66 but host level 66 has size 67\n"


def _nested_embedding_text(depth):
    # Written out by hand: json.dumps recurses once per nesting level.
    inner = json.dumps(Z2Z4)
    head = json.dumps(Z2Z4["schedule"])
    wrap = f'{{"schedule": {head}, "automaton": {{"builtin": "embed_subsequence", "params": {{"inner": '
    return wrap * depth + inner + "}}}" * depth


_TOO_DEEP_TO_BUILD = "nest deeper than the supported 32"
_TOO_DEEP_TO_DECODE = "nests too deeply to decode"


# How deep the JSON decoder gets before RecursionError depends on the
# interpreter and its stack, so the middle cases accept either refusal.
@pytest.mark.parametrize(
    "text, messages",
    [
        (_nested_embedding_text(40), [_TOO_DEEP_TO_BUILD]),
        (_nested_embedding_text(400), [_TOO_DEEP_TO_BUILD, _TOO_DEEP_TO_DECODE]),
        ("[" * 2000 + "]" * 2000, ["config needs exactly the keys", _TOO_DEEP_TO_DECODE]),
        ("[" * 100_000 + "]" * 100_000, [_TOO_DEEP_TO_DECODE]),
    ],
    ids=["embed-40", "embed-400", "list-2000", "list-100000"],
)
def test_a_deeply_nested_config_exits_2(capsys, tmp_path, text, messages):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run(capsys, "check", "--config", str(path), "--depth", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert any(message in err for message in messages)


def _slots(doc):
    """Every (container, key) pair inside a document."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        for key in list(node) if isinstance(node, dict) else range(len(node)):
            slots.append((node, key))
            if isinstance(node[key], (dict, list)):
                stack.append(node[key])
    return slots


def _mutated_configs(st):
    """Builtin and explicit configs, one of them with state names,
    perhaps nested in one more `embed_subsequence`, then changed in one
    to three places: a key dropped or renamed, or a value replaced by a
    bool, str, float, null, list, object, family or tail-kind name
    (known or not) or small integer (at most 64, so that no alphabet
    grows large)."""
    named = tvautomata.config_of(tvautomata.bellaterra_automaton().dual())
    bases = all_builtin_configs() + [_one_state(), E2_22, named]
    names = sorted(tvautomata.FAMILIES) + ["constant", "periodic", "ramp", "mystery"]
    values = st.one_of(
        st.booleans(),
        st.none(),
        st.floats(),
        st.integers(-3, 64),
        st.text(max_size=3),
        st.sampled_from(names),
        st.lists(st.integers(-3, 64), max_size=3),
        st.just({}),
        st.just([[0, 1], [1, 0]]),
    )

    @st.composite
    def mutated(draw):
        doc = draw(st.sampled_from(bases))
        if draw(st.booleans()):
            params = {"inner": doc}
            params["start"], params["step"] = draw(st.integers(1, 3)), draw(st.integers(1, 3))
            embed = {"builtin": "embed_subsequence", "params": params}
            doc = {"schedule": doc["schedule"], "automaton": embed}
        doc = json.loads(json.dumps(doc))
        for _ in range(draw(st.integers(1, 3))):
            node, key = draw(st.sampled_from(_slots(doc)))
            how = draw(st.sampled_from(["drop", "rename", "replace"]))
            if how == "drop" and isinstance(node, dict):
                del node[key]
            elif how == "rename" and isinstance(node, dict):
                node["x" + key] = node.pop(key)
            else:
                # A fresh copy: `st.just` hands out one shared object.
                node[key] = copy.deepcopy(draw(values))
            if not doc:
                break
        return doc

    return mutated()


def test_mutated_configs_exit_0_1_or_2_and_never_raise(tmp_path):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    path = tmp_path / "fuzzed.json"

    @hypothesis.settings(max_examples=250, deadline=None, database=None)
    @hypothesis.given(_mutated_configs(st))
    def check(doc):
        path.write_text(json.dumps(doc))
        argv = ["check", "--config", str(path), "--depth", "3"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    check()


_HUGE = 10**9
_OVERSIZED = {
    "prefix": {"prefix": [_HUGE], "tail": {"kind": "constant", "value": 3}},
    "constant": {"prefix": [], "tail": {"kind": "constant", "value": _HUGE}},
    "periodic": {"prefix": [], "tail": {"kind": "periodic", "value": [3, _HUGE]}},
    "ramp_offset": {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": _HUGE}}},
}


def _limited_memory():
    limit = 1_500_000_000
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("field", sorted(_OVERSIZED))
def test_an_alphabet_past_the_size_budget_exits_2(config, field):
    # Run apart, under a 1.5 GB address-space limit: a build that does
    # allocate such an alphabet then ends in MemoryError instead of
    # filling the machine's memory.
    path = config(_builtin("example2", _OVERSIZED[field]))
    src = os.path.dirname(os.path.dirname(tvautomata.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tvautomata.cli", "orbit", "--config", path, "--level", "1"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limited_memory,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert str(MAX_ALPHABET_SIZE) in proc.stderr


def test_an_alphabet_at_the_size_budget_loads(capsys, config):
    sizes = {"prefix": [MAX_ALPHABET_SIZE], "tail": {"kind": "constant", "value": 2}}
    code, report, _ = run_json(
        capsys, "orbit", "--config", config(_builtin("example2", sizes)), "--level", "1"
    )
    assert code == 0
    assert report["result"]["words"] == MAX_ALPHABET_SIZE


# Counts below their least value or past the level budget, each named in
# the error line by what it counts.
_BAD_COUNTS = {
    "check_depth_negative": ("check", "--depth", "-1", "check depth"),
    "check_depth_zero": ("check", "--depth", "0", "check depth"),
    "check_depth_past_budget": ("check", "--depth", str(MAX_LEVEL + 1), "check depth"),
    "levels_max_level_negative": ("levels", "--max-level", "-3", "--max-level"),
    "levels_max_level_zero": ("levels", "--max-level", "0", "--max-level"),
    "levels_order_cap_negative": ("levels", "--order-cap", "-1", "order cap"),
    "levels_order_cap_zero": ("levels", "--order-cap", "0", "order cap"),
    "relations_max_len_negative": ("relations", "--max-len", "-1", "word length"),
    "relations_depth_zero": ("relations", "--depth", "0", "depth budget"),
    "relations_depth_past_budget": (
        "relations", "--depth", str(MAX_LEVEL + 1), "depth budget"
    ),
    "orbit_level_past_budget": ("orbit", "--level", str(MAX_LEVEL + 1), "level"),
}


@pytest.mark.parametrize("case", sorted(_BAD_COUNTS))
def test_a_count_out_of_range_exits_2(capsys, config, case):
    command, option, value, what = _BAD_COUNTS[case]
    code, out, err = run(capsys, command, "--config", config(Z2Z4), option, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, option, what", [("check", "--depth", "check depth"), ("orbit", "--level", "level")]
)
def test_a_level_past_the_budget_on_a_ramp_exits_2_at_once(config, command, option, what):
    # Every table down to level 20000 over ramp(1) would end in MemoryError
    # under this limit, after half a minute.
    ramp = {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": 1}}}
    path = config(_builtin("example2", ramp))
    src = os.path.dirname(os.path.dirname(tvautomata.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "tvautomata.cli", command, "--config", path, option, "20000"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=_limited_memory,
        timeout=120,
    )
    assert time.perf_counter() - start < 10
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {what} 20000 is deeper than the supported {MAX_LEVEL}\n"


_E2_RAMP = _builtin("example2", {"prefix": [], "tail": {"kind": "ramp", "value": {"offset": 1}}})


def test_words_over_a_ramp_get_the_level_budget(capsys, config):
    path = config(_E2_RAMP)
    letters = ",".join(["0"] * MAX_LEVEL)
    code, report, _ = run_json(capsys, "act", "--config", path, "--state", "a", "--input", letters)
    assert code == 0
    assert len(report["result"]["output"]) == MAX_LEVEL
    longer = letters + ",0"
    for argv in (["act", "--state", "a", "--input", longer], ["steer", "--target", longer]):
        start = time.perf_counter()
        code, out, err = run(capsys, argv[0], "--config", path, *argv[1:])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: word of {MAX_LEVEL + 1} letters is longer than the supported "
            f"{MAX_LEVEL} over a ramp schedule\n"
        )
    # Bounded schedules keep accepting long words.
    code, report, _ = run_json(
        capsys, "act", "--config", config(Z2Z4, "z2z4.json"), "--word-expr", "a b^-1",
        "--input", ",".join(["1"] * 1000),
    )
    assert code == 0
    assert len(report["result"]["output"]) == 1000


def test_an_orbit_past_the_letter_budget_exits_2_at_once(capsys, config):
    # Over ramp(1), 8,889 words of level 450 already pass 4,000,000 letters.
    start = time.perf_counter()
    code, out, err = run(
        capsys, "orbit", "--config", config(_E2_RAMP), "--level", str(MAX_LEVEL)
    )
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert err == f"error: orbit at level {MAX_LEVEL} has more than 4000000 letters\n"


def _instance(cls):
    args = {
        NotInvertibleError: (2, 1),
        BudgetExceededError: ("states", 9),
        OrbitTooLargeError: (13, 200_000),
        OrderCapExceededError: (4, 8),
        RelationScanTooLargeError: (11, 200_000),
    }
    return cls(*args.get(cls, (f"{cls.__name__} raised",)))


_ERROR_TYPES = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, AutomatonError)
] + [ValueError, OSError]


@pytest.mark.parametrize("cls", _ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_exits_by_its_type_with_one_line(capsys, config, monkeypatch, cls):
    exc = _instance(cls)

    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "_load_automaton", fail)
    code, out, err = run(capsys, "classify", "--config", config(Z2Z4))
    assert code == (1 if cls in (BudgetExceededError, VerificationFailedError) else 2)
    assert (out, err) == ("", f"error: {exc}\n")


def test_explicit_config_document(capsys, config):
    doc = {
        "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
        "automaton": {
            "explicit": {
                "states": 2,
                "prefix": [],
                "period": [
                    {"transition": [[0, 1], [1, 0]], "output": [[1, 0], [1, 0]]},
                    {"transition": [[0, 0], [1, 1]], "output": [[1, 0], [0, 1]]},
                ],
            }
        },
    }
    code, report, _ = run_json(capsys, "classify", "--config", config(doc))
    assert code == 0
    assert report["result"]["kind"] == "Z2xZ4"

    bad = json.loads(json.dumps(doc))
    bad["automaton"]["explicit"]["period"][0]["transition"][0][1] = 7
    code, _, err = run(capsys, "classify", "--config", config(bad, "bad.json"))
    assert code == 2


def test_a_reused_parser_reports_like_a_fresh_one(capsys, config, monkeypatch):
    z2z4, e2 = config(Z2Z4), config(E2_34, "e2.json")
    calls = [
        ["act", "--config", z2z4, "--word-expr", "a b^-1", "--input", "1,0,1",
         "--format", "json"],
        ["steer", "--config", e2, "--target", "2,3"],
        ["act", "--config", z2z4, "--state", "a", "--word-expr", "a", "--input", "0"],
        ["classify", "--config", z2z4, "--format", "json"],
        ["act", "--config", z2z4, "--state", "b", "--input", "0,1"],
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_shared_parser", cli.build_parser)
        fresh = [call(argv) for argv in calls]
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 0]
    assert [call(argv) for argv in calls] == fresh


def test_missing_config_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
