"""End-to-end runs of the command line front end."""

import json

import pytest

from tvautomata.cli import main

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
RANDOM22 = {
    "schedule": {"prefix": [], "tail": {"kind": "constant", "value": 2}},
    "automaton": {"builtin": "random_bir22", "params": {"period_len": 2}},
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
    with pytest.raises(SystemExit):
        main(["act", "--config", "x.json", "--state", "a", "--word-expr", "b", "--input", "0"])


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


# -- seeds, determinism, and config errors ----------------------------


def test_seed_selects_the_random_machine(capsys, config):
    path = config(RANDOM22)
    code, first, _ = run(
        capsys, "check", "--config", path, "--seed", "5", "--format", "json"
    )
    assert code in (0, 1)
    _, second, _ = run(
        capsys, "check", "--config", path, "--seed", "5", "--format", "json"
    )
    assert first == second
    code, _, err = run(capsys, "check", "--config", config(Z2Z4), "--seed", "5")
    assert code == 2
    assert "--seed" in err


def test_json_reports_are_deterministic(capsys, config):
    path = config(E2_34)
    _, first, _ = run(capsys, "levels", "--config", path, "--format", "json")
    _, second, _ = run(capsys, "levels", "--config", path, "--format", "json")
    assert first == second


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


def test_missing_config_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["check"])
    assert err.value.code == 2
