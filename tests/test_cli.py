"""CLI surface: subcommands, exit codes, output determinism."""

import json

import pytest

from hav.cli import run_cli
from hav.textfmt import MAX_LTL_DEPTH
from conftest import MODELS

LOGIN = str(MODELS / "login.hav")
JOBSHOP = str(MODELS / "jobshop.hav")
JOBSHOP_TIMED = str(MODELS / "jobshop_timed.hav")
RECT = str(MODELS / "rect.hav")


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_login(capsys):
    code, out, _ = run(capsys, "classify", LOGIN)
    assert code == 0
    assert out.strip() == "timed, initialized, K=60"


def test_check_jobshop_violated_with_schedule(capsys, tmp_path):
    out_json = tmp_path / "cx.json"
    code, out, err = run(capsys, "check", JOBSHOP_TIMED, "--network", "all",
                         "--formula", "!(F (j1_finish && j2_finish))",
                         "--json", str(out_json))
    assert code == 1
    assert out.strip() == "VIOLATED"
    assert "total time: 7" in err
    payload = json.loads(out_json.read_text())
    delays = [step["delay"] for step in payload["stem"] if "delay" in step
              and step["action"] != "τ-stutter"]
    total = sum(int(d.split("/")[0]) / int(d.split("/")[1] if "/" in d else 1)
                if "/" in d else int(d) for d in delays)
    assert total == 7


def test_check_holds_exit_zero(capsys):
    code, out, _ = run(capsys, "check", LOGIN, "--formula", "F standby")
    assert code == 0 and out.strip() == "HOLDS"


def test_check_malformed_formula_exit_two(capsys):
    code, _, err = run(capsys, "check", LOGIN, "--formula", "F (")
    assert code == 2
    assert ":1:4" in err


@pytest.mark.parametrize("formula", [
    "(" * 250 + "connect" + ")" * 250,
    "!" * 2000 + "connect",
    "X " * 400 + "connect",
    " && ".join(["connect"] * 400),
], ids=["parentheses", "negations", "nexts", "conjunctions"])
def test_check_too_deep_formula_exit_two(capsys, formula):
    code, out, err = run(capsys, "check", LOGIN, "--formula", formula)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"deeper than {MAX_LTL_DEPTH} levels" in err


@pytest.mark.parametrize("formula", [
    "(" * MAX_LTL_DEPTH + "connect" + ")" * MAX_LTL_DEPTH,
    "!" * MAX_LTL_DEPTH + "connect",
    "X " * MAX_LTL_DEPTH + "connect",
    " && ".join(["connect"] * (MAX_LTL_DEPTH + 1)),
    " || ".join(["connect"] * (MAX_LTL_DEPTH + 1)),
    " -> ".join(["connect"] * (MAX_LTL_DEPTH + 1)),
], ids=["parentheses", "negations", "nexts", "conjunctions", "disjunctions",
        "implications"])
def test_check_formula_at_depth_limit_is_decided(capsys, formula):
    code, out, _ = run(capsys, "check", LOGIN, "--formula", formula)
    assert (code, out.split("\n")[0]) in ((0, "HOLDS"), (1, "VIOLATED"))


def test_check_wrong_class_exit_three(capsys):
    code, _, err = run(capsys, "check", RECT, "--formula", "F A")
    assert code == 3


def test_simulate(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"delay": "0", "action": "user_name"},
        {"delay": "30", "action": "pw_match"},
    ]))
    code, out, _ = run(capsys, "simulate", LOGIN, "--script", str(script))
    assert code == 0
    payload = json.loads(out)
    assert payload["steps"][-1]["mode"] == "connect"
    assert payload["total_time"] == "30"


def test_simulate_rejected_script_exit_one(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        {"delay": "0", "action": "user_name"},
        {"delay": "61", "action": "pw_match"},
    ]))
    code, _, err = run(capsys, "simulate", LOGIN, "--script", str(script))
    assert code == 1 and "rejected" in err


def test_regions_stats(capsys):
    code, out, _ = run(capsys, "regions", LOGIN, "--stats")
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().splitlines())
    assert int(lines["states"]) <= int(lines["bound"]) == 1220


def test_compose_output_reparses(capsys, tmp_path):
    out_file = tmp_path / "product.hav"
    code, _, _ = run(capsys, "compose", JOBSHOP, "--network", "all", "-o", str(out_file))
    assert code == 0
    from hav.textfmt import parse_model
    doc = parse_model(out_file.read_text())
    assert len(doc.automata[0].modes) == 27


def test_quotient(capsys):
    code, out, _ = run(capsys, "quotient", LOGIN)
    assert code == 0
    assert "blocks: " in out


def test_reduce_timed_with_certificate(capsys, tmp_path):
    out_file = tmp_path / "timed.hav"
    cert_file = tmp_path / "cert.json"
    code, _, _ = run(capsys, "reduce", RECT, "--to", "timed",
                     "-o", str(out_file), "--certificate", str(cert_file))
    assert code == 0
    from hav.textfmt import parse_model
    from hav.model import classify, AutomatonClass
    doc = parse_model(out_file.read_text())
    assert classify(doc.automata[0]).klass == AutomatonClass.TIMED
    cert = json.loads(cert_file.read_text())
    assert cert["l_factor"] >= 1 and cert["maps"]


def test_ltl2buchi_dot(capsys):
    code, out, _ = run(capsys, "ltl2buchi", "G (p -> F q)", "--dot")
    assert code == 0
    assert "digraph buchi" in out and "states: " in out


def test_encode_minsky(capsys, tmp_path):
    program = tmp_path / "prog.mm"
    program.write_text("INC c1 -> 1\nHALT\n")
    out_file = tmp_path / "enc.hav"
    formula_file = tmp_path / "enc.ltl"
    code, _, _ = run(capsys, "encode-minsky", str(program), "-o", str(out_file),
                     "--formula-out", str(formula_file))
    assert code == 0
    assert formula_file.read_text().strip() == "l0 && F HALT"
    from hav.textfmt import parse_model, parse_ltl
    doc = parse_model(out_file.read_text())
    assert "L0" in doc.automata[0].modes
    parse_ltl(formula_file.read_text())


def test_ball_exact_json(capsys):
    code, out, _ = run(capsys, "ball", "--l", "10", "--g", "9.8", "--c", "0.5", "--n", "40")
    assert code == 0
    payload = json.loads(out)
    assert payload["t1"] == "10/7"
    assert payload["exact"] is True
    assert payload["zeno_time"] == "30/7"


def test_determinism(capsys):
    _, first, _ = run(capsys, "regions", LOGIN, "--dot")
    _, second, _ = run(capsys, "regions", LOGIN, "--dot")
    assert first == second
    _, b1, _ = run(capsys, "ltl2buchi", "F (p && !q)", "--dot")
    _, b2, _ = run(capsys, "ltl2buchi", "F (p && !q)", "--dot")
    assert b1 == b2


def test_usage_error(capsys):
    assert run_cli(["bogus-command"]) == 2
    captured = capsys.readouterr()
