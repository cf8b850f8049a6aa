"""CLI surface: subcommands, exit codes, output determinism."""

import json

import pytest

import hav.cli
from hav.cli import run_cli
from hav.regions import region_graph
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


UNREACHED_MODE = """\
automaton unreached {
  vars: x;
  class: timed;
  mode a { init; }
  mode d {}
  edge a -> a on tick when x >= 1 reset x;
}
"""


@pytest.mark.parametrize("formula, code, verdict", [
    ("F d", 1, "VIOLATED"),
    ("! F d", 0, "HOLDS"),
])
def test_check_unreached_mode_proposition_is_declared(capsys, tmp_path, formula, code, verdict):
    model = tmp_path / "unreached.hav"
    model.write_text(UNREACHED_MODE)
    got, out, err = run(capsys, "check", str(model), "--formula", formula)
    assert (got, out.splitlines()[0]) == (code, verdict), err


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


@pytest.mark.parametrize("steps, expected", [
    ([[1, "x"]], "step 0"),
    ([1], "step 0"),
    ("x", "list of steps"),
    ({"steps": []}, "list of steps"),
    ([{"delay": "1"}], "step 0"),
    ([{"action": "user_name", "target": None}], "step 0: \"target\""),
    ([{"delay": "0", "action": "user_name"}, {"delay": "1/0", "action": "pw_match"}],
     "step 1: bad delay"),
])
def test_simulate_malformed_script_exit_two(capsys, tmp_path, steps, expected):
    script = tmp_path / "script.json"
    script.write_text(json.dumps(steps))
    code, out, err = run(capsys, "simulate", LOGIN, "--script", str(script))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expected in err


def test_simulate_deeply_nested_script_exit_two(capsys, tmp_path):
    script = tmp_path / "script.json"
    script.write_text("[" * 100_000 + "]" * 100_000)
    code, _, err = run(capsys, "simulate", LOGIN, "--script", str(script))
    assert code == 2 and err.count("\n") == 1 and "nested too deeply" in err


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


@pytest.mark.parametrize("model, network, formula, code", [
    (LOGIN, [], "F standby", 0),
    (LOGIN, [], "G F standby", 1),
    (JOBSHOP_TIMED, ["--network", "all"], "F j1_finish", 0),
    (JOBSHOP_TIMED, ["--network", "all"], "!(F (j1_finish && j2_finish))", 1),
])
def test_check_dot_prints_the_regions_dot_first(capsys, model, network, formula, code):
    _, dot, _ = run(capsys, "regions", model, *network, "--dot")
    got, out, _ = run(capsys, "check", model, *network, "--formula", formula, "--dot")
    assert got == code
    assert dot.startswith("digraph kripke {\n")
    assert out.startswith(dot)
    assert out[len(dot):].startswith("HOLDS\n" if code == 0 else "VIOLATED\n")


def test_only_dot_output_copies_the_region_graph(capsys, monkeypatch):
    built = []

    def recorded(*args, **kwargs):
        built.append(region_graph(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(hav.cli, "region_graph", recorded)
    for argv in (["regions", LOGIN], ["regions", LOGIN, "--stats"], ["quotient", LOGIN],
                 ["quotient", LOGIN, "--dot"], ["check", LOGIN, "--formula", "F standby"],
                 ["regions", LOGIN, "--dot"]):
        assert run(capsys, *argv)[0] == 0
    assert ["kripke" in rg.__dict__ for rg in built] == [False] * 5 + [True]


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


@pytest.mark.parametrize("flags", [
    ["--l", "1/0", "--g", "1", "--c", "1/2"],
    ["--l", "1", "--g", "1/0", "--c", "1/2"],
    ["--l", "1", "--g", "1", "--c", "0/0"],
])
def test_ball_zero_denominator_exit_two(capsys, flags):
    code, out, err = run(capsys, "ball", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "zero denominator" in err


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
