"""The four workloads: how each builds its inputs, runs a case and checks it.

A workload's setup generates and parses its inputs and returns the case
list. Each case has a `run` callable, timed by run.py, and a `verify`
callable, run afterwards outside the timing, which returns a `Check`.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import hav.cli
import hav.compose
import hav.mcheck
import hav.minsky
import hav.regions
import hav.semantics
import hav.textfmt
from hav.ltl import eval_lasso

import generators as gen
import oracles
from tracing import path_sizes


@dataclass
class Check:
    """Outcome of checking one case's output.

    `failure` is "" when the output is right. `known_defect` marks failures
    that the recorded Minsky drifted-zero defect explains. `violated` and
    `concrete` feed the concrete share of VIOLATED verdicts.
    """

    failure: str = ""
    known_defect: bool = False
    violated: bool = False
    concrete: bool = False


@dataclass
class Case:
    ident: str
    run: Callable
    verify: Callable
    cli: bool = False


def run_cli(argv: list[str]):
    """`hav <argv>` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hav.cli.run_cli(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_case(ident: str, argv: list[str], verify, tracer) -> Case:
    def run():
        with tracer.span("cli.run_cli"):
            return run_cli(argv)
    return Case(ident, run, verify, cli=True)


def _load(path: Path, network: str | None):
    doc = hav.textfmt.parse_model(path.read_text(encoding="utf-8"), filename=str(path))
    return hav.compose.product(doc.network(network)) if network else doc.automata[0]


# ---------------------------------------------------------------- check-net

def _check_verifier(automaton, formula: str, expected: str, total_time: str | None = None):
    phi = hav.textfmt.parse_ltl(formula)

    def verify(output) -> Check:
        code, stdout, stderr = output
        verdict, payload = oracles.parse_check_stdout(stdout)
        if code != (0 if verdict == "HOLDS" else 1):
            return Check(f"exit code {code} with {verdict}")
        if verdict != expected:
            return Check(f"{verdict}, expected {expected}")
        if verdict == "HOLDS":
            return Check()
        concrete = stderr.startswith("total time: ")
        check = Check(oracles.check_json_counterexample(automaton, phi, payload),
                      violated=True, concrete=concrete)
        if total_time is not None and stderr != f"total time: {total_time}\n":
            check.failure = check.failure or f"run time {stderr.strip()!r}, expected {total_time}"
        return check
    return verify


def setup_check_net(rng: random.Random, root: Path, workdir: Path, tracer) -> list[Case]:
    a, b = gen.copy_tags(rng, 2)
    two = workdir / "login2.hav"
    two.write_text(gen.login_network([a, b], 5, 1), encoding="utf-8")
    login = root / "models" / "login.hav"
    jobshop = root / "models" / "jobshop_timed.hav"
    pair = _load(two, "all")
    specs = [
        ("login", login, None, "! F connect", "VIOLATED", None),
        ("jobshop", jobshop, "all", "!(F (j1_finish && j2_finish))", "VIOLATED", "7"),
        ("pair-reach", two, "all", f"! F (connect{a} && connect{b})", "VIOLATED", None),
        ("pair-stay", two, "all", f"G (connect{a} -> G connect{a})", "HOLDS", None),
        ("pair-live", two, "all", f"G F standby{a}", "VIOLATED", None),
    ]
    cases = []
    for ident, path, network, formula, expected, total in specs:
        automaton = pair if path == two else _load(path, network)
        argv = ["check", str(path), "--formula", formula]
        if network:
            argv += ["--network", network]
        verify = _check_verifier(automaton, formula, expected, total)
        cases.append(_cli_case(ident, argv, verify, tracer))
    rng.shuffle(cases)
    return cases


# --------------------------------------------------------------- check-fair

def setup_check_fair(rng: random.Random, root: Path, workdir: Path, tracer) -> list[Case]:
    tags = gen.copy_tags(rng, 2)
    doc = hav.textfmt.parse_model(gen.login_network(tags, 4, 1))
    automaton = hav.compose.product(doc.network("all"))
    rg = hav.regions.region_graph(automaton)
    cases = []
    for i, (assumptions, goal) in enumerate(gen.fairness_formulas(rng, tags)):
        phi = hav.textfmt.parse_ltl(gen.fairness_text(assumptions, goal))

        def run(phi=phi):
            return tracer.call("mcheck.check_timed", None, hav.mcheck.check_timed,
                               automaton, phi, rg=rg)

        expected: list = []

        def verify(verdict, phi=phi, assumptions=assumptions, goal=goal, expected=expected):
            if not expected:
                expected.append(oracles.fairness_violated(rg.kripke, assumptions, goal))
            if verdict.holds == expected[0]:
                return Check(f"{'HOLDS' if verdict.holds else 'VIOLATED'} disagrees with SCC check")
            if verdict.holds:
                return Check()
            cx = verdict.counterexample
            if eval_lasso(phi, cx.trace):
                return Check("counterexample trace satisfies the formula", violated=True)
            if cx.concrete is None:
                return Check(violated=True)
            if not oracles.replays(automaton, cx.concrete):
                return Check("concrete run does not replay", violated=True)
            return Check(violated=True, concrete=True)

        cases.append(Case(f"fair-{i}-m{len(assumptions)}", run, verify))
    return cases


# ----------------------------------------------------------------- fm-paths

FM_PROGRAMS = 28


def _fm_cases(ident: str, code: tuple, tracer) -> list[Case]:
    machine = hav.minsky.parse_program(gen.program_text(code))
    enc = hav.minsky.encode(machine)
    edges, _, exits = hav.minsky.encoded_run_path(enc, 100_000)
    trace = oracles.interpret(code)
    entries = [{"x1": Fraction(1), "x2": Fraction(1)}] + list(exits)
    schedule = oracles.encoded_schedule(code, trace, entries)
    known_defect = oracles.drifted_operand(code, trace, entries)
    shape_ok = [name for name, _ in schedule] == [e.action for e in edges]
    delays = [d for _, d in schedule]
    free = hav.semantics.PathQuery(tuple(edges))
    pinned = hav.semantics.PathQuery(tuple(edges), tuple(enumerate(delays)))
    _, c1, c2 = trace[-1]

    def verify_with(pin: bool):
        def verify(result) -> Check:
            if known_defect:
                if result.feasible:
                    return Check("drifted-zero operand reported feasible")
                return Check("halting program, infeasible encoded path "
                             "(drifted-zero operand)", known_defect=True)
            if not shape_ok:
                return Check("encoded path differs from the module schedule")
            if not oracles.exits_represent(trace, exits):
                return Check("a module exit does not encode the counters")
            if not result.feasible:
                return Check("halting program, infeasible encoded path")
            if pin and result.delays != delays:
                return Check("pinned delays not returned")
            run = hav.semantics.simulate(enc.automaton, list(zip(result.delays, edges)))
            last = run.last.valuation
            if (last["x1"] not in hav.minsky.counter_representations(c1)
                    or last["x2"] not in hav.minsky.counter_representations(c2)):
                return Check("witness run ends off the halting counters")
            return Check()
        return verify

    def runner(query):
        return lambda: tracer.call("semantics.path_feasible", path_sizes,
                                   hav.semantics.path_feasible, enc.automaton, query)

    return [Case(f"{ident}-free", runner(free), verify_with(False)),
            Case(f"{ident}-pinned", runner(pinned), verify_with(True))]


def setup_fm_paths(rng: random.Random, root: Path, workdir: Path, tracer) -> list[Case]:
    cases = []
    for i, code in enumerate(gen.minsky_programs(rng, FM_PROGRAMS)):
        cases.extend(_fm_cases(f"prog{i}", code, tracer))
    return cases


# ------------------------------------------------------------- regions-full

LOGIN_STATES = {60: 610, 120: 1210, 240: 2410}
#: two login copies with the constants 60 -> 4 and 10 -> 1
PAIR_STATES = 3060


def _regions_verifier(k: int):
    def verify(output) -> Check:
        code, stdout, _ = output
        expected = (f"states: {LOGIN_STATES[k]}\nbound: {oracles.region_count_bound(5, 1, k)}\n")
        if code != 0 or not stdout.startswith(expected):
            return Check(f"unexpected regions output {stdout!r}")
        return Check()
    return verify


def _quotient_verifier(automaton, states: int):
    blocks: list = []

    def verify(output) -> Check:
        code, stdout, _ = output
        if not blocks:
            kripke = hav.regions.region_graph(automaton).kripke
            blocks.append(oracles.bisimulation_blocks(kripke))
        expected = f"states: {states}\nblocks: {blocks[0]}\n"
        if code != 0 or stdout != expected:
            return Check(f"quotient printed {stdout!r}, expected {expected!r}")
        return Check()
    return verify


def setup_regions_full(rng: random.Random, root: Path, workdir: Path, tracer) -> list[Case]:
    tags = gen.copy_tags(rng, 2)
    two = workdir / "login2.hav"
    two.write_text(gen.login_network(tags, 4, 1), encoding="utf-8")
    login = root / "models" / "login.hav"
    cases = [_cli_case(f"regions-k{k}", ["regions", str(login), "-k", str(k)],
                       _regions_verifier(k), tracer) for k in LOGIN_STATES]
    cases.append(_cli_case("quotient-login", ["quotient", str(login)],
                           _quotient_verifier(_load(login, None), LOGIN_STATES[60]), tracer))
    cases.append(_cli_case("quotient-pair", ["quotient", str(two), "--network", "all"],
                           _quotient_verifier(_load(two, "all"), PAIR_STATES), tracer))
    rng.shuffle(cases)
    return cases


#: workload name -> setup(rng, root, workdir, tracer) returning its cases
WORKLOADS = {
    "check-net": setup_check_net,
    "check-fair": setup_check_fair,
    "fm-paths": setup_fm_paths,
    "regions-full": setup_regions_full,
}
