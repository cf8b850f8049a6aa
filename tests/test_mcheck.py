"""Model-checking pipeline: product, emptiness search, end-to-end verdicts."""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from hav.buchi import buchi_accepts_lasso, translate_to_buchi
from hav.errors import UnknownProposition
from hav.kripke import make_kripke
from hav.ltl import Not, Prop, TrueConst, eval_lasso
from hav.mcheck import (
    ProductGraph, check, check_timed, nested_dfs_emptiness, synchronized_product,
)
from hav.semantics import simulate, total_time
from hav.textfmt import parse_ltl
from helpers import (
    brute_force_verdict, load_model, random_formula, random_kripke, scc_nonempty,
)


def ts1():
    return make_kripke(
        ["m0", "m1", "m2"], ["m0"],
        [("m0", "a", "m1"), ("m1", "a", "m0"), ("m1", "b", "m2"), ("m2", "b", "m2")],
        {"m0": {"q"}, "m1": {"p", "q"}, "m2": {"p"}})


class TestSynchronizedProduct:
    def test_no_kripke_transitions_no_product_transitions(self):
        k = make_kripke(["s"], ["s"], [], {"s": {"p"}})
        b = translate_to_buchi(parse_ltl("G p"))
        g = synchronized_product(k, b)
        assert g.initial  # nothing else is reachable when these have no edges
        assert all(not g.successors(n) for n in g.initial)

    def test_ts1_negated_phi1_nonempty(self):
        b = translate_to_buchi(Not(parse_ltl("F (p && !q)")))
        g = synchronized_product(ts1(), b)
        lasso = nested_dfs_emptiness(g)
        assert lasso is not None
        kripke_states = {s for s, _ in lasso.loop_nodes}
        assert kripke_states <= {0, 1}  # loops m0 <-> m1

    def test_ts1_negated_phi2_empty(self):
        b = translate_to_buchi(Not(parse_ltl("G q || F (G p)")))
        g = synchronized_product(ts1(), b)
        assert nested_dfs_emptiness(g) is None


def test_lasso_validation_runs_under_python_O():
    # every corrupted lasso is rejected with an AssertionError, also when
    # -O strips `assert` statements
    script = textwrap.dedent("""
        from dataclasses import replace
        from hav.buchi import translate_to_buchi
        from hav.kripke import make_kripke
        from hav.linsolve import LinearSystem
        from hav.mcheck import _validate_lasso, nested_dfs_emptiness, synchronized_product
        from hav.textfmt import parse_ltl

        assert False, "asserts must be stripped"
        k = make_kripke(["m0", "m1"], ["m0"], [("m0", "a", "m1"), ("m1", "a", "m0")],
                        {"m0": {"q"}, "m1": {"p"}})
        g = synchronized_product(k, translate_to_buchi(parse_ltl("G F p")))
        lasso = nested_dfs_emptiness(g)
        for bad in (replace(lasso, loop_nodes=[], loop_edges=[]),
                    replace(lasso, stem_nodes=[], stem_edges=[]),
                    replace(lasso, loop_edges=lasso.loop_edges[:-1]),
                    replace(lasso, loop_edges=[e + 100 for e in lasso.loop_edges]),
                    replace(lasso, stem_nodes=lasso.stem_nodes[1:])):
            try:
                _validate_lasso(g, bad)
                print("accepted")
            except AssertionError as error:
                print("rejected:", error)
        LinearSystem.satisfied_by = lambda self, values: False
        try:
            LinearSystem(1).solve()
            print("accepted")
        except AssertionError as error:
            print("rejected:", error)
    """)
    out = run_optimized(script)
    assert len(out) == 6 and all(line.startswith("rejected: ") for line in out), out


def test_internal_checks_run_under_python_O():
    # a planted fault trips the label-homogeneity check of the quotient, the
    # no-variable-left check after Fourier-Motzkin and the integer check of
    # the scaling certificate, also when -O strips `assert` statements
    script = textwrap.dedent("""
        import hav.bisim, hav.linsolve, hav.reductions
        from hav.kripke import make_kripke
        from hav.linsolve import LinearSystem
        from hav.model import (
            AtomicConstraint, HybridAutomaton, JumpPredicate, Predicate, RateConst,
            Transition,
        )

        assert False, "asserts must be stripped"

        def attempt(run):
            try:
                run()
                print("accepted")
            except AssertionError as error:
                print("rejected:", error)

        # one block holding states with different labels
        def one_block(states, label, successors):
            return hav.bisim.Partition.from_blocks([list(states)])

        hav.bisim._refine = one_block
        k = make_kripke(["m0", "m1"], ["m0"], [("m0", "a", "m1"), ("m1", "a", "m0")],
                        {"m0": {"q"}, "m1": {"p"}})
        attempt(lambda: hav.bisim.coarsest_quotient(k))

        # an elimination that eliminates no variable
        system = LinearSystem(2)
        system.add({0: 1, 1: 1}, "<=", 3)
        system.add({0: 1}, ">", 1)
        hav.linsolve.sorted = lambda *args, **kwargs: []
        attempt(system.solve)

        # a scaling factor that leaves x >= 3/2 fractional
        hav.reductions.lcm = lambda *denominators: 1
        a = HybridAutomaton(
            name="m", modes=("m", "n"), initial_modes=frozenset({"m"}),
            variables=frozenset({"x"}),
            transitions=(Transition("m", Predicate.of(AtomicConstraint("x", ">=", 3)),
                                    "go", JumpPredicate.of({"x": 0}), "n"),),
            flows={"m": {"x": RateConst(2)}, "n": {"x": RateConst(2)}})
        attempt(lambda: hav.reductions.multirate_to_timed(a))
    """)
    out = run_optimized(script)
    assert out == ["rejected: blocks must be label-homogeneous",
                   "rejected: Fourier-Motzkin left a variable in a row",
                   "rejected: x >= 3/2 does not scale to an integer"], out


def run_optimized(script: str) -> list[str]:
    """The stdout lines of `script` run by `python -O` on hav from src/."""
    src = str(Path(__file__).parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def random_buchi_graph(rng: random.Random, max_states=10) -> ProductGraph:
    n = rng.randint(1, max_states)
    nodes = [(i, 0) for i in range(n)]
    adjacency = {}
    for node in nodes:
        out = []
        for target in rng.sample(nodes, rng.randint(0, min(3, n))):
            out.append((target, 0))
        adjacency[node] = sorted(out)
    initial = tuple(sorted(rng.sample(nodes, rng.randint(1, min(2, n)))))
    accepting = [frozenset(node for node in nodes if rng.random() < 0.35)
                 for _ in range(rng.randint(0, 3))]
    # restrict to the reachable part, as synchronized_product would
    seen = set(initial)
    stack = list(initial)
    while stack:
        node = stack.pop()
        for t, _ in adjacency[node]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return ProductGraph(initial, tuple(frozenset(a for a in members if a in seen)
                                       for members in accepting),
                        {n: adjacency[n] for n in seen}.__getitem__)


class TestNestedDfs:
    def test_accepting_self_loop_at_initial(self):
        node = (0, 0)
        g = ProductGraph((node,), (frozenset({node}),), {node: [(node, 0)]}.__getitem__)
        lasso = nested_dfs_emptiness(g)
        assert lasso is not None
        assert lasso.stem_nodes == [node] and lasso.loop_nodes == [node]

    def test_acyclic_graph_empty(self):
        nodes = [(i, 0) for i in range(4)]
        adjacency = {nodes[i]: [(nodes[i + 1], 0)] for i in range(3)}
        adjacency[nodes[3]] = []
        g = ProductGraph((nodes[0],), (frozenset(nodes),), adjacency.__getitem__)
        assert nested_dfs_emptiness(g) is None

    def test_agrees_with_scc_oracle(self):
        rng = random.Random(91)
        for _ in range(500):
            g = random_buchi_graph(rng)
            assert (nested_dfs_emptiness(g) is not None) == scc_nonempty(g)


class TestCheck:
    def test_ts1_phi1_violated(self):
        verdict = check(ts1(), parse_ltl("F (p && !q)"))
        assert not verdict.holds
        prefix = verdict.counterexample.trace.prefix(4)
        assert prefix == [frozenset({"q"}), frozenset({"p", "q"})] * 2

    def test_ts1_phi2_holds(self):
        assert check(ts1(), parse_ltl("G q || F (G p)")).holds

    def test_true_always_holds(self):
        rng = random.Random(92)
        for _ in range(10):
            assert check(random_kripke(rng), TrueConst()).holds

    def test_unknown_proposition(self):
        with pytest.raises(UnknownProposition):
            check(ts1(), Prop("nosuch"))

    def test_violations_replay_through_negation_automaton(self):
        rng = random.Random(93)
        seen = 0
        while seen < 40:
            k = random_kripke(rng)
            phi = random_formula(rng, rng.randint(1, 6), sorted(k.propositions))
            verdict = check(k, phi)
            if verdict.holds:
                continue
            seen += 1
            trace = verdict.counterexample.trace
            assert not eval_lasso(phi, trace)
            assert buchi_accepts_lasso(translate_to_buchi(Not(phi)), trace)

    def test_verdicts_match_brute_force(self):
        rng = random.Random(94)
        for _ in range(60):
            k = random_kripke(rng)
            phi = random_formula(rng, rng.randint(1, 6), sorted(k.propositions))
            assert check(k, phi).holds == brute_force_verdict(k, phi)


class TestCheckTimed:
    def test_login_connect_witness_is_simulable(self):
        login = load_model("login").automata[0]
        verdict = check_timed(login, parse_ltl("! F connect"))
        assert not verdict.holds
        run = verdict.counterexample.concrete
        assert run is not None
        assert run.last.mode == "connect"
        # replay the witness through the simulator from scratch
        replay = simulate(login, [(s.delay, s.edge) for s in run.steps])
        assert replay.last.mode == "connect"

    def test_login_fg_connect_counterexample_replays(self):
        login = load_model("login").automata[0]
        phi = parse_ltl("F G connect")
        verdict = check_timed(login, phi)
        cx = verdict.counterexample
        assert not verdict.holds and not eval_lasso(phi, cx.trace)
        assert [s.mode for s in cx.loop] == ["valid", "standby"]
        run = cx.concrete
        replay = simulate(login, [(s.delay, s.edge) for s in run.steps])
        assert replay.last == run.last and total_time(replay) == Fraction(61)

    def test_login_standby_holds(self):
        login = load_model("login").automata[0]
        assert check_timed(login, parse_ltl("F standby")).holds

    def test_jobshop_schedule_totals_seven(self):
        from hav.compose import product
        prod = product(load_model("jobshop_timed").network("all"))
        phi = parse_ltl("!(F (j1_finish && j2_finish))")
        verdict = check_timed(prod, phi)
        assert not verdict.holds
        assert total_time(verdict.counterexample.concrete) == Fraction(7)
