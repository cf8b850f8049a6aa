"""Acceptance suite: one test per shipped guarantee, each timed and reported.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
Every tolerance and bound is pinned here; the oracles are independent of the
code paths they check (brute-force enumeration, SCC analysis, closed forms,
dense sampling).
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from hav.bisim import coarsest_quotient, is_bisimilar
from hav.buchi import buchi_accepts_lasso, translate_to_buchi
from hav.compose import product, reachable_modes
from hav.kripke import make_kripke
from hav.ltl import eval_lasso
from hav.mcheck import check, check_timed, nested_dfs_emptiness
from hav.minsky import (
    Halt, Inc, MinskyMachine, TestDec, encode, halting_path_check, module_path,
    initial_encoding_valuation, parse_program,
)
from hav.model import AtomicConstraint, Configuration, Valuation
from hav.regions import region_count_bound, region_graph
from hav.reductions import multirate_to_timed, rect_to_multirate, split_names
from hav.semantics import (
    PathQuery, bouncing_ball, path_feasible, simulate, total_time,
)
from hav.textfmt import parse_ltl
from helpers import (
    brute_force_verdict, load_model, random_formula, random_kripke,
    random_lasso, random_multirate_automaton, scc_nonempty,
)
from test_mcheck import random_buchi_graph
from test_regions import one_clock_no_edges


@contextmanager
def criterion(number: int, description: str, limit: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{description}]: FAIL")
        raise
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < limit else "FAIL (over time budget)"
    print(f"criterion {number:2d} [{description}]: {status} ({elapsed:.2f}s, limit {limit:g}s)")
    assert elapsed < limit, f"criterion {number} took {elapsed:.2f}s >= {limit}s"


def brute_force_schedule() -> Fraction:
    """Single-machine makespan over the precedence-feasible job orders."""
    durations = {"j1": Fraction(3), "j2": Fraction(4)}
    feasible = [order for order in itertools.permutations(durations)
                if order.index("j1") < order.index("j2")]  # j1 precedes j2
    assert len(feasible) == 1
    return sum((durations[j] for j in feasible[0]), Fraction(0))


def test_criterion_1_jobshop_schedule():
    with criterion(1, "job-shop compose+check, schedule totals 7", 5.0):
        prod = product(load_model("jobshop_timed").network("all"))
        verdict = check_timed(prod, parse_ltl("!(F (j1_finish && j2_finish))"))
        assert not verdict.holds
        run = verdict.counterexample.concrete
        assert run is not None
        assert total_time(run) == brute_force_schedule() == Fraction(7)


def test_criterion_2_jobshop_product_shape():
    with criterion(2, "job-shop product has the figure's 8 modes", 1.0):
        prod = product(load_model("jobshop").network("all"))
        assert reachable_modes(prod) == {
            ("U1", "U2", "I1"), ("S1", "U2", "P11"), ("U1", "S2", "P12"),
            ("F1", "U2", "I1"), ("U1", "F2", "I1"), ("F1", "S2", "P12"),
            ("S1", "F2", "P11"), ("F1", "F2", "I1"),
        }


def test_criterion_3_region_bound_and_login_witness():
    with criterion(3, "region counts within bound, connect witnessed", 5.0):
        rg1 = region_graph(one_clock_no_edges(), k=1)
        assert rg1.kripke.state_count == 4 <= region_count_bound(1, 1, 1) == 8

        login = load_model("login").automata[0]
        rg = region_graph(login)
        assert rg.kripke.state_count <= 1220 == rg.bound
        verdict = check_timed(login, parse_ltl("! F connect"), rg=rg)
        assert not verdict.holds
        run = verdict.counterexample.concrete
        assert run is not None and run.last.mode == "connect"
        replay = simulate(login, [(s.delay, s.edge) for s in run.steps])
        assert replay.last.mode == "connect"


def test_criterion_4_bouncing_ball():
    with criterion(4, "bouncing-ball closed form", 1.0):
        elastic = bouncing_ball(Fraction(10), Fraction(1), Fraction(49, 5), 5)
        assert elastic.first_impact == Fraction(10, 7) and elastic.exact
        assert elastic.zeno_time is None and elastic.verdict == "time-diverging"

        lossy = bouncing_ball(Fraction(10), Fraction(1, 2), Fraction(49, 5), 40)
        assert lossy.zeno_time == Fraction(30, 7)
        assert abs(lossy.zeno_time - lossy.impact_times[-1]) < Fraction(1, 10 ** 9)


def test_criterion_5_ltl_buchi_oracle():
    with criterion(5, "LTL-Büchi agreement, 500 formulas x 200 lassos", 60.0):
        rng = random.Random(2024)
        props = ["p", "q", "r"]
        lassos = [random_lasso(rng, props, stem_max=4, loop_max=4) for _ in range(200)]
        for _ in range(500):
            phi = random_formula(rng, rng.randint(1, 8), props)
            automaton = translate_to_buchi(phi)
            for sigma in lassos:
                assert buchi_accepts_lasso(automaton, sigma) == eval_lasso(phi, sigma), \
                    f"disagreement on {phi}"


def test_criterion_6_model_checking_oracle():
    with criterion(6, "check vs brute force, SCC search vs Tarjan", 60.0):
        rng = random.Random(2025)
        for _ in range(200):
            k = random_kripke(rng, max_states=6)
            phi = random_formula(rng, rng.randint(1, 6), sorted(k.propositions))
            assert check(k, phi).holds == brute_force_verdict(k, phi), str(phi)
        for _ in range(500):
            graph = random_buchi_graph(rng, max_states=10)
            assert (nested_dfs_emptiness(graph) is not None) == scc_nonempty(graph)


def test_criterion_7_minsky_encoding():
    with criterion(7, "Minsky increment/decrement exactness, halting oracle", 30.0):
        inc = encode(MinskyMachine((Inc(1, 1), Halt())))
        dec = encode(MinskyMachine((TestDec(1, 1, 1), Halt())))
        for c in range(4):
            values = dict(initial_encoding_valuation())
            values.update({"x1": Fraction(1, 2 ** c), "x2": Fraction(1, 2)})
            start = Configuration("L0", Valuation(values))
            edges, _ = module_path(inc, 0, start.valuation)
            feas = path_feasible(inc.automaton, PathQuery(tuple(edges)), start=start)
            assert feas.feasible and feas.unique()
            run = simulate(inc.automaton, list(zip(feas.delays, edges)), start=start)
            assert run.last.valuation["x1"] == Fraction(1, 2 ** (c + 1))

            values["x1"] = Fraction(1, 2 ** (c + 1))
            start = Configuration("L0", Valuation(values))
            edges, _ = module_path(dec, 0, start.valuation)
            feas = path_feasible(dec.automaton, PathQuery(tuple(edges)), start=start)
            assert feas.feasible and feas.unique()
            run = simulate(dec.automaton, list(zip(feas.delays, edges)), start=start)
            assert run.last.valuation["x1"] == Fraction(1, 2 ** c)

        samples = [
            "INC c1 -> 1\nHALT",
            "INC c1 -> 1\nINC c1 -> 2\nHALT",
            "INC c1 -> 1\nDEC c1 ? 2 : 2\nHALT",
            "INC c2 -> 1\nINC c2 -> 2\nHALT",
            "DEC c1 ? 1 : 1\nHALT",
        ]
        for text in samples:
            assert halting_path_check(parse_program(text), 30)


def test_criterion_8_reductions():
    with criterion(8, "reduction guard split and delay scaling", 30.0):
        rect = load_model("rect").automata[0]
        mr = rect_to_multirate(rect)
        lo, up = split_names("x")
        slow = [t for t in mr.transitions if t.action == "slow"]
        assert [t.guard.conjuncts for t in slow] == [
            (AtomicConstraint(up, "<=", 10),),
            (AtomicConstraint(lo, "<=", 10), AtomicConstraint(up, ">", 10)),
        ]
        assert dict(slow[1].jump.assignments) == {up: 10}

        rng = random.Random(2026)
        pairs = []
        while len(pairs) < 5:
            candidate = random_multirate_automaton(rng)
            try:
                pairs.append((candidate, *multirate_to_timed(candidate)))
            except Exception:
                continue
        checked = 0
        while checked < 50:
            a, timed, cert = pairs[checked % 5]
            mode = sorted(a.initial_modes)[0]
            edges = []
            for _ in range(rng.randint(1, 6)):
                outgoing = a.edges_from(mode)
                if not outgoing:
                    break
                edge = rng.choice(outgoing)
                edges.append(edge)
                mode = edge.target
            if not edges:
                continue
            checked += 1
            before = path_feasible(a, PathQuery(tuple(edges)))
            try:
                mapped = cert.map_path(a, timed, edges)
            except Exception:
                assert not before.feasible
                continue
            after = path_feasible(timed, PathQuery(tuple(mapped)))
            assert before.feasible == after.feasible
            if before.feasible:
                scaled = tuple(enumerate(cert.timed_delays(before.delays)))
                assert path_feasible(timed, PathQuery(tuple(mapped),
                                                      fixed_delays=scaled)).feasible
                back = tuple(enumerate(cert.original_delays(after.delays)))
                assert path_feasible(a, PathQuery(tuple(edges),
                                                  fixed_delays=back)).feasible


def test_criterion_9_quotients_preserve_verdicts():
    with criterion(9, "quotients bisimilar and verdict-preserving", 30.0):
        rng = random.Random(2027)
        login = load_model("login").automata[0]
        structures = [region_graph(login).kripke]
        structures += [random_kripke(rng) for _ in range(10)]
        for k in structures:
            quotient, partition = coarsest_quotient(k)
            assert partition.size <= k.state_count
            assert is_bisimilar(k, quotient)
            props = sorted(k.propositions)
            for _ in range(20):
                phi = random_formula(rng, rng.randint(1, 6), props)
                assert check(k, phi).holds == check(quotient, phi).holds, str(phi)


def test_criterion_10_ts1_examples():
    with criterion(10, "worked Kripke example verdicts", 1.0):
        ts1 = make_kripke(
            ["m0", "m1", "m2"], ["m0"],
            [("m0", "a", "m1"), ("m1", "a", "m0"), ("m1", "b", "m2"), ("m2", "b", "m2")],
            {"m0": {"q"}, "m1": {"p", "q"}, "m2": {"p"}})
        verdict = check(ts1, parse_ltl("F (p && !q)"))
        assert not verdict.holds
        assert verdict.counterexample.trace.prefix(4) == \
            [frozenset({"q"}), frozenset({"p", "q"})] * 2
        assert check(ts1, parse_ltl("G q || F (G p)")).holds
