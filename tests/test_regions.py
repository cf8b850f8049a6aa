"""Region equivalence and the region graph."""

import random
from fractions import Fraction

import pytest

from hav.errors import DiagonalUnsupported, NegativeClock, WrongClass
from hav.kripke import STUTTER_ACTION, KripkeTransition
from hav.model import (
    AtomicConstraint, HybridAutomaton, JumpPredicate, Predicate, Transition,
    Valuation, max_constant,
)
from hav.compose import product
from hav.mcheck import check, check_timed
from hav.regions import (
    Region, region_count_bound, region_graph, region_of, time_successor,
    time_successor_chain, zero_region,
)
from hav.textfmt import emit_counterexample, parse_ltl
from helpers import (
    load_model, login_copies, random_formula, random_timed_automaton,
    reference_region_graph,
)


def val(**kw):
    return Valuation({k: Fraction(v) if not isinstance(v, tuple) else Fraction(*v)
                      for k, v in kw.items()})


class TestRegionOf:
    def test_above_k(self):
        r = region_of(val(x=(3, 2)), 1)
        assert r.above == {"x"} and not r.ipart

    def test_fraction_order(self):
        r = region_of(val(x=(1, 2), y=(7, 10)), 1)
        assert dict(r.ipart) == {"x": 0, "y": 0}
        assert not r.zero
        assert r.order == (frozenset({"x"}), frozenset({"y"}))

    def test_integer_point(self):
        r = region_of(val(x=1), 1)
        assert r.zero == {"x"} and dict(r.ipart) == {"x": 1}

    def test_negative_clock(self):
        with pytest.raises(NegativeClock):
            region_of(val(x=-1), 2)


class TestRegionEquiv:
    def test_same_order(self):
        assert region_of(val(x=(1, 2), y=(7, 10)), 1) == region_of(val(x=(3, 5), y=(4, 5)), 1)

    def test_flipped_order(self):
        assert region_of(val(x=(1, 2), y=(7, 10)), 1) != region_of(val(x=(7, 10), y=(1, 2)), 1)

    def test_both_above(self):
        assert region_of(val(x=2), 1) == region_of(val(x=100), 1)

    def test_equivalence_relation_random(self):
        rng = random.Random(71)
        clocks = ["a", "b", "c"]
        for _ in range(200):
            k = rng.randint(1, 3)

            def rv():
                return val(**{c: (rng.randint(0, 4 * k), rng.randint(1, 4))
                              for c in clocks})
            x, y, z = rv(), rv(), rv()
            assert region_of(x, k) == region_of(x, k)
            assert (region_of(x, k) == region_of(y, k)) == (region_of(y, k) == region_of(x, k))
            if region_of(x, k) == region_of(y, k) and region_of(y, k) == region_of(z, k):
                assert region_of(x, k) == region_of(z, k)


class TestRegionValidation:
    def test_zero_overlaps_order(self):
        with pytest.raises(ValueError):
            Region(1, (("x", 0),), frozenset({"x"}), (frozenset({"x"}),), frozenset())

    def test_integer_part_above_k(self):
        with pytest.raises(ValueError):
            Region(1, (("x", 2),), frozenset({"x"}), (), frozenset())


class TestTimeSuccessor:
    def test_zero_moves_to_open_interval(self):
        r = zero_region({"x"}, 1)
        nxt = time_successor(r)
        assert not nxt.zero and nxt.order == (frozenset({"x"}),)

    def test_one_clock_chain(self):
        chain = time_successor_chain(zero_region({"x"}, 1))
        assert len(chain) == 4  # x=0, 0<x<1, x=1, x>1
        assert chain[-1].above == {"x"}

    def test_fixpoint(self):
        top = region_of(val(x=5, y=9), 2)
        assert time_successor(top) == top

    def test_chain_length_bound(self):
        rng = random.Random(72)
        for _ in range(100):
            k = rng.randint(1, 3)
            clocks = [f"c{i}" for i in range(rng.randint(1, 3))]
            v = val(**{c: (rng.randint(0, 3 * k), rng.randint(1, 5)) for c in clocks})
            chain = time_successor_chain(region_of(v, k))
            assert len(chain) <= (2 * k + 2) * len(clocks) + 1

    def test_matches_concrete_elapse(self):
        rng = random.Random(73)
        for _ in range(200):
            k = rng.randint(1, 2)
            clocks = ["a", "b"]
            raw = {c: Fraction(rng.randint(0, 3 * k), rng.randint(1, 4)) for c in clocks}
            v = Valuation(raw)
            delay = Fraction(rng.randint(0, 10), rng.randint(1, 4))
            moved = Valuation({c: raw[c] + delay for c in clocks})
            chain = time_successor_chain(region_of(v, k))
            assert region_of(moved, k) in chain


def one_clock_no_edges():
    return HybridAutomaton(
        name="one", modes=("m",), initial_modes=frozenset({"m"}),
        variables=frozenset({"x"}), transitions=())


class TestRegionGraph:
    def test_one_clock_k1_four_states(self):
        rg = region_graph(one_clock_no_edges(), k=1)
        assert rg.kripke.state_count == 4
        assert rg.bound == 8
        # all states are deadlocks with stutter loops
        assert len(rg.deadlocks) == 4
        assert all(t.action == STUTTER_ACTION for t in rg.kripke.transitions)

    def test_login_below_bound_and_reaches_connect(self):
        login = load_model("login").automata[0]
        rg = region_graph(login)
        assert rg.bound == 1220
        assert rg.kripke.state_count <= 1220
        modes = {mode for mode, _ in rg.state_info}
        assert "connect" in modes

    def test_urgent_invariant_prunes_elapse(self):
        a = HybridAutomaton(
            name="u", modes=("m",), initial_modes=frozenset({"m"}),
            variables=frozenset({"x"}), transitions=(),
            invariants={"m": Predicate.of(AtomicConstraint("x", "<=", 0))})
        rg = region_graph(a, k=1)
        assert rg.kripke.state_count == 1

    def test_diagonal_guard_rejected(self):
        a = HybridAutomaton(
            name="d", modes=("m",), initial_modes=frozenset({"m"}),
            variables=frozenset({"x", "y"}),
            transitions=(Transition("m", Predicate.of(
                AtomicConstraint("x", "<=", 1, "y")), "go", JumpPredicate.of({}), "m"),))
        with pytest.raises(DiagonalUnsupported):
            region_graph(a)

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            region_graph(load_model("rect").automata[0])

    def test_reachable_count_within_bound_random(self):
        rng = random.Random(74)
        for _ in range(40)  :
            a = random_timed_automaton(rng)
            rg = region_graph(a)
            assert rg.kripke.state_count <= rg.bound

    def test_bisimulation_soundness_sampled(self):
        # region-equivalent valuations can match delays region-by-region and
        # agree on guard satisfaction and post-reset regions
        rng = random.Random(75)
        login = load_model("login").automata[0]
        k = 60
        for _ in range(100):
            base = Fraction(rng.randint(0, 70 * 4), 4)
            off = Fraction(rng.randint(1, 3), 7)
            v1 = Valuation({"x": base})
            v2_raw = base + off if (base + off).numerator // (base + off).denominator == base.numerator // base.denominator or base > k else base
            v2 = Valuation({"x": v2_raw})
            if region_of(v1, k) != region_of(v2, k):
                continue
            delay = Fraction(rng.randint(0, 80), rng.randint(1, 3))
            moved1 = Valuation({"x": v1["x"] + delay})
            target = region_of(moved1, k)
            # some matching delay exists for v2: target region is on v2's chain
            assert target in time_successor_chain(region_of(v2, k))
            for t in login.transitions:
                assert (t.guard.holds(v1) == t.guard.holds(v2)
                        or region_of(v1, k) != region_of(v2, k))


class TestRegionGraphMatchesReference:
    """region_graph against the chain walk in helpers, which memoises nothing:
    same states in the same order, same transitions in the same order."""

    @staticmethod
    def assert_matches(a, k=None):
        rg = region_graph(a, k=k)
        ref = reference_region_graph(a, max_constant(a) if k is None else k)
        assert rg.state_info == ref["state_info"]
        assert rg.kripke.initial == ref["initial"]
        assert [(t.source, t.action, t.target) for t in rg.kripke.transitions] \
            == ref["transitions"]
        assert rg.edge_refs == ref["edge_refs"]
        assert rg.deadlocks == ref["deadlocks"]
        assert rg.bound == ref["bound"]
        return rg

    def test_random_timed_automata(self):
        rng = random.Random(76)
        for _ in range(150):
            self.assert_matches(random_timed_automaton(rng))

    @pytest.mark.parametrize("k", [60, 120])
    def test_login(self, k):
        rg = self.assert_matches(load_model("login").automata[0], k)
        assert rg.k == k

    def test_jobshop_timed(self):
        self.assert_matches(product(load_model("jobshop_timed").network("all")))


class TestRegionGraphOnDemand:
    """`check_timed` walks the region graph only as far as the emptiness
    search goes, and reports what it reports on a graph walked in full first."""

    def test_liveness_check_walks_a_prefix(self):
        pair = login_copies(["_a", "_b"], 5, 1)
        rg = region_graph(pair)
        assert not check_timed(pair, parse_ltl("G F standby_a"), rg=rg).holds
        assert 0 < rg.walked < 200
        assert rg.kripke.state_count == rg.walked == 4550

    def test_lasso_edges_use_the_kripke_numbering(self):
        # the loop of login's `G F standby` lasso is a stutter self-loop, and
        # the search stops before the walk ends
        login = load_model("login").automata[0]
        rg = region_graph(login)
        verdict = check_timed(login, parse_ltl("G F standby"), rg=rg)
        assert not verdict.holds
        walked = rg.walked
        assert 0 < walked < len(rg.states)
        cx = verdict.counterexample
        lasso = cx.product
        cycle = lasso.loop_nodes + lasso.loop_nodes[:1]
        steps = list(zip(lasso.stem_nodes, lasso.stem_nodes[1:], lasso.stem_edges,
                         cx.stem))
        steps += zip(cycle, cycle[1:], lasso.loop_edges, cx.loop)
        assert any(step.action == STUTTER_ACTION for *_, step in steps)
        for (s, _), (t, _), e, step in steps:
            assert rg.kripke.transitions[e] == KripkeTransition(s, step.action, t)

    def test_lazy_and_forced_graphs_agree(self):
        rng = random.Random(78)
        for _ in range(100):
            a = random_timed_automaton(rng)
            phi = random_formula(rng, rng.randint(1, 6), sorted(a.propositions))
            forced = region_graph(a)
            assert forced.kripke.state_count == forced.walked
            lazy_verdict = check_timed(a, phi, rg=region_graph(a))
            forced_verdict = check_timed(a, phi, rg=forced)
            assert lazy_verdict.holds == forced_verdict.holds == check(forced.kripke, phi).holds
            if not lazy_verdict.holds:
                assert emit_counterexample(lazy_verdict.counterexample) \
                    == emit_counterexample(forced_verdict.counterexample)


def test_login_copies_sets_both_constants():
    # a limit of 10 must not be taken for the backoff constant
    pair = login_copies(["_a", "_b"], 10, 2)
    consts = {atom.const for t in pair.transitions for atom in t.guard.conjuncts}
    assert consts == {2, 10}


def test_region_count_bound_values():
    assert region_count_bound(1, 1, 1) == 8
    assert region_count_bound(5, 1, 60) == 1220
    assert region_count_bound(7, 0, 3) == 7
