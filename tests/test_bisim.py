"""Coarsest quotient and bisimilarity checking."""

import random

from hav.bisim import QUOTIENT_ACTION, coarsest_quotient, is_bisimilar
from hav.kripke import make_kripke
from hav.mcheck import check
from hav.regions import region_graph
from helpers import load_model, random_formula, random_kripke


class TestCoarsestQuotient:
    def test_uniform_cycle_collapses(self):
        k = make_kripke(["a", "b", "c"], ["a"],
                        [("a", "x", "b"), ("b", "x", "c"), ("c", "x", "a")],
                        {"a": {"p"}, "b": {"p"}, "c": {"p"}})
        quotient, partition = coarsest_quotient(k)
        assert partition.size == 1
        assert all(t.action == QUOTIENT_ACTION for t in quotient.transitions)

    def test_two_label_classes_no_edges(self):
        k = make_kripke(["a", "b"], ["a"], [], {"a": {"p"}, "b": {"q"}})
        _, partition = coarsest_quotient(k)
        assert partition.size == 2

    def test_region_graph_quotient_bisimilar_and_smaller(self):
        login = load_model("login").automata[0]
        rg = region_graph(login)
        quotient, partition = coarsest_quotient(rg)
        assert partition.size <= len(rg.states)
        assert is_bisimilar(rg, quotient)
        assert is_bisimilar(rg, rg.kripke)
        assert coarsest_quotient(rg.kripke) == (quotient, partition)

    def test_requotient_is_identity(self):
        rng = random.Random(81)
        for _ in range(30):
            k = random_kripke(rng)
            quotient, partition = coarsest_quotient(k)
            _, partition2 = coarsest_quotient(quotient)
            assert partition2.size == partition.size

    def test_blocks_label_homogeneous(self):
        rng = random.Random(82)
        for _ in range(30):
            k = random_kripke(rng)
            _, partition = coarsest_quotient(k)
            for block in partition.blocks:
                assert len({k.labels[s] for s in block}) == 1


class TestIsBisimilar:
    def test_reflexive(self):
        rng = random.Random(83)
        for _ in range(20):
            k = random_kripke(rng)
            assert is_bisimilar(k, k)

    def test_quotient_soundness_random(self):
        rng = random.Random(84)
        for _ in range(30):
            k = random_kripke(rng)
            quotient, _ = coarsest_quotient(k)
            assert is_bisimilar(k, quotient)

    def test_airline_structures_not_bisimilar(self):
        branching = make_kripke(
            ["root", "s", "d"], ["root"],
            [("root", "f", "s"), ("root", "f", "d")],
            {"root": set(), "s": {"shimla"}, "d": {"delhi"}})
        committed = make_kripke(
            ["r1", "s1", "r2", "d2"], ["r1", "r2"],
            [("r1", "f", "s1"), ("r2", "f", "d2")],
            {"r1": set(), "s1": {"shimla"}, "r2": set(), "d2": {"delhi"}})
        assert not is_bisimilar(branching, committed)
        assert not is_bisimilar(committed, branching)

    def test_label_mismatch(self):
        k1 = make_kripke(["a"], ["a"], [("a", "x", "a")], {"a": {"p"}})
        k2 = make_kripke(["a"], ["a"], [("a", "x", "a")], {"a": {"q"}})
        assert not is_bisimilar(k1, k2)


def test_trace_preservation_verdicts_agree():
    rng = random.Random(85)
    for _ in range(8):
        k = random_kripke(rng)
        quotient, _ = coarsest_quotient(k)
        props = sorted(k.propositions) or ["p"]
        for _ in range(20):
            phi = random_formula(rng, rng.randint(1, 6), props)
            assert check(k, phi).holds == check(quotient, phi).holds
