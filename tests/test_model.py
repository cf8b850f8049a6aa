"""Core model types: predicates, classification, constants."""

import random
from fractions import Fraction

import pytest

from hav.errors import UnknownVariable, WrongClass
from hav.model import (
    AtomicConstraint, AutomatonClass, HybridAutomaton, JumpPredicate,
    Predicate, RateAffine, RateConst, RateInterval, Transition, Valuation,
    classify, is_initialized, max_constant,
)
from helpers import load_model


def v(**kw):
    return Valuation({k: Fraction(val) for k, val in kw.items()})


class TestEvalPredicate:
    def test_top_is_true_everywhere(self):
        assert Predicate.true().holds(v(x=1))
        assert Predicate.true().holds(v())

    def test_nonstrict_boundary(self):
        pred = Predicate.of(AtomicConstraint("x", "<=", 10))
        assert pred.holds(v(x=10))
        assert not pred.holds(v(x=Fraction(101, 10)))

    def test_diagonal_and_conjunction(self):
        pred = Predicate.of(AtomicConstraint("x", "=", 0, "y"),
                            AtomicConstraint("y", "=", 1))
        assert pred.holds(v(x=1, y=1))
        assert not pred.holds(v(x=2, y=1))

    def test_unknown_variable(self):
        pred = Predicate.of(AtomicConstraint("z", "<", 1))
        with pytest.raises(UnknownVariable):
            pred.holds(v(x=0))

    def test_conjunction_is_atomwise(self):
        rng = random.Random(3)
        for _ in range(100):
            atoms = [AtomicConstraint("x", rng.choice(["<", "<=", "=", ">=", ">"]),
                                      rng.randint(-3, 3)) for _ in range(3)]
            val = v(x=Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
            assert (Predicate(tuple(atoms)).holds(val)
                    == all(a.holds(val) for a in atoms))


def ball_like_automaton():
    # affine flow x1' = x2, integer gravity, dead-ball jump x2 := 0
    return HybridAutomaton(
        name="ball", modes=("m",), initial_modes=frozenset({"m"}),
        variables=frozenset({"x1", "x2"}),
        transitions=(Transition("m", Predicate.of(AtomicConstraint("x1", "=", 0),
                                                  AtomicConstraint("x2", "<=", 0)),
                                "impact", JumpPredicate.of({"x2": 0}), "m"),),
        invariants={"m": Predicate.of(AtomicConstraint("x1", ">=", 0))},
        flows={"m": {"x1": RateAffine("x2"), "x2": RateConst(-10)}},
        init=Predicate.of(AtomicConstraint("x1", "=", 10), AtomicConstraint("x2", "=", 0)),
    )


class TestClassify:
    def test_login_is_timed_initialized(self):
        login = load_model("login").automata[0]
        report = classify(login)
        assert report.klass == AutomatonClass.TIMED
        assert report.initialized
        assert not report.violations

    def test_rect_is_rectangular_initialized(self):
        rect = load_model("rect").automata[0]
        report = classify(rect)
        assert report.klass == AutomatonClass.RECTANGULAR
        assert report.initialized

    def test_ball_is_general(self):
        report = classify(ball_like_automaton())
        assert report.klass == AutomatonClass.GENERAL

    def test_counter_is_multirate(self):
        counter = load_model("counter").automata[0]
        assert classify(counter).klass == AutomatonClass.MULTIRATE

    def test_timed_monotone_over_multirate_and_rect(self):
        # a timed automaton also passes the multi-rate and rectangular checks
        login = load_model("login").automata[0]
        report = classify(login)
        assert report.klass == AutomatonClass.TIMED
        for t in login.transitions:
            for atom in t.guard.conjuncts:
                assert not atom.diagonal and atom.const >= 0
            for var, value in t.jump.assignments:
                assert isinstance(value, int)
        assert all(isinstance(login.rate(m, x), RateConst)
                   for m in login.modes for x in login.variables)


class TestIsInitialized:
    def test_rect_automaton(self):
        rect = load_model("rect").automata[0]
        ok, witness = is_initialized(rect)
        assert ok and witness is None

    def test_missing_reset_witness(self):
        rect = load_model("rect").automata[0]
        broken = [t if t.action != "fast"
                  else Transition(t.source, t.guard, t.action, JumpPredicate.of({}), t.target)
                  for t in rect.transitions]
        a = HybridAutomaton(
            name="broken", modes=rect.modes, initial_modes=rect.initial_modes,
            variables=rect.variables, transitions=tuple(broken),
            invariants=dict(rect.invariants),
            flows={m: dict(rect.flows[m]) for m in rect.modes}, init=rect.init,
            labels=dict(rect.labels))
        ok, witness = is_initialized(a)
        assert not ok
        edge, var = witness
        assert (edge.source, edge.target, var) == ("B", "C", "x")

    def test_single_mode_trivially_initialized(self):
        a = HybridAutomaton(
            name="one", modes=("m",), initial_modes=frozenset({"m"}),
            variables=frozenset({"x"}), transitions=(),
            flows={"m": {"x": RateInterval(1, 2)}})
        ok, witness = is_initialized(a)
        assert ok and witness is None

    def test_wrong_class(self):
        with pytest.raises(WrongClass):
            is_initialized(ball_like_automaton())


class TestMaxConstant:
    def test_login(self):
        assert max_constant(load_model("login").automata[0]) == 60

    def test_no_constraints(self):
        a = HybridAutomaton(
            name="none", modes=("m",), initial_modes=frozenset({"m"}),
            variables=frozenset({"x"}), transitions=())
        assert max_constant(a) == 0

    def test_jobshop_timed_variant(self):
        doc = load_model("jobshop_timed")
        assert max(max_constant(a) for a in doc.automata) == 4


def test_valuation_hash_and_equality():
    assert v(x=1, y=2) == v(y=2, x=1)
    assert hash(v(x=Fraction(1, 2))) == hash(v(x=Fraction(2, 4)))
    assert v(x=1) != v(x=2)
