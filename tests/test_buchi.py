"""LTL to Büchi translation against the direct lasso semantics."""

import random

from hav.buchi import (
    _INIT, BuchiAutomaton, BuchiTransition, PropGuard, _core, _expand, buchi_accepts_lasso,
    translate_to_buchi,
)
from hav.ltl import (
    Always, And, Eventually, FalseConst, Implies, Lasso, Not, Prop, Until, eval_lasso, fold,
    to_nnf,
)
from helpers import (
    ltl_golden_inputs, random_formula, random_lasso, reference_accepts_lasso, reference_buchi,
    reference_tableau,
)

P, Q = Prop("p"), Prop("q")


def all_small_lassos(props, stem_max=2, loop_max=2):
    import itertools
    letters = [frozenset(s) for n in range(len(props) + 1)
               for s in itertools.combinations(props, n)]
    for stem_len in range(stem_max + 1):
        for loop_len in range(1, loop_max + 1):
            for stem in itertools.product(letters, repeat=stem_len):
                for loop in itertools.product(letters, repeat=loop_len):
                    yield Lasso(tuple(stem), tuple(loop))


def test_eventually_p_language():
    b = translate_to_buchi(Eventually(P))
    for sigma in all_small_lassos(["p"]):
        assert buchi_accepts_lasso(b, sigma) == eval_lasso(Eventually(P), sigma)


def test_false_is_empty():
    b = translate_to_buchi(FalseConst())
    for sigma in all_small_lassos(["p"]):
        assert not buchi_accepts_lasso(b, sigma)


def test_until_language():
    phi = Until(P, Q)
    b = translate_to_buchi(phi)
    assert buchi_accepts_lasso(b, Lasso.of([], [{"q"}]))
    assert not buchi_accepts_lasso(b, Lasso.of([], [{"p"}]))
    for sigma in all_small_lassos(["p", "q"], stem_max=2, loop_max=2):
        assert buchi_accepts_lasso(b, sigma) == eval_lasso(phi, sigma)


def test_oracle_agreement_random():
    # buchi_accepts_lasso follows the undominated moves; the reference
    # follows every transition whose guard matches
    rng = random.Random(21)
    lassos = [random_lasso(rng, ["p", "q", "r"]) for _ in range(50)]
    for _ in range(120):
        phi = random_formula(rng, rng.randint(1, 8), ["p", "q", "r"])
        b = translate_to_buchi(phi)
        for sigma in lassos:
            accepted = eval_lasso(phi, sigma)
            assert buchi_accepts_lasso(b, sigma) == accepted, str(phi)
            assert reference_accepts_lasso(b, sigma) == accepted, str(phi)


def test_empty_language_rejects_everything():
    rng = random.Random(22)
    b = translate_to_buchi(FalseConst())
    for _ in range(20):
        assert not buchi_accepts_lasso(b, random_lasso(rng, ["p", "q"]))


def test_generalized_automaton_matches_degeneralized_reference():
    rng = random.Random(23)
    lassos = [random_lasso(rng, ["p", "q", "r"]) for _ in range(40)]
    for _ in range(100):
        phi = random_formula(rng, rng.randint(1, 8), ["p", "q", "r"])
        b, reference = translate_to_buchi(phi), reference_buchi(phi)
        assert len(b.states) <= len(reference.states), str(phi)
        for sigma in lassos:
            assert buchi_accepts_lasso(b, sigma) == reference_accepts_lasso(reference, sigma), \
                str(phi)


def test_nested_eventually_and_always():
    rng = random.Random(24)
    lassos = [random_lasso(rng, ["p", "q", "r"]) for _ in range(40)]
    for _ in range(80):
        phi = random_formula(rng, rng.randint(1, 5), ["p", "q", "r"])
        for _ in range(rng.randint(2, 6)):
            phi = rng.choice([Eventually, Eventually, Always, Always, Not])(phi)
        b = translate_to_buchi(phi)
        for sigma in lassos:
            assert buchi_accepts_lasso(b, sigma) == eval_lasso(phi, sigma), str(phi)
    for op in (Eventually, Always):
        deep = P
        for _ in range(100):
            deep = op(deep)
        assert len(translate_to_buchi(deep).states) == len(translate_to_buchi(op(P)).states)


def fairness_violation(m: int):
    """!((G F a0 && … && G F a(m-1)) -> G F b)"""
    assumptions = Always(Eventually(Prop("a0")))
    for i in range(1, m):
        assumptions = And(assumptions, Always(Eventually(Prop(f"a{i}"))))
    return Not(Implies(assumptions, Always(Eventually(Prop("b")))))


def test_fairness_moves_drop_dominated_targets():
    b = translate_to_buchi(fairness_violation(5))
    letter = frozenset(f"a{i}" for i in range(5))
    enabled = {q: [t.target for t in b.transitions if t.source == q and t.guard.matches(letter)]
               for q in b.states}
    assert len(enabled[0]) == 64
    assert len(b.moves(0, letter)) == 2
    for q in b.states:
        kept = b.moves(q, letter)
        assert set(kept) <= set(enabled[q]) and 1 <= len(kept) <= 2


def hand_built(edges, accepting, states=4):
    transitions = tuple(BuchiTransition(s, g, t) for s, g, t in edges)
    return BuchiAutomaton(tuple(range(states)), frozenset({0}), transitions, accepting,
                          frozenset({"p"}))


def test_moves_compare_guards_as_well_as_targets():
    true, p, not_p = PropGuard(), PropGuard(frozenset({"p"})), PropGuard(must_not=frozenset({"p"}))
    # 1 and 2 both lead to 3, but on opposite letters: neither dominates
    b = hand_built([(0, true, 1), (0, true, 2), (1, p, 3), (2, not_p, 3), (3, true, 3)],
                   (frozenset({3}),))
    assert b.moves(0, frozenset()) == [1, 2]
    assert buchi_accepts_lasso(b, Lasso.of([], [set()]))
    assert buchi_accepts_lasso(b, Lasso.of([], [{"p"}]))


def test_moves_compare_acceptance_membership():
    true = PropGuard()
    # 1 and 2 have the same edges; only 2 is accepting, so 2 is kept
    b = hand_built([(0, true, 1), (0, true, 2), (1, true, 0), (2, true, 0)],
                   (frozenset({2}),), states=3)
    assert b.moves(0, frozenset()) == [2]
    assert buchi_accepts_lasso(b, Lasso.of([], [set()]))
    # with equal membership too, the smaller of the two is kept
    b = hand_built([(0, true, 1), (0, true, 2), (1, true, 0), (2, true, 0)],
                   (frozenset({1, 2}),), states=3)
    assert b.moves(0, frozenset()) == [1]
    # membership is compared set by set: each of 1 and 2 is in a set the
    # other is not in, and a run must pass through both
    b = hand_built([(0, true, 1), (0, true, 2), (1, true, 0), (2, true, 0)],
                   (frozenset({1}), frozenset({2})), states=3)
    assert b.moves(0, frozenset()) == [1, 2]
    assert buchi_accepts_lasso(b, Lasso.of([], [set()]))


def tableau_graph(nodes) -> set:
    """The tableau's edges, each node named by its (old, next) sets."""
    key = {nd.nid: (frozenset(nd.old), frozenset(nd.next)) for nd in nodes}
    key[_INIT] = None
    return {(key[src], key[nd.nid]) for nd in nodes for src in nd.incoming}


def test_tableau_expands_each_next_set_once_with_the_same_result():
    # the reference expands a next set again for every node asking for it;
    # equal graphs give automata of equal sizes, whatever the node ids
    for phi in ltl_golden_inputs():
        core = fold(to_nnf(phi), _core)
        assert tableau_graph(_expand(core)) == tableau_graph(reference_tableau(core)), str(phi)
