"""LTL to Büchi translation against the direct lasso semantics."""

import random

from hav.buchi import buchi_accepts_lasso, translate_to_buchi
from hav.ltl import (
    Always, Eventually, FalseConst, Lasso, Not, Prop, Until, eval_lasso,
)
from helpers import (
    random_formula, random_lasso, reference_accepts_lasso, reference_buchi,
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
    rng = random.Random(21)
    lassos = [random_lasso(rng, ["p", "q", "r"]) for _ in range(50)]
    for _ in range(120):
        phi = random_formula(rng, rng.randint(1, 8), ["p", "q", "r"])
        b = translate_to_buchi(phi)
        for sigma in lassos:
            assert buchi_accepts_lasso(b, sigma) == eval_lasso(phi, sigma), str(phi)


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
