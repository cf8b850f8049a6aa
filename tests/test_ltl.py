"""LTL AST, negation normal form, and the lasso semantics oracle."""

import random

from hav.ltl import (
    Always, And, Eventually, Lasso, Not, Or, Prop, Release, TrueConst, Until,
    eval_lasso, is_nnf, propositions, to_nnf,
)
from helpers import random_formula, random_lasso

P, Q = Prop("p"), Prop("q")


class TestNnf:
    def test_not_eventually(self):
        got = to_nnf(Not(Eventually(P)))
        assert got == Always(Not(P))

    def test_double_negation(self):
        assert to_nnf(Not(Not(P))) == P

    def test_negated_until_is_release(self):
        got = to_nnf(Not(Until(P, Q)))
        assert isinstance(got, Release)
        assert is_nnf(got)

    def test_nnf_structure_random(self):
        rng = random.Random(11)
        for _ in range(200):
            phi = random_formula(rng, rng.randint(1, 9), ["p", "q", "r"])
            assert is_nnf(to_nnf(phi))

    def test_deep_formula_passes_do_not_recurse(self):
        # 5,000 levels, far past the recursion limit; only parse_ltl caps depth
        layers = (lambda g: Until(Q, g), Not, Always)
        phi = P
        for i in range(5000):
            phi = layers[i % 3](phi)
        text = str(phi)
        assert text.count("q U ") == 1667 and text.count("G ") == 1666
        nnf = to_nnf(phi)
        nnf_text = str(nnf)
        assert nnf_text.count(" U ") + nnf_text.count(" R ") == 1667
        assert propositions(phi) == {"p", "q"}
        assert is_nnf(nnf) and not is_nnf(phi)
        # each node's hash is cached at construction, so hashing is flat;
        # it depends on the structure, not on the objects
        again = P
        for i in range(5000):
            again = layers[i % 3](again)
        assert hash(again) == hash(phi) and phi in {phi} and nnf in {nnf: 0}

    def test_nnf_preserves_semantics(self):
        rng = random.Random(12)
        lassos = [random_lasso(rng, ["p", "q", "r"]) for _ in range(40)]
        for _ in range(150):
            phi = random_formula(rng, rng.randint(1, 8), ["p", "q", "r"])
            for sigma in lassos:
                assert eval_lasso(to_nnf(phi), sigma) == eval_lasso(phi, sigma)


class TestEvalLasso:
    def test_paper_trace_phi1(self):
        sigma = Lasso.of([], [{"q"}, {"p", "q"}])
        phi1 = Eventually(And(P, Not(Q)))
        assert not eval_lasso(phi1, sigma)

    def test_paper_trace_phi2(self):
        sigma = Lasso.of([], [{"q"}, {"p", "q"}])
        phi2 = Or(Always(Q), Eventually(Always(P)))
        assert eval_lasso(phi2, sigma)

    def test_true_everywhere(self):
        rng = random.Random(13)
        for _ in range(20):
            assert eval_lasso(TrueConst(), random_lasso(rng, ["p"]))

    def test_negation_complements(self):
        rng = random.Random(14)
        for _ in range(200):
            phi = random_formula(rng, rng.randint(1, 7), ["p", "q"])
            sigma = random_lasso(rng, ["p", "q"])
            assert eval_lasso(Not(phi), sigma) == (not eval_lasso(phi, sigma))

    def test_expansion_laws(self):
        rng = random.Random(15)
        from hav.ltl import Next
        for _ in range(150):
            phi = random_formula(rng, 3, ["p", "q"])
            psi = random_formula(rng, 3, ["p", "q"])
            sigma = random_lasso(rng, ["p", "q"])
            until = Until(phi, psi)
            expanded = Or(psi, And(phi, Next(until)))
            assert eval_lasso(until, sigma) == eval_lasso(expanded, sigma)
            assert (eval_lasso(Always(phi), sigma)
                    == eval_lasso(And(phi, Next(Always(phi))), sigma))
            assert (eval_lasso(Eventually(phi), sigma)
                    == eval_lasso(Or(phi, Next(Eventually(phi))), sigma))

    def test_until_nonstrict_j_zero(self):
        # q holds now: p U q is satisfied immediately, even with p false
        sigma = Lasso.of([], [{"q"}])
        assert eval_lasso(Until(P, Q), sigma)
