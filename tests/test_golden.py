"""Golden outputs: `hav check`, `regions` and `quotient` keep their bytes,
and the LTL layer keeps its values.

Each CLI case pins the exit code and the sha256 of stdout, and for `--json`
runs also the sha256 of the counterexample file. The digests were recorded
before the graph searches moved into `hav.graph`; those of check-login-2, 4,
5 and 7 were recorded again when emptiness moved to the SCC search over the
generalized automaton, which finds other (shorter) lassos with the same
verdicts. The LTL digest covers `str`, both NNFs, `propositions`, `is_nnf`
and the whole Büchi translation of seeded random formulas; it was recorded
when the translation stopped degeneralizing. A change that alters any of
these outputs must say why.
"""

import hashlib
import random

import pytest

from hav.buchi import translate_to_buchi
from hav.cli import run_cli
from hav.ltl import Always, And, Eventually, Implies, Not, Prop, is_nnf, propositions, to_nnf
from conftest import MODELS
from helpers import random_formula

LOGIN_FORMULAS = [
    "! F connect",
    "F standby",
    "G F standby",
    "G (valid -> F standby)",
    "(G F valid) -> (G F connect)",
    "G ! error",
    "standby U valid",
    "F G connect",
]

JOBSHOP_FORMULAS = [
    "!(F (j1_finish && j2_finish))",
    "F j1_finish",
    "G (j2_finish -> j1_finish)",
    "! F j2_finish",
]

#: model -> the network its `regions` and `quotient` runs use (None: the lone automaton)
MODEL_NETWORKS = {
    "counter": None,
    "jobshop": "all",
    "jobshop_timed": "all",
    "login": None,
    "rect": None,
}


def _cases():
    login = str(MODELS / "login.hav")
    for i, formula in enumerate(LOGIN_FORMULAS):
        argv = ["check", login, "--formula", formula]
        yield f"check-login-{i}", argv, False
        yield f"check-login-{i}-json", argv, True
    jobshop = str(MODELS / "jobshop_timed.hav")
    for i, formula in enumerate(JOBSHOP_FORMULAS):
        yield f"check-jobshop-{i}", ["check", jobshop, "--network", "all",
                                     "--formula", formula], False
    for name, network in MODEL_NETWORKS.items():
        extra = ["--network", network] if network else []
        for command in ("regions", "quotient"):
            argv = [command, str(MODELS / f"{name}.hav")] + extra
            yield f"{command}-{name}", argv, False
            yield f"{command}-{name}-dot", argv + ["--dot"], False


GOLDEN = {
    "check-login-0": (1, "3e580abc999fb1218794fbebf985e08688e3e3fde2ec71b2bf98d02820102d10"),
    "check-login-0-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "21b65012d7bd81fe92aa26cfeb72db1e5f20e566c2f080a17997e6f8aa708d6f"),
    "check-login-1": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a"),
    "check-login-1-json": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a", None),
    "check-login-2": (1, "0788e3c5ee46b907deb7afcb09af65dc2130b9b0b59d55b351f77fbc37ad8919"),
    "check-login-2-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "fa86950b94c2b1a4e9ef878a09c6b8c55651a2f95fa241a6fb0dbf940619ed7c"),
    "check-login-3": (1, "0788e3c5ee46b907deb7afcb09af65dc2130b9b0b59d55b351f77fbc37ad8919"),
    "check-login-3-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "fa86950b94c2b1a4e9ef878a09c6b8c55651a2f95fa241a6fb0dbf940619ed7c"),
    "check-login-4": (1, "8f242c18047cd3305868ee47cb4f3af7d8a4392bd2050944867e5721605880cf"),
    "check-login-4-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "971f6cf4388e1771929573e39b921df2ff0effae67a761085c33bb0cbd20339c"),
    "check-login-5": (1, "1a473b00094dfc0ce8701a989110511b434a2cf3f0b46408ae4372dd9e0c27ba"),
    "check-login-5-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "6e0492e09fe56c0a53199b3b1ecc7ce6cbc3c1bd9a93634620a709381091e782"),
    "check-login-6": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a"),
    "check-login-6-json": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a", None),
    "check-login-7": (1, "e8abae6012c4fe8036ab9d0a675e6240c255181455f29ad77bacc650b69da51e"),
    "check-login-7-json": (1, "c322f87dd231130428c28b73cd35d58d2b71c6b4fdb5f3dc9a64d78be57e77ba", "8c54b84899823c9a7b72493ba7a831625f27e3031a0129aa758e9e63a98cd42e"),
    "check-jobshop-0": (1, "00f3bcdf7ebab3417e9d794ce63572e45b63c3fc44d569499175a474871b3206"),
    "check-jobshop-1": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a"),
    "check-jobshop-2": (0, "f867b22e10b390d931fdf11cbc42b860ffc879623be459c5ac27a37d27c9cd3a"),
    "check-jobshop-3": (1, "00f3bcdf7ebab3417e9d794ce63572e45b63c3fc44d569499175a474871b3206"),
    "regions-counter": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regions-counter-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-counter": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-counter-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regions-jobshop": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regions-jobshop-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-jobshop": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-jobshop-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regions-jobshop_timed": (0, "e10d56f81f319f0d4b7586d5115bc2fc5701542fe54541713bdc6e7ca10fd3a8"),
    "regions-jobshop_timed-dot": (0, "c3cfaa08c75be5239c6182f9d93c276ed58f919b7f5eadb7372532b50d485fc5"),
    "quotient-jobshop_timed": (0, "90eebd139be354ac77d310a0d00b7a6121b6c08940c3fee47db390fecd17f2a9"),
    "quotient-jobshop_timed-dot": (0, "73a6cf7a650ff306644df3ea2329bea3521d73aa7265d8845a2cc52938fd5764"),
    "regions-login": (0, "8748f0234d82cd293d43ef325fec49607990a2a0d2953b9823c7fb2d0cf27d3b"),
    "regions-login-dot": (0, "116ab687a3bd6d95593a1e8f28b14d14f09fc2fe0ff1af50f43fe49f8763fba6"),
    "quotient-login": (0, "ad5a597c944efb45f6ebb00e65bcf21b10a544cebda099a321182b538b469d66"),
    "quotient-login-dot": (0, "834a55d81a65ba11e45a87727b2efe3dca8a7b4b22003433704a9926f576a605"),
    "regions-rect": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "regions-rect-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-rect": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "quotient-rect-dot": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("ident,argv,with_json", list(_cases()),
                         ids=[ident for ident, _, _ in _cases()])
def test_output_bytes_unchanged(capsys, tmp_path, ident, argv, with_json):
    if with_json:
        cx = tmp_path / "cx.json"
        argv = argv + ["--json", str(cx)]
    code = run_cli(argv)
    got = (code, hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest())
    if with_json:
        got += (hashlib.sha256(cx.read_bytes()).hexdigest() if cx.exists() else None,)
    assert got == GOLDEN[ident]


def _ltl_inputs():
    rng = random.Random(20151)
    for _ in range(600):
        yield random_formula(rng, rng.randint(1, 12), ["p", "q", "r"])
    conj = [Always(Eventually(Prop(f"p{i}"))) for i in range(6)]
    fair = conj[0]
    for g in conj[1:]:
        fair = And(fair, g)
    yield fair
    assumptions = conj[0]
    for g in conj[1:5]:
        assumptions = And(assumptions, g)
    yield Not(Implies(assumptions, Always(Eventually(Prop("q")))))


def _ltl_record(phi) -> tuple:
    b = translate_to_buchi(phi)
    buchi = (b.states, sorted(b.initial),
             [(t.source, sorted(t.guard.must), sorted(t.guard.must_not), t.target)
              for t in b.transitions],
             [sorted(states) for states in b.accepting], sorted(b.ap),
             sorted(b.display.items()))
    return (str(phi), repr(to_nnf(phi)), repr(to_nnf(Not(phi))),
            sorted(propositions(phi)), is_nnf(phi), buchi)


LTL_GOLDEN = "d4d85a43b7f817dd19f57283d793452519300454e931fc0617b2301604e1b3d3"


def test_ltl_layer_values_unchanged():
    digest = hashlib.sha256(repr([_ltl_record(phi) for phi in _ltl_inputs()]).encode("utf-8"))
    assert digest.hexdigest() == LTL_GOLDEN
