"""LTL syntax tree, negation normal form, and direct semantics on lassos.

eval_lasso is the module's oracle: a position-set evaluation of each
subformula over the finite presentation stem + loop^omega. The tableau
translation in `buchi` is tested against it, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

LtlFormula = Union[
    "TrueConst", "FalseConst", "Prop", "Not", "And", "Or", "Implies",
    "Next", "Eventually", "Always", "Until", "Release",
]


@dataclass(frozen=True)
class TrueConst:
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseConst:
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class Prop:
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not:
    operand: LtlFormula

    def __str__(self):
        return f"!{_wrap(self.operand)}"


@dataclass(frozen=True)
class And:
    left: LtlFormula
    right: LtlFormula

    def __str__(self):
        return f"{_wrap_bin(self.left, 3)} && {_wrap_bin(self.right, 3)}"


@dataclass(frozen=True)
class Or:
    left: LtlFormula
    right: LtlFormula

    def __str__(self):
        return f"{_wrap_bin(self.left, 2)} || {_wrap_bin(self.right, 2)}"


@dataclass(frozen=True)
class Implies:
    left: LtlFormula
    right: LtlFormula

    def __str__(self):
        return f"{_wrap_bin(self.left, 2)} -> {_wrap_bin(self.right, 1)}"


@dataclass(frozen=True)
class Next:
    operand: LtlFormula

    def __str__(self):
        return f"X {_wrap(self.operand)}"


@dataclass(frozen=True)
class Eventually:
    operand: LtlFormula

    def __str__(self):
        return f"F {_wrap(self.operand)}"


@dataclass(frozen=True)
class Always:
    operand: LtlFormula

    def __str__(self):
        return f"G {_wrap(self.operand)}"


@dataclass(frozen=True)
class Until:
    left: LtlFormula
    right: LtlFormula

    def __str__(self):
        return f"{_wrap(self.left)} U {_wrap(self.right)}"


@dataclass(frozen=True)
class Release:
    """Dual of Until; internal to NNF and the tableau, not in the surface grammar."""

    left: LtlFormula
    right: LtlFormula

    def __str__(self):
        return f"{_wrap(self.left)} R {_wrap(self.right)}"


_ATOMIC = (TrueConst, FalseConst, Prop)


def _wrap(f: LtlFormula) -> str:
    """Parenthesize operands of unary operators unless atomic or unary."""
    if isinstance(f, _ATOMIC + (Not, Next, Eventually, Always)):
        return str(f)
    return f"({f})"


# precedence levels: -> is 1, || is 2, && is 3, U is 4, unary is 5
_LEVEL = {Implies: 1, Or: 2, And: 3, Until: 4, Release: 4}


def _wrap_bin(f: LtlFormula, parent_level: int) -> str:
    level = _LEVEL.get(type(f), 5)
    if level < parent_level or (level == parent_level and type(f) in (Implies, Or, And)):
        # keep left/right nesting of same-level binary operators explicit
        return f"({f})"
    return str(f)


def propositions(f: LtlFormula) -> frozenset[str]:
    if isinstance(f, Prop):
        return frozenset((f.name,))
    if isinstance(f, (TrueConst, FalseConst)):
        return frozenset()
    if isinstance(f, (Not, Next, Eventually, Always)):
        return propositions(f.operand)
    return propositions(f.left) | propositions(f.right)


def to_nnf(f: LtlFormula) -> LtlFormula:
    """Push negations to propositions; Implies becomes !a || b.

    Negated Until turns into the internal Release dual, !F into G!, !G into
    F!, !X into X!. The result contains Not only directly above Prop.
    """
    if isinstance(f, _ATOMIC):
        return f
    if isinstance(f, And):
        return And(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Or):
        return Or(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Implies):
        return Or(to_nnf(Not(f.left)), to_nnf(f.right))
    if isinstance(f, Next):
        return Next(to_nnf(f.operand))
    if isinstance(f, Eventually):
        return Eventually(to_nnf(f.operand))
    if isinstance(f, Always):
        return Always(to_nnf(f.operand))
    if isinstance(f, Until):
        return Until(to_nnf(f.left), to_nnf(f.right))
    if isinstance(f, Release):
        return Release(to_nnf(f.left), to_nnf(f.right))
    assert isinstance(f, Not)
    g = f.operand
    if isinstance(g, TrueConst):
        return FalseConst()
    if isinstance(g, FalseConst):
        return TrueConst()
    if isinstance(g, Prop):
        return f
    if isinstance(g, Not):
        return to_nnf(g.operand)
    if isinstance(g, And):
        return Or(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, Or):
        return And(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    if isinstance(g, Implies):
        return And(to_nnf(g.left), to_nnf(Not(g.right)))
    if isinstance(g, Next):
        return Next(to_nnf(Not(g.operand)))
    if isinstance(g, Eventually):
        return Always(to_nnf(Not(g.operand)))
    if isinstance(g, Always):
        return Eventually(to_nnf(Not(g.operand)))
    if isinstance(g, Until):
        return Release(to_nnf(Not(g.left)), to_nnf(Not(g.right)))
    assert isinstance(g, Release)
    return Until(to_nnf(Not(g.left)), to_nnf(Not(g.right)))


def is_nnf(f: LtlFormula) -> bool:
    if isinstance(f, Not):
        return isinstance(f.operand, Prop)
    if isinstance(f, _ATOMIC):
        return True
    if isinstance(f, (Next, Eventually, Always)):
        return is_nnf(f.operand)
    if isinstance(f, Implies):
        return False
    return is_nnf(f.left) and is_nnf(f.right)


@dataclass(frozen=True)
class Lasso:
    """Finite presentation of the trace stem . loop^omega over 2^AP."""

    stem: tuple[frozenset[str], ...]
    loop: tuple[frozenset[str], ...]

    def __post_init__(self):
        if not self.loop:
            raise ValueError("lasso loop must be nonempty")

    @staticmethod
    def of(stem, loop) -> "Lasso":
        return Lasso(tuple(frozenset(s) for s in stem), tuple(frozenset(s) for s in loop))

    @property
    def positions(self) -> int:
        return len(self.stem) + len(self.loop)

    def letter(self, pos: int) -> frozenset[str]:
        if pos < len(self.stem):
            return self.stem[pos]
        return self.loop[pos - len(self.stem)]

    def successor(self, pos: int) -> int:
        return pos + 1 if pos + 1 < self.positions else len(self.stem)

    def prefix(self, n: int) -> list[frozenset[str]]:
        out, pos = [], 0
        for _ in range(n):
            out.append(self.letter(pos))
            pos = self.successor(pos)
        return out


def eval_lasso(phi: LtlFormula, sigma: Lasso) -> bool:
    """sigma |= phi by position-set fixpoints over the lasso's finite positions.

    Until is the least fixpoint of psi \\/ (phi /\\ X .), Release/Always the
    greatest; Until reads "there exists j >= 0", the standard non-strict form.
    """
    n = sigma.positions
    positions = range(n)
    succ = [sigma.successor(p) for p in positions]
    memo: dict[LtlFormula, frozenset[int]] = {}

    def pre(holding: frozenset[int]) -> frozenset[int]:
        return frozenset(p for p in positions if succ[p] in holding)

    def sat(f: LtlFormula) -> frozenset[int]:
        got = memo.get(f)
        if got is not None:
            return got
        if isinstance(f, TrueConst):
            out = frozenset(positions)
        elif isinstance(f, FalseConst):
            out = frozenset()
        elif isinstance(f, Prop):
            out = frozenset(p for p in positions if f.name in sigma.letter(p))
        elif isinstance(f, Not):
            out = frozenset(positions) - sat(f.operand)
        elif isinstance(f, And):
            out = sat(f.left) & sat(f.right)
        elif isinstance(f, Or):
            out = sat(f.left) | sat(f.right)
        elif isinstance(f, Implies):
            out = (frozenset(positions) - sat(f.left)) | sat(f.right)
        elif isinstance(f, Next):
            out = pre(sat(f.operand))
        elif isinstance(f, Eventually):
            out = _lfp(sat(f.operand), frozenset(positions), pre)
        elif isinstance(f, Always):
            out = _gfp(sat(f.operand), frozenset(), pre)
        elif isinstance(f, Until):
            out = _lfp(sat(f.right), sat(f.left), pre)
        else:
            assert isinstance(f, Release)
            out = _gfp(sat(f.right), sat(f.left), pre)
        memo[f] = out
        return out

    return 0 in sat(phi)


def _lfp(target: frozenset[int], gate: frozenset[int], pre) -> frozenset[int]:
    # least fixpoint of target | (gate & pre(.))
    current = target
    while True:
        nxt = target | (gate & pre(current))
        if nxt == current:
            return current
        current = nxt


def _gfp(hold: frozenset[int], gate: frozenset[int], pre) -> frozenset[int]:
    # greatest fixpoint of hold & (gate | pre(.))
    current = hold
    while True:
        nxt = hold & (gate | pre(current))
        if nxt == current:
            return current
        current = nxt
