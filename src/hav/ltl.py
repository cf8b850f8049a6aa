"""LTL syntax tree, negation normal form, and direct semantics on lassos.

`fold` is the one traversal of the syntax tree: a post-order walk on an
explicit stack that combines each node with its children's results. Text,
NNF, `propositions`, `is_nnf`, the tableau's passes in `buchi` and the
parser's depth check are folds, so none of them recurses.

eval_lasso is the module's oracle: a position-set evaluation of each
subformula over the finite presentation stem + loop^omega. The tableau
translation in `buchi` is tested against it, never the other way around,
so it keeps its own recursive walk and shares no code with the tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar, Union

LtlFormula = Union[
    "TrueConst", "FalseConst", "Prop", "Not", "And", "Or", "Implies",
    "Next", "Eventually", "Always", "Until", "Release",
]
T = TypeVar("T")


class _Formula:
    """Base of the syntax-tree nodes: children, text through `fold`, and a
    hash computed once, at construction, from the children's cached hashes,
    so hashing never walks a subtree. `==` is the dataclass's structural
    comparison, which still recurses into two equal subtrees built apart.
    """

    def __post_init__(self):
        # vars(self) holds the fields, in order, until `_hash` is set
        object.__setattr__(self, "_hash", hash((type(self).__name__, *vars(self).values())))

    def __hash__(self):
        return self._hash

    def children(self) -> tuple:
        return ()

    def __str__(self):
        return fold(self, _text)


def _node(cls):
    """`dataclass(frozen=True)`, keeping `_Formula.__hash__` in place of the
    generated hash, which would rehash the whole subtree."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = _Formula.__hash__
    return cls


@_node
class _Unary(_Formula):
    operand: LtlFormula

    def children(self) -> tuple:
        return (self.operand,)


@_node
class _Binary(_Formula):
    left: LtlFormula
    right: LtlFormula

    def children(self) -> tuple:
        return (self.left, self.right)


@_node
class TrueConst(_Formula):
    pass


@_node
class FalseConst(_Formula):
    pass


@_node
class Prop(_Formula):
    name: str


@_node
class Not(_Unary):
    pass


@_node
class And(_Binary):
    pass


@_node
class Or(_Binary):
    pass


@_node
class Implies(_Binary):
    pass


@_node
class Next(_Unary):
    pass


@_node
class Eventually(_Unary):
    pass


@_node
class Always(_Unary):
    pass


@_node
class Until(_Binary):
    pass


@_node
class Release(_Binary):
    """Dual of Until; internal to NNF and the tableau, not in the surface grammar."""


def fold(phi: LtlFormula, combine: Callable[[LtlFormula, list], T]) -> T:
    """combine(f, [results of f's children]) for every node f of phi, children
    first, on an explicit stack; the result for phi itself is returned.

    Results are memoised by node identity, so a subtree shared by reference
    is combined once and no subtree is ever hashed.
    """
    done: dict[int, T] = {}
    stack = [phi]
    while stack:
        f = stack[-1]
        if id(f) in done:
            stack.pop()
            continue
        kids = f.children()
        waiting = [k for k in kids if id(k) not in done]
        if waiting:
            stack += waiting
            continue
        stack.pop()
        done[id(f)] = combine(f, [done[id(k)] for k in kids])
    return done[id(phi)]


_SYMBOL = {
    TrueConst: "true", FalseConst: "false",
    Not: "!", Next: "X ", Eventually: "F ", Always: "G ",
    And: " && ", Or: " || ", Implies: " -> ", Until: " U ", Release: " R ",
}

# precedence levels: -> is 1, || is 2, && is 3, U is 4, unary is 5
_LEVEL = {Implies: 1, Or: 2, And: 3, Until: 4, Release: 4}


def _text(f: LtlFormula, kids: list[str]) -> str:
    """f's text from its operands' texts.

    An operand is parenthesized when its level is at most the level it is
    bound at: the operator's own level (so same-level nesting of ->, || and
    && stays explicit), 4 under U, R and the unary operators, and 2 for the
    left operand of ->.
    """
    if isinstance(f, Prop):
        return f.name
    symbol = _SYMBOL[type(f)]
    if not kids:
        return symbol
    bound = min(_LEVEL.get(type(f), 5), 4)
    parts = [f"({text})" if _LEVEL.get(type(g), 5) <= at else text
             for g, text, at in zip(f.children(), kids, (max(bound, 2), bound))]
    return symbol + parts[0] if len(parts) == 1 else parts[0] + symbol + parts[1]


def propositions(f: LtlFormula) -> frozenset[str]:
    return fold(f, lambda g, kids: frozenset((g.name,)) if isinstance(g, Prop)
                else frozenset().union(*kids))


#: connective -> (constructor of its NNF, constructor of its negation's NNF)
_NNF = {
    TrueConst: (TrueConst, FalseConst), FalseConst: (FalseConst, TrueConst),
    And: (And, Or), Or: (Or, And), Next: (Next, Next),
    Eventually: (Eventually, Always), Always: (Always, Eventually),
    Until: (Until, Release), Release: (Release, Until),
}


def _nnf_pair(f: LtlFormula, kids: list[tuple]) -> tuple[LtlFormula, LtlFormula]:
    """(NNF of f, NNF of !f) from the same pairs for f's operands."""
    if isinstance(f, Prop):
        return f, Not(f)
    if isinstance(f, Not):
        return kids[0][::-1]
    if isinstance(f, Implies):
        (a, not_a), (b, not_b) = kids
        return Or(not_a, b), And(a, not_b)
    positive, negative = _NNF[type(f)]
    return positive(*(k[0] for k in kids)), negative(*(k[1] for k in kids))


def to_nnf(f: LtlFormula) -> LtlFormula:
    """Push negations to propositions; Implies becomes !a || b.

    Negated Until turns into the internal Release dual, !F into G!, !G into
    F!, !X into X!. The result contains Not only directly above Prop.
    """
    return fold(f, _nnf_pair)[0]


def is_nnf(f: LtlFormula) -> bool:
    return fold(f, lambda g, kids: isinstance(g.operand, Prop) if isinstance(g, Not)
                else not isinstance(g, Implies) and all(kids))


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
