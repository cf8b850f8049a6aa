"""LTL to Büchi translation (tableau construction) and lasso acceptance.

The tableau builds a generalized Büchi automaton from the negation normal
form, one acceptance set per Until subformula, and merges the tableau nodes
that cannot be told apart. Emptiness and lasso acceptance check the
generalized condition directly, so nothing is degeneralized. Transition
guards are kept symbolic as (must-hold, must-not-hold) proposition pairs
instead of explicit letters.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Container

from .graph import accepting_lasso
from .ltl import (
    Always, And, Eventually, FalseConst, Lasso, LtlFormula, Next, Not, Or,
    Prop, Release, TrueConst, Until, fold, propositions, to_nnf,
)


@dataclass(frozen=True)
class PropGuard:
    """Letter constraint: every `must` holds and no `must_not` does."""

    must: frozenset[str] = frozenset()
    must_not: frozenset[str] = frozenset()

    def matches(self, letter: frozenset[str]) -> bool:
        return self.must <= letter and not (self.must_not & letter)

    def __str__(self) -> str:
        parts = [p for p in sorted(self.must)] + [f"!{p}" for p in sorted(self.must_not)]
        return " & ".join(parts) if parts else "true"


@dataclass(frozen=True)
class BuchiTransition:
    source: int
    guard: PropGuard
    target: int


@dataclass
class BuchiAutomaton:
    """Edge-guarded generalized Büchi automaton over letters from 2^AP.

    A run is accepted when it visits every set in `accepting` infinitely
    often; with no sets, every infinite run is. Every edge into a state
    carries that state's guard.
    """

    states: tuple[int, ...]
    initial: frozenset[int]
    transitions: tuple[BuchiTransition, ...]
    accepting: tuple[frozenset[int], ...]
    ap: frozenset[str] = frozenset()
    display: dict = field(default_factory=dict)

    def __post_init__(self):
        stateset = set(self.states)
        if not self.initial <= stateset or any(not s <= stateset for s in self.accepting):
            raise ValueError("accepting/initial states must be declared states")
        for t in self.transitions:
            if t.source not in stateset or t.target not in stateset:
                raise ValueError(f"dangling transition {t}")
        self._adjacency: dict[int, list[tuple[int, PropGuard]]] = {s: [] for s in self.states}
        for t in self.transitions:
            self._adjacency[t.source].append((t.target, t.guard))
        for lst in self._adjacency.values():
            lst.sort(key=lambda e: e[0])

    def moves(self, state: int, letter: frozenset[str]) -> list[int]:
        return [t for t, g in self._adjacency[state] if g.matches(letter)]

    def product_accepting(self) -> tuple[Container, ...]:
        """The acceptance sets lifted to product nodes `(x, state)`."""
        return tuple(_PairsAt(s) for s in self.accepting)


class _PairsAt:
    """The pairs `(x, q)` with q in `states`, tested without listing them."""

    __slots__ = ("states",)

    def __init__(self, states: frozenset[int]):
        self.states = states

    def __contains__(self, node: tuple) -> bool:
        return node[1] in self.states


#: F a = true U a and G a = false R a
_SUGAR = {Eventually: (Until, TrueConst), Always: (Release, FalseConst)}


def _core(f: LtlFormula, kids: list[LtlFormula]) -> LtlFormula:
    """Rewrite an NNF formula into the tableau core, without F and G.

    F F a = F a and G G a = G a, so an F or G whose operand already has
    its core form is that operand.
    """
    if type(f) in _SUGAR:
        op, unit = _SUGAR[type(f)]
        kid = kids[0]
        return kid if isinstance(kid, op) and isinstance(kid.left, unit) else op(unit(), kid)
    if isinstance(f, Not) or not kids:
        return f  # NNF: a negation's operand is a proposition
    return type(f)(*kids)


def _untils_in_order(f: LtlFormula, kids: list[list[Until]]) -> list[Until]:
    """Until subformulas in in-order position, repeats included."""
    if isinstance(f, Until):
        return kids[0] + [f] + kids[1]
    return [u for k in kids for u in k]


class _Node:
    __slots__ = ("nid", "incoming", "new", "old", "next")

    def __init__(self, nid, incoming, new, old, nxt):
        self.nid = nid
        self.incoming = incoming
        self.new = new
        self.old = old
        self.next = nxt


_INIT = -1  # virtual incoming marker


def _expand(root: _Node, nodes: list[_Node], counter) -> None:
    """Expand `root` and every node it spawns, depth first.

    A split expands its new branch before the rest of the node, which waits
    on an explicit stack instead of the call stack, so a deep tableau cannot
    exhaust Python's recursion limit. A finished node whose `old` and `next`
    match a kept node's merges into it; kept nodes are indexed by those two
    sets, which never change once a node is kept. Pending formulas are
    taken in the order of their text, rendered once per formula.
    """
    kept: dict[tuple[frozenset, frozenset], _Node] = {}
    texts: dict[LtlFormula, str] = {}

    def text(f: LtlFormula) -> str:
        got = texts.get(f)
        if got is None:
            got = texts[f] = str(f)
        return got

    pending = [root]
    while pending:
        node = pending.pop()
        while True:
            if not node.new:
                key = (frozenset(node.old), frozenset(node.next))
                merged = kept.get(key)
                if merged is not None:
                    merged.incoming |= node.incoming
                    break
                kept[key] = node
                nodes.append(node)
                node = _Node(next(counter), {node.nid}, set(node.next), set(), set())
                continue
            eta = min(node.new, key=text)
            node.new.discard(eta)
            if isinstance(eta, FalseConst):
                break  # inconsistent branch
            if isinstance(eta, TrueConst):
                node.old.add(eta)  # recorded: Until acceptance asks whether ψ was processed
                continue
            if isinstance(eta, (Prop, Not)):
                contradiction = Not(eta) if isinstance(eta, Prop) else eta.operand
                if contradiction in node.old:
                    break
                node.old.add(eta)
                continue
            if isinstance(eta, And):
                node.old.add(eta)
                for part in (eta.left, eta.right):
                    if part not in node.old:
                        node.new.add(part)
                continue
            if isinstance(eta, Next):
                node.old.add(eta)
                node.next.add(eta.operand)
                continue
            # splitting connectives: Or, Until, Release
            if isinstance(eta, Or):
                new1, next1, new2 = {eta.left}, set(), {eta.right}
            elif isinstance(eta, Until):
                new1, next1, new2 = {eta.left}, {eta}, {eta.right}
            else:
                assert isinstance(eta, Release)
                new1, next1, new2 = {eta.right}, {eta}, {eta.left, eta.right}
            branch = _Node(next(counter), set(node.incoming),
                           node.new | (new1 - node.old),
                           node.old | {eta}, node.next | next1)
            # the branch shares no set with the node, so the node's own
            # update can come first; it resumes once the branch is done
            node.old.add(eta)
            node.new |= new2 - node.old
            pending.append(node)
            node = branch


def _node_guard(old: set) -> PropGuard:
    must = frozenset(f.name for f in old if isinstance(f, Prop))
    must_not = frozenset(f.operand.name for f in old if isinstance(f, Not))
    return PropGuard(must, must_not)


def translate_to_buchi(phi: LtlFormula) -> BuchiAutomaton:
    """Generalized Büchi automaton accepting exactly the models of phi over 2^AP.

    May be exponential in the formula size. A fresh initial state, in no
    acceptance set, carries the first letter's constraints on its outgoing
    edges. Tableau nodes with the same `next` set, guard and acceptance
    membership become one state, named after the smallest node id: a node's
    successors depend only on its `next` set, so such nodes are bisimilar.
    """
    core = fold(to_nnf(phi), _core)
    counter = itertools.count()
    nodes: list[_Node] = []
    _expand(_Node(next(counter), {_INIT}, {core}, set(), set()), nodes, counter)

    # one acceptance set per distinct Until, ordered by its first occurrence
    untils = list(dict.fromkeys(fold(core, _untils_in_order)))
    classes: dict[tuple, int] = {}  # (next set, guard, membership) -> state
    state_of, display = {_INIT: 0}, {0: "iota"}
    for nd in sorted(nodes, key=lambda nd: nd.nid):
        member = tuple(u.right in nd.old or u not in nd.old for u in untils)
        key = (frozenset(nd.next), _node_guard(nd.old), member)
        state = state_of[nd.nid] = classes.setdefault(key, len(classes) + 1)
        display.setdefault(state, f"n{nd.nid}")
    guards = {state: guard for (_, guard, _), state in classes.items()}
    edges = sorted({(state_of[src], state_of[nd.nid]) for nd in nodes for src in nd.incoming})
    transitions = tuple(BuchiTransition(s, guards[t], t) for s, t in edges)
    accepting = tuple(frozenset(state for (_, _, member), state in classes.items() if member[i])
                      for i in range(len(untils)))
    return BuchiAutomaton(tuple(range(len(classes) + 1)), frozenset({0}), transitions,
                          accepting, propositions(core), display)


def buchi_accepts_lasso(automaton: BuchiAutomaton, sigma: Lasso) -> bool:
    """Acceptance of the ultimately periodic word sigma.

    Product of the automaton with the lasso positions, then a search for a
    reachable cycle that meets every acceptance set.
    """
    start = [(0, q) for q in sorted(automaton.initial)]
    moves = functools.cache(automaton.moves)

    def succs(node: tuple[int, int]) -> list[tuple[tuple[int, int], None]]:
        pos, q = node
        nxt = sigma.successor(pos)
        return [((nxt, q2), None) for q2 in moves(q, sigma.letter(pos))]

    return accepting_lasso(start, succs, automaton.product_accepting()) is not None
