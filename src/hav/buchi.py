"""LTL to Büchi translation (tableau construction) and lasso acceptance.

The tableau builds a generalized Büchi automaton from the negation normal
form, one acceptance set per Until subformula, expands each distinct next
set once, and merges the tableau nodes that cannot be told apart. Emptiness
and lasso acceptance check the generalized condition directly, so nothing
is degeneralized, and they follow only the undominated moves: a target
another enabled target simulates step for step is dropped (Somenzi and
Bloem, CAV 2000; Etessami and Holzmann, CONCUR 2000). Transition guards are
kept symbolic as (must-hold, must-not-hold) proposition pairs instead of
explicit letters.
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
        # edges as (target, guard id) pairs, so comparing them hashes no guard
        guard_ids: dict[PropGuard, int] = {}
        self._edges: dict[int, frozenset[tuple[int, int]]] = {}
        self._membership: dict[int, int] = {}
        self._rank: dict[int, tuple[int, int, int]] = {}
        for s, out in self._adjacency.items():
            out.sort(key=lambda e: e[0])
            edges = self._edges[s] = frozenset(
                (t, guard_ids.setdefault(g, len(guard_ids))) for t, g in out)
            member = self._membership[s] = sum(
                1 << i for i, states in enumerate(self.accepting) if s in states)
            self._rank[s] = (-bin(member).count("1"), -len(edges), s)

    def moves(self, state: int, letter: frozenset[str]) -> list[int]:
        """The undominated targets of `state`'s edges that `letter` enables,
        in target order.

        Target p dominates target r when p's edges, as (target, guard)
        pairs, include r's, and p is in every acceptance set r is in. Then p
        simulates r step for step, so a run through r can pass through p
        instead and meet at least the same sets: dropping r keeps the
        language and every emptiness verdict. Of targets that dominate each
        other, the smallest is kept. Only the targets of this one call are
        compared.
        """
        targets = [t for t, g in self._adjacency[state] if g.matches(letter)]
        if len(targets) < 2:
            return targets
        edges, member = self._edges, self._membership
        kept: list[int] = []
        # by rank, a target comes after every target that dominates it and
        # is not dominated back, so it need only be compared with the kept
        for r in sorted(targets, key=self._rank.__getitem__):
            if not any(member[r] & ~member[p] == 0 and edges[r] <= edges[p] for p in kept):
                kept.append(r)
        return sorted(kept)

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

    def __init__(self, nid, new, old, nxt):
        self.nid = nid
        self.incoming: set[int] = set()
        self.new = new
        self.old = old
        self.next = nxt


_INIT = -1  # virtual incoming marker


def _expand(core: LtlFormula) -> list[_Node]:
    """The kept tableau nodes of `core`, with their `incoming` filled in.

    Expanding a next set always ends in the same kept nodes, so each
    distinct next set is expanded once: the kept nodes that ask for it are
    recorded as its requesters, every kept node records the next sets whose
    expansion ends in it, and `incoming` is joined from the two at the end.
    The root is the next set {core}, requested by `_INIT`.

    A split expands its new branch before the rest of the node, which waits
    on an explicit stack instead of the call stack, so a deep tableau cannot
    exhaust Python's recursion limit. A finished node whose `old` and `next`
    match a kept node's merges into it; kept nodes are indexed by those two
    sets, which never change once a node is kept. Pending formulas are
    taken in the order of their text, rendered once per formula.
    """
    counter = itertools.count()
    kept: dict[tuple[frozenset, frozenset], _Node] = {}
    root = frozenset({core})
    requesters: dict[frozenset, set[int]] = {root: {_INIT}}
    origins: dict[int, set[frozenset]] = {}  # kept nid -> next sets ending in it
    texts: dict[LtlFormula, str] = {}

    def text(f: LtlFormula) -> str:
        got = texts.get(f)
        if got is None:
            got = texts[f] = str(f)
        return got

    pending = [(_Node(next(counter), set(root), set(), set()), root)]
    while pending:
        node, origin = pending.pop()
        while True:
            if not node.new:
                key = (frozenset(node.old), frozenset(node.next))
                merged = kept.get(key)
                if merged is not None:
                    origins[merged.nid].add(origin)
                    break
                kept[key] = node
                origins[node.nid] = {origin}
                origin = key[1]
                if origin in requesters:
                    requesters[origin].add(node.nid)
                    break
                requesters[origin] = {node.nid}
                node = _Node(next(counter), set(origin), set(), set())
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
            branch = _Node(next(counter), node.new | (new1 - node.old),
                           node.old | {eta}, node.next | next1)
            # the branch shares no set with the node, so the node's own
            # update can come first; it resumes once the branch is done
            node.old.add(eta)
            node.new |= new2 - node.old
            pending.append((node, origin))
            node = branch

    nodes = list(kept.values())
    for nd in nodes:
        nd.incoming.update(*(requesters[o] for o in origins[nd.nid]))
    return nodes


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
    nodes = _expand(core)

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
