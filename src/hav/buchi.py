"""LTL to Büchi translation (tableau construction) and lasso acceptance.

The tableau builds a generalized Büchi automaton from the negation normal
form, one acceptance set per Until subformula, then degeneralizes with the
usual counter construction. Transition guards are kept symbolic as
(must-hold, must-not-hold) proposition pairs instead of explicit letters.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .graph import strongly_connected_components
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
    """Edge-guarded Büchi automaton over letters from 2^AP."""

    states: tuple[int, ...]
    initial: frozenset[int]
    transitions: tuple[BuchiTransition, ...]
    accepting: frozenset[int]
    ap: frozenset[str] = frozenset()
    display: dict = field(default_factory=dict)

    def __post_init__(self):
        stateset = set(self.states)
        if not self.accepting <= stateset or not self.initial <= stateset:
            raise ValueError("accepting/initial states must be declared states")
        for t in self.transitions:
            if t.source not in stateset or t.target not in stateset:
                raise ValueError(f"dangling transition {t}")
        self._adjacency: dict[int, list[tuple[int, PropGuard]]] = {s: [] for s in self.states}
        for t in self.transitions:
            self._adjacency[t.source].append((t.target, t.guard))
        for lst in self._adjacency.values():
            lst.sort(key=lambda e: (e[0], str(e[1])))

    def moves(self, state: int, letter: frozenset[str]) -> list[int]:
        return [t for t, g in self._adjacency[state] if g.matches(letter)]


def _core(f: LtlFormula, kids: list[LtlFormula]) -> LtlFormula:
    """Rewrite an NNF formula into the tableau core: F a = true U a, G a = false R a."""
    if isinstance(f, Eventually):
        return Until(TrueConst(), kids[0])
    if isinstance(f, Always):
        return Release(FalseConst(), kids[0])
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
    """Büchi automaton whose accepted words over 2^AP are the models of phi.

    May be exponential in the formula size. A fresh non-accepting initial
    state carries the first letter's constraints on its outgoing edges.
    """
    core = fold(to_nnf(phi), _core)
    ap = propositions(core)
    counter = itertools.count()
    nodes: list[_Node] = []
    root = _Node(next(counter), {_INIT}, {core}, set(), set())
    _expand(root, nodes, counter)

    # one acceptance set per distinct Until, ordered by its first occurrence
    untils = list(dict.fromkeys(fold(core, _untils_in_order)))
    acc_sets = [
        frozenset(nd.nid for nd in nodes if u.right in nd.old or u not in nd.old)
        for u in untils
    ]

    # generalized automaton, then counter-based degeneralization
    node_ids = [nd.nid for nd in nodes]
    guards = {nd.nid: _node_guard(nd.old) for nd in nodes}
    gba_edges: list[tuple[int, int]] = []
    gba_initial: list[int] = []
    for nd in nodes:
        for src in nd.incoming:
            if src == _INIT:
                gba_initial.append(nd.nid)
            else:
                gba_edges.append((src, nd.nid))

    k = len(acc_sets)
    iota = "iota"

    if k == 0:
        remap = {nid: i + 1 for i, nid in enumerate(sorted(node_ids))}
        states = tuple([0] + sorted(remap.values()))
        transitions = [BuchiTransition(0, guards[t], remap[t]) for t in sorted(gba_initial)]
        transitions += [BuchiTransition(remap[s], guards[t], remap[t]) for s, t in sorted(gba_edges)]
        display = {0: iota}
        display.update({remap[nid]: f"n{nid}" for nid in node_ids})
        return BuchiAutomaton(states, frozenset({0}), tuple(transitions),
                              frozenset(states), ap, display)

    def advance(q: int, i: int) -> int:
        return (i % k) + 1 if q in acc_sets[i - 1] else i

    remap = {}
    for nid in sorted(node_ids):
        for i in range(1, k + 1):
            remap[(nid, i)] = len(remap) + 1
    states = tuple([0] + sorted(remap.values()))
    transitions = [BuchiTransition(0, guards[t], remap[(t, 1)]) for t in sorted(gba_initial)]
    for s, t in sorted(gba_edges):
        for i in range(1, k + 1):
            transitions.append(BuchiTransition(remap[(s, i)], guards[t], remap[(t, advance(s, i))]))
    accepting = frozenset(remap[(nid, 1)] for nid in node_ids if nid in acc_sets[0])
    display = {0: iota}
    display.update({remap[(nid, i)]: f"n{nid}.{i}" for nid in node_ids for i in range(1, k + 1)})
    return BuchiAutomaton(states, frozenset({0}), tuple(transitions), accepting, ap, display)


def buchi_accepts_lasso(automaton: BuchiAutomaton, sigma: Lasso) -> bool:
    """Acceptance of the ultimately periodic word sigma.

    Product of the automaton with the lasso positions, then a search for a
    reachable cycle through an accepting state.
    """
    start = [(0, q) for q in sorted(automaton.initial)]
    moves = functools.cache(automaton.moves)

    def succs(node: tuple[int, int]) -> list[tuple[tuple[int, int], None]]:
        pos, q = node
        nxt = sigma.successor(pos)
        return [((nxt, q2), None) for q2 in moves(q, sigma.letter(pos))]

    for comp in strongly_connected_components(start, succs):
        has_accepting = any(q in automaton.accepting for _, q in comp)
        if not has_accepting:
            continue
        if len(comp) > 1:
            return True
        node = next(iter(comp))
        if any(target == node for target, _ in succs(node)):
            return True
    return False
