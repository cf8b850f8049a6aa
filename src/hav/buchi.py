"""LTL to Büchi translation (tableau construction) and lasso acceptance.

The tableau builds a generalized Büchi automaton from the negation normal
form, one acceptance set per Until subformula, then degeneralizes with the
usual counter construction. Transition guards are kept symbolic as
(must-hold, must-not-hold) proposition pairs instead of explicit letters.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ltl import (
    Always, And, Eventually, FalseConst, Lasso, LtlFormula, Next, Not, Or,
    Prop, Release, TrueConst, Until, propositions, to_nnf,
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

    def successors(self, state: int) -> list[tuple[int, PropGuard]]:
        return self._adjacency[state]

    def moves(self, state: int, letter: frozenset[str]) -> list[int]:
        return [t for t, g in self._adjacency[state] if g.matches(letter)]


def _strip_sugar(f: LtlFormula) -> LtlFormula:
    """Rewrite an NNF formula into the tableau core: F a = true U a, G a = false R a."""
    if isinstance(f, (TrueConst, FalseConst, Prop)):
        return f
    if isinstance(f, Not):
        return f  # NNF: operand is a proposition
    if isinstance(f, Next):
        return Next(_strip_sugar(f.operand))
    if isinstance(f, Eventually):
        return Until(TrueConst(), _strip_sugar(f.operand))
    if isinstance(f, Always):
        return Release(FalseConst(), _strip_sugar(f.operand))
    if isinstance(f, And):
        return And(_strip_sugar(f.left), _strip_sugar(f.right))
    if isinstance(f, Or):
        return Or(_strip_sugar(f.left), _strip_sugar(f.right))
    if isinstance(f, Until):
        return Until(_strip_sugar(f.left), _strip_sugar(f.right))
    assert isinstance(f, Release)
    return Release(_strip_sugar(f.left), _strip_sugar(f.right))


def _until_subformulas(f: LtlFormula) -> list[Until]:
    """Until subformulas in a fixed in-order traversal (acceptance-set order)."""
    out: list[Until] = []
    seen: set[LtlFormula] = set()

    def walk(g: LtlFormula):
        if g in seen:
            return
        seen.add(g)
        if isinstance(g, (And, Or, Until, Release)):
            walk(g.left)
            if isinstance(g, Until):
                out.append(g)
            walk(g.right)
        elif isinstance(g, (Not, Next)):
            walk(g.operand)

    walk(f)
    return out


class _Node:
    __slots__ = ("nid", "incoming", "new", "old", "next")

    def __init__(self, nid, incoming, new, old, nxt):
        self.nid = nid
        self.incoming = incoming
        self.new = new
        self.old = old
        self.next = nxt


_INIT = -1  # virtual incoming marker


def _formula_key(f: LtlFormula):
    return str(f)


def _expand(root: _Node, nodes: list[_Node], counter) -> None:
    """Expand `root` and every node it spawns, depth first.

    A split expands its new branch before the rest of the node, which waits
    on an explicit stack instead of the call stack, so a deep tableau cannot
    exhaust Python's recursion limit.
    """
    pending = [root]
    while pending:
        node = pending.pop()
        while True:
            if not node.new:
                merged = next((nd for nd in nodes
                               if nd.old == node.old and nd.next == node.next), None)
                if merged is not None:
                    merged.incoming |= node.incoming
                    break
                nodes.append(node)
                node = _Node(next(counter), {node.nid}, set(node.next), set(), set())
                continue
            eta = min(node.new, key=_formula_key)
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
    core = _strip_sugar(to_nnf(phi))
    ap = propositions(core)
    counter = itertools.count()
    nodes: list[_Node] = []
    root = _Node(next(counter), {_INIT}, {core}, set(), set())
    _expand(root, nodes, counter)

    untils = _until_subformulas(core)
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
    succ_cache: dict[tuple[int, frozenset[str]], list[int]] = {}

    def succs(node: tuple[int, int]) -> list[tuple[int, int]]:
        pos, q = node
        letter = sigma.letter(pos)
        key = (q, letter)
        moves = succ_cache.get(key)
        if moves is None:
            moves = automaton.moves(q, letter)
            succ_cache[key] = moves
        nxt = sigma.successor(pos)
        return [(nxt, q2) for q2 in moves]

    for comp in _sccs(start, succs):
        has_accepting = any(q in automaton.accepting for _, q in comp)
        if not has_accepting:
            continue
        if len(comp) > 1:
            return True
        node = next(iter(comp))
        if node in succs(node):
            return True
    return False


def _sccs(roots, succs):
    """Iterative Tarjan over the reachable part; yields each SCC as a set."""
    index: dict = {}
    lowlink: dict = {}
    on_stack: set = set()
    stack: list = []
    counter = itertools.count()

    for root in roots:
        if root in index:
            continue
        work = [(root, iter(succs(root)))]
        index[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for t in it:
                if t not in index:
                    index[t] = lowlink[t] = next(counter)
                    stack.append(t)
                    on_stack.add(t)
                    work.append((t, iter(succs(t))))
                    advanced = True
                    break
                elif t in on_stack:
                    lowlink[node] = min(lowlink[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                yield comp
