"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive results by different means than the
library: SCC-based emptiness instead of nested DFS, exhaustive lasso
enumeration instead of the Büchi pipeline, dense sampling instead of
Fourier-Motzkin.
"""

from __future__ import annotations

import itertools
import random
from collections import deque
from pathlib import Path

from hav.kripke import STUTTER_ACTION, FiniteKripke, make_kripke
from hav.ltl import (
    Always, And, Eventually, FalseConst, Implies, Lasso, Next, Not, Or, Prop,
    TrueConst, Until, eval_lasso,
)
from hav.model import (
    AtomicConstraint, HybridAutomaton, JumpPredicate, Predicate, RateConst,
    Transition,
)
from hav.regions import (
    region_count_bound, region_satisfies, reset_region, time_successor_chain,
    zero_region,
)
from hav.textfmt import ModelDocument, parse_model

MODELS = Path(__file__).parent.parent / "models"


def load_model(name: str) -> ModelDocument:
    path = MODELS / f"{name}.hav"
    return parse_model(path.read_text(), filename=str(path))


# ------------------------------------------------------------ random formulas

_UNARY = [Not, Next, Eventually, Always]
_BINARY = [And, Or, Implies, Until]


def random_formula(rng: random.Random, size: int, props) -> object:
    props = list(props)
    if size <= 1:
        leaves = [TrueConst(), FalseConst()] + [Prop(p) for p in props]
        return rng.choice(leaves)
    if rng.random() < 0.45:
        return rng.choice(_UNARY)(random_formula(rng, size - 1, props))
    split = rng.randint(1, size - 1)
    left = random_formula(rng, split, props)
    right = random_formula(rng, max(size - 1 - split, 1), props)
    return rng.choice(_BINARY)(left, right)


def random_lasso(rng: random.Random, props, stem_max=4, loop_max=4) -> Lasso:
    props = list(props)

    def letter():
        return frozenset(p for p in props if rng.random() < 0.4)

    stem = [letter() for _ in range(rng.randint(0, stem_max))]
    loop = [letter() for _ in range(rng.randint(1, loop_max))]
    return Lasso.of(stem, loop)


# ----------------------------------------------------------- random structures

def random_kripke(rng: random.Random, max_states=6, props=("p", "q", "r")) -> FiniteKripke:
    n = rng.randint(2, max_states)
    names = [f"s{i}" for i in range(n)]
    labels = {name: {p for p in props if rng.random() < 0.45} for name in names}
    edges = []
    for name in names:
        for target in rng.sample(names, rng.randint(1, 2)):
            edges.append((name, "a", target))
    initial = rng.sample(names, rng.randint(1, 2))
    return make_kripke(names, initial, sorted(set(edges)), labels,
                       propositions=frozenset(props))


def random_timed_automaton(rng: random.Random) -> HybridAutomaton:
    """Small diagonal-free timed automaton (rates 1, resets to 0, V0 = 0)."""
    n_modes = rng.randint(1, 3)
    clocks = [f"c{i}" for i in range(rng.randint(1, 2))]
    modes = [f"m{i}" for i in range(n_modes)]
    k = rng.randint(1, 3)

    def atom():
        return AtomicConstraint(rng.choice(clocks), rng.choice(["<", "<=", "=", ">=", ">"]),
                                rng.randint(0, k))

    transitions = []
    for i in range(rng.randint(1, 2 * n_modes)):
        guard = Predicate(tuple(atom() for _ in range(rng.randint(0, 2))))
        resets = {c: 0 for c in clocks if rng.random() < 0.4}
        transitions.append(Transition(rng.choice(modes), guard, f"a{i}",
                                      JumpPredicate.of(resets), rng.choice(modes)))
    invariants = {}
    for m in modes:
        if rng.random() < 0.3:
            invariants[m] = Predicate.of(
                AtomicConstraint(rng.choice(clocks), "<=", rng.randint(1, k)))
        else:
            invariants[m] = Predicate.true()
    return HybridAutomaton(
        name="t", modes=tuple(modes), initial_modes=frozenset({modes[0]}),
        variables=frozenset(clocks), transitions=tuple(transitions),
        invariants=invariants,
        flows={m: {c: RateConst(1) for c in clocks} for m in modes},
        init=Predicate(tuple(AtomicConstraint(c, "=", 0) for c in sorted(clocks))),
    )


def random_multirate_automaton(rng: random.Random) -> HybridAutomaton:
    """Initialized multi-rate automaton with unambiguous entry constants.

    Reachable along a chain of modes so feasibility is likely but not
    guaranteed; every edge resets every variable (initialized by force).
    """
    n_modes = rng.randint(2, 3)
    variables = [f"v{i}" for i in range(rng.randint(1, 2))]
    modes = [f"m{i}" for i in range(n_modes)]
    flows = {m: {v: RateConst(rng.choice([1, 1, 2, 3])) for v in variables}
             for m in modes}

    transitions = []
    for i in range(n_modes - 1):
        src, dst = modes[i], modes[i + 1]
        rate = flows[src][variables[0]].value
        bound = rate * rng.randint(1, 3)
        guard = Predicate.of(AtomicConstraint(variables[0], rng.choice(["<=", "=", ">="]),
                                              bound))
        resets = {v: rng.randint(0, 2) for v in variables}
        transitions.append(Transition(src, guard, f"a{i}", JumpPredicate.of(resets), dst))
    # a loop edge back to the start keeps lassos possible
    resets = {v: 0 for v in variables}
    transitions.append(Transition(modes[-1], Predicate.true(), "back",
                                  JumpPredicate.of(resets), modes[0]))

    return HybridAutomaton(
        name="mr", modes=tuple(modes), initial_modes=frozenset({modes[0]}),
        variables=frozenset(variables), transitions=tuple(transitions),
        flows=flows,
        init=Predicate(tuple(AtomicConstraint(v, "=", 0) for v in sorted(variables))),
    )


# ------------------------------------------------------- region graph oracle

def reference_region_graph(a: HybridAutomaton, k: int) -> dict:
    """The region graph by plain chain walking, with nothing memoised.

    From each state (m, r), walk r's whole time-successor chain while m's
    invariant holds; at each chain region fire every edge of m whose guard
    holds and whose landed region meets the target's invariant, interning
    the landed state, then intern the chain region itself. Returns the
    parts of `region_graph`'s result that must come out identical.
    """
    ids: dict = {}
    info: list = []
    queue: deque = deque()

    def intern(mode, region) -> int:
        if (mode, region) not in ids:
            ids[(mode, region)] = len(info)
            info.append((mode, region))
            queue.append((mode, region))
        return ids[(mode, region)]

    start = zero_region(a.variables, k)
    initial = [intern(m, start) for m in a.modes
               if m in a.initial_modes and region_satisfies(start, a.invariant(m))]
    edge_index = {t: i for i, t in enumerate(a.transitions)}
    fired: dict = {}
    while queue:
        mode, region = queue.popleft()
        src = ids[(mode, region)]
        for r in time_successor_chain(region):
            if not region_satisfies(r, a.invariant(mode)):
                break
            for edge in a.transitions:
                if edge.source != mode or not region_satisfies(r, edge.guard):
                    continue
                landed = reset_region(r, edge.jump.reset)
                if region_satisfies(landed, a.invariant(edge.target)):
                    fired[(src, edge_index[edge], intern(edge.target, landed))] = None
            intern(mode, r)

    transitions = [(src, a.transitions[ei].action, dst) for src, ei, dst in fired]
    edge_refs = [a.transitions[ei] for _, ei, _ in fired]
    deadlocks = sorted(set(range(len(info))) - {src for src, _, _ in fired})
    transitions += [(s, STUTTER_ACTION, s) for s in deadlocks]
    edge_refs += [None] * len(deadlocks)
    return {
        "state_info": info, "initial": frozenset(initial), "transitions": transitions,
        "edge_refs": edge_refs, "deadlocks": frozenset(deadlocks),
        "bound": region_count_bound(len(a.modes), len(a.variables), k),
    }


# ---------------------------------------------------------------- SCC oracle

def scc_nonempty(graph) -> bool:
    """Independent emptiness check: a reachable nontrivial SCC (or self-loop)
    containing an accepting state; Tarjan, no nested DFS."""
    index, lowlink, on_stack = {}, {}, set()
    stack, counter = [], itertools.count()
    nonempty = False

    def succs(node):
        return [t for t, _ in graph.successors(node)]

    for root in graph.initial:
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
                if t in on_stack:
                    lowlink[node] = min(lowlink[node], index[t])
            if advanced:
                continue
            work.pop()
            if work:
                lowlink[work[-1][0]] = min(lowlink[work[-1][0]], lowlink[node])
            if lowlink[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                if any(m in graph.accepting for m in comp):
                    if len(comp) > 1 or any(t == node for t in succs(node)):
                        nonempty = True
    return nonempty


# ------------------------------------------------- brute-force model checking

def all_lasso_traces(k: FiniteKripke, stem_max=None, loop_max=None):
    """Every distinct label lasso with stem <= |S| and loop <= |S| edges."""
    stem_max = k.state_count if stem_max is None else stem_max
    loop_max = k.state_count if loop_max is None else loop_max
    seen = set()

    def walks(state, budget):
        yield [state]
        if budget > 0:
            for t in k.post(state):
                for rest in walks(t, budget - 1):
                    yield [state] + rest

    loop_cache: dict[int, list] = {}

    def loops(anchor):
        if anchor not in loop_cache:
            loop_cache[anchor] = [
                tuple(k.labels[s] for s in w[:-1])
                for w in walks(anchor, loop_max)
                if len(w) >= 2 and w[-1] == anchor
            ]
        return loop_cache[anchor]

    for s0 in sorted(k.initial):
        for stem_walk in walks(s0, stem_max):
            anchor = stem_walk[-1]
            stem = tuple(k.labels[s] for s in stem_walk[:-1])
            for loop in loops(anchor):
                key = (stem, loop)
                if key not in seen:
                    seen.add(key)
                    yield Lasso(stem, loop)


def brute_force_verdict(k: FiniteKripke, phi) -> bool:
    """Universal quantification of eval_lasso over all bounded lassos."""
    return all(eval_lasso(phi, sigma) for sigma in all_lasso_traces(k))
