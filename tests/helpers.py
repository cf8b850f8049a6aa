"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive results by different means than the
library: Tarjan's SCCs instead of the on-the-fly emptiness search, the
tableau that expands a next set again for every node asking for it,
degeneralized by counters instead of merged into a generalized automaton,
every matching transition instead of the undominated Büchi moves,
exhaustive lasso enumeration instead of the Büchi pipeline, dense
sampling instead of Fourier-Motzkin, substitution into every row instead of
an occurrence index.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from hav.buchi import (
    _INIT, BuchiAutomaton, BuchiTransition, _node_guard, _untils_in_order,
)
from hav.compose import product
from hav.linsolve import EQ, LE, LT, LinearSystem, Solution
from hav.kripke import STUTTER_ACTION, FiniteKripke, make_kripke
from hav.ltl import (
    Always, And, Eventually, FalseConst, Implies, Lasso, LtlFormula, Next, Not, Or,
    Prop, Release, TrueConst, Until, eval_lasso, fold, propositions, to_nnf,
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


_LOGIN_NAMES = re.compile(r"\b(login|x|standby|valid|delay|error|connect|user_name|restart"
                          r"|pw_fail|pw_match|log_error)\b")
_LOGIN_CONSTANTS = re.compile(r"\b(60|10)\b")


def login_copies(tags, limit: int, backoff: int) -> HybridAutomaton:
    """The product of copies of models/login.hav, every name suffixed by
    one of `tags`, with the constants 60 and 10 set to `limit` and `backoff`."""
    source = (MODELS / "login.hav").read_text()
    constants = {"60": str(limit), "10": str(backoff)}
    source = _LOGIN_CONSTANTS.sub(lambda m: constants[m.group()], source)
    parts = [_LOGIN_NAMES.sub(rf"\g<1>{tag}", source) for tag in tags]
    members = ", ".join(f"login{tag}" for tag in tags)
    doc = parse_model("\n".join(parts) + f"network all {{ {members} }}\n")
    return product(doc.network("all"))


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


def ltl_golden_inputs():
    """The formulas whose LTL-layer values `test_golden` pins: 600 seeded
    random ones, `G F p0 && … && G F p5`, and the negated m = 5 fairness
    formula."""
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
    the landed state, then intern the chain region itself. A state that
    fires nothing gets its stutter self-loop there, in the place of its
    transitions. Returns the parts of `region_graph`'s result that must
    come out identical.
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
    transitions: list = []
    edge_refs: list = []
    deadlocks = set()
    while queue:
        mode, region = queue.popleft()
        src = ids[(mode, region)]
        fired: dict = {}
        for r in time_successor_chain(region):
            if not region_satisfies(r, a.invariant(mode)):
                break
            for edge in a.transitions:
                if edge.source != mode or not region_satisfies(r, edge.guard):
                    continue
                landed = reset_region(r, edge.jump.reset)
                if region_satisfies(landed, a.invariant(edge.target)):
                    fired[(edge_index[edge], intern(edge.target, landed))] = None
            intern(mode, r)
        for ei, dst in fired:
            transitions.append((src, a.transitions[ei].action, dst))
            edge_refs.append(a.transitions[ei])
        if not fired:
            transitions.append((src, STUTTER_ACTION, src))
            edge_refs.append(None)
            deadlocks.add(src)

    return {
        "state_info": info, "initial": frozenset(initial), "transitions": transitions,
        "edge_refs": edge_refs, "deadlocks": frozenset(deadlocks),
        "bound": region_count_bound(len(a.modes), len(a.variables), k),
    }


# --------------------------------------------------- linear solver oracle

def reference_solve(system: LinearSystem) -> Optional[Solution]:
    """`LinearSystem.solve` with each equality substituted into every row.

    After each equality, every pending row and every inequality kept so far
    is rewritten, whether it mentions the substituted variable or not. The
    pivot choice, Fourier-Motzkin and the witness are those of `solve`, so
    the two must return the same values and intervals.
    """
    rows = [(dict(c.coeffs), c.op, c.rhs) for c in system.constraints]

    # equality substitution: x_k = (rhs - rest)/coef
    substitutions: list[tuple[int, dict[int, Fraction], Fraction]] = []
    inequalities: list[tuple[dict[int, Fraction], str, Fraction]] = []
    pending = rows
    while pending:
        coeffs, op, rhs = pending.pop(0)
        if op != EQ:
            inequalities.append((coeffs, op, rhs))
            continue
        if not coeffs:
            if rhs != 0:
                return None
            continue
        k = max(coeffs)
        ck = coeffs.pop(k)
        expr = {i: -c / ck for i, c in coeffs.items()}
        const = rhs / ck
        substitutions.append((k, expr, const))

        # substitute x_k := expr + const into everything not yet processed
        def apply(row):
            rc, rop, rr = row
            f = rc.pop(k, Fraction(0))
            if f:
                for i, c in expr.items():
                    nc = rc.get(i, Fraction(0)) + f * c
                    if nc == 0:
                        rc.pop(i, None)
                    else:
                        rc[i] = nc
                rr = rr - f * const
            return rc, rop, rr

        pending = [apply(r) for r in pending]
        inequalities = [apply(r) for r in inequalities]

    # Fourier-Motzkin on the inequalities
    eliminated_vars = sorted({i for c, _, _ in inequalities for i in c}, reverse=True)
    bounds: dict[int, tuple[list, list]] = {}
    current = inequalities
    for k in eliminated_vars:
        lowers, uppers, rest = [], [], []
        for coeffs, op, rhs in current:
            ck = coeffs.get(k)
            if not ck:
                rest.append((coeffs, op, rhs))
                continue
            expr = {i: -c / ck for i, c in coeffs.items() if i != k}
            const = rhs / ck
            if ck > 0:
                uppers.append((expr, const, op))  # x_k op const + expr
            else:
                lowers.append((expr, const, op))  # x_k flip(op) const + expr
        bounds[k] = (lowers, uppers)
        for lexpr, lconst, lop in lowers:
            for uexpr, uconst, uop in uppers:
                coeffs = dict(lexpr)
                for i, c in uexpr.items():
                    nc = coeffs.get(i, Fraction(0)) - c
                    if nc == 0:
                        coeffs.pop(i, None)
                    else:
                        coeffs[i] = nc
                op = LT if LT in (lop, uop) else LE
                rest.append((coeffs, op, uconst - lconst))
        current = rest

    for coeffs, op, rhs in current:
        assert not coeffs
        if op == LE and not rhs >= 0:
            return None
        if op == LT and not rhs > 0:
            return None

    values: dict[int, Fraction] = {}
    intervals: dict[int, tuple[Optional[Fraction], Optional[Fraction]]] = {}

    def evaluate(expr: dict[int, Fraction], const: Fraction) -> Fraction:
        return const + sum((c * values[i] for i, c in expr.items()), Fraction(0))

    for k in reversed(eliminated_vars):
        lowers, uppers = bounds[k]
        lo = hi = None
        lo_strict = hi_strict = False
        for expr, const, op in lowers:
            v = evaluate(expr, const)
            if lo is None or v > lo or (v == lo and op == LT):
                lo, lo_strict = v, op == LT
        for expr, const, op in uppers:
            v = evaluate(expr, const)
            if hi is None or v < hi or (v == hi and op == LT):
                hi, hi_strict = v, op == LT
        intervals[k] = (lo, hi)
        if lo is None and hi is None:
            values[k] = Fraction(0)
        elif hi is None:
            values[k] = lo + 1 if lo_strict else lo
        elif lo is None:
            values[k] = hi - 1 if hi_strict else hi
        elif lo == hi:
            values[k] = lo
        else:
            values[k] = (lo + hi) / 2

    for k, expr, const in reversed(substitutions):
        v = const + sum((c * values.get(i, Fraction(0)) for i, c in expr.items()), Fraction(0))
        values[k] = v
        intervals[k] = (v, v)

    out_values = [values.get(i, Fraction(0)) for i in range(system.nvars)]
    out_intervals = [intervals.get(i, (None, None)) for i in range(system.nvars)]
    sol = Solution(out_values, out_intervals)
    assert system.satisfied_by(sol.values), "witness must satisfy every constraint"
    return sol


# ------------------------------------------------ reference Büchi translation

class _ReferenceNode:
    __slots__ = ("nid", "incoming", "new", "old", "next")

    def __init__(self, nid, incoming, new, old, nxt):
        self.nid = nid
        self.incoming = incoming
        self.new = new
        self.old = old
        self.next = nxt


def _reference_expand(root: _ReferenceNode, nodes: list[_ReferenceNode], counter) -> None:
    """Expand `root` and every node it spawns, depth first; every kept node's
    next set is expanded again, even when an earlier node already expanded it.

    A split expands its new branch before the rest of the node, which waits
    on an explicit stack instead of the call stack, so a deep tableau cannot
    exhaust Python's recursion limit. A finished node whose `old` and `next`
    match a kept node's merges into it; kept nodes are indexed by those two
    sets, which never change once a node is kept. Pending formulas are
    taken in the order of their text, rendered once per formula.
    """
    kept: dict[tuple[frozenset, frozenset], _ReferenceNode] = {}
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
                node = _ReferenceNode(next(counter), {node.nid}, set(node.next), set(), set())
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
            branch = _ReferenceNode(next(counter), set(node.incoming),
                                    node.new | (new1 - node.old),
                                    node.old | {eta}, node.next | next1)
            # the branch shares no set with the node, so the node's own
            # update can come first; it resumes once the branch is done
            node.old.add(eta)
            node.new |= new2 - node.old
            pending.append(node)
            node = branch


def reference_tableau(core: LtlFormula) -> list[_ReferenceNode]:
    """The kept tableau nodes of the NNF formula `core`, each next set
    expanded once per node that asks for it."""
    counter = itertools.count()
    nodes: list[_ReferenceNode] = []
    _reference_expand(_ReferenceNode(next(counter), {_INIT}, {core}, set(), set()), nodes, counter)
    return nodes


def _reference_core(f: LtlFormula, kids: list[LtlFormula]) -> LtlFormula:
    """Rewrite an NNF formula into the tableau core: F a = true U a, G a = false R a."""
    if isinstance(f, Eventually):
        return Until(TrueConst(), kids[0])
    if isinstance(f, Always):
        return Release(FalseConst(), kids[0])
    if isinstance(f, Not) or not kids:
        return f  # NNF: a negation's operand is a proposition
    return type(f)(*kids)


def reference_buchi(phi: LtlFormula) -> BuchiAutomaton:
    """Büchi automaton whose accepted words over 2^AP are the models of phi.

    The reference for `translate_to_buchi`: the tableau without F/G
    collapsing and node merging, which expands a next set again for every
    node asking for it, degeneralized by counters into one acceptance set.

    May be exponential in the formula size. A fresh non-accepting initial
    state carries the first letter's constraints on its outgoing edges.
    """
    core = fold(to_nnf(phi), _reference_core)
    ap = propositions(core)
    nodes = reference_tableau(core)

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
                              (frozenset(states),), ap, display)

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
    return BuchiAutomaton(states, frozenset({0}), tuple(transitions), (accepting,), ap, display)


def reference_accepts_lasso(automaton: BuchiAutomaton, sigma: Lasso) -> bool:
    """Acceptance of sigma: `scc_nonempty` on the product of the automaton
    with the lasso positions, over every transition whose guard matches,
    not over the pruned `BuchiAutomaton.moves`."""
    def successors(node):
        pos, q = node
        letter = sigma.letter(pos)
        return [((sigma.successor(pos), t.target), None) for t in automaton.transitions
                if t.source == q and t.guard.matches(letter)]

    accepting = tuple({(pos, q) for pos in range(sigma.positions) for q in states}
                      for states in automaton.accepting)
    return scc_nonempty(SimpleNamespace(initial=[(0, q) for q in sorted(automaton.initial)],
                                        successors=successors, accepting=accepting))


# ---------------------------------------------------------------- SCC oracle

def scc_nonempty(graph) -> bool:
    """Independent emptiness check: a reachable nontrivial SCC (or self-loop)
    that meets every set in `graph.accepting`; Tarjan, not the library's
    on-the-fly search."""
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
                if all(any(m in nodes for m in comp) for nodes in graph.accepting):
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
