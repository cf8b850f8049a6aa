"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive results by different means than the
library: SCC-based emptiness instead of nested DFS, exhaustive lasso
enumeration instead of the Büchi pipeline, dense sampling instead of
Fourier-Motzkin, substitution into every row instead of an occurrence index.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import deque
from fractions import Fraction
from pathlib import Path
from typing import Optional

from hav.compose import product
from hav.linsolve import EQ, LE, LT, LinearSystem, Solution
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
