"""Clock-region equivalence and the region graph of a timed automaton.

A region fixes each clock's integer part up to the constant K (or marks it
above K), which clocks sit exactly on an integer, and the weak order of the
remaining fractional parts. The induced quotient is a finite bisimulation of
the dense semantics, so the region graph is a faithful finite Kripke
structure for diagonal-free timed automata.

The region graph is walked on demand: a model checker asks for the
successors of the states it reaches, and the breadth-first walk goes only as
far as those states, giving the same state and transition ids as a full
build. Reading `states` finishes the walk; `kripke` copies the finished
graph into a `FiniteKripke` for DOT output.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Mapping, Optional

from .errors import DiagonalUnsupported, NegativeClock, WrongClass
from .kripke import STUTTER_ACTION, FiniteKripke, KripkeTransition
from .model import (
    AutomatonClass, HybridAutomaton, Predicate, Transition, classify,
    max_constant, mode_text,
)


@dataclass(frozen=True)
class Region:
    """Canonical clock region for the constant k.

    `ipart` lists bounded clocks (value <= k) with their integer parts;
    `zero` are the bounded clocks with fractional part 0; `order` holds the
    equal-fraction blocks of the remaining bounded clocks in increasing
    fractional order; `above` are the clocks beyond k.
    """

    k: int
    ipart: tuple[tuple[str, int], ...]
    zero: frozenset[str]
    order: tuple[frozenset[str], ...]
    above: frozenset[str]

    def __post_init__(self):
        bounded = {name for name, _ in self.ipart}
        fractional = set()
        for block in self.order:
            if not block:
                raise ValueError("empty fractional block")
            if fractional & block:
                raise ValueError("fractional blocks must be disjoint")
            fractional |= block
        if self.zero | fractional != bounded or (self.zero & fractional):
            raise ValueError("zero/fractional clocks must partition the bounded clocks")
        if self.above & bounded:
            raise ValueError("a clock cannot be both bounded and above k")
        for name, i in self.ipart:
            if not 0 <= i <= self.k:
                raise ValueError(f"integer part of {name} out of range")
            if i == self.k and name not in self.zero:
                raise ValueError(f"{name} has integer part k but a nonzero fraction")

    def integer_part(self, clock: str) -> Optional[int]:
        for name, i in self.ipart:
            if name == clock:
                return i
        return None

    def __str__(self) -> str:
        parts = []
        for name, i in self.ipart:
            parts.append(f"{name}={i}" if name in self.zero else f"{i}<{name}<{i + 1}")
        parts.extend(f"{name}>{self.k}" for name in sorted(self.above))
        text = " ".join(parts) if parts else "()"
        if len(self.order) > 1:
            chain = " < ".join("{" + ",".join(sorted(b)) + "}" for b in self.order)
            text += f" [fr {chain}]"
        return text


def region_of(valuation: Mapping[str, Fraction], k: int) -> Region:
    """The canonical region containing a nonnegative clock valuation."""
    ipart = []
    zero = set()
    above = set()
    fractions: dict[Fraction, set[str]] = {}
    for name in sorted(valuation):
        value = Fraction(valuation[name])
        if value < 0:
            raise NegativeClock(f"clock {name} is negative: {value}")
        if value > k:
            above.add(name)
            continue
        i = value.numerator // value.denominator
        frac = value - i
        ipart.append((name, i))
        if frac == 0:
            zero.add(name)
        else:
            fractions.setdefault(frac, set()).add(name)
    order = tuple(frozenset(fractions[f]) for f in sorted(fractions))
    return Region(k, tuple(ipart), frozenset(zero), order, frozenset(above))


def time_successor(region: Region) -> Region:
    """The immediate successor region under time elapse (fixpoint when all > k)."""
    bounded = dict(region.ipart)
    if not bounded:
        return region
    if region.zero:
        gone = frozenset(x for x in region.zero if bounded[x] == region.k)
        stay = region.zero - gone
        ipart = tuple((n, i) for n, i in region.ipart if n not in gone)
        order = ((stay,) + region.order) if stay else region.order
        return Region(region.k, ipart, frozenset(), order, region.above | gone)
    last = region.order[-1]
    ipart = tuple((n, i + 1 if n in last else i) for n, i in region.ipart)
    return Region(region.k, ipart, last, region.order[:-1], region.above)


def time_successor_chain(region: Region) -> list[Region]:
    """region, its successor, ... up to and including the all-above fixpoint."""
    out = [region]
    while True:
        nxt = time_successor(out[-1])
        if nxt == out[-1]:
            return out
        out.append(nxt)


def reset_region(region: Region, clocks) -> Region:
    clocks = frozenset(clocks)
    if not clocks:
        return region
    ipart = tuple(sorted([(n, i) for n, i in region.ipart if n not in clocks] +
                         [(n, 0) for n in clocks]))
    zero = (region.zero - clocks) | clocks
    order = tuple(b - clocks for b in region.order if b - clocks)
    return Region(region.k, ipart, frozenset(zero), order, region.above - clocks)


def zero_region(clocks, k: int) -> Region:
    names = tuple(sorted(clocks))
    return Region(k, tuple((n, 0) for n in names), frozenset(names), (), frozenset())


def _atom_holds(region: Region, atom) -> bool:
    if atom.var2 is not None:
        raise DiagonalUnsupported(
            f"region abstraction cannot decide {atom} once clocks pass k")
    c = atom.const
    if c > region.k:
        raise ValueError(f"constant {c} exceeds the region constant {region.k}")
    if atom.var in region.above:
        # value > k >= c
        return atom.op in (">=", ">")
    i = region.integer_part(atom.var)
    if i is None:
        raise ValueError(f"unknown clock {atom.var}")
    if atom.var in region.zero:
        value = Fraction(i)
        return atom.holds({atom.var: value})
    # i < value < i + 1
    if atom.op in ("<", "<="):
        return c >= i + 1
    if atom.op in (">", ">="):
        return c <= i
    return False  # equality needs a zero fraction


def region_satisfies(region: Region, pred: Predicate) -> bool:
    return all(_atom_holds(region, atom) for atom in pred.conjuncts)


def region_count_bound(modes: int, clocks: int, k: int) -> int:
    """|M| * |X|! * 2^|X| * (2k+2)^|X|."""
    return modes * factorial(clocks) * (2 ** clocks) * ((2 * k + 2) ** clocks)


def _walked() -> bool:
    return False


class RegionGraph:
    """Region graph of a timed automaton, walked on demand; build it with
    `region_graph`.

    States are (mode, region) pairs with dense ids in breadth-first order.
    `successors(s)`, `label(s)`, `mode(s)`, `name(s)`, `edge_ref(e)` and
    `action(e)` walk the graph only until state s, or the state behind
    transition e, has been walked, so a search that stops early leaves the
    rest unbuilt. `states`, `state_info`, `edge_refs`, `deadlocks` and
    `kripke` finish the walk. The walk keeps its region arithmetic per
    region id, not per state: the truth of each invariant and guard, and the
    landed region of each reset set, are computed once per region.

    Transitions are numbered when the walk reaches their source, and so is
    the stutter self-loop of a deadlock state: every accessor, `kripke`
    included, uses the one numbering. `state_info[i]` is the (mode, region)
    behind state i; `edge_refs[j]` is the automaton transition behind
    transition j (None for a stutter self-loop). `kripke` is a
    `FiniteKripke` copy of the finished graph, built for DOT output.
    `propositions` are the ones the automaton declares, reached or not.
    """

    def __init__(self, a: HybridAutomaton, k: int):
        self.k = k
        self.bound = region_count_bound(len(a.modes), len(a.variables), k)
        self.propositions = a.propositions
        self._automaton = a
        self._mode_labels = {m: frozenset(a.labels[m]) for m in a.modes}

        # regions by id; successor[i] is the id of regions[i]'s time successor
        # (-1 until first asked for), equal to i at the all-above fixpoint
        region_ids: dict[Region, int] = {}
        regions: list[Region] = []
        successor: list[int] = []

        def region_id(region: Region) -> int:
            got = region_ids.get(region)
            if got is None:
                got = len(regions)
                region_ids[region] = got
                regions.append(region)
                successor.append(-1)
            return got

        # states by id, keyed by (mode, region id); per state, `fired`, the
        # (edge index, target state) pairs its region fires, and `later`,
        # the state of the next region on its chain (-1 where the chain
        # ends); None until a walk first passes the state
        ids: dict[tuple, int] = {}
        keys: list[tuple] = []
        fired: list[Optional[list[tuple[int, int]]]] = []
        later: list[Optional[int]] = []
        queue: deque = deque()

        def intern(mode, rid: int) -> int:
            key = (mode, rid)
            got = ids.get(key)
            if got is None:
                got = len(keys)
                ids[key] = got
                keys.append(key)
                fired.append(None)
                later.append(None)
                queue.append(got)
            return got

        # every invariant and guard, equal ones shared, and every reset set
        # gets a small id; truth[rid * len(preds) + pid] memoises whether
        # region rid satisfies predicate pid, and landing[rid * len(resets)
        # + reset id] the id of the region the reset lands in
        preds: dict[Predicate, int] = {}
        resets: dict[frozenset, int] = {}
        inv = {m: preds.setdefault(a.invariant(m), len(preds)) for m in a.modes}
        edge_index = {t: i for i, t in enumerate(a.transitions)}
        outgoing = {m: [(edge_index[t], preds.setdefault(t.guard, len(preds)),
                         resets.setdefault(t.jump.reset, len(resets)),
                         t.target, inv[t.target]) for t in a.edges_from(m)]
                    for m in a.modes}
        pred_of, reset_of = list(preds), list(resets)
        npreds, nresets = len(pred_of), len(reset_of)
        truth: dict[int, bool] = {}
        landing: dict[int, int] = {}

        def holds(pid: int, rid: int) -> bool:
            key = rid * npreds + pid
            got = truth.get(key)
            if got is None:
                got = truth[key] = region_satisfies(regions[rid], pred_of[pid])
            return got

        def fire(mode, rid: int) -> Optional[list[tuple[int, int]]]:
            """None if the region breaks the mode's invariant; else intern the
            landed state of each enabled edge, in order, and list them."""
            if not holds(inv[mode], rid):
                return None
            out = []
            for ei, guard, reset, target, target_inv in outgoing[mode]:
                if not holds(guard, rid):
                    continue
                key = rid * nresets + reset
                dst = landing.get(key)
                if dst is None:
                    dst = landing[key] = region_id(
                        reset_region(regions[rid], reset_of[reset]))
                if holds(target_inv, dst):
                    out.append((ei, intern(target, dst)))
            return out

        def step(state: int) -> int:
            """The state of the next region on `state`'s chain, or -1."""
            mode, rid = keys[state]
            nxt = successor[rid]
            if nxt < 0:
                nxt = successor[rid] = region_id(time_successor(regions[rid]))
            if nxt == rid:
                following = -1
            else:
                following = ids.get((mode, nxt))
                if following is None or fired[following] is None:
                    fires = fire(mode, nxt)
                    if fires is None:
                        following = -1
                    else:
                        following = intern(mode, nxt)
                        fired[following] = fires
            later[state] = following
            return following

        # per walked state, its sorted (target, transition index) pairs;
        # per transition, in index order, the automaton edge's index (None
        # for a stutter self-loop)
        out: list[list[tuple[int, int]]] = []
        edge_of: list[Optional[int]] = []

        def walk() -> bool:
            """Walk the next queued state; False once every state is walked.

            A walk from src fires every edge from every region on src's
            chain. The first walk through a state interns each landed state,
            then the state itself, in chain order; later walks replay the
            memoised lists. Queued states come in id order, so src's
            transitions, or its stutter self-loop if it fires none, are
            numbered after those of every lower id.
            """
            if not queue:
                return False
            src = state = queue.popleft()
            if fired[src] is None:
                fired[src] = fire(*keys[src])
            pairs: dict[tuple, None] = {}
            while state >= 0:
                for pair in fired[state]:
                    pairs[pair] = None
                following = later[state]
                state = step(state) if following is None else following
            base = len(edge_of)
            pairs = pairs or {(None, src): None}
            edge_of.extend([ei for ei, _ in pairs])
            out.append(sorted([(dst, e) for e, (_, dst) in enumerate(pairs, base)]))
            return True

        self._regions = regions
        self._keys = keys
        self._out = out
        self._edge_of = edge_of
        self._walk = walk

        mode_order = {m: i for i, m in enumerate(a.modes)}
        start = region_id(zero_region(a.variables, k))
        initial_states = []
        for m in sorted(a.initial_modes, key=lambda m: mode_order[m]):
            if holds(inv[m], start):
                initial_states.append(intern(m, start))
        if not initial_states:
            raise WrongClass("no initial state satisfies its mode invariant")
        self.initial = frozenset(initial_states)

    def _walk_to(self, state: int) -> None:
        while len(self._out) <= state and self._walk():
            pass

    def _finish(self) -> None:
        while self._walk():
            pass
        self._walk = _walked  # lets the walk's memo tables go

    @property
    def walked(self) -> int:
        """How many states have been walked so far: every id below it."""
        return len(self._out)

    @property
    def states(self) -> range:
        """Every state id."""
        self._finish()
        return range(len(self._out))

    def successors(self, state: int) -> list[tuple[int, int]]:
        """Sorted (target, transition index) pairs; a deadlock's only pair
        is its stutter self-loop."""
        out = self._out
        if state >= len(out):
            self._walk_to(state)
        return out[state]

    def mode(self, state: int):
        keys = self._keys
        if state >= len(keys):
            self._walk_to(state)
        return keys[state][0]

    def label(self, state: int) -> frozenset[str]:
        keys = self._keys
        if state >= len(keys):
            self._walk_to(state)
        return self._mode_labels[keys[state][0]]

    def name(self, state: int) -> str:
        """The state's name in a counterexample: its mode."""
        return mode_text(self.mode(state))

    def edge_ref(self, edge: int) -> Optional[Transition]:
        """The automaton transition behind transition `edge`; None for a
        stutter self-loop."""
        edge_of = self._edge_of
        while edge >= len(edge_of) and self._walk():
            pass
        ei = edge_of[edge]
        return None if ei is None else self._automaton.transitions[ei]

    def action(self, edge: int) -> str:
        ref = self.edge_ref(edge)
        return STUTTER_ACTION if ref is None else ref.action

    @property
    def state_info(self) -> list[tuple[object, Region]]:
        self._finish()
        regions = self._regions
        return [(mode, regions[rid]) for mode, rid in self._keys]

    @functools.cached_property
    def deadlocks(self) -> frozenset[int]:
        edge_of, out = self._edge_of, self._out
        return frozenset(s for s in self.states if edge_of[out[s][0][1]] is None)

    @functools.cached_property
    def edge_refs(self) -> list[Optional[Transition]]:
        self._finish()
        transitions = self._automaton.transitions
        return [None if ei is None else transitions[ei] for ei in self._edge_of]

    @functools.cached_property
    def kripke(self) -> FiniteKripke:
        """The finished graph as a FiniteKripke, for DOT output."""
        refs = self.edge_refs
        transitions: list = [None] * len(refs)
        for s, edges in enumerate(self._out):
            for t, e in edges:
                ref = refs[e]
                transitions[e] = KripkeTransition(
                    s, STUTTER_ACTION if ref is None else ref.action, t)
        info = self.state_info
        return FiniteKripke(
            states=tuple(self.states),
            initial=self.initial,
            transitions=tuple(transitions),
            labels={s: self._mode_labels[m] for s, (m, _) in enumerate(info)},
            display={s: f"{mode_text(m)} | {r}" for s, (m, r) in enumerate(info)},
            propositions=self.propositions,
            adjacency=dict(enumerate(self._out)),
        )


def region_graph(a: HybridAutomaton, k: Optional[int] = None) -> RegionGraph:
    """Region graph of a diagonal-free timed automaton, walked on demand.

    One Kripke transition per (delay*, edge) pair: from (m, r), each region
    r' on r's invariant-respecting time-successor chain may fire each edge
    enabled at r'. Every region on that chain is interned as a state too.
    A deadlock state gets a stutter self-loop so every state has an infinite
    trace; the loop is numbered where the walk reaches the state, like the
    transitions of any other state. The states declare the automaton's
    propositions, reached or not.

    Only the initial states are built here; the accessors of the result
    walk the rest breadth first as they are asked. Each distinct region
    gets a small id when first met (and is validated when built, like every
    Region). Per region id the walk keeps its time successor, whether it
    satisfies each invariant and guard (equal predicates shared), and the
    region id each reset set lands it in; each is computed when first
    needed, so modes that share a region share the work. Each state, a
    (mode, region id) pair, fires its edges from those tables the first
    time a walk reaches it, and keeps the edges it fires and the next state
    on its chain; later walks replay those lists. The first walk
    interns in chain order (each landed state, then the chain region), so
    state ids and the order of transitions are those of walking every chain
    afresh, however far the walk has gone.
    """
    report = classify(a)
    if report.klass != AutomatonClass.TIMED:
        raise WrongClass(f"region graph needs a timed automaton, got {report.klass.value}")
    for t in a.transitions:
        for atom in t.guard.conjuncts:
            if atom.diagonal:
                raise DiagonalUnsupported(f"diagonal guard {atom} in {t}")
    for m in a.modes:
        for atom in a.invariant(m).conjuncts:
            if atom.diagonal:
                raise DiagonalUnsupported(f"diagonal invariant atom {atom} in {mode_text(m)}")

    kk = max_constant(a) if k is None else k
    if kk < max_constant(a):
        raise ValueError(f"k={kk} is below the automaton's maximum constant")
    return RegionGraph(a, kk)
