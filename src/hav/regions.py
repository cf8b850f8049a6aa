"""Clock-region equivalence and the region graph of a timed automaton.

A region fixes each clock's integer part up to the constant K (or marks it
above K), which clocks sit exactly on an integer, and the weak order of the
remaining fractional parts. The induced quotient is a finite bisimulation of
the dense semantics, so the region graph is a faithful finite Kripke
structure for diagonal-free timed automata.
"""

from __future__ import annotations

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

    @property
    def clocks(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.ipart) | self.above

    def integer_part(self, clock: str) -> Optional[int]:
        for name, i in self.ipart:
            if name == clock:
                return i
        return None

    def sort_key(self):
        return (self.ipart, tuple(sorted(self.zero)),
                tuple(tuple(sorted(b)) for b in self.order), tuple(sorted(self.above)))

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


@dataclass
class RegionGraph:
    """Region abstraction result: the Kripke structure plus provenance.

    `state_info[i]` is the (mode, region) behind Kripke state i;
    `edge_refs[j]` is the automaton transition behind Kripke transition j
    (None for the stutter self-loops added on deadlock states).
    """

    kripke: FiniteKripke
    state_info: list[tuple[object, Region]]
    edge_refs: list[Optional[Transition]]
    k: int
    bound: int
    deadlocks: frozenset[int]


def region_graph(a: HybridAutomaton, labeling: Optional[dict] = None,
                 k: Optional[int] = None) -> RegionGraph:
    """Finite Kripke structure of a diagonal-free timed automaton.

    One Kripke transition per (delay*, edge) pair: from (m, r), each region
    r' on r's invariant-respecting time-successor chain may fire each edge
    enabled at r'. Every region on that chain is interned as a state too.
    Deadlock states get a reserved stutter self-loop so every state has an
    infinite trace.

    Successors and firing lists are memoised per region. Each distinct
    region is built once (and validated then, like every Region), gets a
    small id, and has its time successor computed once per id. Each state,
    a (mode, region id) pair, checks its invariant, guards, resets and
    target invariants once, the first time a walk reaches it, and keeps the
    edges it fires and the next state on its chain; later walks replay
    those lists. The first walk interns in chain order (each landed state,
    then the chain region), so state ids and the order of transitions are
    those of walking every chain afresh.
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
    labels = labeling if labeling is not None else a.labels

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

    # states by id, keyed by (mode, region id); per state, `fired` holds the
    # (edge index, target state) pairs its region fires and `later` the state
    # of the next region on its chain (-1 where the chain ends); None until
    # a walk first passes the state
    ids: dict[tuple, int] = {}
    keys: list[tuple] = []
    info: list[tuple[object, Region]] = []
    fired: list[Optional[list[tuple[int, int]]]] = []
    later: list[Optional[int]] = []
    queue: deque = deque()

    def intern(mode, rid: int) -> int:
        key = (mode, rid)
        got = ids.get(key)
        if got is None:
            got = len(info)
            ids[key] = got
            keys.append(key)
            info.append((mode, regions[rid]))
            fired.append(None)
            later.append(None)
            queue.append(got)
        return got

    edge_index = {t: i for i, t in enumerate(a.transitions)}
    outgoing = {m: [(edge_index[t], t) for t in a.edges_from(m)] for m in a.modes}

    def fire(mode, rid: int) -> Optional[list[tuple[int, int]]]:
        """None if the region breaks the mode's invariant; else intern the
        landed state of each enabled edge, in order, and list them."""
        region = regions[rid]
        if not region_satisfies(region, a.invariant(mode)):
            return None
        out = []
        for ei, edge in outgoing[mode]:
            if not region_satisfies(region, edge.guard):
                continue
            landed = reset_region(region, edge.jump.reset)
            if region_satisfies(landed, a.invariant(edge.target)):
                out.append((ei, intern(edge.target, region_id(landed))))
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

    mode_order = {m: i for i, m in enumerate(a.modes)}
    start = region_id(zero_region(a.variables, kk))
    initial_states = []
    for m in sorted(a.initial_modes, key=lambda m: mode_order[m]):
        if region_satisfies(regions[start], a.invariant(m)):
            initial_states.append(intern(m, start))
    if not initial_states:
        raise WrongClass("no initial state satisfies its mode invariant")

    # A walk from src fires every edge from every region on src's chain. The
    # first walk through a state interns each landed state, then the state
    # itself, in chain order; later walks replay the memoised lists.
    transitions: dict[tuple[int, int, int], None] = {}
    while queue:
        src = state = queue.popleft()
        if fired[src] is None:
            fired[src] = fire(*keys[src])
        while state >= 0:
            for ei, dst in fired[state]:
                transitions[(src, ei, dst)] = None
            following = later[state]
            state = step(state) if following is None else following

    ktransitions: list[KripkeTransition] = []
    edge_refs: list[Optional[Transition]] = []
    has_out = set()
    for (src, ei, dst) in transitions:
        ktransitions.append(KripkeTransition(src, a.transitions[ei].action, dst))
        edge_refs.append(a.transitions[ei])
        has_out.add(src)
    deadlocks = frozenset(i for i in range(len(info)) if i not in has_out)
    for s in sorted(deadlocks):
        ktransitions.append(KripkeTransition(s, STUTTER_ACTION, s))
        edge_refs.append(None)

    kripke = FiniteKripke(
        states=tuple(range(len(info))),
        initial=frozenset(initial_states),
        transitions=tuple(ktransitions),
        labels={i: frozenset(labels[m]) for i, (m, _) in enumerate(info)},
        display={i: f"{mode_text(m)} | {r}" for i, (m, r) in enumerate(info)},
    )
    bound = region_count_bound(len(a.modes), len(a.variables), kk)
    return RegionGraph(kripke, info, edge_refs, kk, bound, deadlocks)
