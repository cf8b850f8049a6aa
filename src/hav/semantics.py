"""Exact concrete semantics: successors, simulation, bounded reachability,
symbolic path feasibility, run-time analysis, and the bouncing-ball closed form.

Bounded reachability and the configuration graph are one layered search of
`hav.graph` over menu delays and enabled jumps.

All delays and values are exact rationals. Invariants are convex conjunctions
and flows are linear in time, so invariant checks at segment endpoints are
sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import (
    GuardFailed, HavError, InvariantViolated, NonConstantFlow,
    SimulationError, TargetInvariantFailed,
)
from .graph import Exploration, explore
from .kripke import FiniteKripke, KripkeTransition
from .linsolve import LinearSystem
from .model import (
    Configuration, HybridAutomaton, RateConst, Transition, mode_text,
)
from .rational import sqrt_rational


def _const_rates(a: HybridAutomaton, mode) -> dict[str, Fraction]:
    rates = {}
    for var in a.variables:
        r = a.rate(mode, var)
        if not isinstance(r, RateConst):
            raise NonConstantFlow(
                f"rate of {var!r} in mode {mode_text(mode)} is {r}, not a constant")
        rates[var] = Fraction(r.value)
    return rates


def timed_successor(c: Configuration, t: Fraction, a: HybridAutomaton) -> Configuration:
    """Let t >= 0 time elapse in c's mode under constant rates.

    The invariant is checked at both endpoints, which suffices for convex
    invariants under linear flows.
    """
    t = Fraction(t)
    if t < 0:
        raise ValueError("negative delay")
    rates = _const_rates(a, c.mode)
    inv = a.invariant(c.mode)
    if not inv.holds(c.valuation):
        raise InvariantViolated(f"invariant of {mode_text(c.mode)} fails at delay start")
    after = c.valuation.updated({x: c.valuation[x] + rates[x] * t for x in a.variables})
    if not inv.holds(after):
        raise InvariantViolated(f"invariant of {mode_text(c.mode)} fails after delay {t}")
    return Configuration(c.mode, after)


def discrete_successor(c: Configuration, edge: Transition, a: HybridAutomaton) -> Configuration:
    """Take a guarded edge: apply resets, keep other variables."""
    if edge.source != c.mode:
        raise HavError(f"edge {edge} does not start in mode {mode_text(c.mode)}")
    if not edge.guard.holds(c.valuation):
        raise GuardFailed(f"guard of {edge} fails at {c.valuation}")
    after = edge.jump.apply(c.valuation)
    if not a.invariant(edge.target).holds(after):
        raise TargetInvariantFailed(f"invariant of {mode_text(edge.target)} fails after {edge}")
    return Configuration(edge.target, after)


@dataclass(frozen=True)
class RunStep:
    delay: Fraction
    edge: Transition
    config: Configuration


@dataclass(frozen=True)
class Run:
    """Alternating delay/edge trajectory validated step by step."""

    start: Configuration
    steps: tuple[RunStep, ...]

    @property
    def delays(self) -> list[Fraction]:
        return [s.delay for s in self.steps]

    @property
    def configurations(self) -> list[Configuration]:
        return [self.start] + [s.config for s in self.steps]

    @property
    def last(self) -> Configuration:
        return self.steps[-1].config if self.steps else self.start


def initial_configuration(a: HybridAutomaton, mode=None) -> Configuration:
    mode = mode if mode is not None else sorted(a.initial_modes, key=mode_text)[0]
    if mode not in a.initial_modes:
        raise HavError(f"{mode_text(mode)} is not an initial mode")
    v = a.initial_valuation()
    if not a.invariant(mode).holds(v):
        raise InvariantViolated(f"initial valuation violates invariant of {mode_text(mode)}")
    return Configuration(mode, v)


def simulate(a: HybridAutomaton, script: Sequence[tuple[Fraction, Transition]],
             start: Optional[Configuration] = None) -> Run:
    """Run a (delay, edge) script; fails at the first violated condition.

    The script must start in an initial mode (or in `start`'s mode).
    """
    if start is None:
        first_mode = script[0][1].source if script else None
        start = initial_configuration(a, first_mode)
    current = start
    steps = []
    for index, (delay, edge) in enumerate(script):
        try:
            current = timed_successor(current, delay, a)
            current = discrete_successor(current, edge, a)
        except HavError as exc:
            raise SimulationError(index, exc) from exc
        steps.append(RunStep(Fraction(delay), edge, current))
    return Run(start, tuple(steps))


@dataclass
class ReachResult:
    configurations: frozenset[Configuration]
    exceeded: bool


def _explore(a: HybridAutomaton, delay_menu: Iterable[Fraction],
             step_budget: int) -> Exploration:
    """Layered search from the initial configurations over menu delays and
    enabled jumps, `step_budget` layers deep."""
    menu = sorted(Fraction(d) for d in delay_menu)
    initial = sorted((initial_configuration(a, m) for m in a.initial_modes),
                     key=lambda c: (mode_text(c.mode), sorted(c.valuation.items())))

    def successors(c: Configuration):
        for d in menu:
            try:
                yield timed_successor(c, d, a), "delay"
            except (InvariantViolated, HavError):
                continue
        for edge in a.edges_from(c.mode):
            try:
                yield discrete_successor(c, edge, a), edge.action
            except (GuardFailed, TargetInvariantFailed):
                continue

    return explore(initial, successors, step_budget)


def bounded_reach(a: HybridAutomaton, step_budget: int,
                  delay_menu: Iterable[Fraction]) -> ReachResult:
    """Configurations within `step_budget` steps over discrete edges and menu delays.

    Requires constant rates. The exceeded flag is set when the frontier is
    still growing at the cap.
    """
    found = _explore(a, delay_menu, step_budget)
    return ReachResult(frozenset(found.nodes), exceeded=found.open)


def configuration_graph(a: HybridAutomaton, delay_menu: Iterable[Fraction],
                        step_budget: int) -> FiniteKripke:
    """Explicit configuration graph (the automaton's semantics at menu granularity).

    Nodes are exact configurations, edges are menu delays and enabled jumps;
    exploration stops at the step budget.
    """
    found = _explore(a, delay_menu, step_budget)
    ids = {c: i for i, c in enumerate(found.nodes)}
    display = {}
    labels = {}
    for c, i in ids.items():
        vals = " ".join(f"{k}={v}" for k, v in sorted(c.valuation.items()))
        display[i] = f"{mode_text(c.mode)} {vals}".strip()
        labels[i] = a.labels[c.mode]
    edges = {(ids[c], action, ids[succ]) for c, action, succ in found.edges}
    return FiniteKripke(
        states=tuple(range(len(ids))),
        initial=frozenset(ids[initial_configuration(a, m)] for m in a.initial_modes),
        transitions=tuple(KripkeTransition(s, act, t) for s, act, t in sorted(edges)),
        labels=labels,
        display=display,
        propositions=a.propositions,
    )


@dataclass(frozen=True)
class PathQuery:
    """Explicit edge sequence; self-loops appear once per traversal.

    `fixed_delays` pins individual delays: a map from edge index to value.
    """

    edges: tuple[Transition, ...]
    fixed_delays: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self):
        for prev, nxt in zip(self.edges, self.edges[1:]):
            if prev.target != nxt.source:
                raise ValueError(f"edges do not chain: {prev} then {nxt}")


@dataclass
class PathFeasibility:
    feasible: bool
    delays: Optional[list[Fraction]] = None
    #: residual interval per delay; zero-width everywhere means a forced schedule
    intervals: Optional[list] = None

    def unique(self) -> bool:
        return bool(self.feasible and
                    all(lo is not None and lo == hi for lo, hi in self.intervals))


class _Affine:
    """const + sum coeff[i] * t_i with exact rational coefficients."""

    __slots__ = ("const", "coeffs")

    def __init__(self, const: Fraction, coeffs: Optional[dict[int, Fraction]] = None):
        self.const = const
        self.coeffs = coeffs or {}

    def plus_rate(self, rate: Fraction, var_index: int) -> "_Affine":
        coeffs = dict(self.coeffs)
        coeffs[var_index] = coeffs.get(var_index, Fraction(0)) + rate
        return _Affine(self.const, coeffs)


def path_feasible(a: HybridAutomaton, query: PathQuery,
                  start: Optional[Configuration] = None) -> PathFeasibility:
    """Decide whether the edge sequence admits nonnegative delays.

    Variable values along the path are affine in the delays; guards are
    imposed at edge instants, invariants at segment endpoints, jumps as
    resets. On success the witness picks interval midpoints deterministically.
    """
    edges = query.edges
    if not edges:
        raise ValueError("empty path query")
    if start is None:
        start = initial_configuration(a, edges[0].source)
    if edges[0].source != start.mode:
        raise HavError("path does not start in the start configuration's mode")

    n = len(edges)
    system = LinearSystem(n)
    values: dict[str, _Affine] = {x: _Affine(start.valuation[x]) for x in a.variables}

    def impose(pred, env: dict[str, _Affine]):
        for atom in pred.conjuncts:
            expr = env[atom.var]
            coeffs = dict(expr.coeffs)
            const = expr.const
            if atom.var2 is not None:
                other = env[atom.var2]
                for i, c in other.coeffs.items():
                    coeffs[i] = coeffs.get(i, Fraction(0)) - c
                const -= other.const
            system.add(coeffs, atom.op, Fraction(atom.const) - const)

    impose(a.invariant(edges[0].source), values)
    for i, edge in enumerate(edges):
        system.add({i: Fraction(1)}, ">=", 0)
        rates = _const_rates(a, edge.source)
        at_edge = {x: values[x].plus_rate(rates[x], i) for x in a.variables}
        impose(a.invariant(edge.source), at_edge)
        impose(edge.guard, at_edge)
        after = {}
        for x in a.variables:
            reset = edge.jump.value_of(x)
            after[x] = _Affine(Fraction(reset)) if reset is not None else at_edge[x]
        impose(a.invariant(edge.target), after)
        values = after
    for index, delay in query.fixed_delays:
        system.add({index: Fraction(1)}, "=", delay)

    solution = system.solve()
    if solution is None:
        return PathFeasibility(False)
    return PathFeasibility(True, solution.values, solution.intervals)


def total_time(run_or_delays) -> Fraction:
    """Exact sum of a finite delay sequence (or a Run's delays)."""
    delays = run_or_delays.delays if isinstance(run_or_delays, Run) else run_or_delays
    return sum((Fraction(d) for d in delays), Fraction(0))


TIME_DIVERGING = "time-diverging"
ZENO_SUSPECT = "zeno-suspect"


@dataclass(frozen=True)
class LassoTime:
    stem_time: Fraction
    loop_time: Fraction

    @property
    def verdict(self) -> str:
        return TIME_DIVERGING if self.loop_time > 0 else ZENO_SUSPECT

    @property
    def limit(self) -> Optional[Fraction]:
        """Total time of the infinite run; None marks divergence."""
        return None if self.loop_time > 0 else self.stem_time


def lasso_total_time(stem_delays, loop_delays) -> LassoTime:
    return LassoTime(total_time(stem_delays), total_time(loop_delays))


@dataclass
class BallTrajectory:
    first_impact: Fraction
    exact: bool
    impact_times: list[Fraction]
    zeno_time: Optional[Fraction]  # None marks a time-diverging bounce sequence

    @property
    def verdict(self) -> str:
        return TIME_DIVERGING if self.zeno_time is None else ZENO_SUSPECT


def bouncing_ball(drop_height: Fraction, restitution: Fraction,
                  gravity: Fraction, bounces: int) -> BallTrajectory:
    """Closed-form impact times for a ball dropped from rest.

    First impact at sqrt(2*height/gravity): exact when that is a rational
    square, else certified to 1e-12. The gap after the k-th impact is
    2*c^k*t1; the impact times converge to t1*(1+c)/(1-c) for c < 1 and
    diverge for c = 1.
    """
    drop_height = Fraction(drop_height)
    restitution = Fraction(restitution)
    gravity = Fraction(gravity)
    if drop_height <= 0:
        raise ValueError("drop height must be positive")
    if gravity <= 0:
        raise ValueError("gravity must be positive")
    if not 0 <= restitution <= 1:
        raise ValueError("restitution must lie in [0, 1]")
    t1, exact = sqrt_rational(2 * drop_height / gravity)
    if restitution == 0:
        return BallTrajectory(t1, exact, [t1], t1)
    times = [t1]
    gap = 2 * restitution * t1
    for _ in range(max(0, bounces - 1)):
        times.append(times[-1] + gap)
        gap *= restitution
    zeno = None if restitution == 1 else t1 * (1 + restitution) / (1 - restitution)
    return BallTrajectory(t1, exact, times, zeno)
