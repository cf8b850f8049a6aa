"""End-to-end LTL model checking: negate, translate, product, SCC search.

The synchronized product reads the Kripke label of the *source* state on
every step; the translation's fresh initial Büchi state makes that cover the
first letter as well. The product is explored on demand: the emptiness
check, Couvreur's SCC search over the generalized acceptance sets, asks for
a node's edges only when it reaches the node, and stops at the first
component that meets every set. The Kripke side is asked the same way, so a
region graph is walked only as far as the search goes. Violations come back
as lassos over the product and are re-validated before they are reported.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Optional, Union

from .buchi import BuchiAutomaton, translate_to_buchi
from .errors import UnknownProposition
from .graph import accepting_lasso
from .kripke import FiniteKripke
from .ltl import Lasso, LtlFormula, Not, propositions
from .model import HybridAutomaton, Valuation
from .regions import RegionGraph, region_graph
from .semantics import PathQuery, Run, initial_configuration, path_feasible, simulate

Node = tuple[int, int]  # (kripke state, büchi state)

#: what `check` reads of a structure: `initial`, `propositions` and, per
#: state or transition index, `successors`, `label`, `name` and `action`;
#: `bisim` reads `states`, `initial`, `propositions`, `label` and `successors`
Structure = Union[FiniteKripke, RegionGraph]


@dataclass
class ProductGraph:
    """K x A, edges tagged with the Kripke transition index.

    `accepting` holds one container of product nodes per acceptance set.
    `successors` calls `expand` once per node and keeps the result in
    `adjacency`, which holds exactly the nodes expanded so far.
    """

    initial: tuple[Node, ...]
    accepting: tuple[Container[Node], ...]
    expand: Callable[[Node], list[tuple[Node, int]]]
    adjacency: dict = field(default_factory=dict)

    def successors(self, node: Node) -> list[tuple[Node, int]]:
        out = self.adjacency.get(node)
        if out is None:
            out = self.adjacency[node] = self.expand(node)
        return out


def synchronized_product(k: Structure, b: BuchiAutomaton) -> ProductGraph:
    """States (s, q); a step requires a Büchi edge whose guard matches L(s).

    Nothing is explored here: each node's `((t, q2), edge_index)` list is
    built when a search first reaches the node, in the Kripke structure's
    successor order and, within one Kripke edge, in the Büchi moves' order.
    """
    moves = functools.cache(b.moves)
    label, successors = k.label, k.successors

    def expand(node: Node) -> list[tuple[Node, int]]:
        s, q = node
        q_moves = moves(q, label(s))
        return [((t, q2), edge_index) for t, edge_index in successors(s) for q2 in q_moves]

    initial = tuple(sorted((s, q) for s in k.initial for q in b.initial))
    return ProductGraph(initial, b.product_accepting(), expand)


@dataclass
class ProductLasso:
    """stem_nodes ends at the loop head; loop_edges[-1] closes the cycle."""

    stem_nodes: list[Node]
    stem_edges: list[int]
    loop_nodes: list[Node]
    loop_edges: list[int]


def nested_dfs_emptiness(g: ProductGraph) -> Optional[ProductLasso]:
    """None when no reachable cycle meets every acceptance set, else a validated lasso.

    The search is `graph.accepting_lasso`, Couvreur's SCC search, not nested
    DFS. The name stays, like `ProductGraph.adjacency` and the `ProductLasso`
    fields, because the benchmark tracer (bench/tracing.py) wraps and reads
    them by name; it goes when that tracer is replaced.
    """
    found = accepting_lasso(g.initial, g.successors, g.accepting)
    if found is None:
        return None
    lasso = ProductLasso(*found)
    _validate_lasso(g, lasso)
    return lasso


def _validate_lasso(g: ProductGraph, lasso: ProductLasso) -> None:
    assert lasso.loop_nodes, "loop must be nonempty"
    assert lasso.stem_nodes[0] in g.initial
    assert lasso.stem_nodes[-1] == lasso.loop_nodes[0]
    assert all(any(n in nodes for n in lasso.loop_nodes) for nodes in g.accepting)
    walk = list(zip(lasso.stem_nodes, lasso.stem_nodes[1:], lasso.stem_edges))
    cycle = lasso.loop_nodes + [lasso.loop_nodes[0]]
    walk += list(zip(cycle, cycle[1:], lasso.loop_edges))
    for src, dst, edge_index in walk:
        assert (dst, edge_index) in g.successors(src), "lasso edge not in product"


@dataclass
class CxStep:
    mode: str
    labels: frozenset[str]
    action: str
    delay: Optional[Fraction] = None
    valuation: Optional[Valuation] = None


@dataclass
class Counterexample:
    stem: list[CxStep]
    loop: list[CxStep]
    trace: Lasso
    product: ProductLasso
    kripke: Structure
    concrete: Optional[Run] = None


@dataclass
class Verdict:
    holds: bool
    counterexample: Optional[Counterexample] = None


def _project(k: Structure, lasso: ProductLasso) -> Counterexample:
    stem_states = [s for s, _ in lasso.stem_nodes[:-1]]
    loop_states = [s for s, _ in lasso.loop_nodes]
    trace = Lasso.of([k.label(s) for s in stem_states],
                     [k.label(s) for s in loop_states])
    stem_steps = [CxStep(k.name(s), k.label(s), k.action(e))
                  for s, e in zip(stem_states, lasso.stem_edges)]
    loop_steps = [CxStep(k.name(s), k.label(s), k.action(e))
                  for s, e in zip(loop_states, lasso.loop_edges)]
    return Counterexample(stem_steps, loop_steps, trace, lasso, k)


def check(k: Structure, phi: LtlFormula) -> Verdict:
    """Holds iff the product of k with the negation automaton is empty."""
    unknown = propositions(phi) - k.propositions
    if unknown:
        raise UnknownProposition(f"formula uses undeclared propositions {sorted(unknown)}")
    negation = translate_to_buchi(Not(phi))
    product = synchronized_product(k, negation)
    lasso = nested_dfs_emptiness(product)
    if lasso is None:
        return Verdict(True)
    return Verdict(False, _project(k, lasso))


MAX_LOOP_UNROLL = 3


def check_timed(a: HybridAutomaton, phi: LtlFormula,
                rg: Optional[RegionGraph] = None) -> Verdict:
    """Region-graph pipeline; violations are concretized into exact runs.

    The region graph is walked only as far as the search asks, and modes
    and automaton edges are looked up only along the lasso. Concretization
    replays the stem plus 1..3 unrollings of the loop through the symbolic
    path engine; when every unrolling is infeasible the symbolic lasso is
    still reported (it stays valid at the region level).
    """
    rg = rg if rg is not None else region_graph(a)
    verdict = check(rg, phi)
    if verdict.holds:
        return verdict
    cx = verdict.counterexample
    lasso = cx.product

    stem_refs = [rg.edge_ref(e) for e in lasso.stem_edges]
    loop_refs = [rg.edge_ref(e) for e in lasso.loop_edges]
    stem_real = [e for e in stem_refs if e is not None]
    loop_real = [e for e in loop_refs if e is not None]

    run: Optional[Run] = None
    if not stem_real and not loop_real:
        # pure stuttering at an initial state: the empty run is the witness
        mode = rg.mode(lasso.stem_nodes[0][0])
        run = simulate(a, [], start=initial_configuration(a, mode))
    else:
        for unroll in range(1, MAX_LOOP_UNROLL + 1):
            edges = stem_real + loop_real * unroll
            feasibility = path_feasible(a, PathQuery(tuple(edges)))
            if feasibility.feasible:
                run = simulate(a, list(zip(feasibility.delays, edges)))
                break
    if run is not None:
        _attach_concrete(cx, stem_refs, loop_refs, run)
        cx.concrete = run
    return Verdict(False, cx)


def _attach_concrete(cx: Counterexample, stem_refs, loop_refs, run: Run) -> None:
    configs = run.configurations
    position = 0
    for step, ref in zip(cx.stem + cx.loop, stem_refs + loop_refs):
        step.valuation = configs[min(position, len(configs) - 1)].valuation
        if ref is not None and position < len(run.steps):
            step.delay = run.steps[position].delay
            position += 1
        else:
            step.delay = Fraction(0) if ref is None else None
