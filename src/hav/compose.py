"""Synchronized product of a network of hybrid automata.

Components synchronize on shared action names: an edge of the product on
action a moves exactly the components whose alphabet contains a, all others
stutter. Guards and jumps of the moving components are conjoined.
`reachable_modes` searches the discrete edge graph with `hav.graph`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import FlowConflict, HavError, UnknownAction
from .graph import explore
from .model import (
    HybridAutomaton, JumpPredicate, Predicate, Transition, mode_text,
)


@dataclass(frozen=True)
class Network:
    components: tuple[HybridAutomaton, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("network needs at least one component")

    @property
    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for c in self.components:
            out |= c.actions
        return frozenset(out)


def sync_set(network: Network, action: str) -> frozenset[int]:
    """Indices of the components whose alphabet contains the action."""
    members = frozenset(
        i for i, c in enumerate(network.components) if action in c.actions)
    if not members:
        raise UnknownAction(f"action {action!r} not used by any component")
    return members


def _check_shared_flows(network: Network) -> None:
    owners: dict[str, list[int]] = {}
    for i, c in enumerate(network.components):
        for var in c.variables:
            owners.setdefault(var, []).append(i)
    for var, comp_ids in owners.items():
        if len(comp_ids) < 2:
            continue
        rates = set()
        where = []
        for i in comp_ids:
            c = network.components[i]
            for mode in c.modes:
                rates.add(c.rate(mode, var))
                where.append(f"{c.name}.{mode_text(mode)}")
        if len(rates) > 1:
            raise FlowConflict(var, "modes " + ", ".join(sorted(set(where))))


def _merge_jumps(parts: list[JumpPredicate]) -> JumpPredicate:
    merged: dict[str, int] = {}
    for jump in parts:
        for var, value in jump.assignments:
            if var in merged and merged[var] != value:
                raise HavError(
                    f"synchronized edges assign {var!r} two different constants")
            merged[var] = value
    return JumpPredicate.of(merged)


def product(network: Network) -> HybridAutomaton:
    """The product automaton over mode tuples.

    All syntactic mode tuples are materialized; use reachable_modes to prune.
    Shared variables require a single global rate across owners (checked).
    """
    _check_shared_flows(network)
    comps = network.components
    modes = tuple(itertools.product(*(c.modes for c in comps)))
    initial = frozenset(itertools.product(*(sorted(c.initial_modes, key=mode_text)
                                            for c in comps)))
    variables = frozenset().union(*(c.variables for c in comps))

    syncs = [(action, sorted(sync_set(network, action))) for action in sorted(network.alphabet)]
    transitions: list[Transition] = []
    for combo in modes:
        for action, moving in syncs:
            choices = []
            for i in moving:
                local = [t for t in comps[i].transitions
                         if t.action == action and t.source == combo[i]]
                choices.append(local)
            for pick in itertools.product(*choices):
                target = list(combo)
                guard = Predicate.true()
                for i, edge in zip(moving, pick):
                    target[i] = edge.target
                    guard = guard.conjoin(edge.guard)
                jump = _merge_jumps([edge.jump for edge in pick])
                transitions.append(
                    Transition(combo, guard, action, jump, tuple(target)))

    invariants = {}
    flows = {}
    labels = {}
    for combo in modes:
        inv = Predicate.true()
        flow = {}
        label: set[str] = set()
        for i, c in enumerate(comps):
            inv = inv.conjoin(c.invariant(combo[i]))
            label |= c.labels[combo[i]]
            for var in c.variables:
                flow.setdefault(var, c.rate(combo[i], var))
        invariants[combo] = inv
        flows[combo] = flow
        labels[combo] = frozenset(label)

    init_atoms = []
    pinned: dict[str, int] = {}
    for c in comps:
        for atom in c.init.conjuncts:
            if atom.op == "=" and not atom.diagonal:
                if pinned.get(atom.var, atom.const) != atom.const:
                    raise HavError(
                        f"components pin initial {atom.var!r} to different values")
                if atom.var in pinned:
                    continue
                pinned[atom.var] = atom.const
            if atom not in init_atoms:
                init_atoms.append(atom)
    init = Predicate(tuple(init_atoms))

    return HybridAutomaton(
        name="__".join(c.name for c in comps),
        modes=modes,
        initial_modes=initial,
        variables=variables,
        transitions=tuple(transitions),
        invariants=invariants,
        flows=flows,
        init=init,
        labels=labels,
    )


def reachable_modes(a: HybridAutomaton) -> frozenset:
    """Modes reachable over the discrete edge graph, guards ignored."""
    found = explore(a.initial_modes, lambda mode: ((t.target, t) for t in a.edges_from(mode)))
    return frozenset(found.nodes)


def flatten_modes(a: HybridAutomaton) -> HybridAutomaton:
    """Rename tuple mode ids to flat identifier strings (for printing)."""

    def flat(mode) -> str:
        if isinstance(mode, tuple):
            return "__".join(flat(m) for m in mode)
        return str(mode)

    mapping = {m: flat(m) for m in a.modes}
    if len(set(mapping.values())) != len(mapping):
        raise HavError("mode name collision while flattening product modes")
    return HybridAutomaton(
        name=a.name,
        modes=tuple(mapping[m] for m in a.modes),
        initial_modes=frozenset(mapping[m] for m in a.initial_modes),
        variables=a.variables,
        transitions=tuple(
            Transition(mapping[t.source], t.guard, t.action, t.jump, mapping[t.target])
            for t in a.transitions),
        invariants={mapping[m]: p for m, p in a.invariants.items()},
        flows={mapping[m]: dict(f) for m, f in a.flows.items()},
        init=a.init,
        labels={mapping[m]: l for m, l in a.labels.items()},
    )
