"""Finite labeled Kripke structures: the target of every abstraction."""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import Optional

#: reserved action for self-loops added to deadlock states
STUTTER_ACTION = "τ-stutter"


@dataclass(frozen=True)
class KripkeTransition:
    source: int
    action: str
    target: int


@dataclass
class FiniteKripke:
    """Finite action-labeled transition graph with total proposition labeling.

    States are dense integer ids; `display` carries their human-readable text.
    A caller that already holds each state's sorted (target, transition index)
    list may pass them as `adjacency`; they are used as they are.
    """

    states: tuple[int, ...]
    initial: frozenset[int]
    transitions: tuple[KripkeTransition, ...]
    labels: dict
    display: dict = field(default_factory=dict)
    propositions: frozenset[str] = frozenset()
    adjacency: InitVar[Optional[dict]] = None

    def __post_init__(self, adjacency):
        if not self.initial:
            raise ValueError("Kripke structure needs an initial state")
        fill = adjacency is None
        if fill:
            adjacency = {s: [] for s in self.states}
        if not self.initial <= adjacency.keys():
            raise ValueError("initial states must be declared")
        for index, t in enumerate(self.transitions):
            if t.source not in adjacency or t.target not in adjacency:
                raise ValueError(f"dangling transition {t}")
            if fill:
                adjacency[t.source].append((t.target, index))
        if fill:
            for lst in adjacency.values():
                lst.sort()
        self._adjacency: dict[int, list[tuple[int, int]]] = adjacency
        for s in self.states:
            self.labels.setdefault(s, frozenset())
            self.display.setdefault(s, str(s))
        props = set(self.propositions)
        for label in self.labels.values():
            props |= label
        self.propositions = frozenset(props)

    def successors(self, state: int) -> list[tuple[int, int]]:
        """Sorted (target, transition-index) pairs."""
        return self._adjacency[state]

    def post(self, state: int) -> list[int]:
        return sorted({t for t, _ in self._adjacency[state]})

    def label(self, state: int) -> frozenset[str]:
        return self.labels[state]

    def name(self, state: int) -> str:
        """The state's name in a counterexample: its display text."""
        return self.display[state]

    def action(self, index: int) -> str:
        return self.transitions[index].action

    @property
    def state_count(self) -> int:
        return len(self.states)


def make_kripke(names: list[str], initial: list[str],
                edges: list[tuple[str, str, str]],
                labels: dict[str, set[str]],
                propositions=frozenset()) -> FiniteKripke:
    """Convenience constructor over named states; edges are (src, action, dst)."""
    index = {name: i for i, name in enumerate(names)}
    return FiniteKripke(
        states=tuple(range(len(names))),
        initial=frozenset(index[n] for n in initial),
        transitions=tuple(KripkeTransition(index[s], a, index[t]) for s, a, t in edges),
        labels={index[n]: frozenset(labels.get(n, set())) for n in names},
        display={index[n]: n for n in names},
        propositions=frozenset(propositions),
    )
