"""Coarsest bisimulation quotients and bisimilarity of finite Kripke structures.

A structure is read through its accessors, so a `FiniteKripke` and an
on-demand `RegionGraph` serve alike.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kripke import FiniteKripke, KripkeTransition
from .mcheck import Structure

QUOTIENT_ACTION = "τ"


@dataclass
class Partition:
    """Disjoint blocks covering the state set; block ids ordered by smallest member."""

    blocks: tuple[frozenset[int], ...]
    block_of: dict

    @staticmethod
    def from_blocks(blocks) -> "Partition":
        ordered = tuple(sorted((frozenset(b) for b in blocks), key=min))
        block_of = {s: i for i, b in enumerate(ordered) for s in b}
        return Partition(ordered, block_of)

    @property
    def size(self) -> int:
        return len(self.blocks)


def _refine(states, label, successors) -> Partition:
    """Split on labels, then on successor-block signatures until stable."""
    by_label: dict[frozenset, list[int]] = {}
    for s in states:
        by_label.setdefault(label(s), []).append(s)
    partition = Partition.from_blocks(by_label.values())
    while True:
        block_of = partition.block_of
        groups: dict = {}
        for s in states:
            signature = (block_of[s], frozenset(block_of[t] for t, _ in successors(s)))
            groups.setdefault(signature, []).append(s)
        refined = Partition.from_blocks(groups.values())
        if refined.size == partition.size:
            return refined
        partition = refined


def coarsest_quotient(k: Structure) -> tuple[FiniteKripke, Partition]:
    """Quotient by the coarsest bisimulation on k's states.

    Blocks become states, every action collapses to τ per the quotient
    definition, labels and initial states are inherited blockwise.
    """
    partition = _refine(k.states, k.label, k.successors)
    block_of = partition.block_of
    edges = sorted({(block_of[s], block_of[t]) for s in k.states for t, _ in k.successors(s)})
    labels = {}
    display = {}
    for i, block in enumerate(partition.blocks):
        member_labels = {k.label(s) for s in block}
        if len(member_labels) != 1:
            raise AssertionError("blocks must be label-homogeneous")
        labels[i] = member_labels.pop()
        display[i] = "{" + ",".join(str(s) for s in sorted(block)) + "}"
    quotient = FiniteKripke(
        states=tuple(range(partition.size)),
        initial=frozenset(block_of[s] for s in k.initial),
        transitions=tuple(KripkeTransition(s, QUOTIENT_ACTION, t) for s, t in edges),
        labels=labels,
        display=display,
        propositions=k.propositions,
    )
    return quotient, partition


def is_bisimilar(k1: Structure, k2: Structure) -> bool:
    """Whether a bisimulation relating the initial state sets both ways exists.

    Computes the greatest bisimulation over the disjoint union by partition
    refinement; the relation is "same block".
    """
    offset = len(k1.states)
    states = list(k1.states) + [s + offset for s in k2.states]

    def label(s):
        return k1.label(s) if s < offset else k2.label(s - offset)

    def successors(s):
        if s < offset:
            return k1.successors(s)
        return [(t + offset, e) for t, e in k2.successors(s - offset)]

    partition = _refine(states, label, successors)
    blocks1 = {partition.block_of[s] for s in k1.initial}
    blocks2 = {partition.block_of[s + offset] for s in k2.initial}
    return blocks1 == blocks2
