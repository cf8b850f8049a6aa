"""Graph searches, each driven by roots and a successor function.

A successor function maps a node to an iterable of `(target, label)` pairs,
the label naming the edge. A search asks for a node's successors only when
it reaches the node, so a graph can be computed on demand.
"""

from __future__ import annotations

import itertools
from typing import Callable, Container, Hashable, Iterable, NamedTuple, Optional, Sequence

Node = Hashable
Successors = Callable[[Node], Iterable[tuple[Node, object]]]


class Exploration(NamedTuple):
    """Nodes in discovery order, roots first; `(source, label, target)` for
    each edge of each expanded node; whether the depth cap left nodes unexpanded."""

    nodes: list
    edges: list
    open: bool


def explore(roots: Iterable[Node], successors: Successors,
            depth: Optional[int] = None) -> Exploration:
    """Layered breadth-first search that expands at most `depth` layers."""
    found = dict.fromkeys(roots)  # insertion-ordered, so in discovery order
    edges = []
    frontier = list(found)
    for _ in itertools.count() if depth is None else range(depth):
        if not frontier:
            break
        layer = []
        for node in frontier:
            for target, label in successors(node):
                edges.append((node, label, target))
                if target not in found:
                    found[target] = None
                    layer.append(target)
        frontier = layer
    return Exploration(list(found), edges, bool(frontier))


def accepting_lasso(roots: Iterable[Node], successors: Successors,
                    accepting: Sequence[Container[Node]]):
    """A reachable cycle that meets every set in `accepting`, or None.

    With no sets, any reachable cycle will do. The cycle comes as a lasso
    `(stem_nodes, stem_labels, loop_nodes, loop_labels)`: `stem_nodes[-1]`
    is `loop_nodes[0]`, and `loop_labels[-1]` closes the loop.

    Couvreur's on-the-fly search ("On-the-fly verification of linear
    temporal logic", FM 1999): a depth-first search keeps a stack of the
    roots of the strongly connected components it has not finished, each
    with the union of its members' marks (bit i for `accepting[i]`). An
    edge into an unfinished component merges every component above it on
    that stack into it, and the search stops as soon as a merged component
    holds every mark. The stem is the search path to that component's root,
    and the loop a walk inside the component from that root (`_loop`).
    """
    every = (1 << len(accepting)) - 1

    def marks(node) -> int:
        return sum(1 << i for i, nodes in enumerate(accepting) if node in nodes)

    index: dict = {}  # node -> depth-first number, or -1 once its component is finished
    live: list = []  # the nodes of unfinished components, by number
    scc_roots: list[tuple[int, int]] = []  # (number, marks) per unfinished component

    def enter(node) -> None:
        index[node] = len(index)
        live.append(node)
        scc_roots.append((index[node], marks(node)))

    for root in roots:
        if root in index:
            continue
        enter(root)
        stack = [(root, None, iter(successors(root)))]  # (node, label into it, edges left)
        while stack:
            node, _, edges = stack[-1]
            for target, label in edges:
                seen = index.get(target)
                if seen is None:
                    enter(target)
                    stack.append((target, label, iter(successors(target))))
                    break
                if seen < 0:
                    continue
                top, got = scc_roots.pop()
                while top > seen:
                    top, more = scc_roots.pop()
                    got |= more
                scc_roots.append((top, got))
                if got == every:
                    stem = stack[:[index[n] for n, _, _ in stack].index(top) + 1]
                    loop = _loop(stem[-1][0], successors,
                                 lambda n: index.get(n, -1) >= top, marks, every)
                    return [n for n, _, _ in stem], [a for _, a, _ in stem[1:]], *loop
            else:
                stack.pop()
                if scc_roots[-1][0] == index[node]:
                    scc_roots.pop()
                    while index[node] >= 0:
                        index[live.pop()] = -1
    return None


def _loop(root: Node, successors: Successors, inside: Callable[[Node], bool],
          marks: Callable[[Node], int], every: int) -> tuple[list, list]:
    """A cycle from root among the nodes `inside` that meets every mark:
    shortest walks from the root to the nearest node with a mark not yet
    met, from there to the next, and back to the root."""
    nodes, labels, got = [root], [], marks(root)
    while True:
        missing = every & ~got
        walk, walk_labels = _walk(nodes[-1], successors, inside,
                                  (lambda n: marks(n) & missing) if missing
                                  else (lambda n: n == root))
        nodes += walk
        labels += walk_labels
        for node in walk:
            got |= marks(node)
        if not missing:
            return nodes[:-1], labels


def _walk(start: Node, successors: Successors, inside: Callable[[Node], bool],
          goal: Callable[[Node], object]) -> tuple[list, list]:
    """The nodes after start and the labels of a shortest walk of at least
    one edge from start to a node where goal holds, among nodes inside;
    breadth first, in successor order."""
    parent: dict = {}
    queue = [start]
    for node in queue:  # the queue grows as it is read
        for target, label in successors(node):
            if target in parent or not inside(target):
                continue
            parent[target] = (node, label)
            if goal(target):
                nodes, labels = [target], [label]
                while node != start:
                    nodes.append(node)
                    node, label = parent[node]
                    labels.append(label)
                return nodes[::-1], labels[::-1]
            queue.append(target)
    raise AssertionError("the component is strongly connected")
