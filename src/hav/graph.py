"""Graph searches, each driven by roots and a successor function.

A successor function maps a node to an iterable of `(target, label)` pairs,
the label naming the edge. A search asks for a node's successors only when
it reaches the node, so a graph can be computed on demand.
"""

from __future__ import annotations

import itertools
from typing import Callable, Hashable, Iterable, NamedTuple, Optional

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


def _depth_first(root: Node, successors: Successors, visited: set):
    """Depth-first search from root that enters only unvisited nodes.

    Yields `(path, labels, edge)` for each edge `(target, label)` it reads,
    before entering the target, and `(path, labels, None)` on leaving
    `path[-1]`. The path lists are live: they change as the search goes on.
    """
    visited.add(root)
    path, labels, pending = [root], [], [iter(successors(root))]
    while pending:
        for edge in pending[-1]:
            yield path, labels, edge
            target, label = edge
            if target not in visited:
                visited.add(target)
                path.append(target)
                labels.append(label)
                pending.append(iter(successors(target)))
                break
        else:
            yield path, labels, None
            pending.pop()
            path.pop()
            if labels:
                labels.pop()


def nested_dfs(roots: Iterable[Node], successors: Successors,
               accepting: Callable[[Node], bool]):
    """A reachable cycle through an accepting node, or None.

    The cycle comes as a lasso `(stem_nodes, stem_labels, loop_nodes,
    loop_labels)`: `stem_nodes[-1]` is `loop_nodes[0]`, and `loop_labels[-1]`
    closes the loop. The outer search starts the inner one at each accepting
    node in postorder; the inner one keeps its marks and looks for an edge
    back to its seed (Courcoubetis, Vardi, Wolper, Yannakakis 1992). The
    outer search also stops at an accepting node's edge to itself, which
    finds lassos in infinite graphs. It ignores other edges back into its
    path: stopping there would change the lassos `hav check` prints.
    """
    visited: set = set()
    inner_visited: set = set()

    def cycle(seed):
        for path, labels, edge in _depth_first(seed, successors, inner_visited):
            if edge is not None and edge[0] == seed:
                return path, labels + [edge[1]]
        return None

    for root in roots:
        if root in visited:
            continue
        for path, labels, edge in _depth_first(root, successors, visited):
            node = path[-1]
            if edge is None:
                loop = cycle(node) if accepting(node) else None
                if loop is not None:
                    return path, labels, loop[0], loop[1]
            elif edge[0] == node and accepting(node):
                return path, labels, [node], [edge[1]]
    return None


def strongly_connected_components(roots: Iterable[Node], successors: Successors):
    """Tarjan's search: each strongly connected component reachable from
    roots, as a set, every one after the components it reaches."""
    visited: set = set()
    index: dict = {}
    lowlink: dict = {}
    stack: list = []
    on_stack: set = set()

    def enter(node):
        index[node] = lowlink[node] = len(index)
        stack.append(node)
        on_stack.add(node)

    for root in roots:
        if root in visited:
            continue
        enter(root)
        for path, _, edge in _depth_first(root, successors, visited):
            node = path[-1]
            if edge is not None:
                target = edge[0]
                if target not in visited:
                    enter(target)
                elif target in on_stack:
                    lowlink[node] = min(lowlink[node], index[target])
                continue
            if len(path) > 1:
                lowlink[path[-2]] = min(lowlink[path[-2]], lowlink[node])
            if lowlink[node] == index[node]:
                component = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                yield component
