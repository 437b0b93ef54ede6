"""Pieces several modules share: the malformed-document error base and the
DAG walker. This module imports nothing from the package."""

from __future__ import annotations

import heapq
from typing import Collection, Mapping


class DocumentError(Exception):
    """Base of every error meaning an input document is unreadable or
    malformed. Each module's own document error also derives from its module
    base, so ``except <Module>Error`` still catches it."""


def dag_order(in_edges: Mapping[str, Collection[str]]) -> tuple[list[str], list[str]]:
    """Kahn's topological sort of the graph given as node -> predecessors.

    Every node must be a key. Among ready nodes the smallest id goes first.
    Returns ``(order, [])`` for a DAG. Otherwise ``order`` holds only the
    nodes no cycle reaches, and the second item is one cycle, written from
    each node to one of its predecessors and closed on its first node.
    """
    successors: dict[str, list[str]] = {node: [] for node in in_edges}
    for node, preds in in_edges.items():
        for pred in preds:
            successors[pred].append(node)
    indegree = {node: len(preds) for node, preds in in_edges.items()}
    ready = [node for node, d in indegree.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) == len(indegree):
        return order, []

    # A node left over keeps a left-over predecessor, so walking predecessors
    # from any of them must come back to a node already on the walk.
    node = next(n for n, d in indegree.items() if d > 0)
    walk: dict[str, None] = {}
    while node not in walk:
        walk[node] = None
        node = next(p for p in in_edges[node] if indegree[p] > 0)
    path = list(walk)
    cycle = path[path.index(node):]
    return order, cycle + [node]
