"""Reference answers the benchmark checks noet's outputs against.

Everything here is written from the problem statements alone, on plain
Python ints, lists and sets. Nothing imports noet, so a defect in noet
cannot vouch for itself.
"""

from __future__ import annotations

import math
from collections import deque


def gcd(a: int, b: int) -> int:
    return math.gcd(a, b)


def gcd_classes(bound: int) -> dict:
    """The pairs (a, b) in 1..bound squared, grouped by their gcd."""
    classes = {}
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            classes.setdefault(math.gcd(a, b), []).append((a, b))
    return classes


def member(t, x) -> bool:
    return x in t


def first_hit(t, x) -> int:
    """Length of the prefix a left-to-right scan reads before finding x."""
    for i, v in enumerate(t):
        if v == x:
            return i
    return len(t)


def sorted_items(t) -> list:
    return sorted(t)


def three_way_partition(t, pivot):
    """Two pointers closing in from both ends: a left item at most the
    pivot stays, a right item at least the pivot stays, otherwise the pair
    swaps. Returns the final items and the 1-based position where the
    right part starts."""
    items = list(t)
    left, right = 0, len(items) - 1
    while left <= right:
        if items[left] <= pivot:
            left += 1
        elif items[right] >= pivot:
            right -= 1
        else:
            items[left], items[right] = items[right], items[left]
            left += 1
            right -= 1
    return items, left + 1


def is_split(items, start, pivot) -> bool:
    """Items before 1-based position start are <= pivot, the rest >= it."""
    return (all(v <= pivot for v in items[:start - 1])
            and all(v >= pivot for v in items[start - 1:]))


# -- finite graphs, as a dict from node to a set of successors -------------

def adjacency(nodes, edges) -> dict:
    adj = {v: set() for v in nodes}
    for a, b in edges:
        adj[a].add(b)
    return adj


def reach(adj, start) -> set:
    """Nodes reachable from start in one or more steps."""
    seen = set()
    todo = deque(adj[start])
    while todo:
        v = todo.popleft()
        if v not in seen:
            seen.add(v)
            todo.extend(adj[v])
    return seen


def closure(adj) -> dict:
    return {v: reach(adj, v) for v in adj}


def acyclic(plus) -> bool:
    """No node reaches itself."""
    return all(v not in succ for v, succ in plus.items())


def flags(adj, plus) -> dict:
    edges = {(a, b) for a, bs in adj.items() for b in bs}
    irreflexive = all(a != b for a, b in edges)
    transitive = all(adj[b] <= adj[a] for a, b in edges)
    return {"acyclic": acyclic(plus),
            "irreflexive": irreflexive,
            "transitive": transitive,
            "asymmetric": all((b, a) not in edges for a, b in edges),
            "order": irreflexive and transitive,
            "function": all(len(bs) <= 1 for bs in adj.values())}


def walks_cycle(adj, path) -> bool:
    """path[0] -> path[1] -> ... -> path[-1] is made of edges and closes."""
    return (len(path) >= 2 and path[0] == path[-1]
            and all(b in adj.get(a, ()) for a, b in zip(path, path[1:])))


def limits(adj) -> tuple:
    """(maxdepth, reachable_minima) limit of an acyclic graph, each a dict
    from node to its set of limit values. maxdepth keeps the frontier after
    as many steps as the longest path from the node; minimal nodes map to
    themselves in both."""
    height = {}

    def h(v):
        if v not in height:
            height[v] = 1 + max(map(h, adj[v])) if adj[v] else 0
        return height[v]

    maxdepth, minima = {}, {}
    for v in adj:
        frontier = {v}
        for _ in range(h(v)):
            frontier = {w for u in frontier for w in adj[u]}
        maxdepth[v] = frontier
        below = reach(adj, v) | {v}
        minima[v] = {w for w in below if not adj[w]}
    return maxdepth, minima
