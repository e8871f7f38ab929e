"""Exact deciders for path-, stroll- and walk-nonrepetitiveness.

A repetitive walk v_1..v_2t is equivalent to a walk of length t-1 through
product states s_i = (v_i, v_{t+i}) with c(v_i) = c(v_{t+i}), closed by the
link condition v_t ~ v_{t+1}.  Reachability over at most n^2 such states
(x2 with the "left the diagonal" bit) is finite, which makes the stroll and
walk checks terminate exactly.  The oracle module cross-validates this
reduction empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    Walk,
    WalkClass,
    classify_walk,
    is_distance2,
)

PROPERTIES = ("path", "stroll", "walk")


@dataclass(frozen=True)
class Witness:
    """A walk whose classification proves a coloring invalid for a property."""

    walk: Walk
    walk_class: WalkClass
    violated: str  # "path" | "stroll" | "walk"

    def __post_init__(self):
        if self.violated not in PROPERTIES:
            raise InvalidArgumentError(f"unknown property {self.violated!r}")
        if self.walk_class.repetitive is not True:
            raise InvalidArgumentError("witness walk must be repetitive")


def _check_coloring(g: Graph, c: Coloring) -> None:
    if c.n != g.n:
        raise InvalidArgumentError("coloring size does not match graph")


def _product_search(g: Graph, c: Coloring, allow_diagonal: bool):
    """Find the best repetitive stroll (or nonboring walk) via product BFS.

    States are color-matched pairs (u, w); for the nonboring variant the
    diagonal is allowed and a bit tracks whether any off-diagonal state was
    visited (required at acceptance).  A product walk s_1..s_t is accepted
    when first(s_t) is adjacent to second(s_1), reconstructing the walk
    firsts + seconds of length 2t.

    Returns the lexicographically smallest (2t, walk) over all start states,
    or None.  BFS from each start state yields shortest product walks, so the
    returned witness is shortest; ties break to the lowest starting vertex
    and then the lexicographically smallest walk.
    """
    n = g.n
    cols = c.colors
    states = []
    for u in range(n):
        for w in range(n):
            if cols[u] == cols[w] and (allow_diagonal or u != w):
                states.append((u, w))
    adj = g._adj

    best = None  # (length, walk tuple)
    for s0 in states:
        a, b = s0
        start_bit = a != b
        if not allow_diagonal:
            start_bit = True
        # BFS over (state, off_diagonal_seen)
        dist = {(s0, start_bit): 0}
        pred = {(s0, start_bit): None}
        frontier = [(s0, start_bit)]
        accepted = []  # nodes satisfying the link condition, at their dist
        accept_dist = None
        if start_bit and g.adjacent(a, b):
            accepted.append((s0, start_bit))
            accept_dist = 0
        d = 0
        while frontier and accept_dist is None:
            d += 1
            nxt = []
            for (u, w), bit in frontier:
                for u2 in adj[u]:
                    cu2 = cols[u2]
                    for w2 in adj[w]:
                        if cols[w2] != cu2:
                            continue
                        if u2 == w2 and not allow_diagonal:
                            continue
                        node = ((u2, w2), bit or u2 != w2)
                        if node in dist:
                            continue
                        dist[node] = d
                        pred[node] = ((u, w), bit)
                        nxt.append(node)
                        if node[1] and g.adjacent(u2, b):
                            accepted.append(node)
            frontier = nxt
            if accepted:
                accept_dist = d
        if not accepted:
            continue
        # reconstruct all accepted product walks at minimal distance and
        # keep the lexicographically smallest resulting walk
        for node in accepted:
            chain = []
            cur = node
            while cur is not None:
                chain.append(cur[0])
                cur = pred[cur]
            chain.reverse()
            walk = tuple(s[0] for s in chain) + tuple(s[1] for s in chain)
            cand = (len(walk), walk)
            if best is None or cand < best:
                best = cand
    return None if best is None else best[1]


def exists_repetitive_stroll(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive stroll witness, or None iff c is stroll-nonrepetitive."""
    _check_coloring(g, c)
    walk = _product_search(g, c, allow_diagonal=False)
    if walk is None:
        return None
    w = Walk(walk)
    return Witness(w, classify_walk(g, c, w), "stroll")


def exists_repetitive_nonboring_walk(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive nonboring walk witness, or None iff c is walk-nonrepetitive."""
    _check_coloring(g, c)
    walk = _product_search(g, c, allow_diagonal=True)
    if walk is None:
        return None
    w = Walk(walk)
    return Witness(w, classify_walk(g, c, w), "walk")


def exists_repetitive_path(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive simple path witness, or None iff c is path-nonrepetitive.

    Enumerates simple paths by DFS, shortest order first; within one order,
    starts ascend and extensions are lexicographic, so the witness choice is
    deterministic.  Both traversal directions of each undirected path are
    checked (repetitiveness is not reversal-invariant).  Exponential on
    arbitrary graphs; intended for paths, cycles and small fixtures.
    """
    _check_coloring(g, c)
    n = g.n
    cols = c.colors
    adj = g._adj
    for order in range(2, n + 1, 2):
        t = order // 2
        for start in range(n):
            # DFS for simple paths of exactly `order` vertices from `start`
            path = [start]
            on_path = [False] * n
            on_path[start] = True
            iters = [iter(adj[start])]
            while iters:
                nxt = next(iters[-1], None)
                if nxt is None:
                    iters.pop()
                    on_path[path.pop()] = False
                    continue
                if on_path[nxt]:
                    continue
                path.append(nxt)
                on_path[nxt] = True
                if len(path) == order:
                    if all(cols[path[i]] == cols[path[i + t]] for i in range(t)):
                        w = Walk(tuple(path))
                        return Witness(w, classify_walk(g, c, w), "path")
                    on_path[path.pop()] = False
                else:
                    iters.append(iter(adj[nxt]))
    return None


def find_witness(g: Graph, c: Coloring, property: str) -> Optional[Witness]:
    """The witness found by the property's decider, or None iff c has it.

    The deciders are looked up by module attribute on every call, so code
    that replaces one (a tracer, a test) sees every dispatch.
    """
    if property == "path":
        return exists_repetitive_path(g, c)
    if property == "stroll":
        return exists_repetitive_stroll(g, c)
    if property == "walk":
        return exists_repetitive_nonboring_walk(g, c)
    raise InvalidArgumentError(f"unknown property {property!r}")


def is_walk_nonrepetitive_cycle_fast(g: Graph, c: Coloring) -> bool:
    """Cycle shortcut: walk-nonrepetitive iff distance-2 and path-nonrepetitive."""
    if not g.is_cycle():
        raise InvalidArgumentError("fast check applies to cycles only")
    _check_coloring(g, c)
    return is_distance2(g, c) is None and exists_repetitive_path(g, c) is None
