"""Bounded brute-force checker, independent of the product-graph deciders.

Enumerates walks with iterative deepening on the half-length: round t
visits every walk of length 2t by lexicographic DFS and tests the
properties directly from their definitions.  Short witnesses are found
first and the choice is deterministic.  Deliberately dumb: no pruning
beyond the length bound (and, for the path property, simplicity, since
repetitive paths are simple by definition).  Its value is independence
from the decider's cleverness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import (Coloring, Graph, InvalidArgumentError, Walk,
                    _check_coloring)

PROPERTIES = ("path", "stroll", "walk")

# walk extensions one call may make by default, about a second's work: the
# bound T = n^2 is out of reach where no witness exists (4 * 3^31 walks in
# the last round alone on K4), so such a call returns aborted instead
DEFAULT_MAX_WALKS = 10**6


@dataclass(frozen=True)
class OracleVerdict:
    property: str
    bound: int  # max half-length checked
    witness: Optional[Walk]
    aborted: bool = False  # walk-count cap hit before the bound was exhausted
    walks_examined: int = 0

    @property
    def found(self) -> bool:
        return self.witness is not None


class _WalkCap(Exception):
    pass


def _violates(property: str, walk: list, t: int) -> bool:
    first, second = walk[:t], walk[t:]
    if property == "path":
        return True  # simplicity is enforced during enumeration
    if property == "stroll":
        return all(a != b for a, b in zip(first, second))
    return any(a != b for a, b in zip(first, second))  # nonboring


class _Enumerator:
    def __init__(self, g, c, simple_only, max_walks):
        self.g = g
        self.cols = c.colors
        self.adj = g._adj
        self.simple_only = simple_only
        self.max_walks = max_walks
        self.examined = 0

    def walks_of_length(self, length: int):
        """Yield every walk of exactly `length` vertices, lexicographically."""
        n, adj, simple = self.g.n, self.adj, self.simple_only
        cap = self.max_walks
        on_path = [False] * n
        for start in range(n):
            walk = [start]
            wcols = [self.cols[start]]
            on_path[start] = True
            iters = [iter(adj[start])]
            while iters:
                v = next(iters[-1], None)
                if v is None:
                    iters.pop()
                    on_path[walk.pop()] = False
                    wcols.pop()
                    continue
                if simple and on_path[v]:
                    continue
                self.examined += 1
                if cap is not None and self.examined > cap:
                    raise _WalkCap()
                walk.append(v)
                wcols.append(self.cols[v])
                on_path[v] = True
                if len(walk) == length:
                    yield walk, wcols
                    on_path[walk.pop()] = False
                    wcols.pop()
                else:
                    iters.append(iter(adj[v]))
            on_path[start] = False


def brute_force_check_many(
    g: Graph,
    c: Coloring,
    properties,
    T: Optional[int] = None,
    max_walks: Optional[int] = DEFAULT_MAX_WALKS,
) -> dict:
    """One enumeration pass resolving several properties at once.

    Returns {property: OracleVerdict}.  T defaults to n^2 (heuristic from
    the product-state count, not a proof); absence of a witness is only a
    claim up to the bound.  max_walks (None for no cap) caps the number of
    walk extensions across all rounds; exceeding it yields aborted partial
    verdicts.
    Enumeration cost is O(n * maxdeg^(2T-1)) per round.
    """
    properties = tuple(properties)
    for p in properties:
        if p not in PROPERTIES:
            raise InvalidArgumentError(f"unknown property {p!r}")
    _check_coloring(g, c)
    n = g.n
    if T is None:
        T = n * n
    if T < 1:
        raise InvalidArgumentError("bound T must be >= 1")

    witnesses = {p: None for p in properties}
    # the path property only ever needs simple-path enumeration; mixing it
    # with walk properties would enumerate walks twice, so split the passes
    groups = []
    if any(p != "path" for p in properties):
        groups.append(([p for p in properties if p != "path"], False))
    if "path" in properties:
        groups.append((["path"], True))

    examined = 0
    aborted = False
    for group, simple_only in groups:
        enum = _Enumerator(g, c, simple_only, None if max_walks is None
                           else max_walks - examined)
        pending = list(group)
        t_limit = min(T, n // 2) if simple_only else T
        try:
            for t in range(1, t_limit + 1):
                for walk, wcols in enum.walks_of_length(2 * t):
                    if wcols[:t] != wcols[t:]:
                        continue
                    for p in list(pending):
                        if _violates(p, walk, t):
                            witnesses[p] = Walk(tuple(walk))
                            pending.remove(p)
                    if not pending:
                        break
                if not pending:
                    break
        except _WalkCap:
            aborted = True
        examined += enum.examined
        if aborted:
            break
    return {
        p: OracleVerdict(p, T, witnesses[p], aborted and witnesses[p] is None,
                         examined)
        for p in properties
    }


def brute_force_check(
    g: Graph,
    c: Coloring,
    property: str,
    T: Optional[int] = None,
    max_walks: Optional[int] = DEFAULT_MAX_WALKS,
) -> OracleVerdict:
    """Search for a violating walk of half-length <= T by exhaustive DFS."""
    return brute_force_check_many(g, c, (property,), T, max_walks)[property]
