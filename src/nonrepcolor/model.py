"""Graphs, colorings, walks and the pure sequence/walk classifiers.

Vertices are dense integer ids 0..n-1. Colors are 1-based so that
published color tables can be copied in verbatim.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional


class InvalidArgumentError(ValueError):
    """Raised when an operation's preconditions are violated."""


class InvalidWalkError(ValueError):
    """Raised when a vertex sequence is not a walk of the given graph."""


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph. Immutable after construction."""

    n: int
    edges: frozenset  # frozenset of (u, v) tuples with u < v
    _adj: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise InvalidArgumentError("vertex count must be nonnegative")
        adj = [[] for _ in range(self.n)]
        for e in self.edges:
            u, v = e
            if u == v:
                raise InvalidArgumentError(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidArgumentError(f"edge {e} endpoint out of range")
            if u > v:
                raise InvalidArgumentError(f"edge {e} must be stored as (min, max)")
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(self, "_adj", tuple(tuple(sorted(a)) for a in adj))

    @staticmethod
    def from_edges(n: int, edges: Iterable) -> "Graph":
        return Graph(n, frozenset((min(u, v), max(u, v)) for u, v in edges))

    def neighbors(self, v: int) -> tuple:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def adjacent(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @cached_property
    def shape(self) -> str:
        """Kind of graph: "path" (a lone vertex too), "cycle" or "graph".

        Computed on first use: most graphs (prefix paths built during search)
        never ask.
        """
        degs = sorted(len(a) for a in self._adj)
        if degs == [0] or (degs[:2] == [1, 1] and set(degs[2:]) <= {2}):
            kind = "path"
        elif degs and degs[0] == degs[-1] == 2:
            kind = "cycle"
        else:
            return "graph"
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return kind if len(seen) == self.n else "graph"

    def is_cycle(self) -> bool:
        return self.shape == "cycle"

    def is_path(self) -> bool:
        return self.shape == "path"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": sorted(map(list, self.edges))})

    @staticmethod
    def from_json(text: str) -> "Graph":
        data = json.loads(text)
        return Graph.from_edges(int(data["n"]), data["edges"])


def path_graph(n: int) -> Graph:
    """Path on vertices 0..n-1 with edges {i, i+1}."""
    if n < 1:
        raise InvalidArgumentError("path needs at least one vertex")
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    """Cycle on vertices 0..n-1; n >= 3 (smaller would need loops/multi-edges)."""
    if n < 3:
        raise InvalidArgumentError("cycle needs at least three vertices")
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((0, n - 1))
    return Graph.from_edges(n, edges)


@dataclass(frozen=True)
class Coloring:
    """Total coloring: colors[i] is the color of vertex i, in 1..k."""

    colors: tuple
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise InvalidArgumentError("k must be positive")
        for i, col in enumerate(self.colors):
            if not (1 <= col <= self.k):
                raise InvalidArgumentError(
                    f"vertex {i} has color {col} outside 1..{self.k}")

    @staticmethod
    def from_colors(colors: Iterable, k: Optional[int] = None) -> "Coloring":
        colors = tuple(int(c) for c in colors)
        if not colors:
            raise InvalidArgumentError("coloring must be nonempty")
        return Coloring(colors, max(colors) if k is None else k)

    @staticmethod
    def from_digits(text: str, k: Optional[int] = None) -> "Coloring":
        """Parse the digit-string interchange form, e.g. '12341243' (k <= 9)."""
        if not text or not text.isdigit():
            raise InvalidArgumentError(f"not a digit-string coloring: {text!r}")
        return Coloring.from_colors((int(ch) for ch in text), k)

    @property
    def n(self) -> int:
        return len(self.colors)

    def colors_used(self) -> int:
        return len(set(self.colors))

    def to_digits(self) -> str:
        if self.k > 9:
            raise InvalidArgumentError("digit form requires k <= 9")
        return "".join(str(c) for c in self.colors)

    def sequence_of(self, vertices: Iterable) -> tuple:
        return tuple(self.colors[v] for v in vertices)


@dataclass(frozen=True)
class Walk:
    """Nonempty vertex sequence; consecutive vertices must be adjacent."""

    vertices: tuple

    def __post_init__(self):
        if not self.vertices:
            raise InvalidArgumentError("walk must be nonempty")

    def __len__(self) -> int:
        return len(self.vertices)

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        for v in vs:
            if not (0 <= v < g.n):
                raise InvalidWalkError(f"vertex {v} not in graph")
        for a, b in zip(vs, vs[1:]):
            if not g.adjacent(a, b):
                raise InvalidWalkError(f"vertices {a} and {b} are not adjacent")


@dataclass(frozen=True)
class WalkClass:
    even_length: bool
    repetitive: Optional[bool]  # None when the walk has odd length
    boring: bool
    stroll: bool
    simple_path: bool


def is_repetitive(seq) -> bool:
    """True iff the even-length sequence repeats its first half verbatim."""
    seq = tuple(seq)
    t, r = divmod(len(seq), 2)
    if r or t == 0:
        raise InvalidArgumentError("repetitiveness is defined for even length >= 2")
    return seq[:t] == seq[t:]


def classify_walk(g: Graph, c: Coloring, w: Walk) -> WalkClass:
    """Classify a walk: repetitive / boring / stroll / simple path flags.

    boring and stroll only apply to even-length walks; for odd length both
    are False and repetitive is None.
    """
    w.validate(g)
    vs = w.vertices
    t, r = divmod(len(vs), 2)
    even = r == 0 and t > 0
    if even:
        first, second = vs[:t], vs[t:]
        boring = first == second
        stroll = all(a != b for a, b in zip(first, second))
        repetitive = c.sequence_of(first) == c.sequence_of(second)
    else:
        boring = stroll = False
        repetitive = None
    simple = len(set(vs)) == len(vs)
    return WalkClass(even, repetitive, boring, stroll, simple)


def is_distance2(g: Graph, c: Coloring):
    """Check the distance-2 property; return None or one offending pair.

    Offending pair: two vertices at distance <= 2 sharing a color; the
    smallest such pair in sorted order is returned, deterministically.
    """
    if c.n != g.n:
        raise InvalidArgumentError("coloring size does not match graph")
    cols = c.colors
    for u in range(g.n):
        near = set(g.neighbors(u))
        for x in g.neighbors(u):
            near.update(g.neighbors(x))
        near.discard(u)
        for v in sorted(near):
            if v > u and cols[v] == cols[u]:
                return (u, v)
    return None
