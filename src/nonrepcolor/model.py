"""Graphs, colorings, walks and the pure sequence/walk classifiers.

Vertices are dense integer ids 0..n-1. Colors are 1-based so that
published color tables can be copied in verbatim.
"""

from __future__ import annotations

import json
import operator
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
    def line(self) -> Optional[tuple]:
        """The vertices along a path or around a cycle; None for other graphs.

        A path reads from its lower-numbered end, a cycle from vertex 0
        towards its lower-numbered neighbour.  For a graph given by its
        edges it is found by one walk, once, on first use; path_graph(n)
        and cycle_graph(n) are built with it already set to 0..n-1.
        """
        adj = self._adj
        if not adj or max(map(len, adj)) > 2:
            return None
        v = next((u for u, a in enumerate(adj) if len(a) < 2), 0)
        line, prev = [v], None
        while len(line) < self.n:
            step = [w for w in adj[v] if w != prev]
            if not step or step[0] == line[0]:
                return None  # the component of line[0] is not the whole graph
            prev, v = v, step[0]
            line.append(v)
        return tuple(line)

    @cached_property
    def shape(self) -> str:
        """Kind of graph: "path" (a lone vertex too), "cycle" or "graph"."""
        if self.line is None:
            return "graph"
        return "cycle" if len(self.edges) == self.n else "path"

    def is_cycle(self) -> bool:
        return self.shape == "cycle"

    def is_path(self) -> bool:
        return self.shape == "path"

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "edges": sorted(map(list, self.edges))})

    @staticmethod
    def from_json(text: str) -> "Graph":
        return Graph.from_edges(*_graph_json(text))


def _graph_json(text: str) -> tuple:
    """(n, edges) of a graph's JSON text, checked for shape alone."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise InvalidArgumentError("a graph must be a JSON object")
    for key in ("n", "edges"):
        if key not in data:
            raise InvalidArgumentError(f"missing key {key!r}")
    n, edges = data["n"], data["edges"]
    if not (type(n) is int and n >= 1 and isinstance(edges, list) and all(
            isinstance(e, list) and len(e) == 2
            and all(type(v) is int for v in e) for e in edges)):
        raise InvalidArgumentError("n must be a positive integer and "
                                   "edges a list of integer [u, v] pairs")
    return n, edges


def _line_graph(n: int, cycle: bool) -> Graph:
    """P_n or C_n along 0..n-1 in closed form.  Each field and cached
    property holds what Graph(n, edges) and its first reads would compute,
    but neither __post_init__'s edge checks nor line's walk runs."""
    g = object.__new__(Graph)
    line = tuple(range(n))  # its ints are shared by the edges and neighbours
    edges = zip(line, line[1:])
    inner = zip(line, line[2:])  # (v - 1, v + 1) for 0 < v < n - 1
    if cycle:
        edges = [*edges, (0, n - 1)]
        adj = ((1, n - 1), *inner, (0, n - 2))
    else:
        adj = ((1,), *inner, (n - 2,)) if n > 1 else ((),)
    # a frozen dataclass refuses setattr; its fields live in the instance
    # dict, where the cached properties line and shape are stored too
    vars(g).update(n=n, edges=frozenset(edges), _adj=adj,
                   line=line, shape="cycle" if cycle else "path")
    return g


def path_graph(n: int) -> Graph:
    """Path on vertices 0..n-1 with edges {i, i+1}, built in closed form."""
    if n < 1:
        raise InvalidArgumentError("path needs at least one vertex")
    return _line_graph(n, False)


def cycle_graph(n: int) -> Graph:
    """Cycle on vertices 0..n-1, built in closed form; n >= 3 (smaller
    would need loops/multi-edges)."""
    if n < 3:
        raise InvalidArgumentError("cycle needs at least three vertices")
    return _line_graph(n, True)


def folds(g: Graph, cols) -> list:
    """Whether each vertex's two neighbours along g.line share a color.

    cols[v] is the color of vertex v.  The flags follow g.line: every
    vertex of a cycle, from line[0], or the inner vertices of a path.  A
    fold is the S of the SA word, a symmetrical vertex of the matching.
    """
    word = [cols[v] for v in g.line]
    if g.shape == "cycle":
        return list(map(operator.eq, word[-1:] + word[:-1], word[1:] + word[:1]))
    return list(map(operator.eq, word, word[2:]))


@dataclass(frozen=True)
class Coloring:
    """Total coloring: colors[i] is the color of vertex i, in 1..k."""

    colors: tuple
    k: int

    def __post_init__(self):
        """Raise on a k that is no positive int, then on the first color
        that is not an int, then on the first outside 1..k; a valid
        coloring is checked in C (types, min, max)."""
        cols, k = self.colors, self.k
        if type(k) is not int or k < 1:
            raise InvalidArgumentError(f"k must be a positive int, not {k!r}")
        if not {int}.issuperset(map(type, cols)):
            i, col = next((i, col) for i, col in enumerate(cols)
                          if type(col) is not int)
            raise InvalidArgumentError(f"vertex {i} has color {col!r}, not an int")
        if cols and not 1 <= min(cols) <= max(cols) <= k:
            i, col = next((i, col) for i, col in enumerate(cols)
                          if not 1 <= col <= k)
            raise InvalidArgumentError(f"vertex {i} has color {col} outside 1..{k}")

    @staticmethod
    def from_colors(colors: Iterable, k: Optional[int] = None) -> "Coloring":
        """Each color converted by operator.index, which refuses a float
        where int() would truncate it; k defaults to the greatest, or 1."""
        colors = tuple(colors)
        try:
            colors = tuple(map(operator.index, colors))
        except TypeError:  # name the first color operator.index refuses
            i, col = next((i, c) for i, c in enumerate(colors)
                          if not hasattr(type(c), "__index__"))
            raise InvalidArgumentError(f"vertex {i} has color {col!r}, not an int")
        if not colors:
            raise InvalidArgumentError("coloring must be nonempty")
        return Coloring(colors, max(max(colors), 1) if k is None else k)

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
        """Raise on the first vertex not in g, else on the first step that
        is no edge of g.  The passing case iterates in C: the least and
        greatest vertex, then each step's end in g's neighbour tuple of its
        start."""
        vs, adj = self.vertices, g._adj
        if not 0 <= min(vs) <= max(vs) < g.n:
            v = next(v for v in vs if not 0 <= v < g.n)
            raise InvalidWalkError(f"vertex {v} not in graph")
        if not all(map(operator.contains, map(adj.__getitem__, vs), vs[1:])):
            a, b = next((a, b) for a, b in zip(vs, vs[1:]) if b not in adj[a])
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
        stroll = not any(map(operator.eq, first, second))
        color = c.colors.__getitem__
        repetitive = [*map(color, first)] == [*map(color, second)]
    else:
        boring = stroll = False
        repetitive = None
    simple = len(set(vs)) == len(vs)
    return WalkClass(even, repetitive, boring, stroll, simple)


def _check_coloring(g: Graph, c: Coloring) -> None:
    """The size check of every entry that reads c as a coloring of g."""
    if c.n != g.n:
        raise InvalidArgumentError("coloring size does not match graph")


def is_distance2(g: Graph, c: Coloring):
    """Check the distance-2 property; return None or one offending pair.

    Offending pair: two vertices at distance <= 2 sharing a color; the
    smallest such pair in sorted order is returned, deterministically.
    """
    _check_coloring(g, c)
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
