"""Exact deciders for path-, stroll- and walk-nonrepetitiveness.

A repetitive walk v_1..v_2t is equivalent to a walk of length t-1 through
product states s_i = (v_i, v_{t+i}) with c(v_i) = c(v_{t+i}), closed by the
link condition v_t ~ v_{t+1}.  The product graph on these at most n^2
states (off the diagonal, for strolls) is undirected: a move joins two
color-matched states, and adjacency is symmetric.  So a start state reaches
another exactly when both lie in one connected component, and deciding the
stroll or walk property is one labelling of the components
(accepting_starts, over one byte per state, in one bytearray per vertex): a
repetitive stroll exists iff a component holds states (a, b) and (x, y)
with x ~ b; a repetitive nonboring walk iff such a component also holds an
off-diagonal state.  The reverse v_2t..v_1 of such a walk is one too,
through the swapped states in reverse order, so swapping coordinates maps
each component onto one that accepts alike: only seeds (u, w) with u < w
are labelled, once per mirror pair.

find_witness builds the witness by BFS from the accepting start states
alone.  On paths and cycles it first builds the color word along the line
once, as one string (_line_text; colors of 256 or more are renamed to
their ranks), and every read of the word takes that text, circular on a
cycle (_circular).  Three readers do the reading:
- _short_witness: a witness of 2 or 4 vertices (an equal edge; a fold
  u x w x, for walks; abab, for strolls), and whether the word has a fold
  (a vertex whose neighbours share a color);
- _square_free_line: the square verdict of holds and search, one match of
  the one square regex (_squares), on the word read twice round on a cycle;
- _least_squares: a bit-parallel scan of the text for its least squares.
A word with no fold has straight-run product components, so its witness
is the least square, or None.  A walk with a fold has a witness of 4
vertices, so only strolls with a fold and no abab are labelled, and graphs
that are not lines: a square-free word labels every component; with a
square, only the components through a state with a fold coordinate,
within the band the least square bounds, are labelled, and the BFS runs
from their starts with the least square as the best so far.  The oracle
module cross-validates all of it.

The path property's witness is the least square on paths and cycles, and
a DFS over simple paths on other graphs; its verdict alone, on paths and
cycles, is the square verdict.

holds gives the verdict alone: the labelling stops at the first accepting
component, and no witness is built.  Its stroll and walk verdicts read
nothing off the color word, unlike the shortcuts above and the Barát–Wood
cycle verdict that checks sigma (is_walk_nonrepetitive_cycle_fast).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import itemgetter
from typing import Optional

from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    Walk,
    WalkClass,
    _check_coloring,
    classify_walk,
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


def accepting_starts(g: Graph, cols, allow_diagonal: bool, seeds):
    """The states that start an accepted product walk, per component, lazily.

    cols[v] is the color of vertex v of g; the seeds are color-matched
    states off the diagonal, as every caller draws them.
    The product graph is undirected: a move joins two color-matched states, and
    adjacency is symmetric.  So a start (a, b) reaches a state (x, y) exactly
    when both lie in one connected component, and it accepts iff its
    component holds a state whose first coordinate is adjacent to b.  For
    nonboring walks (allow_diagonal) the component must also hold an
    off-diagonal state, which its seed is.
    Components are labelled in seed order, each once, in O(S * maxdeg^2) for
    its S states, and each accepting one yields the list of its accepting
    states: asking whether one exists stops at the first.
    A state is one byte, free[u][w]: 1 while (u, w) is color-matched (off
    the diagonal, for strolls) and unlabelled, each row one translate of the
    colors, so a move costs one index and one truth test; n^2 bytes a call.
    On a path or cycle a state (u, w) has the four candidate moves
    (nbr[u][i], nbr[w][j]), i, j in 0, 1, over each vertex's lower and
    higher neighbour (_two_neighbours), in the order of the general loops
    over g's sorted neighbour lists; other graphs take those loops.

    Reversing a walk swaps its states' coordinates, so the mirror swap(K) of
    a component K accepts iff K does.  A seed is skipped if it or its mirror
    is labelled, and an accepting K other than swap(K) yields swap(K)'s
    accepting states as a second list, unlabelled.  So the seeds (u, w)
    with u < w (_seeds) suffice: K or swap(K) holds one if K has an
    off-diagonal state.

    On a path or cycle a component K seeded at least 2|K| apart along
    g.line (round the cycle) accepts nothing, and is not tested.  Were
    (a, b) and (x, y) in K with x ~ b, a shortest path (a, b) = (v_1,
    v_{t+1}), ..., (v_t, v_{2t}) = (x, y) in K would have t <= |K| states,
    each at most t apart, as v_t = x ~ b = v_{t+1} makes v_i..v_{t+i} a
    walk of t steps; every state of K is at most |K| - t moves from it,
    and a move changes the distance by at most 2, so all would lie within
    2|K| - t <= 2|K| - 1.
    """
    adj, line, n = g._adj, g.line, g.n
    try:  # colors below 256: each row is one translate of their bytes, in C
        data = bytearray(cols)
        free = [data.translate(_ONE_HOT[col]) for col in cols]
    except ValueError:  # a color of 256 or more
        free = [bytearray(map(col.__eq__, cols)) for col in cols]
    if not allow_diagonal:
        for u, row in enumerate(free):
            row[u] = 0
    nbr = None
    reach = -1  # the greatest distance along the line; none off lines
    if line is not None:
        nbr = _two_neighbours(g)
        cyclic = g.shape == "cycle"
        reach = n // 2 if cyclic else n - 1
        pos = range(n) if line == tuple(range(n)) else \
            {v: i for i, v in enumerate(line)}
    for a, b in seeds:
        if not free[a][b] or not free[b][a]:
            continue  # labelled, or its mirror is
        free[a][b] = 0
        comp = [(a, b)]
        grow = comp.append
        if nbr is not None:
            for u, w in comp:  # comp grows while it is read: the BFS queue
                u1, u2 = nbr[u]
                w1, w2 = nbr[w]
                row = free[u1]
                if row[w1]:
                    row[w1] = 0
                    grow((u1, w1))
                if row[w2]:
                    row[w2] = 0
                    grow((u1, w2))
                row = free[u2]
                if row[w1]:
                    row[w1] = 0
                    grow((u2, w1))
                if row[w2]:
                    row[w2] = 0
                    grow((u2, w2))
        else:
            for u, w in comp:
                adj_w = adj[w]
                for u2 in adj[u]:
                    row = free[u2]
                    for w2 in adj_w:
                        if row[w2]:
                            row[w2] = 0
                            grow((u2, w2))
        if 2 * len(comp) <= reach:
            d = abs(pos[a] - pos[b])
            if 2 * len(comp) <= (min(d, n - d) if cyclic else d):
                continue  # too far apart to hold a witness
        near = {x for u, _ in comp for x in adj[u]}
        starts = [s for s in comp if s[1] in near]
        if starts:
            yield starts
            if free[b][a]:  # swap(K) is another component
                far = {x for _, w in comp for x in adj[w]}
                yield [(w, u) for u, w in comp if u in far]


def _two_neighbours(g: Graph):
    """nbr[v] = (v's lower neighbour, its higher one) on a path or cycle; a
    path's ends have their one neighbour twice."""
    adj = g._adj
    if g.shape == "cycle":
        return adj
    nbr = list(adj)
    for v in g.line[0], g.line[-1]:
        nbr[v] = adj[v] * 2
    return nbr


def _seeds(cols):
    """Every color-matched state (u, w) with u < w, class by class, lazily."""
    classes = {}
    for v, col in enumerate(cols):
        classes.setdefault(col, []).append(v)
    return chain.from_iterable(map(combinations, classes.values(), repeat(2)))


# an edge joining equal colors, a fold u x w x, four letters abab; as
# lookaheads, every one, overlapping ones too
_EQUAL_EDGE, _FOLD, _ABAB = (re.compile(p, re.DOTALL).search
                             for p in (r"(.)\1", r"(.).\1", r"(.)(.)\1\2"))
_EQUAL_EDGES, _FOLDS, _ABABS = (re.compile(p, re.DOTALL).finditer for p in (
    r"(?=(.)\1)", r"(?=(.).\1)", r"(?=(.)(.)\1\2)"))


def _line_text(g: Graph, cols) -> str:
    """The color word along g.line, one letter per vertex.

    Colors below 256 are read off as bytes, in C.  If any is larger, every
    color is renamed to its rank first: renaming makes or breaks no equal
    edge, fold or square.
    """
    line = g.line
    word = itemgetter(*line)(cols) if len(line) > 1 else (cols[line[0]],)
    try:
        return bytes(word).decode("latin-1")
    except ValueError:  # a color of 256 or more
        rank = {col: chr(i) for i, col in enumerate(sorted(set(word)))}
        return "".join(map(rank.__getitem__, word))


def _circular(g: Graph, text: str) -> tuple:
    """(line, text, ends) for the color word text along g.line (_line_text):
    g.line and text, each twice round on a cycle, so that factors may wrap,
    and the end positions of searches for factors of 2, 3 and 4 letters
    that try each start once, round the cycle."""
    n = len(text)
    if g.shape != "cycle":
        return g.line, text, (n, n, n)
    return g.line * 2, text * 2, (n + 1, n + 2, n + 3)


def _short_witness(g: Graph, text: str, allow_diagonal: bool) -> tuple:
    """(walk, fold) for the color word text along g.line (_line_text), read
    by regex, circularly on a cycle: walk is the best witness of 2 or 4
    vertices the word shows, else None; fold is whether a vertex's two
    neighbours share a color, not read (None) past an equal edge.

    2 if an edge joins equal colors (both properties): the least (u, w),
    either orientation, over the equal edges.  Else 4 for walks if the word
    has a fold, and for strolls if it has four letters abab (two folds in a
    row): the least over the abab factors, read forward and reversed, and
    for walks over the fold walks (x, u, x, w) and (u, x, w, x), either
    order of u and w, at each fold x whose neighbours along g.line are u
    and w.  On a line these are all the walks of 2 and 4 vertices that
    repeat.  Every start is read only once a search has found a witness.
    """
    line, text, (two, three, four) = _circular(g, text)
    if _EQUAL_EDGE(text, 0, two):
        edges = (line[m.start():m.start() + 2]
                 for m in _EQUAL_EDGES(text, 0, two))
        return min((min(e), max(e)) for e in edges), None
    if not _FOLD(text, 0, three):
        return None, False
    if not allow_diagonal and not _ABAB(text, 0, four):
        return None, True
    walks = []
    for m in _ABABS(text, 0, four):
        seg = line[m.start():m.start() + 4]
        walks.append(min(seg, seg[::-1]))
    if allow_diagonal:
        for m in _FOLDS(text, 0, three):
            u, x, w = line[m.start():m.start() + 3]
            if u > w:
                u, w = w, u
            # the least of the four; x != u, as x ~ u
            walks.append((x, u, x, w) if x < u else (u, x, w, x))
    return min(walks), True


def _fold_seeds(g: Graph, text: str, h: int):
    """The seeds at most h apart along g.line, circularly on a cycle, with a
    fold (a vertex whose two neighbours share a color) as a coordinate; text
    is the color word along g.line (_line_text), h at most g.n // 2."""
    n, cyclic = len(text), g.shape == "cycle"
    line, text, (_, three, _) = _circular(g, text)
    for m in _FOLDS(text, 0, three):
        i = (m.start() + 1) % n  # the fold, between two letters alike
        x, col = line[i], text[i]
        lo, hi = i - h, i + h + 1
        if not cyclic:
            lo, hi = max(lo, 0), min(hi, n)
        for j in range(lo, hi):
            if j != i and text[j % n] == col:
                y = line[j % n]
                yield (x, y) if x < y else (y, x)


def _product_search(g: Graph, cols, allow_diagonal: bool):
    """Find the best repetitive stroll (or nonboring walk) via product BFS.

    States are color-matched pairs (u, w); for the nonboring variant the
    diagonal is allowed and a bit tracks whether any off-diagonal state was
    visited (required at acceptance).  A product walk s_1..s_t is accepted
    when first(s_t) is adjacent to second(s_1), reconstructing the walk
    firsts + seconds of length 2t.

    On a path or cycle the color word along g.line is built once, as one
    string (_line_text), and only searched.  A walk v_1..v_2t with 2t <= L
    starts at (v_1, v_{t+1}), at most L/2 apart along g.line.
    - A witness of 2 or 4 vertices in the word: it is read off the word
      (_short_witness), with nothing labelled.
    - No fold (no vertex whose neighbours share a color): where neither
      coordinate of a state is a fold, a move of one fixes the other's, so
      a fold-free component is a straight run along g.line of constant
      difference d, accepting only at a square of half-length d, or of
      constant sum, reaching adjacency only through an equal edge or the
      diagonal, which needs a fold.  So the witness is the least square
      (_least_squares), or None if the word has no square
      (_square_free_line).
    Walks with a fold have a witness of 4 vertices, so only strolls with a
    fold and no abab, and graphs that are not lines, are labelled:
    - no square: every component, from _seeds, as off paths and cycles;
    - a square, the least of L vertices (_least_squares): a witness that
      beats it passes a state with a fold coordinate, all its states at
      most L/2 apart, so only the components through such a seed
      (_fold_seeds) are labelled, both orientations, and the least square
      is the first best.
    Each start's BFS stops where its walks would be longer than the best
    so far; on that last route it skips a start farther apart than half
    the best's length, and a state whose first vertex is too far along
    g.line to reach the start's second vertex's neighbours in time.

    Returns the lexicographically smallest (2t, walk) over all start states,
    or None: the witness is shortest, ties break to the lowest starting
    vertex and then the lexicographically smallest walk.
    """
    adj, line = g._adj, g.line
    best = seeds = apart = None  # best: (length, walk tuple)
    if line:
        text = _line_text(g, cols)
        walk, fold = _short_witness(g, text, allow_diagonal)
        if walk:
            return walk
        if not _square_free_line(text, g.shape == "cycle"):
            squares = _least_squares(g, text)
            best = (len(squares[0]), min(squares))
        if not fold:
            return best and best[1]
        if best:
            # no witness is longer than the square, and one that beats it
            # passes a fold state, all its states at most best[0] / 2 apart
            seeds = _fold_seeds(g, text, best[0] // 2)
    if seeds is None:
        seeds = _seeds(cols)
    starts = set().union(*accepting_starts(g, cols, allow_diagonal, seeds))
    if best:
        pos = {v: i for i, v in enumerate(line)}
        span = len(line) if g.shape == "cycle" else 2 * len(line)

        def apart(u, w):  # along g.line; on a path span - d > d
            d = abs(pos[u] - pos[w])
            return min(d, span - d)

    for s0 in sorted(starts):
        a, b = s0
        # walks from s0 begin with a, and starts ascend: up to best's first
        # vertex a walk as long as best can be better, past it only a
        # strictly shorter one
        longest = (None if best is None else
                   best[0] if a <= best[1][0] else best[0] - 2)
        if apart and 2 * apart(a, b) > longest:
            continue  # a walk of 2t vertices starts at most t apart
        start_bit = a != b  # always set for strolls: no diagonal states
        # BFS over (state, off_diagonal_seen)
        pred = {(s0, start_bit): None}
        frontier = [(s0, start_bit)]
        accepted = []  # nodes satisfying the link condition, at the least depth
        link = adj[b]  # first(s_t) must be one of these
        if start_bit and a in link:
            accepted.append((s0, start_bit))
        d = 0
        while frontier and not accepted:
            d += 1
            if longest is not None and 2 * (d + 1) > longest:
                break  # walks found from here on cannot beat best
            nxt = []
            for (u, w), bit in frontier:
                for u2 in adj[u]:
                    cu2 = cols[u2]
                    for w2 in adj[w]:
                        if cols[w2] != cu2 or u2 == w2 and not allow_diagonal:
                            continue
                        if apart and apart(u2, b) > longest // 2 - d:
                            continue  # too far to reach the link in time
                        node = ((u2, w2), bit or u2 != w2)
                        if node in pred:
                            continue
                        pred[node] = ((u, w), bit)
                        nxt.append(node)
                        if node[1] and u2 in link:
                            accepted.append(node)
            frontier = nxt
        # reconstruct all accepted product walks at minimal distance and
        # keep the lexicographically smallest resulting walk
        for node in accepted:
            trail, cur = [], node
            while cur is not None:
                trail.append(cur[0])
                cur = pred[cur]
            trail.reverse()
            walk = tuple(s[0] for s in trail) + tuple(s[1] for s in trail)
            cand = (len(walk), walk)
            if best is None or cand < best:
                best = cand
    return best and best[1]


def _witness(g: Graph, c: Coloring, violated: str, search, *args):
    """The Witness of the walk search(g, c.colors, *args) finds, or None."""
    _check_coloring(g, c)
    walk = search(g, c.colors, *args)
    if walk is None:
        return None
    w = Walk(walk)
    return Witness(w, classify_walk(g, c, w), violated)


def exists_repetitive_stroll(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive stroll witness, or None iff c is stroll-nonrepetitive."""
    return _witness(g, c, "stroll", _product_search, False)


def exists_repetitive_nonboring_walk(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive nonboring walk witness, or None iff c is walk-nonrepetitive."""
    return _witness(g, c, "walk", _product_search, True)


def exists_repetitive_path(g: Graph, c: Coloring) -> Optional[Witness]:
    """Return a repetitive simple path witness, or None iff c is path-nonrepetitive.

    The witness is the shortest repetitive simple path, and among those the
    lexicographically least vertex sequence: lowest start vertex, then the
    direction in g.neighbors(start) order.  On paths and cycles (g.line) a
    simple path is a factor of the color word, of the circular word on a
    cycle, and the check is the bit-parallel scan of its text for the least
    squares (_least_squares): O(log n) operations on ints of about n bits
    per half-length.  On any other graph it is a DFS over simple paths,
    exponential in general.
    """
    if g.shape == "graph":
        return _witness(g, c, "path", _square_path_dfs)
    return _witness(g, c, "path", lambda g, cols: min(
        _least_squares(g, _line_text(g, cols)), default=None))


# _BIT_TABLES[b] maps a byte to b"1" if its bit b is set, else to b"0"
_BIT_TABLES = [bytes(b"01"[x >> b & 1] for x in range(256)) for b in range(8)]
# _ONE_HOT[c] maps byte c to 1 and every other byte to 0 (accepting_starts)
_ONE_HOT = [bytes(c) + b"\1" + bytes(255 - c) for c in range(256)]


def _bit_planes(text: str) -> list:
    """The letters of text as bit-planes: bit i of plane b is bit b of
    text[i]'s code.

    Codes below 256, the text of at most 256 colors, take one
    bytes.translate per plane; larger ones a plain loop.  int(·, 2) reads
    its first digit as the top bit, hence the reversal.
    """
    try:
        data = text[::-1].encode("latin-1")
    except UnicodeEncodeError:  # more than 256 colors, renamed to ranks
        codes = list(map(ord, reversed(text)))
        return [int("".join(["1" if code >> b & 1 else "0" for code in codes]), 2)
                for b in range(max(codes).bit_length())]
    return [int(data.translate(table), 2)
            for table in _BIT_TABLES[:max(data).bit_length()]]


def _least_squares(g: Graph, text: str) -> list:
    """The squares of least length in the color word text along g.line
    (_line_text), as walks in both directions, or [] if it has none.

    The text is read twice round on a cycle (_circular), so that factors
    may wrap, and held as bit-planes, one int per bit of its letters.  A
    factor of 2t vertices from i is a square iff eq_t, whose bit j means
    text[j] == text[j + t], holds at bits i..i + t - 1.  eq_t is the
    complement of the planes XORed with themselves shifted by t, for all j
    at once, and its runs of t ones come from about log2(t) shift-ANDs
    (Baeza-Yates and Gonnet's shift-and).  So each half-length costs
    O(log t) operations on ints of the word's length, not a step per
    letter.  The first t with a run is the least; the reverse of a square
    is a square, so each square found gives both directions as candidates.
    On a cycle a square from i >= n is the one from i - n, vertex for
    vertex.
    """
    n = len(text)
    line, text, _ = _circular(g, text)
    planes = _bit_planes(text)
    full = (1 << len(text)) - 1
    for t in range(1, n // 2 + 1):
        run = full >> t  # eq_t, for j + t inside the word
        for plane in planes:
            run &= ~(plane ^ plane >> t)
        have = 1  # bit i of run: eq_t holds at bits i..i + have - 1
        while run and have < t:
            step = have if 2 * have <= t else t - have
            run &= run >> step
            have += step
        if run:
            squares = []
            while run:
                i = (run & -run).bit_length() - 1
                run &= run - 1
                seg = line[i:i + 2 * t]
                squares += (seg, seg[::-1])
            return squares
    return []


@lru_cache(maxsize=128)
def _squares(m: int):
    """match(text) for a square of half-length at most m // 2 starting at
    one of text's first m letters, m >= 2; DOTALL, as color 10 is "\n"."""
    return re.compile(rf".{{0,{m - 1}}}?(.{{1,{m // 2}}})\1", re.DOTALL).match


def _square_free_line(text: str, cyclic: bool) -> bool:
    """No square in the color word text along a line (_line_text), or in
    the circular word on a cycle (cyclic): one match of _squares(n).

    Every square of a linear word of n letters has a half of at most
    n // 2 and starts at one of its first n letters.  A circular word is
    read twice round, text * 2, where each of its circular factors of at
    most n letters starts at one of the first n letters; their squares have
    halves of at most n // 2.
    """
    n = len(text)
    return n < 2 or _squares(n)(text * 2 if cyclic else text) is None


def _square_path_dfs(g: Graph, cols) -> Optional[tuple]:
    """The witness of exists_repetitive_path on any graph, or None, by DFS.

    Simple paths are enumerated shortest order first; within one order,
    starts ascend and extensions follow the sorted adjacency, so the first
    square found is the lexicographically least.
    """
    n, adj = g.n, g._adj
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
                        return tuple(path)
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


def holds(g: Graph, c: Coloring, property: str) -> bool:
    """True iff find_witness(g, c, property) is None, without building one.

    Stroll and walk label the product components from every seed (_seeds),
    and no state past the first accepting component.  It takes none of
    find_witness's reads of the color word (a short witness, a square, the
    folds): the fold route rests on the cycle characterization (walk-
    nonrepetitive iff distance-2 and path-nonrepetitive) in product form,
    and claim_hierarchy checks that characterization through holds, so it
    must not assume it.
    Path on a path or cycle is one regex search of the color word's text
    (_line_text) for a square (_square_free_line), not the scan that finds
    the least witness; elsewhere it is the simple-path DFS.
    """
    if property not in PROPERTIES:
        raise InvalidArgumentError(f"unknown property {property!r}")
    _check_coloring(g, c)
    cols = c.colors
    if property == "path":
        if g.shape == "graph":
            return _square_path_dfs(g, cols) is None
        return _square_free_line(_line_text(g, cols), g.shape == "cycle")
    diagonal = property == "walk"
    starts = accepting_starts(g, cols, diagonal, _seeds(cols))
    return next(starts, None) is None


def is_walk_nonrepetitive_cycle_fast(g: Graph, c: Coloring) -> bool:
    """Cycle shortcut: walk-nonrepetitive iff distance-2 and path-nonrepetitive.

    Both are read off the circular color word (_line_text): distance-2 is
    no equal edge and no fold (_short_witness finds neither; for strolls,
    so that a fold lists no walks), then no square by the bit-parallel scan
    (_least_squares), not search's regex; Barát and Wood, EJC 15 (2008) R99.
    """
    if not g.is_cycle():
        raise InvalidArgumentError("fast check applies to cycles only")
    _check_coloring(g, c)
    text = _line_text(g, c.colors)
    return _short_witness(g, text, False) == (None, False) and \
        not _least_squares(g, text)
