"""Exact chromatic-value search by backtracking over colorings.

Symmetry breaking: color j may be introduced only after colors 1..j-1 have
appeared (all three properties are invariant under color permutation).
A fixed prefix sits beside it in Colorings, as a color skip, not a rule:
it prunes by fiat, and must introduce its colors in ascending order.
Pruning uses only facts inherited by colored prefixes.  Proper edges and
the distance-2 constraint (walk property) are color skips in Colorings,
not rules.  Every rule is a function of the reversed arc alone (paths and
cycles are colored along Graph.line), and incremental: the shorter prefix
passed, so it looks only at what the newly colored vertex can close: a
suffix square, by one regex match at the start of the reversed arc, or a
repetitive stroll through that vertex inside the arc, read as a path.
With k <= 3 the arc is a proper 3-coloring, which has a repetitive stroll
iff its {S, A} symmetry word holds a forbidden factor (saseq; lemma 4
gives each factor a stroll, lemma 5's factor-free words have none), so
the stroll rule is one startswith of the reversed arc against the
factors' color strings (_factor_free).  It prunes exactly the arcs the
product rule below does, node for node.  With k >= 4 no such word exists
and the product states through the new vertex are read (_StrollPrefix).
On a properly colored arc each product component projects onto two
intervals of positions, so whether it accepts is read off two ints, its
greatest first and least second, kept per column: the states (w, d) of
position d linked to column d - 1 share their component's box, built from
column d - 1's boxes by the call on the arc of d + 1 colors, so the
structure describes the arc as it is colored now with nothing to undo and
no hook in Colorings.  On a cycle, every search also rejects a completed
coloring whose circular color word holds a square, through the closing
edge included, by a regex match on the colors near the last vertex, then
on the whole word read from the seam, twice round
(decide._square_free_line): a repetitive simple path is a repetitive
stroll and a nonboring walk.  Colorings spots this rule by identity, to
call it at the last vertex only.
Completed colorings are always re-checked by final_check: decide.holds,
the product labelling, which shares nothing with the stroll rules, or for
walks on a cycle Barát and Wood's characterisation.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from . import decide
from .decide import _square_free_line, _squares
from .model import Coloring, Graph, InvalidArgumentError
from .saseq import FORBIDDEN_ARCS

DEFAULT_NODE_BUDGET = 10**9


@dataclass
class SolveReport:
    property: str
    graph: dict
    value: Optional[int]
    certificate: Optional[Coloring]
    exhausted_k: list
    nodes_visited: int
    wall_time: float
    aborted: bool = False
    k_max: int = 0
    notes: list = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.value is not None

    def to_json_dict(self) -> dict:
        cert = None
        if self.certificate is not None:
            cert = (self.certificate.to_digits()
                    if self.certificate.k <= 9 else list(self.certificate.colors))
        return {
            "schema": 1,
            "property": self.property,
            "graph": self.graph,
            "value": self.value,
            "certificate": cert,
            "exhausted_k": list(self.exhausted_k),
            "nodes_visited": self.nodes_visited,
            "wall_time": self.wall_time,
            "aborted": self.aborted,
            "k_max": self.k_max,
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _graph_descriptor(g: Graph) -> dict:
    """Kind and size; the edges too unless the labels follow g.line."""
    desc = {"kind": g.shape, "n": g.n}
    if g.line != tuple(range(g.n)):
        desc["edges"] = sorted(map(list, g.edges))
    return desc


def _vertex_order(g: Graph) -> list:
    """g.line on paths and cycles, otherwise BFS from vertex 0."""
    if g.line is not None:
        return list(g.line)
    order, seen, head = [], set(), 0  # order[head:] is the BFS queue
    for root in range(g.n):
        if root not in seen:
            seen.add(root)
            order.append(root)
            while head < len(order):
                for w in g.neighbors(order[head]):
                    if w not in seen:
                        seen.add(w)
                        order.append(w)
                head += 1
    return order


def final_check(g: Graph, c: Coloring, property: str) -> bool:
    """True iff the property's decider finds no violating witness.

    A walk coloring of a cycle is read by Barát and Wood's characterisation
    (decide.is_walk_nonrepetitive_cycle_fast: distance-2 and no square, by
    the bit-parallel scan the walk rules do not use); the rest by holds.
    """
    if property == "walk" and g.shape == "cycle":
        return decide.is_walk_nonrepetitive_cycle_fast(g, c)
    return decide.holds(g, c, property)


class BudgetExhausted(RuntimeError):
    """A search stopped at its node budget; no claim can be made."""


# Prefix rules: rule(arc) tests the reversed color word of the colored
# prefix, arc[0] the color of order[len(arc) - 1], the newest; True = keep
# descending.  Each uses only facts inherited by colored prefixes.  _proper
# and _distance2 are not rules but markers in rules, which Colorings applies
# as color skips: proper edges (all properties imply properness for t=1
# witnesses, except the path property on a 1-edge repetitive path - same
# test), and the distance-2 constraint of the walk property.
_proper, _distance2 = "proper", "distance-2"


# DOTALL because color 10 is "\n"; chr, not bytes, keeps colors above 255.
# Lazy, so that a rejecting node finds its shortest suffix square first
_SQUARE_START = re.compile(r"(..+?)\1", re.DOTALL).match


def _suffix_squares(arc):
    # a square at the start of the reversed arc ends at the newest vertex:
    # its last t colors repeat the t before them, t >= 2 (t = 1 is _proper's)
    return _SQUARE_START(arc) is None


def _closing_squares(arc):
    """No square in the circular color word, through the closing edge too.

    Colorings calls it at the last vertex only; the arc without that
    vertex passed the other rules, so a square left holds it, and most
    are short.  So on n = len(arc) >= 32 the 31 colors within 15 of it,
    arc[-15:] + arc[:16] of the reversed arc, are matched first for a
    square of half-length at most 8 through letter 15, which starts at
    one of their first 16 letters (decide._squares): they are distinct
    vertices, so one found there is on the cycle.  Only then is the whole
    circular word searched (_square_free_line), read reversed from 15
    letters before the seam, so that a square through it is met within
    about 15 starts; a rotation or reversal of a square is a square.
    """
    if len(arc) >= 32 and _squares(16)(arc[-15:] + arc[:16]):
        return False
    return _square_free_line(arc[-15:] + arc[:-15], True)


def _factor_free(arc):
    # a proper 3-colored arc has a repetitive stroll iff its symmetry word
    # holds a forbidden factor (lemmas 4 and 5); the arc before the newest
    # vertex passed, so a factor left holds the newest letter: its colors,
    # read back from the newest, start the reversed arc
    return not arc.startswith(FORBIDDEN_ARCS)


class _StrollPrefix:
    """The stroll rule: no repetitive stroll inside the colored arc.

    The colored arc is an induced path, so a repetitive stroll in it is one
    in g.  Its product states are the color-matched positions
    (x, y), x < y: decide.accepting_starts reads the mirrors (y, x) alike,
    and on a properly colored arc no move reaches the diagonal.  Each move
    shifts each coordinate by one, so a component projects onto two
    intervals, and it accepts, holding (a, b) and (x, y) with |x - b| = 1,
    iff its least second is at most its greatest first + 1 (x < y bounds
    the other two ends).

    A move joins column y (the states (x, y)) only to columns y +- 1, so the
    rule keeps per-column summaries of the arc's components.  Column d is a
    dict {w: box} over the states (w, d) with a move to column d - 1, found
    by the color bigram of positions d - 1, d in the arc; a box is [greatest
    first, least second] of the component, shared by the column's states in
    it, and a state absent from the dict is a singleton.  The call at depth
    d, on an arc of d + 1 colors, reads column d - 1 and writes column d: an
    old box is copied once per component per column (keyed by the box, or by
    position for a singleton), and a state with both moves, (w, d) for a
    fold w, joins two copies; the dead one forwards to the live one until
    the column is settled; (w, d) linked to (w + 1, d - 1) raises no
    greatest first, as its box holds w + 1.  The prefix passed, so only what
    joins the new column can make a component accept.  Column d - 1 was
    written by the last call at depth d - 1, which passed for its current
    color, since the search descends only then, so nothing is logged or
    undone.
    """

    def __init__(self):
        self.cols = {-1: {}}  # depth -> {w: box}, as colored last

    def __call__(self, arc):
        depth = len(arc) - 1  # arc[i]: the color of position depth - i
        prev, col, copies, merged = self.cols[depth - 1], {}, {}, False
        self.cols[depth] = col
        # word[w - 1:w + 1] == word[d - 1:d + 1] links (w, d) to (w - 1, d - 1):
        # arc.find gives i = d - w, past the bigram itself, so w descends and
        # a box's first link sets its greatest first
        bigram = arc[:2]
        i = arc.find(bigram, 1)
        while i > 0:
            w = depth - i
            old = prev.get(w - 1)
            # copies are keyed by the old box, or ~x for a singleton (x, d - 1)
            key = ~(w - 1) if old is None else id(old)
            box = copies.get(key)
            if box is None:
                box = copies[key] = ([w, depth - 1] if old is None
                                     else [max(old[0], w), old[1]])
                if box[1] - box[0] <= 1:
                    return False
            col[w] = box
            i = arc.find(bigram, i + 1)
        # word[w:w + 2] == its reverse links (w, d) to (w + 1, d - 1): i = d - w - 1,
        # past the diagonal (d - 1, d - 1)
        bigram = arc[1::-1]
        i = arc.find(bigram, 2)
        while i > 0:
            w = depth - i - 1
            old = prev.get(w + 1)
            key = ~(w + 1) if old is None else id(old)
            box = copies.get(key)
            if box is None:
                box = copies[key] = ([w + 1, depth - 1] if old is None
                                     else old[:])
            else:
                while len(box) > 2:
                    box = box[2]
            fold = col.get(w)
            if fold is not None:  # w is a fold: (w, d) joins two boxes
                while len(fold) > 2:
                    fold = fold[2]
                if fold is not box:
                    box[:] = max(box[0], fold[0]), min(box[1], fold[1])
                    fold.append(box)
                    merged = True
            col[w] = box
            if box[1] - box[0] <= 1:
                return False
            i = arc.find(bigram, i + 1)
        if merged:
            for w, box in col.items():
                while len(box) > 2:
                    box = box[2]
                col[w] = box
        return True


def _prefix_rules(g: Graph, property: str, k: int) -> tuple:
    """The proper-edge skip, then the skip and rules the property allows.

    A stroll search on a path or cycle prunes by _factor_free with k <= 3,
    where the arc is a proper 3-coloring and the forbidden factors of its
    symmetry word are its repetitive strolls, and by _StrollPrefix with
    k >= 4, where no word characterisation exists.  Both reject an arc iff
    it holds a repetitive stroll, so the nodes, leaves and certificates
    are the same under either.
    """
    linear = g.line is not None
    rules = [_proper]
    if property == "walk":
        rules.append(_distance2)
    if linear and property != "stroll":
        rules.append(_suffix_squares)
    if g.shape == "cycle":
        rules.append(_closing_squares)
    if linear and property == "stroll":
        rules.append(_factor_free if k <= 3 else _StrollPrefix())
    return tuple(rules)


class Colorings:
    """Every k-coloring of g that no prefix rule prunes, depth first.

    Vertices are colored in _vertex_order(g), colors ascending.  Symmetry
    is broken: color j is introduced only after colors 1..j-1 have
    appeared.  The fixed prefix gives order[depth] the color prefix[depth]
    while depth < len(prefix): every other color is tried, counted and
    passed over after the skips below.  `nodes` counts the colors tried so
    far; trying one more than node_budget raises BudgetExhausted.
    _proper and _distance2 among the rules are color skips: a color that
    order[depth] shares with a colored neighbor, or for _distance2 with a
    colored vertex two steps away, is tried and counted, then passed over.
    _closing_squares among the rules is called at a cycle's last vertex
    only.

    Every other rule is called as rule(arc) on the reversed arc, rev[depth]
    = chr(word[depth]) + rev[depth - 1] with word[depth] =
    colors[order[depth]], one string, where a suffix square is one C-level
    regex match at the start.
    """

    def __init__(self, g: Graph, k: int, rules: tuple = (),
                 node_budget: int = DEFAULT_NODE_BUDGET, prefix=()):
        self.g, self.k, self.rules = g, k, rules
        self.node_budget = node_budget
        self.prefix = tuple(prefix)
        self.nodes = 0

    def __iter__(self):
        g, k, n, rules = self.g, self.k, self.g.n, self.rules
        budget, prefix, fixed = self.node_budget, self.prefix, len(self.prefix)
        order = _vertex_order(g)
        proper, dist2 = _proper in rules, _distance2 in rules
        rules = tuple(rule for rule in rules
                      if rule is not _proper and rule is not _distance2)
        # on a line order[depth] differs from order[depth - 1] and, closing a
        # cycle, from order[0]; for _distance2 also from order[depth - 2]
        # and, within 2 of closing a cycle, from order[depth - (n - 2)]
        linear = g.line is not None
        skip, skip2 = linear and proper, linear and dist2
        closing = n - 1 if g.shape == "cycle" else -1
        wrap = n - 2 if g.shape == "cycle" else n  # no depth reaches n
        # off lines, by depth: the vertices colored before order[depth]
        # that it must differ from
        near = None
        if not linear and (proper or dist2):
            near, seen = [], set()
            for v in order:
                reach = set(g.neighbors(v)) if proper else set()
                if dist2:
                    reach.update(w for x in g.neighbors(v)
                                 for w in g.neighbors(x) if w != v)
                near.append(tuple(reach & seen))
                seen.add(v)
        rules_at = [tuple(rule for rule in rules
                          if rule is not _closing_squares)] * n
        if closing >= 0:
            rules_at[closing] = rules  # _closing_squares closes the cycle
        colors = [0] * n  # by vertex; 0 = uncolored, else last color tried
        tops = [1] + [0] * n  # largest color order[depth] may take
        # word[-1] and rev[-1] stand before the arc: no color, the empty arc
        word, rev = [0] * (n + 1), [""] * (n + 1)
        nodes, depth = self.nodes, 0
        while depth >= 0:
            if depth == n:
                self.nodes = nodes
                yield Coloring(tuple(colors), k)
                depth -= 1
                continue
            v = order[depth]
            col = colors[v] + 1
            top = tops[depth]
            if col > top:
                colors[v] = 0
                depth -= 1
                continue
            nodes += 1
            if nodes > budget:
                self.nodes = nodes
                raise BudgetExhausted(f"node budget {budget} exceeded")
            colors[v] = col
            if skip and (col == word[depth - 1]
                         or depth == closing and col == word[0]):
                continue
            # word[-2] is stale, hence depth > 1
            if skip2 and (depth > 1 and col == word[depth - 2]
                          or depth >= wrap and col == word[depth - wrap]):
                continue
            if near and col in map(colors.__getitem__, near[depth]):
                continue
            if depth < fixed and col != prefix[depth]:
                continue
            word[depth] = col
            rev[depth] = arc = chr(col) + rev[depth - 1]
            for rule in rules_at[depth]:
                if not rule(arc):
                    break
            else:
                tops[depth + 1] = top + (col == top < k)  # a new color
                depth += 1
        self.nodes = nodes


def search_fixed_k(g: Graph, property: str, k: int,
                   node_budget: int = DEFAULT_NODE_BUDGET, prefix=()):
    """Exhaustive search for one property-nonrepetitive k-coloring.

    Every pruning rule the property allows is on, and so is symmetry
    breaking, so prefix (Colorings) fixes the colors of the first
    len(prefix) vertices of the order and must introduce them in order.
    Returns (coloring or None, nodes, aborted).  None with aborted=False is
    a completed exhaustion proof for this k (and this prefix).
    """
    if property not in decide.PROPERTIES:
        raise InvalidArgumentError(f"unknown property {property!r}")
    colorings = Colorings(g, k, _prefix_rules(g, property, k), node_budget,
                          prefix)
    try:
        cert = next((c for c in colorings if final_check(g, c, property)), None)
    except BudgetExhausted:
        return None, colorings.nodes, True
    return cert, colorings.nodes, False


def solve(g: Graph, property: str, k_max: int,
          node_budget: int = DEFAULT_NODE_BUDGET) -> SolveReport:
    """Smallest k <= k_max with a property-nonrepetitive k-coloring, by
    search_fixed_k for k = 1, 2, ... under one shared node budget.

    The certificate passes final_check; each smaller k carries a
    completed-exhaustion proof (listed in exhausted_k).  Budget exhaustion
    yields an aborted report with no chromatic claim.
    """
    if k_max < 1:
        raise InvalidArgumentError("k_max must be >= 1")
    t0 = time.perf_counter()
    desc = _graph_descriptor(g)
    total_nodes = 0
    exhausted = []
    for k in range(1, k_max + 1):
        cert, nodes, aborted = search_fixed_k(
            g, property, k, node_budget - total_nodes)
        total_nodes += nodes
        if aborted or cert is not None:
            break
        exhausted.append(k)
    notes = ([f"node budget exceeded at k={k}"] if aborted
             else [f"infeasible for all k <= {k_max}"] if cert is None else [])
    return SolveReport(property, desc, None if cert is None else k, cert,
                       exhausted, total_nodes, time.perf_counter() - t0,
                       aborted=aborted, k_max=k_max, notes=notes)
