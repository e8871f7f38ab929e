"""Certificate builders for paths and cycles.

Walk-nonrepetitive colorings for cycles up to 21 vertices are embedded as
data; longer cycles get a 4-coloring built by subdividing a matching of an
even base cycle carrying a path-nonrepetitive 3-coloring, with the new
vertices colored 4.  The base is Thue's square-free word with a searched
tail that closes the cycle.  Stroll certificates for paths up to 21
vertices come from one word, lemma 5's longest symmetry word decoded.
Each certificate is checked once (_self_check), by search.final_check:
sigma's for walks on C_n by Barát and Wood's characterization, which
covers it as the stroll certificate of P_n and C_n, n >= 22; the other
words by decide.holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import saseq, search
from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    cycle_graph,
    folds,
    path_graph,
)

# minimum walk-nonrepetitive colorings of C_4..C_21
WALK_NONREP_CYCLE_TABLE = {
    4: (4, (1, 2, 3, 4)),
    5: (5, (1, 2, 3, 4, 5)),
    6: (4, (1, 2, 3, 4, 2, 3)),
    7: (5, (1, 2, 3, 4, 2, 5, 3)),
    8: (4, (1, 2, 3, 4, 1, 2, 4, 3)),
    9: (4, (1, 2, 3, 4, 1, 3, 2, 4, 3)),
    10: (4, (1, 2, 3, 4, 1, 2, 4, 3, 2, 4)),
    11: (4, (1, 2, 3, 1, 2, 4, 3, 2, 1, 3, 4)),
    12: (4, (1, 2, 3, 4, 1, 2, 4, 3, 1, 4, 2, 3)),
    13: (4, (1, 2, 3, 4, 1, 2, 4, 3, 1, 4, 3, 2, 4)),
    14: (4, (1, 2, 3, 1, 2, 4, 1, 2, 3, 1, 4, 2, 3, 4)),
    15: (4, (1, 2, 3, 1, 4, 2, 1, 4, 3, 1, 4, 2, 1, 3, 4)),
    16: (4, (1, 2, 3, 1, 4, 2, 3, 4, 2, 1, 4, 2, 3, 1, 4, 3)),
    17: (4, (1, 2, 3, 1, 4, 3, 2, 4, 1, 3, 4, 2, 3, 1, 2, 3, 4)),
    18: (4, (1, 2, 3, 1, 4, 2, 3, 4, 1, 3, 2, 4, 1, 2, 3, 1, 4, 3)),
    19: (4, (1, 2, 3, 4, 2, 3, 1, 2, 4, 1, 2, 3, 4, 1, 3, 2, 1, 3, 4)),
    20: (4, (1, 2, 3, 1, 4, 2, 1, 4, 3, 2, 4, 1, 2, 3, 1, 2, 4, 1, 3, 4)),
    21: (4, (1, 2, 3, 4, 1, 2, 4, 1, 3, 4, 2, 1, 3, 2, 4, 3, 2, 1, 4, 2, 3)),
}

# stroll-nonrepetitive 3-coloring of the 21-vertex path, decoded from the
# longest word lemma 5 allows; its prefixes cover every shorter path
STROLL_NONREP_P21 = saseq.decode_sa(saseq.LONGEST_H_FREE_WORD, "path").colors

# minimum stroll-nonrepetitive colorings of C3..C8; C7's is a 6-vertex
# stroll word plus a singleton color 4
STROLL_NONREP_SMALL_CYCLES = {
    3: (1, 2, 3), 4: (1, 2, 1, 3), 5: (1, 2, 1, 3, 4), 6: (2, 1, 2, 3, 1, 3),
    7: STROLL_NONREP_P21[:6] + (4,), 8: (1, 2, 1, 3, 2, 1, 2, 3)}


@dataclass(frozen=True)
class EdgeClass:
    edge: tuple  # (u, v)
    good: bool  # bad iff incident to a symmetrical vertex


@dataclass(frozen=True)
class ConstructionTrace:
    base_cycle_n: int  # 2k
    base_coloring: Coloring  # path-nonrepetitive 3-coloring of the base
    matching: tuple  # edges e_i = (v_{2i}, v_{2i+1})
    removed_good_edges: tuple  # the m matching edges left unsubdivided
    subdivided_edges: tuple  # S', the edges replaced by 2-edge paths
    final_coloring: Coloring

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "base_cycle_n": self.base_cycle_n,
            "base_coloring": self.base_coloring.to_digits(),
            "matching": [list(e) for e in self.matching],
            "removed_good_edges": [list(e) for e in self.removed_good_edges],
            "subdivided_edges": [list(e) for e in self.subdivided_edges],
            "final_coloring": self.final_coloring.to_digits(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def _require(ok: bool, fact: str) -> None:
    """Proof obligation of a construction; unlike assert, kept under -O."""
    if not ok:
        raise RuntimeError(f"proof obligation failed: {fact}")


def _self_check(g: Graph, coloring: Coloring, prop: str) -> None:
    """Raise unless coloring is prop-nonrepetitive on g, by the verdict the
    search gives its leaves (search.final_check)."""
    if not search.final_check(g, coloring, prop):
        raise RuntimeError("constructed coloring failed self-verification")


def table1_coloring(n: int):
    """Embedded minimum walk-nonrepetitive coloring of C_n, 4 <= n <= 21."""
    if n not in WALK_NONREP_CYCLE_TABLE:
        raise InvalidArgumentError(f"no embedded cycle coloring for n={n}")
    value, colors = WALK_NONREP_CYCLE_TABLE[n]
    return value, Coloring(colors, value)


def classify_edges(g: Graph, c: Coloring) -> list:
    """Good/bad classification of the matching e_i = (v_2i, v_2i+1).

    v_0, v_1, ... is g.line, the order around the cycle.  Requires an even
    cycle with a proper path-nonrepetitive 3-coloring.  v_i is
    symmetrical iff it is a fold (model.folds): the colors at i - 1 and
    i + 1 along g.line, round the cycle, are equal.  For cycles of length
    >= 16 at least two matching edges must come out good; a violation on
    valid input indicates an upstream bug.
    """
    if not g.is_cycle() or g.n % 2:
        raise InvalidArgumentError("matching classification needs an even cycle")
    if max(c.colors) > 3:
        raise InvalidArgumentError("edge classification is defined for 3-colorings")
    k, line = g.n // 2, g.line
    symmetrical = folds(g, c.colors)  # round the cycle, from line[0]
    out = [EdgeClass((line[i], line[i + 1]),
                     not (symmetrical[i] or symmetrical[i + 1]))
           for i in range(0, 2 * k, 2)]
    _require(k < 8 or sum(e.good for e in out) >= 2,
             "a path-nonrepetitive 3-coloring of an even cycle of length "
             ">= 16 leaves at least two good matching edges")
    return out


def subdivide_cycle(base: Coloring, subdivide: list):
    """Cycle obtained by subdividing the given matching edges of a base cycle.

    subdivide lists matching indices i (edge (2i, 2i+1)); the inserted
    vertices get color 4.  Returns (graph, coloring) with vertices
    relabeled 0..n-1 in cyclic order.
    """
    m = base.n
    chosen = set(subdivide)
    colors = []
    for v in range(m):
        colors.append(base.colors[v])
        if v % 2 == 0 and v // 2 in chosen:
            colors.append(4)
    return cycle_graph(len(colors)), Coloring(tuple(colors), max(4, base.k))


def _base_coloring(g: Graph, node_budget: int) -> Coloring:
    """Path-nonrepetitive 3-coloring of the even base cycle g = C_m.

    Its first m - w vertices follow Thue's square-free word, letter
    i = t(i) - t(i + 1) + 2 with t the Thue-Morse parity (1231321232...,
    canonical under symmetry breaking); the search colors the last w.
    w = m, the lex-least search, up to m = 60; above, w starts at 24 and
    doubles until a tail closes the cycle or w reaches m.  The windows
    share node_budget.
    """
    m = g.n
    w, thue = m, []
    if m > 60:
        w = 24
        t = [bin(i).count("1") % 2 for i in range(m + 1)]
        thue = [t[i] - t[i + 1] + 2 for i in range(m)]
    while True:
        cert, nodes, aborted = search.search_fixed_k(
            g, "path", 3, node_budget, prefix=thue[:m - w])
        if aborted:
            raise search.BudgetExhausted(
                "base path-nonrepetitive search exceeded its budget")
        if cert is not None or w == m:
            break
        node_budget -= nodes
        w = min(2 * w, m)
    _require(cert is not None,
             "even cycles of length >= 16 are 3-path-colorable")
    return cert


def sigma_cycle_coloring(n: int, node_budget: int = search.DEFAULT_NODE_BUDGET):
    """Walk-nonrepetitive 4-coloring of C_n for n > 21, with its trace.

    Pipeline: a path-nonrepetitive 3-coloring of the even base cycle C_2k
    with k = ceil(n/3) (_base_coloring); drop m = 3k - n good matching
    edges; subdivide the remaining matching edges once, coloring the new
    vertices 4.  Its walk check (_self_check) takes 0.05 s of the 1.3-2.1 s
    at n = 10,000, most of the rest the base search (2 cores, Python 3.11.7).
    """
    if n <= 21:
        raise InvalidArgumentError("subdivision construction applies for n > 21")
    k = math.ceil(n / 3)
    m = 3 * k - n
    _require(m in (0, 1, 2) and k >= 8, f"bad base size k={k}, m={m}")
    base_graph = cycle_graph(2 * k)
    base = _base_coloring(base_graph, node_budget)
    classes = classify_edges(base_graph, base)
    good = [i for i, e in enumerate(classes) if e.good]
    removed = good[:m]
    # the removed edges are drawn from the good ones, so every bad matching
    # edge is kept: each symmetrical base vertex sits on a subdivided edge
    keep = [i for i in range(k) if i not in removed]
    g, coloring = subdivide_cycle(base, keep)
    _require(g.n == n, f"fewer than m = {m} matching edges are good")
    _self_check(g, coloring, "walk")
    trace = ConstructionTrace(
        base_cycle_n=2 * k,
        base_coloring=base,
        matching=tuple(e.edge for e in classes),
        removed_good_edges=tuple(classes[i].edge for i in removed),
        subdivided_edges=tuple(classes[i].edge for i in keep),
        final_coloring=coloring,
    )
    return trace, coloring


def rho_path_coloring(n: int, node_budget: int = search.DEFAULT_NODE_BUDGET):
    """Minimum-stroll certificate for the n-vertex path, using value colors.

    3 <= n <= 21 returns a prefix of the embedded 21-vertex word (two colors
    suffice for n = 3, where any repetitive walk pins the middle vertex),
    checked by the stroll decider.  n >= 22 returns sigma_cycle_coloring(n)
    unchanged, 4 colors by exhaustion of the 3-color case, and sigma's
    Barát–Wood walk check covers it: each walk of P_n is one of C_n, and a
    repetitive stroll is a nonboring repetitive walk (Barát and Wood,
    Electron. J. Combin. 15 (2008) R99).
    """
    if n < 3:
        raise InvalidArgumentError("need at least three vertices")
    if n >= 22:
        coloring = sigma_cycle_coloring(n, node_budget)[1]
    else:
        coloring = Coloring.from_colors(STROLL_NONREP_P21[:n])
        _self_check(path_graph(n), coloring, "stroll")
    return coloring.k, coloring


def rho_cycle_coloring(n: int, node_budget: int = search.DEFAULT_NODE_BUDGET):
    """Minimum-stroll certificate for the n-vertex cycle, using value colors.

    C3..C8 take STROLL_NONREP_SMALL_CYCLES, C9..C21 the walk-nonrepetitive
    table, each checked by the stroll decider; n >= 22 returns
    sigma_cycle_coloring(n) unchanged, its walk check covering strolls
    (rho_path_coloring).
    """
    if n < 3:
        raise InvalidArgumentError("need at least three vertices")
    if n >= 22:
        coloring = sigma_cycle_coloring(n, node_budget)[1]
    else:
        coloring = (Coloring.from_colors(STROLL_NONREP_SMALL_CYCLES[n])
                    if n <= 8 else table1_coloring(n)[1])
        _self_check(cycle_graph(n), coloring, "stroll")
    return coloring.k, coloring


def figure1_fixture():
    """10-vertex unicyclic regression fixture.

    Triangle 0-1-2 colored 1, 2, 3 with a pendant path 1-3-4-5-6-7-8-9
    colored 4, 1, 2, 3, 1, 2, 4: distance-2 and path-nonrepetitive, yet a
    repetitive nonboring walk exists.
    """
    edges = [(0, 1), (0, 2), (1, 2), (1, 3),
             (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
    g = Graph.from_edges(10, edges)
    c = Coloring.from_colors((1, 2, 3, 4, 1, 2, 3, 1, 2, 4))
    return g, c
