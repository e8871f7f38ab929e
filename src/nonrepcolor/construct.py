"""Certificate builders for paths and cycles.

Walk-nonrepetitive colorings for cycles up to 21 vertices are embedded as
data; longer cycles get a 4-coloring built by subdividing a matching of an
even base cycle carrying a path-nonrepetitive 3-coloring, with the new
vertices colored 4.  Stroll certificates for paths come from one embedded
21-vertex word; longer paths fall back to search.  Every constructed
coloring is re-checked by the corresponding decider before it is returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

from . import decide, search
from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    cycle_graph,
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

# stroll-nonrepetitive 3-coloring of the 21-vertex path; its prefixes cover
# every shorter path
STROLL_NONREP_P21 = (1, 2, 1, 3, 1, 2, 3, 2, 1, 3, 2, 3, 1, 2, 3, 2, 1, 3, 1, 2, 1)

# desk-scale cap: base searches beyond this are not calibrated
SIGMA_CYCLE_MAX_N = 90


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


def table1_coloring(n: int):
    """Embedded minimum walk-nonrepetitive coloring of C_n, 4 <= n <= 21."""
    if n not in WALK_NONREP_CYCLE_TABLE:
        raise InvalidArgumentError(f"no embedded cycle coloring for n={n}")
    value, colors = WALK_NONREP_CYCLE_TABLE[n]
    return value, Coloring(colors, value)


def is_symmetrical(g: Graph, c: Coloring, v: int) -> bool:
    """Degree-2 vertex whose two neighbors share a color."""
    if g.degree(v) != 2:
        return False
    a, b = g.neighbors(v)
    return c.colors[a] == c.colors[b]


def classify_edges(g: Graph, c: Coloring) -> list:
    """Good/bad classification of the matching e_i = (v_2i, v_2i+1).

    Requires an even cycle with a proper path-nonrepetitive 3-coloring.
    For cycles of length >= 16 at least two matching edges must come out
    good; a violation on valid input indicates an upstream bug.
    """
    if not g.is_cycle() or g.n % 2:
        raise InvalidArgumentError("matching classification needs an even cycle")
    if max(c.colors) > 3:
        raise InvalidArgumentError("edge classification is defined for 3-colorings")
    k = g.n // 2
    out = []
    for i in range(k):
        u, v = 2 * i, 2 * i + 1
        good = not (is_symmetrical(g, c, u) or is_symmetrical(g, c, v))
        out.append(EdgeClass((u, v), good))
    _require(k < 8 or sum(e.good for e in out) >= 2,
             "a path-nonrepetitive 3-coloring of an even cycle of length "
             ">= 16 leaves at least two good matching edges")
    return out


def subdivide_cycle(base: Coloring, subdivide: list, new_color: int = 4):
    """Cycle obtained by subdividing the given matching edges of a base cycle.

    subdivide lists matching indices i (edge (2i, 2i+1)); the inserted
    vertices get new_color.  Returns (graph, coloring) with vertices
    relabeled 0..n-1 in cyclic order.
    """
    m = base.n
    chosen = set(subdivide)
    colors = []
    for v in range(m):
        colors.append(base.colors[v])
        if v % 2 == 0 and v // 2 in chosen:
            colors.append(new_color)
    n = len(colors)
    return cycle_graph(n), Coloring(tuple(colors), max(new_color, base.k))


def sigma_cycle_coloring(n: int, node_budget: int = search.DEFAULT_NODE_BUDGET):
    """Walk-nonrepetitive 4-coloring of C_n for n > 21, with its trace.

    Pipeline: search a path-nonrepetitive 3-coloring of the even base cycle
    C_2k with k = ceil(n/3); drop m = 3k - n good matching edges; subdivide
    the remaining matching edges once, coloring the new vertices 4.  The
    result is checked by the full walk decider before returning.
    """
    if n <= 21:
        raise InvalidArgumentError("subdivision construction applies for n > 21")
    if n > SIGMA_CYCLE_MAX_N:
        raise InvalidArgumentError(
            f"desk-scale cap exceeded (n <= {SIGMA_CYCLE_MAX_N})")
    k = math.ceil(n / 3)
    m = 3 * k - n
    _require(m in (0, 1, 2) and k >= 8, f"bad base size k={k}, m={m}")
    base_graph = cycle_graph(2 * k)
    report = search.solve(base_graph, "path", 3, node_budget=node_budget)
    if report.aborted:
        raise search.BudgetExhausted(
            "base path-nonrepetitive search exceeded its budget")
    _require(report.value == 3,
             "even cycles of length >= 16 are 3-path-colorable")
    base = report.certificate
    classes = classify_edges(base_graph, base)
    good = [i for i, e in enumerate(classes) if e.good]
    removed = good[:m]
    keep = [i for i in range(k) if i not in set(removed)]
    g, coloring = subdivide_cycle(base, keep)
    _require(g.n == n, f"subdivided cycle has {g.n} vertices, not {n}")
    # symmetrical base vertices must all sit on a subdivided edge
    kept = set(keep)
    _require(all(v // 2 in kept for v in range(2 * k)
                 if is_symmetrical(base_graph, base, v)),
             "symmetrical vertex left uncovered")
    if decide.exists_repetitive_nonboring_walk(g, coloring) is not None:
        raise RuntimeError("constructed coloring failed self-verification")
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
    """Minimum-stroll certificate for the n-vertex path.

    3 <= n <= 21 returns a prefix of the embedded 21-vertex word (two colors
    suffice for n = 3, where any repetitive walk pins the middle vertex);
    n >= 22 searches for a 4-coloring, the value being 4 by exhaustion of
    the 3-color case.  The certificate is always re-checked.
    """
    if n < 3:
        raise InvalidArgumentError("need at least three vertices")
    g = path_graph(n)
    if n <= 21:
        coloring = Coloring.from_colors(STROLL_NONREP_P21[:n])
        value = coloring.k
    else:
        cert, _, aborted = search.search_fixed_k(
            g, "stroll", 4, node_budget=node_budget)
        if aborted:
            raise search.BudgetExhausted(
                "stroll certificate search exceeded its budget")
        _require(cert is not None,
                 "no stroll-nonrepetitive 4-coloring of the path")
        value, coloring = 4, cert
    if decide.exists_repetitive_stroll(g, coloring) is not None:
        raise RuntimeError("constructed coloring failed self-verification")
    return value, coloring


def rho_cycle_coloring(n: int, node_budget: int = search.DEFAULT_NODE_BUDGET):
    """Minimum-stroll certificate for the n-vertex cycle.

    Small cases carry the explicit colorings (two singleton colors for
    n in {3, 4}; one repeated color for n = 5; dedicated words for 6 and 8;
    a 6-vertex stroll word plus a singleton color 4 for n = 7).  For n >= 9
    the walk-nonrepetitive 4-coloring also works, since walk-nonrepetitive
    colorings have no repetitive stroll.
    """
    if n < 3:
        raise InvalidArgumentError("need at least three vertices")
    g = cycle_graph(n)
    if n == 3:
        value, coloring = 3, Coloring.from_colors((1, 2, 3))
    elif n == 4:
        value, coloring = 3, Coloring.from_colors((1, 2, 1, 3))
    elif n == 5:
        value, coloring = 4, Coloring.from_colors((1, 2, 1, 3, 4))
    elif n == 6:
        value, coloring = 3, Coloring.from_colors((2, 1, 2, 3, 1, 3))
    elif n == 7:
        value, coloring = 4, Coloring.from_colors(STROLL_NONREP_P21[:6] + (4,))
    elif n == 8:
        value, coloring = 3, Coloring.from_colors((1, 2, 1, 3, 2, 1, 2, 3))
    elif n <= 21:
        _, coloring = table1_coloring(n)
        value = 4
    else:
        _, coloring = sigma_cycle_coloring(n, node_budget=node_budget)
        value = 4
    if decide.exists_repetitive_stroll(g, coloring) is not None:
        raise RuntimeError("constructed coloring failed self-verification")
    return value, coloring


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
