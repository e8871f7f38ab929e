"""Exact chromatic-value search by backtracking over colorings.

Symmetry breaking: color j may be introduced only after colors 1..j-1 have
appeared (all three properties are invariant under color permutation).
Pruning uses only facts inherited by colored prefixes: proper edges, the
distance-2 constraint (walk property), repetitive contiguous even segments
inside the colored arc (path/cycle vertex order), and for the stroll
property a full product-graph check of the colored prefix path.  Completed
colorings are always re-checked with the full decider.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Optional

from . import decide
from .model import Coloring, Graph, InvalidArgumentError, path_graph

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
    desc = {"kind": g.shape, "n": g.n}
    if g.shape == "graph":
        desc["edges"] = sorted(map(list, g.edges))
    return desc


def _vertex_order(g: Graph) -> list:
    """Natural order on paths/cycles, otherwise BFS from vertex 0."""
    if g.shape != "graph":
        return list(range(g.n))
    order, seen = [], set()
    for root in range(g.n):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return order


def final_check(g: Graph, c: Coloring, property: str) -> bool:
    """True iff the property's decider finds no violating witness."""
    return decide.find_witness(g, c, property) is None


class BudgetExhausted(RuntimeError):
    """A search stopped at its node budget; no claim can be made."""


class _Budget(Exception):
    pass


class _Searcher:
    def __init__(self, g, property, k, order, node_budget, symmetry_break, prune):
        self.g = g
        self.property = property
        self.k = k
        self.order = order
        self.node_budget = node_budget
        self.symmetry_break = symmetry_break
        # prefix facts inherited from the property (see _prefix_ok)
        linear = g.shape != "graph"
        self.dist2 = prune and property == "walk"
        self.squares = prune and linear and property != "stroll"
        self.stroll_prefix = prune and linear and property == "stroll"
        self.nodes = 0
        self.colors = [0] * g.n  # 0 = uncolored
        self.found: Optional[Coloring] = None

    def run(self) -> None:
        self._extend(0, 0)

    def _prefix_ok(self, depth: int) -> bool:
        """Prune tests after coloring order[depth]; True = keep descending."""
        g, colors = self.g, self.colors
        v = self.order[depth]
        col = colors[v]
        # proper edges (all properties imply properness for t=1 witnesses,
        # except the path property on a 1-edge repetitive path - same test)
        for w in g.neighbors(v):
            if colors[w] == col:
                return False
        if self.dist2:
            # distance-2: v against colored vertices two steps away
            for x in g.neighbors(v):
                for w in g.neighbors(x):
                    if w != v and colors[w] == col:
                        return False
        if self.squares:
            # contiguous even segments of the colored arc ending at depth
            pref = [colors[self.order[i]] for i in range(depth + 1)]
            for t in range(2, depth // 2 + 2):
                seg = pref[depth + 1 - 2 * t: depth + 1]
                if len(seg) == 2 * t and seg[:t] == seg[t:]:
                    return False
        if self.stroll_prefix and depth >= 3:
            # the colored prefix along a path/cycle arc is an induced path;
            # any repetitive stroll inside it survives in the full graph
            sub = path_graph(depth + 1)
            pref = Coloring.from_colors(
                (self.colors[self.order[i]] for i in range(depth + 1)), self.k)
            if decide.exists_repetitive_stroll(sub, pref) is not None:
                return False
        return True

    def _extend(self, depth: int, max_used: int) -> None:
        if self.found is not None:
            return
        if depth == self.g.n:
            cand = Coloring(tuple(self.colors), self.k)
            if final_check(self.g, cand, self.property):
                self.found = cand
            return
        v = self.order[depth]
        top = min(self.k, max_used + 1) if self.symmetry_break else self.k
        for col in range(1, top + 1):
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _Budget()
            self.colors[v] = col
            if self._prefix_ok(depth):
                self._extend(depth + 1, max(max_used, col))
                if self.found is not None:
                    self.colors[v] = 0
                    return
        self.colors[v] = 0


def search_fixed_k(
    g: Graph,
    property: str,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symmetry_break: bool = True,
    prune: bool = True,
):
    """Exhaustive search for one property-nonrepetitive k-coloring.

    Returns (coloring or None, nodes, aborted).  None with aborted=False is
    a completed exhaustion proof for this k.
    """
    if property not in decide.PROPERTIES:
        raise InvalidArgumentError(f"unknown property {property!r}")
    s = _Searcher(g, property, k, _vertex_order(g), node_budget,
                  symmetry_break, prune)
    try:
        s.run()
    except _Budget:
        return None, s.nodes, True
    return s.found, s.nodes, False


def solve(
    g: Graph,
    property: str,
    k_max: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    symmetry_break: bool = True,
    prune: bool = True,
) -> SolveReport:
    """Smallest k <= k_max with a property-nonrepetitive k-coloring.

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
            g, property, k, node_budget - total_nodes, symmetry_break, prune)
        total_nodes += nodes
        if aborted:
            return SolveReport(property, desc, None, None, exhausted,
                               total_nodes, time.perf_counter() - t0,
                               aborted=True, k_max=k_max,
                               notes=[f"node budget exceeded at k={k}"])
        if cert is not None:
            return SolveReport(property, desc, k, cert, exhausted,
                               total_nodes, time.perf_counter() - t0,
                               k_max=k_max)
        exhausted.append(k)
    return SolveReport(property, desc, None, None, exhausted, total_nodes,
                       time.perf_counter() - t0, k_max=k_max,
                       notes=[f"infeasible for all k <= {k_max}"])
