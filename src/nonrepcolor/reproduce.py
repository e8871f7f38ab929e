"""Reproduction suites: each claim re-derives one published result.

Each claim function returns (rows, aborted) where rows are dicts with
"check", "pass" and "detail" keys; aborted means the time budget ran out
before all sub-checks finished.  The CLI `reproduce` command and the
acceptance tests are both built on these.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from . import construct, decide, saseq, search
from .model import Coloring, classify_walk, cycle_graph, is_distance2, path_graph

CURRIE_EXCEPTIONAL = frozenset({5, 7, 9, 10, 14, 17})

STROLL_CYCLE_3 = frozenset({3, 4, 6, 8})


class _OutOfTime(Exception):
    pass


class _Run:
    def __init__(self, budget: Optional[float]):
        self.rows = []
        self.deadline = None if budget is None else time.perf_counter() + budget

    def add(self, check: str, ok: bool, detail: str = "") -> None:
        """Record one row; stop the claim once its deadline has passed."""
        self.rows.append({"check": check, "pass": bool(ok), "detail": detail})
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise _OutOfTime()


def _claim(body):
    """Public form of a claim body: claim(budget=None) -> (rows, aborted)."""
    @functools.wraps(body)
    def claim(budget: Optional[float] = None):
        run = _Run(budget)
        try:
            body(run)
        except _OutOfTime:
            return run.rows, True
        return run.rows, False
    return claim


@_claim
def claim_table1(run):
    """Embedded cycle table: every row walk-verifies; small lower bounds exhaust."""
    for n in range(4, 22):
        value, c = construct.table1_coloring(n)
        ok = decide.exists_repetitive_nonboring_walk(cycle_graph(n), c) is None
        tight = c.colors_used() == value
        run.add(f"C{n} row verifies with {value} colors", ok and tight)
    for n in range(4, 22):
        r = search.solve(cycle_graph(n), "walk", 3)
        run.add(f"C{n}: no walk-nonrepetitive 3-coloring",
                not r.aborted and r.value is None,
                f"nodes={r.nodes_visited}")
    for n in (5, 7):
        r = search.solve(cycle_graph(n), "walk", 4)
        run.add(f"C{n}: no walk-nonrepetitive 4-coloring",
                not r.aborted and r.value is None,
                f"nodes={r.nodes_visited}")


@_claim
def claim_currie(run):
    """Path-nonrepetitive chromatic values of small cycles."""
    for n in range(3, 18):
        want = 4 if n in CURRIE_EXCEPTIONAL else 3
        r = search.solve(cycle_graph(n), "path", 4)
        run.add(f"pi(C{n}) = {want}", not r.aborted and r.value == want,
                f"got {r.value}")


@_claim
def claim_thm1(run):
    """Subdivision construction succeeds and self-verifies beyond the table."""
    for n in range(22, 41):
        try:
            trace, c = construct.sigma_cycle_coloring(n)
        except RuntimeError as exc:
            run.add(f"C{n}: 4-coloring built and walk-verifies", False, str(exc))
            continue
        k2 = trace.base_cycle_n
        m = len(trace.removed_good_edges)
        arith = (3 * (k2 // 2) - n == m and m in (0, 1, 2)
                 and k2 + (k2 // 2 - m) == n == c.n)
        run.add(f"C{n}: 4-coloring built and walk-verifies",
                arith and c.colors_used() == 4,
                f"base C{k2}, m={m}")


@_claim
def claim_thm2(run):
    """Stroll chromatic values of paths: 3 up to 21 vertices, then 4."""
    word = Coloring.from_colors(construct.STROLL_NONREP_P21)
    run.add("21-vertex word is stroll-nonrepetitive",
            decide.exists_repetitive_stroll(path_graph(21), word) is None)
    r = search.solve(path_graph(22), "stroll", 3)
    run.add("P22: no stroll-nonrepetitive 3-coloring (search)",
            not r.aborted and r.value is None, f"nodes={r.nodes_visited}")
    _, max_len = saseq.enumerate_h_free(20)
    run.add("P22: no stroll-nonrepetitive 3-coloring (word route)",
            max_len == 19, f"longest forbidden-factor-free word: {max_len}")
    for n in (4, 10, 21):
        r = search.solve(path_graph(n), "stroll", 4)
        run.add(f"rho(P{n}) = 3", not r.aborted and r.value == 3, f"got {r.value}")
    r = search.solve(path_graph(22), "stroll", 4)
    run.add("rho(P22) = 4", not r.aborted and r.value == 4, f"got {r.value}")


@_claim
def claim_thm3(run):
    """Stroll chromatic values of small cycles, plus the two explicit words."""
    for n in range(3, 13):
        want = 3 if n in STROLL_CYCLE_3 else 4
        r = search.solve(cycle_graph(n), "stroll", 4)
        run.add(f"rho(C{n}) = {want}", not r.aborted and r.value == want,
                f"got {r.value}")
    for n, digits in ((6, "212313"), (8, "12132123")):
        c = Coloring.from_digits(digits)
        run.add(f"C{n} coloring {digits} is stroll-nonrepetitive",
                decide.exists_repetitive_stroll(cycle_graph(n), c) is None)


@_claim
def claim_lemma4(run):
    """Each forbidden word's stroll verifies under its decoded coloring."""
    expected = {
        "SS": (1, 2, 1, 2),
        "AAAA": (1, 2, 3, 1, 2, 3),
        "ASASA": (1, 2, 3, 2, 1, 2, 3, 2),
        "AASAASAA": (2, 1, 2, 3, 1, 3, 2, 1, 2, 3, 1, 3),
        "AAASAAASAAA": (3, 2, 1, 2, 3, 1, 2, 1, 3, 2, 1, 2, 3, 1, 2, 1),
    }
    for h in saseq.FORBIDDEN_WORDS:
        n, walk, seq = saseq.h_witness_stroll(h)
        g = path_graph(n)
        c = saseq.decode_sa(h, "path")
        wc = classify_walk(g, c, walk)
        seq_str = "".join(map(str, seq))
        run.add(f"{h}: stroll {seq_str} is repetitive",
                wc.stroll and wc.repetitive is True and seq == expected[h])
        run.add(f"{h}: decider finds a repetitive stroll",
                decide.exists_repetitive_stroll(g, c) is not None)


@_claim
def claim_lemma5(run):
    """Longest word avoiding the five forbidden factors has length 19."""
    words, max_len = saseq.enumerate_h_free(25)
    longest = [w for w in words if len(w) == max_len]
    run.add("maximum factor-free length is 19", max_len == 19, f"got {max_len}")
    run.add("the known longest word is among the maximal ones",
            saseq.LONGEST_H_FREE_WORD in longest,
            f"{len(longest)} maximal word(s)")
    run.add("no factor-free word of length 20",
            all(len(w) <= 19 for w in words))


@_claim
def claim_fig1(run):
    """Unicyclic fixture: distance-2 and path-nonrepetitive but not walk."""
    g, c = construct.figure1_fixture()
    run.add("fixture is a distance-2 coloring", is_distance2(g, c) is None)
    run.add("fixture is path-nonrepetitive",
            decide.exists_repetitive_path(g, c) is None)
    w = decide.exists_repetitive_nonboring_walk(g, c)
    run.add("fixture has a repetitive nonboring walk", w is not None,
            "" if w is None else f"witness {list(w.walk.vertices)}")


def _symmetry_broken_colorings(n: int, k: int):
    def rec(prefix, mx):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for col in range(1, min(k, mx + 1) + 1):
            prefix.append(col)
            yield from rec(prefix, max(mx, col))
            prefix.pop()
    yield from rec([], 0)


@_claim
def claim_hierarchy(run):
    """Cycle characterization and the chromatic hierarchy, exhaustively.

    Over all 3- and 4-colorings of C_4..C_8 (up to color permutation):
    walk-nonrepetitive iff distance-2 and path-nonrepetitive, and
    walk-nonrepetitive => stroll-nonrepetitive => path-nonrepetitive.
    """
    for n in range(4, 9):
        g = cycle_graph(n)
        equiv_bad = hier_bad = 0
        count = 0
        for k in (3, 4):
            for cols in _symmetry_broken_colorings(n, k):
                c = Coloring(cols, k)
                walk_ok = decide.exists_repetitive_nonboring_walk(g, c) is None
                stroll_ok = decide.exists_repetitive_stroll(g, c) is None
                path_ok = decide.exists_repetitive_path(g, c) is None
                fast = (is_distance2(g, c) is None) and path_ok
                if fast != walk_ok:
                    equiv_bad += 1
                if (walk_ok and not stroll_ok) or (stroll_ok and not path_ok):
                    hier_bad += 1
                count += 1
        run.add(f"C{n}: walk-nonrepetitive iff distance-2 + path-nonrepetitive",
                equiv_bad == 0, f"{count} colorings")
        run.add(f"C{n}: walk => stroll => path hierarchy", hier_bad == 0,
                f"{count} colorings")


CLAIMS: dict = {
    "table1": claim_table1,
    "currie": claim_currie,
    "thm1": claim_thm1,
    "thm2": claim_thm2,
    "thm3": claim_thm3,
    "lemma4": claim_lemma4,
    "lemma5": claim_lemma5,
    "fig1": claim_fig1,
    "hierarchy": claim_hierarchy,
}

# generous wall-clock defaults per claim, seconds
DEFAULT_BUDGETS = {
    "table1": 120.0,
    "currie": 120.0,
    "thm1": 600.0,
    "thm2": 90.0,
    "thm3": 300.0,
    "lemma4": 10.0,
    "lemma5": 10.0,
    "fig1": 10.0,
    "hierarchy": 300.0,
}


def run_claim(name: str, budget: Optional[float] = None):
    if name not in CLAIMS:
        raise KeyError(name)
    if budget is None:
        budget = DEFAULT_BUDGETS[name]
    return CLAIMS[name](budget=budget)
