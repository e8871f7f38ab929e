"""Reproduction suites: each claim re-derives one published result.

Each claim_* takes no arguments and yields its rows as (check, ok) or
(check, ok, detail) tuples.  run(claim, budget) builds the row dicts,
with "check", "pass" and "detail" keys, and returns (rows, aborted):
aborted means the time budget ran out before all rows were made.  A claim
has no deadline unless a budget is given, and the budget is checked after
each row.  The CLI `reproduce` command and the acceptance tests are both
built on run.
"""

from __future__ import annotations

import time
from typing import Optional

from . import construct, decide, saseq, search
from .model import Coloring, classify_walk, cycle_graph, is_distance2, path_graph

CURRIE_EXCEPTIONAL = frozenset({5, 7, 9, 10, 14, 17})

STROLL_CYCLE_3 = frozenset({3, 4, 6, 8})


def claim_table1():
    """Embedded cycle table: every row walk-verifies; small lower bounds exhaust."""
    for n in range(4, 22):
        value, c = construct.table1_coloring(n)
        ok = decide.holds(cycle_graph(n), c, "walk")
        tight = c.colors_used() == value
        yield (f"C{n} row verifies with {value} colors", ok and tight)
    for n in range(4, 22):
        r = search.solve(cycle_graph(n), "walk", 3)
        yield (f"C{n}: no walk-nonrepetitive 3-coloring",
               not r.aborted and r.value is None,
               f"nodes={r.nodes_visited}")
    for n in (5, 7):
        r = search.solve(cycle_graph(n), "walk", 4)
        yield (f"C{n}: no walk-nonrepetitive 4-coloring",
               not r.aborted and r.value is None,
               f"nodes={r.nodes_visited}")


def claim_currie():
    """Path-nonrepetitive chromatic values of small cycles."""
    for n in range(3, 18):
        want = 4 if n in CURRIE_EXCEPTIONAL else 3
        r = search.solve(cycle_graph(n), "path", 4)
        yield (f"pi(C{n}) = {want}", not r.aborted and r.value == want,
               f"got {r.value}")


def claim_thm1():
    """sigma's construction self-checks and passes holds beyond the table;
    P6 has no walk-nonrepetitive 3-coloring, so no C_n with n >= 6 has one."""
    for n in range(22, 41):
        try:
            trace, c = construct.sigma_cycle_coloring(n)
        except RuntimeError as exc:
            yield (f"C{n}: 4-coloring built and walk-verifies", False, str(exc))
            continue
        k2 = trace.base_cycle_n
        m = len(trace.removed_good_edges)
        arith = (3 * (k2 // 2) - n == m and m in (0, 1, 2)
                 and k2 + (k2 // 2 - m) == n == c.n)
        agrees = decide.holds(cycle_graph(n), c, "walk")
        yield (f"C{n}: 4-coloring built and walk-verifies",
               arith and agrees and c.colors_used() == 4,
               f"base C{k2}, m={m}; labelling {'agrees' if agrees else 'rejects'}")
    # a walk-nonrepetitive coloring restricts to one of any subgraph
    r = search.solve(path_graph(6), "walk", 3)
    yield ("P6 ⊆ C_n: no walk-nonrepetitive 3-coloring",
           not r.aborted and r.value is None,
           f"nodes={r.nodes_visited}; so sigma(C_n) >= 4 for every n >= 6")


def claim_thm2():
    """Stroll chromatic values of paths: 2 at 3 vertices, 3 from 4 up to 21,
    then 4."""
    word = Coloring.from_colors(construct.STROLL_NONREP_P21)
    yield ("21-vertex word is stroll-nonrepetitive",
           decide.holds(path_graph(21), word, "stroll"))
    # by the product rule, where search_fixed_k takes lemma 4's factors for
    # k <= 3, so that this row shares no lemma with the word route below
    g, nodes, found = path_graph(22), 0, 0
    for k in (1, 2, 3):
        colorings = search.Colorings(g, k, (search._proper,
                                            search._StrollPrefix()))
        found += sum(decide.holds(g, c, "stroll") for c in colorings)
        nodes += colorings.nodes
    yield ("P22: no stroll-nonrepetitive 3-coloring (search)", found == 0,
           f"nodes={nodes}")
    _, max_len = saseq.enumerate_h_free(20)
    yield ("P22: no stroll-nonrepetitive 3-coloring (word route)",
           max_len == 19, f"longest forbidden-factor-free word: {max_len}")
    for n in (4, 10, 21):
        r = search.solve(path_graph(n), "stroll", 4)
        yield (f"rho(P{n}) = 3", not r.aborted and r.value == 3, f"got {r.value}")
    r = search.solve(path_graph(22), "stroll", 4)
    yield ("rho(P22) = 4", not r.aborted and r.value == 4, f"got {r.value}")
    # every walk on P3 alternates with its middle vertex
    r = search.solve(path_graph(3), "stroll", 4)
    yield ("rho(P3) = 2", not r.aborted and r.value == 2,
           f"got {r.value}; the abstract's rho(P_n) = 3 for 3 ≤ n ≤ 21 "
           "holds from n = 4")


def claim_thm3():
    """Stroll chromatic values of small cycles, plus the two explicit words.

    Each k = 3 lower bound is a search pruned by lemma 4's forbidden factors
    of the symmetry word (search._factor_free), its leaves re-checked by
    the product labelling.
    """
    for n in range(3, 13):
        want = 3 if n in STROLL_CYCLE_3 else 4
        r = search.solve(cycle_graph(n), "stroll", 4)
        yield (f"rho(C{n}) = {want}", not r.aborted and r.value == want,
               f"got {r.value}")
    for n in (6, 8):
        c = Coloring.from_colors(construct.STROLL_NONREP_SMALL_CYCLES[n])
        yield (f"C{n} coloring {c.to_digits()} is stroll-nonrepetitive",
               decide.holds(cycle_graph(n), c, "stroll"))


def claim_lemma4():
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
        yield (f"{h}: stroll {seq_str} is repetitive",
               wc.stroll and wc.repetitive is True and seq == expected[h])
        yield (f"{h}: decider finds a repetitive stroll",
               not decide.holds(g, c, "stroll"))


def claim_lemma5():
    """Longest word avoiding the five forbidden factors has length 19."""
    words, max_len = saseq.enumerate_h_free(25)
    longest = [w for w in words if len(w) == max_len]
    yield ("maximum factor-free length is 19", max_len == 19, f"got {max_len}")
    yield ("the known longest word is among the maximal ones",
           saseq.LONGEST_H_FREE_WORD in longest,
           f"{len(longest)} maximal word(s)")
    yield ("no factor-free word of length 20",
           all(len(w) <= 19 for w in words))


def claim_fig1():
    """Unicyclic fixture: distance-2 and path-nonrepetitive but not walk."""
    g, c = construct.figure1_fixture()
    yield ("fixture is a distance-2 coloring", is_distance2(g, c) is None)
    yield ("fixture is path-nonrepetitive",
           decide.holds(g, c, "path"))
    w = decide.exists_repetitive_nonboring_walk(g, c)
    yield ("fixture has a repetitive nonboring walk", w is not None,
           "" if w is None else f"witness {list(w.walk.vertices)}")


def claim_hierarchy():
    """Cycle characterization and the chromatic hierarchy, exhaustively.

    Over all 3- and 4-colorings of C_4..C_8 (up to color permutation):
    walk-nonrepetitive iff distance-2 and path-nonrepetitive (the fast
    cycle check, decide.is_walk_nonrepetitive_cycle_fast), and
    walk-nonrepetitive => stroll-nonrepetitive => path-nonrepetitive.
    """
    for n in range(4, 9):
        g = cycle_graph(n)
        equiv_bad = hier_bad = 0
        count = 0
        for k in (3, 4):
            for c in search.Colorings(g, k):
                walk_ok = decide.holds(g, c, "walk")
                stroll_ok = decide.holds(g, c, "stroll")
                path_ok = decide.holds(g, c, "path")
                equiv_bad += decide.is_walk_nonrepetitive_cycle_fast(g, c) != walk_ok
                hier_bad += (walk_ok and not stroll_ok) or (stroll_ok and not path_ok)
                count += 1
        yield (f"C{n}: walk-nonrepetitive iff distance-2 + path-nonrepetitive",
               equiv_bad == 0, f"{count} colorings")
        yield (f"C{n}: walk => stroll => path hierarchy", hier_bad == 0,
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


def run(claim: str, budget: Optional[float] = None) -> tuple:
    """The rows of the named claim and whether its budget cut it short."""
    deadline = None if budget is None else time.perf_counter() + budget
    rows = []
    for check, ok, *detail in CLAIMS[claim]():
        rows.append({"check": check, "pass": bool(ok),
                     "detail": detail[0] if detail else ""})
        if deadline is not None and time.perf_counter() > deadline:
            return rows, True
    return rows, False
