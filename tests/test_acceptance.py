"""Acceptance gate: twelve end-to-end criteria, one printed line each.

Run with -s to see the per-criterion PASS/FAIL lines while the suite runs;
without -s pytest still shows them for any failing criterion.
"""

import itertools

import pytest

from nonrepcolor import decide, reproduce, saseq, search
from nonrepcolor.construct import figure1_fixture, sigma_cycle_coloring
from nonrepcolor.model import Coloring, cycle_graph, is_distance2, path_graph
from nonrepcolor.oracle import brute_force_check_many


def _report(num, label, ok):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, f"criterion {num}: {label}"


def _claim_ok(name):
    rows, aborted = reproduce.run_claim(name)
    failed = [r["check"] for r in rows if not r["pass"]]
    return not aborted and not failed, failed


def test_c01_embedded_cycle_colorings_verify():
    rows, aborted = reproduce.claim_table1(budget=None)
    verify_rows = [r for r in rows if "row verifies" in r["check"]]
    ok = not aborted and len(verify_rows) == 18 and all(
        r["pass"] for r in verify_rows)
    _report(1, "all 18 embedded cycle colorings are walk-nonrepetitive", ok)


def test_c02_cycle_lower_bounds_exhaust():
    rows, aborted = reproduce.claim_table1(budget=None)
    bound_rows = [r for r in rows if "no walk-nonrepetitive" in r["check"]]
    ok = (not aborted and len(bound_rows) == 18 + 2
          and all(r["pass"] for r in bound_rows))
    _report(2, "no 3-coloring of C4..C21 and no 4-coloring of C5, C7 "
               "is walk-nonrepetitive", ok)


def test_c03_path_chromatic_of_cycles():
    ok, failed = _claim_ok("currie")
    _report(3, "path-nonrepetitive chromatic values of small cycles", ok)


def test_c04_stroll_chromatic_of_paths():
    ok, failed = _claim_ok("thm2")
    _report(4, "stroll values of paths: 3 up to 21 vertices, 4 at 22", ok)


def test_c05_longest_factor_free_word():
    ok, failed = _claim_ok("lemma5")
    _report(5, "maximum forbidden-factor-free word length is exactly 19", ok)


def test_c06_forbidden_word_strolls():
    ok, failed = _claim_ok("lemma4")
    _report(6, "all five forbidden words carry verified repetitive strolls",
            ok)


def test_c07_stroll_chromatic_of_cycles():
    ok, failed = _claim_ok("thm3")
    _report(7, "stroll values of cycles: 3 on {3,4,6,8}, else 4 (n <= 12)",
            ok)


def test_c08_subdivision_construction():
    ok, failed = _claim_ok("thm1")
    _report(8, "subdivision construction builds and self-verifies, "
               "n = 22..40", ok)


CASES = ((path_graph(5), 5), (cycle_graph(5), 5), (cycle_graph(7), 7))


@pytest.fixture(scope="module")
def decider_verdicts():
    """Exact verdicts for every 3-coloring of the three benchmark graphs."""
    out = []
    for g, n in CASES:
        per = []
        for cols in itertools.product((1, 2, 3), repeat=n):
            c = Coloring(cols, 3)
            per.append((c,
                        decide.exists_repetitive_path(g, c),
                        decide.exists_repetitive_stroll(g, c),
                        decide.exists_repetitive_nonboring_walk(g, c)))
        out.append((g, per))
    return out


def test_c09_decider_matches_bounded_oracle(decider_verdicts):
    mismatches = 0
    for g, per in decider_verdicts:
        for c, _, w_stroll, w_walk in per:
            verdicts = brute_force_check_many(g, c, ("stroll", "walk"), T=10)
            for prop, w in (("stroll", w_stroll), ("walk", w_walk)):
                dec_found = w is not None and len(w.walk) <= 20
                if dec_found != verdicts[prop].found:
                    mismatches += 1
    _report(9, "product-graph deciders agree with the bounded oracle "
               f"({sum(len(p) for _, p in decider_verdicts)} colorings)",
            mismatches == 0)


def test_c10_cycle_characterization():
    rows, aborted = reproduce.claim_hierarchy(budget=None)
    equiv = [r for r in rows if "iff" in r["check"]]
    ok = not aborted and len(equiv) == 5 and all(r["pass"] for r in equiv)
    _report(10, "walk-nonrepetitive iff distance-2 + path-nonrepetitive "
                "on all colorings of C4..C8", ok)


def test_c11_unicyclic_regression():
    rows, aborted = reproduce.claim_fig1(budget=None)
    ok = not aborted and all(r["pass"] for r in rows)
    g, c = figure1_fixture()
    w = decide.exists_repetitive_nonboring_walk(g, c)
    if w is not None:
        print(f"criterion 11 witness walk: {list(w.walk.vertices)}")
    _report(11, "fixture is distance-2 and path-nonrepetitive but has a "
                "repetitive nonboring walk", ok and w is not None)


def test_c12_hierarchy(decider_verdicts):
    violations = 0
    for g, per in decider_verdicts:
        for c, w_path, w_stroll, w_walk in per:
            walk_ok = w_walk is None
            stroll_ok = w_stroll is None
            path_ok = w_path is None
            if (walk_ok and not stroll_ok) or (stroll_ok and not path_ok):
                violations += 1
    rows, aborted = reproduce.claim_hierarchy(budget=None)
    hier = [r for r in rows if "=>" in r["check"]]
    ok = (violations == 0 and not aborted and len(hier) == 5
          and all(r["pass"] for r in hier))
    _report(12, "walk-nonrepetitive => stroll-nonrepetitive => "
                "path-nonrepetitive on every enumerated coloring", ok)
