import itertools
import json
import random
import sys

import pytest

from nonrepcolor import decide, search
from nonrepcolor.construct import WALK_NONREP_CYCLE_TABLE, figure1_fixture
from nonrepcolor.model import (Coloring, Graph, InvalidArgumentError,
                               cycle_graph, path_graph)
from nonrepcolor.decide import PROPERTIES, exists_repetitive_path, holds
from nonrepcolor.oracle import brute_force_check
from nonrepcolor.saseq import decode_sa, enumerate_h_free
from nonrepcolor.search import (Colorings, _closing_squares, _distance2,
                                _factor_free, _prefix_rules, _proper,
                                _StrollPrefix, _suffix_squares, final_check,
                                search_fixed_k, solve)

P21_WORD = "121312321323123213121"


class TestSolveValues:
    def test_path_chromatic_of_nine_cycle(self):
        assert solve(cycle_graph(9), "path", 4).value == 4

    def test_stroll_chromatic_of_eight_cycle(self):
        assert solve(cycle_graph(8), "stroll", 4).value == 3

    def test_walk_chromatic_of_seven_cycle(self):
        assert solve(cycle_graph(7), "walk", 5).value == 5

    def test_infeasible_below_max(self):
        r = solve(cycle_graph(5), "walk", 4)
        assert r.value is None and r.exhausted_k == [1, 2, 3, 4]


class TestFixedPrefix:
    def test_certificate_extends_the_prefix(self):
        prefix = (1, 2, 3, 1, 3, 2, 1, 2)
        cert, _, aborted = search_fixed_k(cycle_graph(30), "path", 3,
                                          prefix=prefix)
        assert not aborted and cert.colors[:8] == prefix
        assert final_check(cycle_graph(30), cert, "path")

    def test_empty_prefix_adds_no_rule(self):
        # the prefix is a color skip in Colorings, never a rule
        g = cycle_graph(30)
        plain = (_proper, _suffix_squares, _closing_squares)
        assert _prefix_rules(g, "path", 3) == plain

    def test_prefix_breaking_symmetry_finds_nothing(self):
        # colors must enter in ascending order under symmetry breaking
        cert, _, aborted = search_fixed_k(path_graph(6), "path", 3,
                                          prefix=(2, 1))
        assert cert is None and not aborted

    @pytest.mark.parametrize("m,w,nodes", [
        (62, 24, 414), (62, 48, 128), (100, 24, 480), (100, 48, 287),
        (400, 24, 857), (400, 48, 820), (2000, 24, 4057), (2000, 48, 4020)])
    def test_thue_prefix_node_counts(self, m, w, nodes):
        """C_m with Thue's word fixed on all but its last w vertices, as
        sigma's base search fixes it: every color tried is counted, the
        colors the prefix skips too."""
        t = [bin(i).count("1") % 2 for i in range(m + 1)]
        thue = tuple(t[i] - t[i + 1] + 2 for i in range(m))
        cert, got, aborted = search_fixed_k(cycle_graph(m), "path", 3,
                                            prefix=thue[:m - w])
        assert (got, aborted) == (nodes, False)
        assert cert.colors[:m - w] == thue[:m - w]
        assert final_check(cycle_graph(m), cert, "path")


class TestVerifyCertificate:
    def test_table_row_21(self):
        _, colors = WALK_NONREP_CYCLE_TABLE[21]
        assert final_check(cycle_graph(21), Coloring(colors, 4), "walk")

    def test_p21_word(self):
        assert final_check(path_graph(21),
                           Coloring.from_digits(P21_WORD), "stroll")

    def test_bad_walk_certificate(self):
        assert not final_check(cycle_graph(4),
                               Coloring.from_digits("1212"), "walk")

    @pytest.mark.parametrize("prop", ["dist2", "bogus"])
    def test_unknown_property_raises(self, prop):
        with pytest.raises(InvalidArgumentError):
            final_check(cycle_graph(4), Coloring.from_digits("1234"), prop)


class TestReportContract:
    def test_certificate_verifies_and_uses_value_colors(self):
        for n in (5, 6, 8):
            for prop in ("path", "stroll", "walk"):
                r = solve(cycle_graph(n), prop, 5)
                assert r.feasible
                assert r.certificate.colors_used() == r.value
                assert final_check(cycle_graph(n), r.certificate, prop)
                if r.value > 1:
                    assert r.value - 1 in r.exhausted_k

    def test_json_schema(self):
        r = solve(cycle_graph(6), "stroll", 4)
        data = json.loads(r.to_json())
        assert data["schema"] == 1
        assert set(data) >= {"property", "graph", "value", "certificate",
                             "exhausted_k", "nodes_visited", "wall_time"}
        assert data["graph"] == {"kind": "cycle", "n": 6}

    def test_relabelled_graph_lists_its_edges(self):
        # P7 laid out 1-6-3-5-2-0-4: the certificate colors these labels
        g = Graph.from_edges(7, [(1, 6), (6, 3), (3, 5), (5, 2), (2, 0), (0, 4)])
        data = solve(g, "stroll", 4).to_json_dict()
        assert data["graph"] == {"kind": "path", "n": 7,
                                 "edges": sorted(map(list, g.edges))}
        assert (data["value"], data["exhausted_k"]) == (3, [1, 2])
        assert final_check(g, Coloring.from_digits(data["certificate"]), "stroll")
        assert solve(path_graph(7), "stroll", 4).graph == {"kind": "path", "n": 7}

    def test_budget_abort_makes_no_claim(self):
        r = solve(cycle_graph(9), "path", 3, node_budget=5)
        assert r.aborted and r.value is None and r.nodes_visited >= 5


def _reference_solve(g, prop, k_max, rules):
    """(value, certificate) of solve, from the first coloring that
    Colorings(g, k, rules) yields and final_check passes, k = 1, 2, ..."""
    for k in range(1, k_max + 1):
        colorings = Colorings(g, k, rules)
        cert = next((c for c in colorings if final_check(g, c, prop)), None)
        if cert is not None:
            return k, cert
    return None, None


def _solved(g, prop, k_max):
    r = solve(g, prop, k_max)
    return r.value, r.certificate


def _random_non_line_graphs(count, seed):
    """count seeded graphs on at most 7 vertices that are neither a path nor
    a cycle: sparse and dense, connected or not."""
    rng, graphs = random.Random(seed), []
    while len(graphs) < count:
        n, density = rng.randint(2, 7), rng.random()
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < density])
        if g.line is None:
            graphs.append(g)
    return graphs


_NON_LINE_GRAPHS = {
    "fig1": figure1_fixture()[0],
    "K4": Graph.from_edges(4, itertools.combinations(range(4), 2)),
    "star": Graph.from_edges(5, [(0, v) for v in range(1, 5)]),
    "binary-tree": Graph.from_edges(7, [(v, 2 * v + i) for v in range(3)
                                        for i in (1, 2)]),
    # two vertices joined by paths of 2, 3 and 3 edges
    "theta": Graph.from_edges(7, [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1),
                                  (0, 5), (5, 6), (6, 1)]),
    "triangle-and-edge": Graph.from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)]),
}


def _non_line_agreement(g):
    """solve on a graph that is no path or cycle, where _proper and
    _distance2 are color skips over the BFS order, against the unpruned
    enumeration; on at most 7 vertices the certificate also passes the
    oracle, to every half-length for path, to 3 for stroll and walk."""
    assert g.shape == "graph"
    for prop in PROPERTIES:
        value, cert = _solved(g, prop, 6)
        assert (value, cert) == _reference_solve(g, prop, 6, ()), (g, prop)
        if cert is not None and g.n <= 7:
            verdict = brute_force_check(g, cert, prop,
                                        T=g.n if prop == "path" else 3)
            assert not verdict.found and not verdict.aborted, (g, prop)


@pytest.mark.parametrize("name", _NON_LINE_GRAPHS)
def test_non_line_search_matches_unpruned_enumeration(name):
    _non_line_agreement(_NON_LINE_GRAPHS[name])


def test_random_non_line_search_matches_unpruned_enumeration():
    """150 seeded graphs, with more than two neighbours at some vertex or
    more than one component."""
    graphs = _random_non_line_graphs(150, 33)
    assert any(len(g.edges) >= g.n for g in graphs)
    assert any(len(g.edges) < g.n - 1 for g in graphs)
    for g in graphs:
        _non_line_agreement(g)


def test_search_input_checks():
    with pytest.raises(InvalidArgumentError, match="unknown property 'dist2'"):
        search_fixed_k(path_graph(3), "dist2", 3)
    with pytest.raises(InvalidArgumentError, match="k_max must be >= 1"):
        solve(path_graph(3), "path", 0)


@pytest.mark.parametrize("make_graph,ns", [(path_graph, range(2, 9)),
                                           (cycle_graph, range(3, 9))])
def test_symmetry_breaking_sound(make_graph, ns):
    """solve's certificate is the least coloring along g.line, over every
    k-coloring from itertools.product, that final_check passes, for the
    least such k: it introduces its colors in ascending order, so neither
    symmetry breaking nor a rule loses it."""
    for n in ns:
        g = make_graph(n)
        for prop in ("path", "stroll", "walk"):
            ref = None, None
            for k in range(1, 6):
                for word in itertools.product(range(1, k + 1), repeat=n):
                    if any(map(int.__eq__, word, word[1:])):
                        continue  # an improper edge is a square
                    cols = [0] * n
                    for v, col in zip(g.line, word):
                        cols[v] = col
                    c = Coloring(tuple(cols), k)
                    if final_check(g, c, prop):
                        ref = k, c
                        break
                if ref[0] is not None:
                    break
            assert _solved(g, prop, 5) == ref, (n, prop)


@pytest.mark.parametrize("n", range(3, 13))
def test_prefix_pruning_sound_on_paths(n):
    """The stroll rule loses no coloring that final_check passes: the
    proper colorings give the same first certificate."""
    g = path_graph(n)
    assert _solved(g, "stroll", 4) == _reference_solve(g, "stroll", 4,
                                                       (_proper,))


@pytest.mark.parametrize("n", range(3, 13))
def test_prefix_pruning_sound_on_cycles(n):
    """On a cycle the stroll rule sees the colored arc as a path."""
    g = cycle_graph(n)
    assert _solved(g, "stroll", 4) == _reference_solve(g, "stroll", 4,
                                                       (_proper,))


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("prop", ["path", "walk"])
def test_square_and_distance2_pruning_sound(make_graph, n, prop):
    """The suffix-square, closing-square and distance-2 rules lose no
    coloring that final_check passes."""
    g = make_graph(n)
    assert _solved(g, prop, 5) == _reference_solve(g, prop, 5, (_proper,))


def _on_line(make_graph, ids):
    """make_graph(len(ids)) with vertex v relabelled ids[v]."""
    return Graph.from_edges(len(ids), [(ids[v], ids[w])
                                       for v, w in make_graph(len(ids)).edges])


def _shuffled_cycle_graph(n):
    """C_n laid out along a line shuffled by random.Random(n)."""
    return _on_line(cycle_graph, random.Random(n).sample(range(n), n))


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
@pytest.mark.parametrize("prop", ["path", "stroll", "walk"])
def test_relabelled_search_matches_natural(make_graph, prop):
    """Labels that do not follow the line change no value and no exhaustion."""
    rng = random.Random(f"{make_graph.__name__} {prop}")
    for n in range(3, 12):
        natural = solve(make_graph(n), prop, 5)
        for _ in range(3):
            ids = rng.sample(range(n), n)
            g = _on_line(make_graph, ids)
            r = solve(g, prop, 5)
            assert (r.value, r.exhausted_k) == (
                natural.value, natural.exhausted_k), (ids, prop)
            assert final_check(g, r.certificate, prop), (ids, prop)


def test_fixed_k_exhaustion_is_complete():
    cert, nodes, aborted = search_fixed_k(path_graph(22), "stroll", 3)
    assert cert is None and not aborted and nodes > 0


@pytest.mark.parametrize("g,k,digits,nodes", [
    (path_graph(22), 3, None, 513),
    (cycle_graph(15), 3, None, 384),
    (path_graph(23), 4, "12131214121312313212324", 50),
])
def test_stroll_search_node_counts(g, k, digits, nodes):
    """The stroll prefix rule prunes exactly as a full decider on the prefix."""
    cert, visited, aborted = search_fixed_k(g, "stroll", k)
    assert (cert and cert.to_digits(), visited, aborted) == (digits, nodes, False)


P400_STROLL_WORD = (
    "1213121412131231321232412131214123121314121312141231321232412131214123"
    "2124121312141241312131412131214123121314121413121314132123121314131213"
    "2123121323134121312141231213141213121412313212324121312141232124121312"
    "1412413121314121312141231213141214131213141321231213212313234121312141"
    "2312131412131214123132123241213121412321241213121412413121314121312141"
    "23121314121413121314132123132341213121412312131412")


def test_stroll_search_on_a_long_path():
    """The first stroll-nonrepetitive 4-coloring of P400 and its nodes."""
    cert, visited, aborted = search_fixed_k(path_graph(400), "stroll", 4)
    assert (cert.to_digits(), visited, aborted) == (P400_STROLL_WORD, 893,
                                                    False)


def _product_rules(rules):
    """The rules with the factor rule swapped for the product rule."""
    return tuple(_StrollPrefix() if rule is _factor_free else rule
                 for rule in rules)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("make_graph,ns", [(path_graph, range(1, 24)),
                                           (cycle_graph, range(3, 17))],
                         ids=["P1-P23", "C3-C16"])
def test_factor_rule_prunes_as_the_product_rule(make_graph, ns, k):
    """With k <= 3 the stroll search prunes by the forbidden factors of the
    symmetry word, and the product rule in its place yields the same
    colorings after trying the same colors."""
    for n in ns:
        g = make_graph(n)
        rules = _prefix_rules(g, "stroll", k)
        assert rules[-1] is _factor_free
        by_word = Colorings(g, k, rules)
        by_product = Colorings(g, k, _product_rules(rules))
        assert [c.colors for c in by_word] == [c.colors for c in by_product]
        assert by_word.nodes == by_product.nodes, n


def test_stroll_rule_by_k():
    """The factor rule for k <= 3 on lines, the product rule from k = 4,
    neither off lines."""
    g = path_graph(8)
    assert _prefix_rules(g, "stroll", 1) == (_proper, _factor_free)
    assert _prefix_rules(cycle_graph(8), "stroll", 3) == (
        _proper, _closing_squares, _factor_free)
    proper, product = _prefix_rules(g, "stroll", 4)
    assert proper is _proper and isinstance(product, _StrollPrefix)
    assert _prefix_rules(figure1_fixture()[0], "stroll", 3) == (_proper,)


def _factor_verdict(colors):
    """True iff _factor_free passes the arc at every depth, as Colorings
    calls it, each arc read reversed."""
    arc = ""
    for col in colors:
        arc = chr(col) + arc
        if not _factor_free(arc):
            return False
    return True


def _proper_three_colorings(n):
    for first in (1, 2, 3):
        for steps in itertools.product((1, 2), repeat=n - 1):
            cols = [first]
            for step in steps:
                cols.append((cols[-1] + step - 1) % 3 + 1)
            yield tuple(cols)


def test_factor_verdict_is_the_stroll_decider():
    """On every proper coloring over 1..3 of P1..P13, and on every renaming
    of the decodings of the 169 factor-free words, the factor rule passes
    the arc iff holds finds no repetitive stroll."""
    words, _ = enumerate_h_free(25)
    assert len(words) == 169
    decoded = [decode_sa(w, "path").colors for w in words]
    cases = [cols for n in range(1, 14) for cols in _proper_three_colorings(n)]
    cases += [tuple(rename[col - 1] for col in cols) for cols in decoded
              for rename in itertools.permutations((1, 2, 3))]
    free = 0
    for cols in cases:
        verdict = _factor_verdict(cols)
        assert verdict == holds(path_graph(len(cols)), Coloring(cols, 3),
                                "stroll"), cols
        free += verdict
    assert len(cases) == 24573 + 6 * 169 and free > 6 * 169


def test_walk_leaves_on_cycles_agree_with_the_labelling():
    """Every leaf the walk searches of C3..C34 yield, as solve runs them:
    final_check's verdict, Barát and Wood's characterisation, equals the
    product labelling's."""
    leaves, solved = 0, 0
    for n in range(3, 35):
        g = cycle_graph(n)
        for k in range(1, 6):
            cert = None
            for c in Colorings(g, k, _prefix_rules(g, "walk", k)):
                leaves += 1
                fast = decide.is_walk_nonrepetitive_cycle_fast(g, c)
                assert fast == final_check(g, c, "walk")
                assert fast == holds(g, c, "walk"), c.colors
                if fast:
                    cert = c
                    break
            if cert is not None:
                solved += 1
                break
    # distance-2 and the closing rule leave only accepted leaves here
    assert leaves == solved == 32


def test_walk_leaves_on_cycles_skip_the_labelling(monkeypatch):
    def labelling(g, c, property):
        raise AssertionError("holds called on a walk leaf of a cycle")

    monkeypatch.setattr(decide, "holds", labelling)
    assert solve(cycle_graph(22), "walk", 4).value == 4
    with pytest.raises(AssertionError, match="walk leaf"):
        solve(path_graph(6), "walk", 4)


def _column_boxes(word):
    """{w: [greatest first, least second]} of the product component of each
    state (w, d), d the last position, with a move to column d - 1, from a
    search over the whole arc's states (x, y), x < y."""
    d = len(word) - 1
    states = {(x, y) for y in range(d + 1) for x in range(y)
              if word[x] == word[y]}
    boxes = {}
    for w in range(d):
        moves = {(w - 1, d - 1), (w + 1, d - 1)} & states
        if (w, d) in states and moves:
            comp, todo = {(w, d)}, [(w, d)]
            while todo:
                x, y = todo.pop()
                for step in itertools.product((x - 1, x + 1), (y - 1, y + 1)):
                    if step in states and step not in comp:
                        comp.add(step)
                        todo.append(step)
            boxes[w] = [max(x for x, _ in comp), min(y for _, y in comp)]
    return boxes


_STROLL_RULE_CASES = [(make, n, k, "") for k in (3, 4) for n in (5, 10)
                      for make in (path_graph, cycle_graph)]
_STROLL_RULE_CASES += [(_shuffled_cycle_graph, 10, 3, ""),
                       (path_graph, 14, 3, ""), (cycle_graph, 14, 3, ""),
                       (_shuffled_cycle_graph, 14, 3, ""),
                       (path_graph, 22, 4, "1213121412132412")]


@pytest.mark.parametrize("make_graph,n,k,prefix", _STROLL_RULE_CASES, ids=[
    f"{k}-{n}-{make.__name__}" + (prefix and f"-{prefix}")
    for make, n, k, prefix in _STROLL_RULE_CASES])
def test_stroll_rule_matches_decider_after_every_undo(make_graph, n, k, prefix):
    """Every verdict of the stroll rule is decide.holds on the colored arc.

    The enumeration, a depth-first search in the order Colorings takes but
    without symmetry breaking, recolors each position with every color
    1..k, after rejections by the rule itself and by properness (at the
    closing edge too, on a cycle), so each column is rebuilt from the one
    before it, whatever the search left there; after each passing
    call the column holds each linked state's component box, as a search
    over the arc finds it.  From 10 vertices on, some passing
    call joins two components of the column before through a fold w, a
    state (w, d) linked to both (w - 1, d - 1) and (w + 1, d - 1).  On
    P22 with its first 16 colors fixed, joins from depth 19 on leave
    states holding the box merged away, which the call must settle.
    """
    rule, calls, joins = _StrollPrefix(), [0] * n, [0]

    def checked(arc):
        depth, word = len(arc) - 1, [ord(ch) for ch in reversed(arc)]
        before = rule.cols[depth - 1]  # the call reads it and writes only depth's
        verdict = rule(arc)
        colored = Coloring.from_colors(word)
        assert verdict == holds(path_graph(depth + 1), colored, "stroll"), colored
        calls[depth] += 1
        if verdict:
            assert rule.cols[depth] == _column_boxes(word), colored
            for w in range(1, depth - 2):
                if word[w] == word[depth] and (
                        word[w - 1] == word[depth - 1] == word[w + 1]):
                    left, right = before.get(w - 1), before.get(w + 1)
                    joins[0] += left is None or left is not right
        return verdict

    g = make_graph(n)  # the skip before pruning: properness
    assert _prefix_rules(g, "stroll", k)[0] is _proper
    fixed = tuple(map(int, prefix))
    word, rev = [0] * n, [""] * (n + 1)  # rev[-1]: the empty arc

    def leaves(depth):
        """The colorings of g.line[depth:] that properness and the rule
        pass, each color 1..k tried at each depth, as Colorings tries them."""
        if depth == n:
            return 1
        found = 0
        for col in range(1, k + 1):
            if depth < len(fixed) and col != fixed[depth]:
                continue  # the fixed prefix, skipped as Colorings skips it
            if depth and col == word[depth - 1] or (
                    depth == n - 1 and g.shape == "cycle" and col == word[0]):
                continue  # an improper edge, the closing one included
            word[depth] = col
            rev[depth] = chr(col) + rev[depth - 1]
            if checked(rev[depth]):
                found += leaves(depth + 1)
        return found

    assert leaves(0) > 0 and all(calls)
    assert joins[0] > 0 or n < 10, joins


@pytest.mark.parametrize("prop,n,digits,nodes", [
    ("stroll", 16, "1213121412312134", 168),
    ("stroll", 17, "12131214123121314", 385),
    ("stroll", 18, "121312141231213214", 951),
    ("stroll", 19, "1213121412312131424", 2391),
    ("stroll", 20, "12131214123121314134", 6105),
    ("stroll", 21, "121312141231213141234", 15695),
    ("walk", 22, "1231241231421321431234", 94),
    ("walk", 23, "12312412314213214231234", 72),
    ("walk", 24, "123124123142132142134234", 72),
    ("walk", 25, "1231241231421321423124134", 133),
    ("walk", 26, "12312412314213214231431234", 264),
    ("walk", 27, "123124123142132142134124134", 90),
    ("walk", 28, "1231241231421321421341324134", 193),
    ("walk", 29, "12312412314213214213412314234", 83),
    ("walk", 30, "123124123142132142134124132134", 232),
    ("walk", 31, "1231241231421321421341231431234", 179),
    ("walk", 32, "12312412314213214213412312431234", 113),
    ("walk", 33, "123124123142132142134123124132134", 102),
    ("walk", 34, "1231241231421321421341231241342134", 194),
])
def test_cycle_search_node_counts(prop, n, digits, nodes):
    """Rejecting leaves before the final check moves no node and no certificate."""
    cert, visited, aborted = search_fixed_k(cycle_graph(n), prop, 4)
    assert (cert.to_digits(), visited, aborted) == (digits, nodes, False)


@pytest.mark.parametrize("m,digits,nodes", [
    (16, "1213123213121323", 133),
    (18, "121312313212321323", 57),
    (20, "12131231321312132123", 107),
    (22, "1213123132123213121323", 100),
    (24, "121312313212321312132123", 145),
    (26, "12131231321231213212321323", 135),
    (28, "1213123132123121312321231323", 103),
    (30, "121312313212312132123213121323", 298),
    (32, "12131231321231213123132312321323", 154),
    (34, "1213123132123121321231321312132123", 614),
    (36, "121312313212312131231323121312321323", 218),
    (38, "12131231321231213123212312132312321323", 726),
    (40, "1213123132123121312313231213123213121323", 510),
])
def test_sigma_base_search_node_counts(m, digits, nodes):
    """The path search on the sigma base cycles: certificates and nodes."""
    cert, visited, aborted = search_fixed_k(cycle_graph(m), "path", 3)
    assert (cert.to_digits(), visited, aborted) == (digits, nodes, False)


P300_WORD = (
    "1213123132123121312313213121321231213123132123121321231321312132123121"
    "3123132123213121321231213123132131213212312131232123121321231321312132"
    "1231213123132123121321231321312132123121312321231213212313213121321231"
    "2132312321231213123132123121312321231213212313213121321231213123132123"
    "12132123132131213212")


@pytest.mark.parametrize("n,digits,nodes", [
    (10, "1213123132", 31),
    (40, "1213123132123121312313213121321231213123", 91),
    (300, P300_WORD, 672),
])
def test_path_search_node_counts(n, digits, nodes):
    """solve(P_n, path, 3): exhausts k = 1, 2, then the same certificate."""
    r = solve(path_graph(n), "path", 3)
    assert (r.value, r.certificate.to_digits(), r.nodes_visited,
            r.exhausted_k, r.aborted) == (3, digits, nodes, [1, 2], False)


def _slice_suffix_squares(arc):
    """Reference: compare list slices for every half-length t >= 2."""
    pref = [ord(ch) for ch in reversed(arc)]
    return all(pref[-2 * t:-t] != pref[-t:]
               for t in range(2, len(pref) // 2 + 1))


def _arc(word):
    """The reversed arc Colorings keeps after coloring word."""
    return "".join(map(chr, reversed(word)))


def test_suffix_squares_matches_slice_loop():
    """Every word over {1, 2, 3} of length 1..12, at every depth.

    Both rules only compare colors for equality, so renaming the colors
    changes neither verdict: the words whose colors first appear in the
    order 1, 2, 3 stand for all of them.  They are walked depth first, with
    the word and reversed-arc stack kept as Colorings keeps them.
    """
    word, rev = [0] * 12, [""] * 13
    todo = [(0, 1, 1)]  # (depth, color, largest color on word[:depth + 1])
    visited, wrong = 0, []
    while todo:
        depth, col, top = todo.pop()
        word[depth] = col
        rev[depth] = chr(col) + rev[depth - 1]
        visited += 1
        if _suffix_squares(rev[depth]) != _slice_suffix_squares(rev[depth]):
            wrong.append(word[:depth + 1])
        if depth < 11:
            todo += [(depth + 1, c, max(top, c))
                     for c in range(min(3, top + 1), 0, -1)]
    # words of length n with 1, 2 or 3 colors: Stirling numbers S(n, j)
    words = sum(1 + (2**n - 2) // 2 + (3**n - 3 * 2**n + 3) // 6
                for n in range(1, 13))
    assert (visited, wrong) == (words, [])


@pytest.mark.parametrize("word,square_free", [
    ((10, 11, 10, 11), False),  # chr(10) is a newline: needs re.DOTALL
    ((11, 10, 11, 10), False),
    ((10, 11, 10, 12), True),
    ((300, 301, 300, 301), False),  # above 255: a bytes buffer cannot hold it
    ((300, 301, 302, 300, 301), True),
    ((1, 300, 301, 300, 301), False),
])
def test_suffix_squares_large_colors(word, square_free):
    assert _slice_suffix_squares(_arc(word)) == square_free
    assert _suffix_squares(_arc(word)) == square_free


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
def test_suffix_squares_follows_relabelled_line(make_graph):
    """On P7 or C7 laid out 1-6-3-5-2-0-4 the word follows g.line: the
    leaves are the proper colorings square-free along it."""
    g = _on_line(make_graph, (1, 6, 3, 5, 2, 0, 4))
    assert list(g.line) != list(range(7))
    runs = []
    for rule in (_suffix_squares, _slice_suffix_squares):
        colorings = Colorings(g, 3, (_proper, rule))
        runs.append(([c.colors for c in colorings], colorings.nodes))
    assert runs[0] == runs[1] and runs[0][0]
    assert runs[0][0] == [
        c.colors for c in Colorings(g, 3, (_proper,))
        if holds(path_graph(7), Coloring.from_colors(c.sequence_of(g.line)),
                 "path")]


@pytest.mark.parametrize("n", range(3, 10))
def test_closing_squares_rejects_only_failing_colorings(n):
    """A coloring with a square on the cycle has no stroll or walk property."""
    g = cycle_graph(n)
    rejected = 0
    for c in Colorings(g, 4):
        if not _closes(g, c.colors):
            assert not holds(g, c, "stroll") and not holds(g, c, "walk"), c
            rejected += 1
    assert rejected > 0


def _closes(g, cols):
    """_closing_squares on colors by vertex, given the reversed arc that
    Colorings keeps along g.line."""
    return _closing_squares(_arc([cols[v] for v in g.line]))


def _closing_verdicts_agree(g, colorings):
    """The closing rule rejects iff _least_square finds a square; count
    them."""
    rejected = 0
    for cols in colorings:
        cols = list(cols)
        kept = _closes(g, cols)
        assert kept == (_least_square(g, cols) is None), cols
        rejected += not kept
    return rejected


@pytest.mark.parametrize("n", range(3, 11))
def test_closing_squares_matches_square_factor(n):
    """Every 3- and 4-coloring of C_n, up to renaming the colors."""
    g = cycle_graph(n)
    colorings = [c.colors for c in Colorings(g, 4)]
    assert 0 < _closing_verdicts_agree(g, colorings) < len(colorings)


@pytest.mark.parametrize("n", [7, 12])
def test_closing_squares_follows_shuffled_line(n):
    """C_n laid out along a shuffled line: every 4-coloring of C7, and the
    leaves a square-free arc reaches on C12, which close either way."""
    g = _shuffled_cycle_graph(n)
    assert list(g.line) != list(range(n))
    rules = () if n == 7 else (_proper, _suffix_squares)
    colorings = [c.colors for c in Colorings(g, 4, rules)]
    assert 0 < _closing_verdicts_agree(g, colorings) < len(colorings)


@pytest.mark.parametrize("n", [8, 12, 18])
def test_colorings_call_closing_squares_at_the_last_vertex(n):
    """With the closing rule, Colorings yields exactly the leaves whose
    circular word is square-free, after trying the same colors."""
    g, rules = cycle_graph(n), (_proper, _suffix_squares)
    closed, open_ = Colorings(g, 3, (*rules, _closing_squares)), Colorings(g, 3, rules)
    leaves = [c.colors for c in open_]
    kept = [c.colors for c in closed]
    assert kept == [c for c in leaves if _least_square(g, c) is None]
    assert closed.nodes == open_.nodes and 0 < len(kept) < len(leaves)


def _least_square(g, cols):
    """The least square of cols along the path or cycle g, as the path
    witness's vertices, or None: the bit-parallel least-square scan."""
    w = exists_repetitive_path(g, Coloring.from_colors(cols))
    return w and w.walk.vertices


def _random_square_free(n, k, rng):
    """A random square-free word of n colors from 1..k, by backtracking."""
    word, todo = [], [rng.sample(range(1, k + 1), k)]
    while len(word) < n:
        if not todo[-1]:
            todo.pop()
            word.pop()
            continue
        word.append(todo[-1].pop())
        if any(word[-2 * t:-t] == word[-t:]
               for t in range(1, len(word) // 2 + 1)):
            word.pop()
        else:
            todo.append(rng.sample(range(1, k + 1), k))
    return word


def test_closing_squares_on_long_random_cycles():
    """Square-free arcs on C20..C200, closed as they come and with a square
    planted through the closing edge."""
    rng, closed = random.Random(13), 0
    for n in range(20, 201, 9):
        g = cycle_graph(n)
        for k in (3, 4, 5):
            word = _random_square_free(n, k, rng)
            planted = word[:]
            t = rng.randint(1, n // 2)
            i = rng.randint(n - 2 * t + 1, n - 1)  # i + 2t - 1 >= n: it wraps
            for j in range(i, i + t):
                planted[(j + t) % n] = planted[j % n]
            assert not _closes(g, planted), (word, t, i)
            closed += _closing_verdicts_agree(g, [word, planted]) == 1
    assert closed > 0  # some words also close square-free as they come


@pytest.mark.parametrize("n", [32, 33, 40, 47, 55, 64])
def test_closing_window_then_whole_word(n, monkeypatch):
    """C32..C64 with Thue's word fixed on all but the last 20 vertices.

    With the closing rule, Colorings yields exactly the leaves whose
    circular word is square-free, after trying the same colors.  The arc
    less its last vertex is square-free, so a leaf's squares hold that
    vertex: one of half-length at most 8 is rejected by the window alone,
    and a leaf whose shortest square is longer by the whole-word search
    after it, which reads the circular word from 15 letters before the
    seam.
    """
    t = [bin(i).count("1") % 2 for i in range(n + 1)]
    thue = [t[i] - t[i + 1] + 2 for i in range(n)]
    g = cycle_graph(n)
    rules = _prefix_rules(g, "path", 3)
    open_ = Colorings(g, 3, tuple(r for r in rules if r is not _closing_squares),
                      prefix=thue[:n - 20])
    closed = Colorings(g, 3, rules, prefix=thue[:n - 20])
    leaves = [c.colors for c in open_]
    kept = [c.colors for c in closed]
    assert kept == [c for c in leaves if _least_square(g, c) is None]
    assert closed.nodes == open_.nodes

    # the searches made: ("window", m), ("whole", text, cyclic)
    searched = []
    window, whole = search._squares, search._square_free_line
    monkeypatch.setattr(search, "_squares",
                        lambda m: searched.append(("window", m)) or window(m))
    monkeypatch.setattr(search, "_square_free_line", lambda text, cyclic:
                        searched.append(("whole", text, cyclic))
                        or whole(text, cyclic))
    kinds = {"short": 0, "long": 0, "square-free": 0}
    for cols in leaves:
        square = _least_square(g, cols)
        kind = ("square-free" if square is None
                else "short" if len(square) <= 16 else "long")
        # the reversed arc, read from 15 letters before the seam
        rev = "".join(chr(cols[v]) for v in reversed(g.line))
        searched.clear()
        assert _closes(g, cols) == (square is None), cols
        assert searched == ([("window", 16)] if kind == "short" else
                            [("window", 16),
                             ("whole", rev[-15:] + rev[:-15], True)]), cols
        kinds[kind] += 1
    assert min(kinds.values()) > 0, kinds


def _stirling2(n, j):
    """Partitions of n things into j nonempty blocks."""
    if j == 0:
        return int(n == 0)
    return j * _stirling2(n - 1, j) + _stirling2(n - 1, j - 1) if n else 0


@pytest.mark.parametrize("make_graph,ns", [(path_graph, range(1, 9)),
                                           (cycle_graph, range(3, 9))])
def test_rule_free_enumeration_counts(make_graph, ns):
    """Without rules nothing is skipped: improper colorings are enumerated
    too, one per partition of the vertices into at most k color classes."""
    for n in ns:
        for k in range(1, 5):
            colorings = list(Colorings(make_graph(n), k))
            assert len(colorings) == sum(_stirling2(n, j)
                                         for j in range(1, k + 1)), (n, k)
            assert len(set(colorings)) == len(colorings)


# graphs with no path or cycle layout, where the skips read neighbor sets:
# Figure 1's, K4, a star and three seeded graphs, one of them edgeless
_OFF_LINE_SKIP_GRAPHS = [_NON_LINE_GRAPHS[name] for name in ("fig1", "K4", "star")]
_OFF_LINE_SKIP_GRAPHS += _random_non_line_graphs(3, 35)


def _off_line_graph(i):
    return _OFF_LINE_SKIP_GRAPHS[i]


def _proper_coloring(g, cols):
    return all(cols[u] != cols[v] for u, v in g.edges)


def _distance2_coloring(g, cols):
    """No two vertices with a common neighbor share a color."""
    return all(cols[u] != cols[w] for x in range(g.n)
               for u, w in itertools.combinations(g.neighbors(x), 2))


# Colorings(g, k, (_proper,)).nodes, k = 1..4, by the make_graph of the test
# below, one row per n, as the rule call counted them before it became a skip
_PROPER_NODES = {
    "path_graph": [
        (1, 1, 1, 1), (2, 3, 3, 3), (2, 5, 6, 6), (2, 7, 12, 13),
        (2, 9, 24, 32), (2, 11, 48, 87), (2, 13, 96, 250), (2, 15, 192, 737)],
    "cycle_graph": [
        (2, 5, 6, 6), (2, 7, 12, 13), (2, 9, 24, 32), (2, 11, 48, 87),
        (2, 13, 96, 250), (2, 15, 192, 737)],
    "_off_line_graph": [
        (2, 5, 387, 4378), (2, 5, 9, 10), (2, 9, 24, 32), (2, 7, 30, 61),
        (6, 63, 185, 261), (2, 7, 15, 25)],
}


@pytest.mark.parametrize("make_graph,ns", [
    (path_graph, range(1, 9)), (cycle_graph, range(3, 9)),
    pytest.param(_off_line_graph, range(6), id="off-line")])
def test_proper_skip_keeps_the_proper_colorings(make_graph, ns):
    """_proper is a color skip, on a line and off it: it yields the proper
    colorings of the rule-free enumeration, in its order, and counts the
    nodes pinned above."""
    for n, counts in zip(ns, _PROPER_NODES[make_graph.__name__], strict=True):
        g = make_graph(n)
        for k, count in zip(range(1, 5), counts):
            skip = Colorings(g, k, (_proper,))
            assert list(skip) == [c for c in Colorings(g, k)
                                  if _proper_coloring(g, c.colors)], (n, k)
            assert skip.nodes == count, (n, k)


# Colorings(g, k, (_distance2,)).nodes and (_proper, _distance2)'s, k = 1..5,
# for P1..P9, C3..C10, P7 and C7 laid out 1-6-3-5-2-0-4, then the off-line
# graphs, as the rule calls counted them before they became skips
_DISTANCE2_NODES = {
    "distance2": [
        (1, 1, 1, 1, 1), (2, 3, 3, 3, 3), (3, 7, 8, 8, 8), (3, 11, 17, 18, 18),
        (3, 15, 35, 44, 45), (3, 19, 71, 118, 131), (3, 23, 143, 336, 435),
        (3, 27, 287, 986, 1575), (3, 31, 575, 2932, 5987),
        (2, 5, 6, 6, 6), (3, 11, 17, 18, 18), (3, 13, 29, 37, 38),
        (3, 15, 53, 92, 104), (3, 21, 119, 281, 369), (3, 27, 251, 842, 1357),
        (3, 29, 479, 2445, 5085), (3, 31, 935, 7252, 19767),
        (3, 23, 143, 336, 435), (3, 21, 119, 281, 369),
        (2, 5, 198, 2922, 10342), (2, 5, 9, 10, 10), (3, 11, 26, 34, 35),
        (3, 9, 23, 47, 57), (6, 63, 185, 261, 277), (2, 5, 9, 14, 20)],
    "proper+distance2": [
        (1, 1, 1, 1, 1), (2, 3, 3, 3, 3), (2, 5, 6, 6, 6), (2, 5, 9, 10, 10),
        (2, 5, 12, 18, 19), (2, 5, 15, 34, 43), (2, 5, 18, 66, 112),
        (2, 5, 21, 130, 316), (2, 5, 24, 258, 925),
        (2, 5, 6, 6, 6), (2, 5, 9, 10, 10), (2, 5, 9, 14, 15),
        (2, 5, 15, 30, 38), (2, 5, 18, 62, 102), (2, 5, 18, 110, 272),
        (2, 5, 24, 222, 795), (2, 5, 27, 462, 2399),
        (2, 5, 18, 66, 112), (2, 5, 18, 62, 102),
        (2, 5, 9, 262, 1830), (2, 5, 9, 10, 10), (2, 5, 9, 14, 15),
        (2, 5, 9, 22, 30), (6, 63, 185, 261, 277), (2, 5, 9, 14, 20)],
}


@pytest.mark.parametrize("rules", ["distance2", "proper+distance2"])
def test_distance2_skip_keeps_the_rule_colorings(rules):
    """_distance2 is a color skip, on a line and off it: it yields the
    colorings of the rule-free enumeration that pass distance-2 (and
    properness, with _proper), in its order, and counts the nodes pinned
    above; on P1..P9, C3..C10, P7 and C7 laid out 1-6-3-5-2-0-4 and the
    off-line graphs, k = 1..5."""
    graphs = [path_graph(n) for n in range(1, 10)]
    graphs += [cycle_graph(n) for n in range(3, 11)]
    graphs += [_on_line(make, (1, 6, 3, 5, 2, 0, 4))
               for make in (path_graph, cycle_graph)]
    graphs += _OFF_LINE_SKIP_GRAPHS
    first = (_proper,) if rules == "proper+distance2" else ()
    for g, counts in zip(graphs, _DISTANCE2_NODES[rules], strict=True):
        for k, count in zip(range(1, 6), counts):
            skip = Colorings(g, k, (*first, _distance2))
            assert list(skip) == [
                c for c in Colorings(g, k)
                if _distance2_coloring(g, c.colors)
                and (not first or _proper_coloring(g, c.colors))], (g.edges, k)
            assert skip.nodes == count, (g.edges, k)


@pytest.mark.parametrize("make_rule", [lambda: _suffix_squares,
                                       lambda: _factor_free, _StrollPrefix],
                         ids=["suffix", "factor", "product"])
def test_wrapped_rule_prunes_as_the_rule(make_rule):
    """Colorings calls every rule but _closing_squares as rule(arc) at
    every depth, so a rule wrapped in a lambda, which it cannot recognise,
    yields the same colorings after trying the same colors; on P1..P14 and
    C3..C14, k = 3 and 4."""
    graphs = [path_graph(n) for n in range(1, 15)]
    graphs += [cycle_graph(n) for n in range(3, 15)]
    for g in graphs:
        for k in (3, 4):
            rule, wrapped = make_rule(), make_rule()
            plain = Colorings(g, k, (_proper, rule))
            called = Colorings(g, k, (_proper, lambda arc: wrapped(arc)))
            assert [c.colors for c in plain] == [c.colors for c in called]
            assert plain.nodes == called.nodes, (g.n, k)


@pytest.mark.parametrize("g,prop,k,digits,nodes", [
    (path_graph(12), "stroll", 3, "121312313212", 25),
    (cycle_graph(24), "path", 3, "121312313212321312132123", 145),
    (cycle_graph(10), "walk", 4, "1231241324", 31),
])
def test_budget_aborts_across_budgets(g, prop, k, digits, nodes):
    """Every budget from 1 to 300: below the search's own node count it
    aborts having tried node_budget + 1 colors, skipped ones included."""
    for budget in range(1, 301):
        cert, visited, aborted = search_fixed_k(g, prop, k, node_budget=budget)
        expected = ((None, budget + 1, True) if budget < nodes
                    else (digits, nodes, False))
        assert (cert and cert.to_digits(), visited, aborted) == expected, budget


def test_search_depth_does_not_recurse():
    """The search keeps its own stack: 120 vertices fit in 60 frames."""
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        cert, _, aborted = search_fixed_k(path_graph(120), "path", 3)
    finally:
        sys.setrecursionlimit(limit)
    assert not aborted and final_check(path_graph(120), cert, "path")


def test_long_path_solves():
    """The leaf checks on a long path scan the color word, not all paths."""
    r = solve(path_graph(300), "path", 3)
    assert r.value == 3 and final_check(path_graph(300), r.certificate, "path")


def test_cycle_sixty_solves():
    r = solve(cycle_graph(60), "path", 3)
    assert r.value == 3 and final_check(cycle_graph(60), r.certificate, "path")
