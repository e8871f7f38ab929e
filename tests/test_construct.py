import functools
import hashlib
import itertools
import random

import pytest

from nonrepcolor import construct, decide, search
from nonrepcolor.construct import (
    STROLL_NONREP_P21,
    STROLL_NONREP_SMALL_CYCLES,
    WALK_NONREP_CYCLE_TABLE,
    classify_edges,
    figure1_fixture,
    rho_cycle_coloring,
    rho_path_coloring,
    sigma_cycle_coloring,
    subdivide_cycle,
    table1_coloring,
)
from nonrepcolor.decide import (
    exists_repetitive_nonboring_walk,
    exists_repetitive_path,
    exists_repetitive_stroll,
    holds,
    is_walk_nonrepetitive_cycle_fast,
)
from nonrepcolor.model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    cycle_graph,
    is_distance2,
    path_graph,
)


class TestEmbeddedCycleTable:
    @pytest.mark.parametrize("n", range(4, 22))
    def test_rows_are_walk_nonrepetitive(self, n):
        value, c = table1_coloring(n)
        assert c.colors_used() == value
        assert is_walk_nonrepetitive_cycle_fast(cycle_graph(n), c)

    def test_values(self):
        for n, (value, _) in WALK_NONREP_CYCLE_TABLE.items():
            assert value == (5 if n in (5, 7) else 4)

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            table1_coloring(22)
        with pytest.raises(InvalidArgumentError):
            table1_coloring(3)


def is_symmetrical(g, c, v):
    """The definition classify_edges reads off the word: v has two
    neighbours, and they share a color."""
    nbrs = g.neighbors(v)
    return len(nbrs) == 2 and c.colors[nbrs[0]] == c.colors[nbrs[1]]


class TestEdgeClassification:
    def test_six_cycle_periodic_all_good(self):
        g = cycle_graph(6)
        c = Coloring.from_digits("123123")
        classes = classify_edges(g, c)
        assert [e.edge for e in classes] == [(0, 1), (2, 3), (4, 5)]
        assert all(e.good for e in classes)

    def test_symmetrical_vertex_marks_edge_bad(self):
        g = cycle_graph(6)
        c = Coloring.from_digits("121323")
        assert is_symmetrical(g, c, 1)  # neighbors 0 and 2 both colored 1
        classes = {e.edge: e.good for e in classify_edges(g, c)}
        assert classes[(0, 1)] is False

    def test_relabelled_cycle_matching_follows_the_line(self):
        # C6 laid out 0-3-1-5-2-4, colored 121323 along the line
        g = Graph.from_edges(6, [(0, 3), (3, 1), (1, 5), (5, 2), (2, 4), (4, 0)])
        classes = classify_edges(g, Coloring.from_digits("112233"))
        assert [(e.edge, e.good) for e in classes] == [
            ((0, 3), False), ((1, 5), True), ((2, 4), False)]
        assert all(g.adjacent(*e.edge) for e in classes)

    @pytest.mark.parametrize("n", [6, 8, 16, 20])
    def test_word_classification_matches_is_symmetrical(self, n):
        """Every 3-coloring of C6 and C8, and the path-nonrepetitive ones of
        C16 and C20 up to renaming, each along the cycle and along a relabelled
        copy: an edge is good iff neither end is_symmetrical."""
        ids = random.Random(n).sample(range(n), n)
        graphs = (cycle_graph(n), Graph.from_edges(
            n, [(ids[u], ids[v]) for u, v in cycle_graph(n).edges]))
        words = (itertools.product((1, 2, 3), repeat=n) if n <= 8 else
                 (c.colors for c in search.Colorings(
                     graphs[0], 3, search._prefix_rules(graphs[0], "path", 3))
                  if holds(graphs[0], c, "path")))
        for colors in words:
            for g in graphs:
                matching = list(zip(g.line[::2], g.line[1::2]))
                c = Coloring(tuple(colors[g.line.index(v)] for v in range(n)), 3)
                classes = classify_edges(g, c)
                assert [e.edge for e in classes] == matching
                assert [e.good for e in classes] == [
                    not (is_symmetrical(g, c, u) or is_symmetrical(g, c, v))
                    for u, v in matching], colors

    def test_rejects_odd_cycle_and_path(self):
        with pytest.raises(InvalidArgumentError):
            classify_edges(cycle_graph(5), Coloring.from_digits("12312"))
        with pytest.raises(InvalidArgumentError):
            classify_edges(path_graph(4), Coloring.from_digits("1231"))


class TestSubdivision:
    def test_six_cycle_fully_subdivided(self):
        # subdividing every matching edge of 123123 yields a 9-cycle whose
        # coloring is walk-nonrepetitive
        g, c = subdivide_cycle(Coloring.from_digits("123123"), [0, 1, 2])
        assert g.n == 9
        assert c.to_digits() == "142341243"
        assert is_walk_nonrepetitive_cycle_fast(g, c)

    def test_partial_subdivision_shape(self):
        g, c = subdivide_cycle(Coloring.from_digits("123123"), [1])
        assert g.n == 7 and c.colors[3] == 4


@functools.lru_cache(maxsize=None)
def _sigma(n):
    return sigma_cycle_coloring(n)


class TestSigmaCycle:
    def test_n22_trace_arithmetic(self):
        trace, c = sigma_cycle_coloring(22)
        assert trace.base_cycle_n == 16
        assert len(trace.removed_good_edges) == 2
        assert len(trace.subdivided_edges) == 6
        assert c.n == 22

    def test_n24_removes_nothing(self):
        trace, c = sigma_cycle_coloring(24)
        assert trace.base_cycle_n == 16
        assert not trace.removed_good_edges
        assert len(trace.subdivided_edges) == 8

    @pytest.mark.parametrize("n", [22, 23, 25, 30, 40])
    def test_certificates_verify(self, n):
        trace, c = sigma_cycle_coloring(n)
        g = cycle_graph(n)
        assert c.colors_used() == 4
        assert is_walk_nonrepetitive_cycle_fast(g, c)
        # hierarchy: also stroll- and path-nonrepetitive
        assert exists_repetitive_stroll(g, c) is None
        assert exists_repetitive_path(g, c) is None
        # every matching edge is either removed or subdivided
        covered = set(trace.removed_good_edges) | set(trace.subdivided_edges)
        assert covered == set(trace.matching)

    def test_range_checks(self):
        with pytest.raises(InvalidArgumentError):
            sigma_cycle_coloring(21)
        # no upper cap: C1000 is walk-nonrepetitive, its restriction to
        # P1000 stroll-nonrepetitive
        _, c = sigma_cycle_coloring(1000)
        assert is_walk_nonrepetitive_cycle_fast(cycle_graph(1000), c)
        assert holds(path_graph(1000), c, "stroll")

    def test_certificates_pinned(self):
        # only the self-check's route changed, not what is built: one
        # digest of every base and certificate of n = 22..119
        digest = hashlib.sha256()
        for n in range(22, 120):
            trace, c = _sigma(n)
            digest.update(f"{n} {trace.base_coloring.to_digits()} "
                          f"{c.to_digits()}\n".encode())
        assert digest.hexdigest() == (
            "817dea32385244475524a0eb2f4b4cdbf5aad6f11efd1c75ac55a8b1eb3caf52")

    def test_labelling_agrees_on_every_certificate(self):
        # sigma checks itself by Barát and Wood's characterization; the
        # product labelling, which assumes none of it, accepts each too
        for n in range(22, 120):
            assert holds(cycle_graph(n), _sigma(n)[1], "walk"), n

    def test_fast_check_matches_labelling_on_planted_squares(self):
        # a square of half t = 2..6 planted in sigma's word, at a random
        # start and across the seam (from n - t), and the same words with
        # colors of 256 or more: the Barát–Wood verdict is the labelling's
        rng = random.Random(32)
        names = {1: 256, 2: 0x110000, 3: 300, 4: 0x110007}
        rejected = square_only = 0
        for n in range(22, 73):
            g, colors = cycle_graph(n), _sigma(n)[1].colors
            words = [colors]
            for t in range(2, 7):
                for p in (rng.randrange(n), n - t):
                    word = list(colors)
                    for j in range(p, p + t):
                        word[(j + t) % n] = word[j % n]
                    words.append(word)
            for word in words:
                for cols in word, [names[col] for col in word]:
                    c = Coloring.from_colors(cols)
                    fast = is_walk_nonrepetitive_cycle_fast(g, c)
                    assert fast == holds(g, c, "walk"), cols
                    rejected += not fast
                    square_only += not fast and is_distance2(g, c) is None
        # every planted word fails, and no sigma word; in some only the
        # square scan finds the fault
        assert rejected == 51 * 10 * 2 and square_only > 0

    @pytest.mark.parametrize("k", range(8, 31))
    def test_base_is_lex_least_up_to_ninety(self, k):
        # the base of sigma(C_n) is a coloring of C_2k, k = ceil(n/3), so
        # n = 3k covers every base of n = 22..90: up to C60 the window is
        # the whole cycle, and the base the lex-least certificate
        trace, _ = sigma_cycle_coloring(3 * k)
        report = search.solve(cycle_graph(2 * k), "path", 3)
        assert trace.base_coloring == report.certificate

    def test_empty_window_doubles(self, monkeypatch):
        # a window that finds nothing is followed by a larger one, and the
        # coloring built on the wider tail still verifies
        windows = []
        real = search.search_fixed_k

        def first_window_empty(g, prop, k, node_budget, prefix=()):
            windows.append(g.n - len(prefix))
            if len(windows) == 1:
                return None, 7, False
            return real(g, prop, k, node_budget, prefix=prefix)

        monkeypatch.setattr(search, "search_fixed_k", first_window_empty)
        trace, c = sigma_cycle_coloring(120)
        assert trace.base_cycle_n == 80 and windows == [24, 48]
        # the first 80 - 48 base vertices follow Thue's word
        t = [bin(i).count("1") % 2 for i in range(33)]
        assert trace.base_coloring.colors[:32] == tuple(
            t[i] - t[i + 1] + 2 for i in range(32))
        assert is_walk_nonrepetitive_cycle_fast(cycle_graph(120), c)

    def test_trace_json(self):
        trace, _ = sigma_cycle_coloring(22)
        data = trace.to_json_dict()
        assert data["schema"] == 1
        assert len(data["base_coloring"]) == 16

    def test_failed_obligation_survives_optimize(self, monkeypatch):
        # a base search that finds nothing breaks a proof obligation; the
        # check must be an explicit error, not an assert that python -O strips
        def finds_nothing(g, prop, k, node_budget, prefix=()):
            return None, 0, False

        monkeypatch.setattr(search, "search_fixed_k", finds_nothing)
        with pytest.raises(RuntimeError) as info:
            sigma_cycle_coloring(22)
        assert not isinstance(info.value, search.BudgetExhausted)

    def test_budget_abort_is_budget_exhausted(self):
        with pytest.raises(search.BudgetExhausted):
            sigma_cycle_coloring(24, node_budget=5)

    def test_too_few_good_edges_breaks_the_size_obligation(self, monkeypatch):
        # the m = 2 edges left unsubdivided at n = 22 come from the good
        # ones; with none good every edge is subdivided and C24 comes out
        def all_bad(g, c):
            line = g.line
            return [construct.EdgeClass((line[i], line[i + 1]), False)
                    for i in range(0, g.n, 2)]

        monkeypatch.setattr(construct, "classify_edges", all_bad)
        with pytest.raises(RuntimeError,
                           match="fewer than m = 2 matching edges are good"):
            sigma_cycle_coloring(22)


class TestRestrictionLemma:
    """sigma's walk check carries over to the rho certificates of n >= 22:
    each walk of a subgraph is a walk of C_n, and a repetitive stroll is a
    nonboring repetitive walk."""

    @pytest.mark.parametrize("n", range(22, 41))
    def test_sigma_is_stroll_nonrepetitive_on_cycle_and_paths(self, n):
        _, c = sigma_cycle_coloring(n)
        assert holds(cycle_graph(n), c, "stroll")
        assert holds(path_graph(n), c, "stroll")
        for m in range(1, n):
            assert holds(path_graph(m), Coloring.from_colors(c.colors[:m]),
                         "stroll"), m

    @pytest.mark.parametrize("m", range(1, 22))
    def test_p21_word_restricts_to_every_shorter_path(self, m):
        c = Coloring.from_colors(STROLL_NONREP_P21[:m])
        assert holds(path_graph(m), c, "stroll")

    @pytest.mark.parametrize("build,shape", [
        (rho_path_coloring, "path"), (rho_cycle_coloring, "cycle")])
    @pytest.mark.parametrize("n", [3, 8, 9, 21, 22, 23, 30])
    def test_one_self_check_per_certificate(self, monkeypatch, build, shape,
                                            n):
        # one self-check per certificate.  n <= 21: one product labelling,
        # the stroll word on its own graph; n >= 22: sigma's coloring comes
        # back unchanged after its Barát–Wood walk check on C_n, which
        # labels nothing.  The path verdicts are the base search's leaf
        # checks, a regex search each.
        calls, fast = [], []
        real, real_fast = decide.holds, decide.is_walk_nonrepetitive_cycle_fast

        def counted(g, c, prop):
            if prop != "path":
                calls.append((g.shape, g.n, prop))
            return real(g, c, prop)

        def counted_fast(g, c):
            fast.append((g.shape, g.n))
            return real_fast(g, c)

        monkeypatch.setattr(decide, "holds", counted)
        monkeypatch.setattr(decide, "is_walk_nonrepetitive_cycle_fast",
                            counted_fast)
        value, c = build(n)
        if n >= 22:
            monkeypatch.setattr(decide, "holds", real)
            assert (calls, fast) == ([], [("cycle", n)])
            assert (value, c) == (4, sigma_cycle_coloring(n)[1])
        else:
            assert (calls, fast) == ([(shape, n, "stroll")], [])


class TestRhoPath:
    def test_full_word(self):
        value, c = rho_path_coloring(21)
        assert value == 3 and c.colors == STROLL_NONREP_P21

    def test_word_digits(self):
        """Lemma 5's longest word decodes to the pinned 21-vertex word."""
        assert STROLL_NONREP_P21 == tuple(map(int, "121312321323123213121"))

    def test_three_vertices_two_colors(self):
        value, c = rho_path_coloring(3)
        assert value == 2 and c.colors_used() == 2

    def test_prefixes(self):
        for n in (4, 10, 17):
            value, c = rho_path_coloring(n)
            assert value == 3 and c.colors == STROLL_NONREP_P21[:n]

    def test_twenty_two_needs_four(self):
        value, c = rho_path_coloring(22)
        assert value == 4
        assert exists_repetitive_stroll(path_graph(22), c) is None

    def test_too_small(self):
        with pytest.raises(InvalidArgumentError):
            rho_path_coloring(2)


class TestRhoCycle:
    EXPECTED = {3: 3, 4: 3, 5: 4, 6: 3, 7: 4, 8: 3, 9: 4, 12: 4, 21: 4, 22: 4}

    @pytest.mark.parametrize("n", sorted(EXPECTED))
    def test_values_and_certificates(self, n):
        value, c = rho_cycle_coloring(n)
        assert value == self.EXPECTED[n]
        assert exists_repetitive_stroll(cycle_graph(n), c) is None
        if n <= 8:  # claim_thm3 reads the same words
            assert c.colors == STROLL_NONREP_SMALL_CYCLES[n]

    def test_three_color_words(self):
        assert rho_cycle_coloring(6)[1].to_digits() == "212313"
        assert rho_cycle_coloring(8)[1].to_digits() == "12132123"


class TestFigure1Fixture:
    def test_distance2_and_path_nonrepetitive_but_not_walk(self):
        g, c = figure1_fixture()
        assert is_distance2(g, c) is None
        assert exists_repetitive_path(g, c) is None
        assert exists_repetitive_nonboring_walk(g, c) is not None


def test_construct_input_checks():
    with pytest.raises(InvalidArgumentError,
                       match="edge classification is defined for 3-colorings"):
        classify_edges(cycle_graph(4), Coloring.from_digits("1234"))
    with pytest.raises(InvalidArgumentError, match="at least three vertices"):
        rho_cycle_coloring(2)
