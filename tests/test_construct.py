import pytest

from nonrepcolor import search
from nonrepcolor.construct import (
    SIGMA_CYCLE_MAX_N,
    STROLL_NONREP_P21,
    WALK_NONREP_CYCLE_TABLE,
    classify_edges,
    figure1_fixture,
    is_symmetrical,
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
    is_walk_nonrepetitive_cycle_fast,
)
from nonrepcolor.model import (
    Coloring,
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
        with pytest.raises(InvalidArgumentError):
            sigma_cycle_coloring(SIGMA_CYCLE_MAX_N + 1)

    def test_trace_json(self):
        trace, _ = sigma_cycle_coloring(22)
        data = trace.to_json_dict()
        assert data["schema"] == 1
        assert len(data["base_coloring"]) == 16

    def test_failed_obligation_survives_optimize(self, monkeypatch):
        # a base search answering 4 breaks a proof obligation; the check
        # must be an explicit error, not an assert that python -O strips
        def solve_value_4(g, prop, k_max, node_budget):
            return search.SolveReport(prop, {"kind": "cycle", "n": g.n}, 4,
                                      None, [1, 2, 3], 0, 0.0, k_max=k_max)

        monkeypatch.setattr(search, "solve", solve_value_4)
        with pytest.raises(RuntimeError) as info:
            sigma_cycle_coloring(22)
        assert not isinstance(info.value, search.BudgetExhausted)

    def test_budget_abort_is_budget_exhausted(self):
        with pytest.raises(search.BudgetExhausted):
            sigma_cycle_coloring(24, node_budget=5)


class TestRhoPath:
    def test_full_word(self):
        value, c = rho_path_coloring(21)
        assert value == 3 and c.colors == STROLL_NONREP_P21

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

    def test_three_color_words(self):
        assert rho_cycle_coloring(6)[1].to_digits() == "212313"
        assert rho_cycle_coloring(8)[1].to_digits() == "12132123"


class TestFigure1Fixture:
    def test_distance2_and_path_nonrepetitive_but_not_walk(self):
        g, c = figure1_fixture()
        assert is_distance2(g, c) is None
        assert exists_repetitive_path(g, c) is None
        assert exists_repetitive_nonboring_walk(g, c) is not None
