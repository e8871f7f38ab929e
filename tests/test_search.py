import json

import pytest

from nonrepcolor.construct import WALK_NONREP_CYCLE_TABLE
from nonrepcolor.model import (Coloring, InvalidArgumentError, cycle_graph,
                               path_graph)
from nonrepcolor.search import final_check, search_fixed_k, solve

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

    def test_budget_abort_makes_no_claim(self):
        r = solve(cycle_graph(9), "path", 3, node_budget=5)
        assert r.aborted and r.value is None and r.nodes_visited >= 5


@pytest.mark.parametrize("make_graph,ns", [(path_graph, range(2, 9)),
                                           (cycle_graph, range(3, 9))])
def test_symmetry_breaking_sound(make_graph, ns):
    """Search with and without symmetry breaking agrees on every value."""
    for n in ns:
        g = make_graph(n)
        for prop in ("path", "stroll", "walk"):
            with_sb = solve(g, prop, 5, symmetry_break=True)
            without = solve(g, prop, 5, symmetry_break=False)
            assert with_sb.value == without.value, (n, prop)


@pytest.mark.parametrize("n", range(3, 10))
def test_prefix_pruning_sound_on_paths(n):
    pruned = solve(path_graph(n), "stroll", 4, prune=True)
    unpruned = solve(path_graph(n), "stroll", 4, prune=False)
    assert pruned.value == unpruned.value


@pytest.mark.parametrize("n", range(10, 13))
def test_prefix_pruning_sound_on_longer_paths(n):
    pruned = solve(path_graph(n), "stroll", 4, prune=True)
    unpruned = solve(path_graph(n), "stroll", 4, prune=False)
    assert pruned.value == unpruned.value


def test_fixed_k_exhaustion_is_complete():
    cert, nodes, aborted = search_fixed_k(path_graph(22), "stroll", 3)
    assert cert is None and not aborted and nodes > 0
