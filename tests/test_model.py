import itertools

import pytest
from hypothesis import given, strategies as st

from nonrepcolor.model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    InvalidWalkError,
    Walk,
    classify_walk,
    cycle_graph,
    is_distance2,
    is_repetitive,
    path_graph,
)
from nonrepcolor.construct import figure1_fixture, table1_coloring


class TestGraphConstructors:
    def test_singleton_path(self):
        g = path_graph(1)
        assert g.n == 1 and not g.edges

    def test_path_edges(self):
        g = path_graph(4)
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})

    def test_long_path_degrees(self):
        g = path_graph(21)
        assert len(g.edges) == 20
        assert max(g.degree(v) for v in range(21)) == 2

    def test_triangle(self):
        g = cycle_graph(3)
        assert len(g.edges) == 3

    def test_four_cycle_degrees(self):
        g = cycle_graph(4)
        assert all(g.degree(v) == 2 for v in range(4))

    def test_no_two_cycle(self):
        with pytest.raises(InvalidArgumentError):
            cycle_graph(2)

    def test_no_empty_path(self):
        with pytest.raises(InvalidArgumentError):
            path_graph(0)

    def test_no_loops(self):
        with pytest.raises(InvalidArgumentError):
            Graph.from_edges(2, [(1, 1)])

    @pytest.mark.parametrize("g,shape", [
        (Graph(0, frozenset()), "graph"),
        (path_graph(1), "path"),
        (path_graph(2), "path"),
        (path_graph(5), "path"),
        (cycle_graph(5), "cycle"),
        # path degrees but disconnected: P2 plus a triangle
        (Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)]), "graph"),
        # cycle degrees but disconnected: two triangles
        (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
         "graph"),
        (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), "graph"),  # K1,3
        (figure1_fixture()[0], "graph"),
    ], ids=["empty", "vertex", "P2", "P5", "C5", "P2+C3", "2C3", "K13", "fig1"])
    def test_shape_predicates(self, g, shape):
        assert g.is_path() == (shape == "path")
        assert g.is_cycle() == (shape == "cycle")
        assert g.shape == shape

    def test_json_round_trip(self):
        g = cycle_graph(6)
        assert Graph.from_json(g.to_json()) == g


class TestColoring:
    def test_digit_round_trip(self):
        c = Coloring.from_digits("12341243")
        assert c.k == 4 and c.to_digits() == "12341243"

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            Coloring((0, 1), 2)
        with pytest.raises(InvalidArgumentError):
            Coloring((1, 3), 2)

    def test_digits_keep_given_k(self):
        assert Coloring.from_digits("121", k=4).k == 4
        with pytest.raises(InvalidArgumentError):
            Coloring.from_digits("5", k=4)

    def test_unused_trailing_colors_reported(self):
        c = Coloring((1, 2, 1), 5)
        assert c.k == 5 and c.colors_used() == 2


class TestIsRepetitive:
    def test_square(self):
        assert is_repetitive((1, 2, 1, 2))

    def test_non_square(self):
        assert not is_repetitive((1, 2, 3, 1))

    def test_published_square(self):
        assert is_repetitive(tuple(int(d) for d in "212313212313"))

    def test_odd_length_rejected(self):
        with pytest.raises(InvalidArgumentError):
            is_repetitive((1, 2, 3))

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_doubling_is_always_repetitive(self, seq):
        assert is_repetitive(tuple(seq) + tuple(seq))


class TestClassifyWalk:
    def test_cycle_tour_is_nonrepetitive_stroll(self):
        # full tour of the 9-cycle plus the return to the start
        _, c = table1_coloring(9)
        g = cycle_graph(9)
        wc = classify_walk(g, c, Walk(tuple(range(9)) + (0,)))
        assert wc.even_length and wc.stroll
        assert wc.repetitive is False and not wc.boring

    def test_back_and_forth_is_boring(self):
        g = path_graph(2)
        c = Coloring.from_digits("12")
        wc = classify_walk(g, c, Walk((0, 1, 0, 1)))
        assert wc.boring and wc.repetitive is True and not wc.stroll

    def test_stroll_with_repeated_vertex(self):
        g = path_graph(7)
        c = Coloring.from_digits("1232123")
        wc = classify_walk(g, c, Walk((0, 1, 2, 3, 4, 5, 6, 5)))
        assert wc.stroll and wc.repetitive is True and not wc.simple_path

    def test_odd_walk_has_no_repetitive_flag(self):
        g = path_graph(3)
        c = Coloring.from_digits("121")
        wc = classify_walk(g, c, Walk((0, 1, 2)))
        assert wc.repetitive is None and not wc.boring and not wc.stroll

    def test_non_adjacent_rejected(self):
        g = path_graph(4)
        c = Coloring.from_digits("1212")
        with pytest.raises(InvalidWalkError):
            classify_walk(g, c, Walk((0, 2)))


class TestDistance2:
    def test_four_cycle_rainbow(self):
        assert is_distance2(cycle_graph(4), Coloring.from_digits("1234")) is None

    def test_common_neighbor_violation(self):
        assert is_distance2(path_graph(3), Coloring.from_digits("121")) == (0, 2)

    def test_adjacent_violation(self):
        assert is_distance2(path_graph(2), Coloring((1, 1), 2)) == (0, 1)

    def test_figure1_fixture_is_distance2(self):
        g, c = figure1_fixture()
        assert is_distance2(g, c) is None


def _all_even_simple_paths(g, max_order):
    for order in range(2, max_order + 1, 2):
        for verts in itertools.permutations(range(g.n), order):
            if all(g.adjacent(a, b) for a, b in zip(verts, verts[1:])):
                yield Walk(verts)


@pytest.mark.parametrize("n", range(3, 11))
def test_even_simple_paths_are_strolls(n):
    g = cycle_graph(n)
    c = Coloring.from_colors([v % 3 + 1 for v in range(n)])
    for w in _all_even_simple_paths(g, min(n, 6)):
        wc = classify_walk(g, c, w)
        assert wc.stroll and not wc.boring


@given(st.integers(3, 8), st.data())
def test_boring_implies_repetitive(n, data):
    # random boring walk: pick a half, then repeat it
    g = cycle_graph(n)
    colors = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    c = Coloring.from_colors(colors, 3)
    t = data.draw(st.integers(1, 6))
    start = data.draw(st.integers(0, n - 1))
    steps = data.draw(st.lists(st.sampled_from([1, n - 1]), min_size=t - 1,
                               max_size=t - 1))
    half = [start]
    for s in steps:
        half.append((half[-1] + s) % n)
    if not g.adjacent(half[-1], half[0]):
        return  # the doubled walk would break adjacency at the seam
    wc = classify_walk(g, c, Walk(tuple(half + half)))
    assert wc.boring and wc.repetitive is True and not wc.stroll
