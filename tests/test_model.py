import functools
import itertools

import pytest
from hypothesis import given, strategies as st

from nonrepcolor import decide, oracle, saseq
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

    @pytest.mark.parametrize("n,edges", [
        (2, {(1, 1)}),
        (3, {(0, 3)}),  # endpoint out of range
        (3, {(2, 1)}),  # stored as (max, min)
        (-1, set()),
    ], ids=["loop", "out-of-range", "max-min", "negative-n"])
    def test_malformed_graphs(self, n, edges):
        with pytest.raises(InvalidArgumentError):
            Graph(n, frozenset(edges))

    @pytest.mark.parametrize("make,ns,closed", [
        (path_graph, [*range(1, 61), 1000], False),
        (cycle_graph, [*range(3, 61), 1000], True),
    ], ids=["path", "cycle"])
    def test_closed_form_matches_edges(self, make, ns, closed):
        """path_graph and cycle_graph, built in closed form, equal the graph
        given by its edges, built through __post_init__ and line's walk."""
        for n in ns:
            g = make(n)
            ref = Graph.from_edges(n, [(v, (v + 1) % n)
                                       for v in range(n if closed else n - 1)])
            assert (g, hash(g), g.edges, g._adj, g.line, g.shape, g.to_json()) \
                == (ref, hash(ref), ref.edges, ref._adj, ref.line, ref.shape,
                    ref.to_json()), n
            assert Graph.from_json(g.to_json()).line == g.line == tuple(range(n))

    @pytest.mark.parametrize("g,shape,line", [
        (Graph(0, frozenset()), "graph", None),
        (path_graph(1), "path", (0,)),
        (path_graph(2), "path", (0, 1)),
        (path_graph(5), "path", (0, 1, 2, 3, 4)),
        (cycle_graph(5), "cycle", (0, 1, 2, 3, 4)),
        # relabelled: a path reads from its lower-numbered end, a cycle from
        # vertex 0 towards its lower-numbered neighbour
        (Graph.from_edges(5, [(3, 1), (1, 4), (4, 0), (0, 2)]), "path",
         (2, 0, 4, 1, 3)),
        (Graph.from_edges(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)]),
         "cycle", (0, 2, 4, 1, 3)),
        # path degrees but disconnected: P2 plus a triangle
        (Graph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)]), "graph", None),
        # cycle degrees but disconnected: two triangles
        (Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
         "graph", None),
        # a lone vertex beside a path
        (Graph.from_edges(3, [(1, 2)]), "graph", None),
        (Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]), "graph", None),  # K1,3
        (figure1_fixture()[0], "graph", None),
    ], ids=["empty", "vertex", "P2", "P5", "C5", "P5-relabelled",
            "C5-relabelled", "P2+C3", "2C3", "K1+P2", "K13", "fig1"])
    def test_shape_predicates(self, g, shape, line):
        assert g.is_path() == (shape == "path")
        assert g.is_cycle() == (shape == "cycle")
        assert g.shape == shape
        assert g.line == line

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

    @pytest.mark.parametrize("colors,message", [
        ((1, 2.0, 1), "vertex 1 has color 2.0, not an int"),
        ((1, 2, "3"), "vertex 2 has color '3', not an int"),
        ((True, 2, 1), "vertex 0 has color True, not an int"),
        ((1, 0, 2.5), "vertex 2 has color 2.5, not an int"),
        ((2, 1, 0, 3), "vertex 2 has color 0 outside 1..3"),
    ])
    def test_names_the_first_fault(self, colors, message):
        """Types first, then range, each reported at its first fault."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            Coloring(colors, 3)

    @pytest.mark.parametrize("colors,message", [
        ([1.7, 2.2], "vertex 0 has color 1.7, not an int"),
        ([1, 2, "3"], "vertex 2 has color '3', not an int"),
        ([True, 2, "x"], "vertex 2 has color 'x', not an int"),
    ])
    def test_from_colors_refuses_what_is_no_int(self, colors, message):
        """No truncation: a float or a string color is refused, by name; a
        bool before it converts, so the string is the one named."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            Coloring.from_colors(colors)

    @pytest.mark.parametrize("k", [2.5, True, "3", None, 0, -1])
    def test_k_is_a_positive_int(self, k):
        """k is checked as the colors are: exactly an int, and at least 1."""
        with pytest.raises(InvalidArgumentError,
                           match=f"^k must be a positive int, not {k!r}$"):
            Coloring((1, 2, 1), k)

    @pytest.mark.parametrize("colors,message", [
        ([0, 0], "vertex 0 has color 0 outside 1..1"),
        ([-1, 0, -2], "vertex 0 has color -1 outside 1..1"),
        ([2, 0, 1], "vertex 1 has color 0 outside 1..2"),
    ])
    def test_from_colors_names_a_color_below_one(self, colors, message):
        """A color below 1 is named with its vertex, also when no color is
        1 or more and k defaults to 1."""
        with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
            Coloring.from_colors(colors)

    def test_from_colors_takes_integer_types(self):
        """operator.index converts what is an integer, a bool too."""
        c = Coloring.from_colors(iter([True, 2, 3]))
        assert c.colors == (1, 2, 3) and type(c.colors[0]) is int


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

    @pytest.mark.parametrize("vertices,message", [
        ((1, 5, 2, 9), "vertex 5 not in graph"),
        ((1, -1, 2), "vertex -1 not in graph"),
        ((0, 1, 3, 0, 2), "vertices 1 and 3 are not adjacent"),
        ((4, 3, 2, 0), "vertices 2 and 0 are not adjacent"),
    ])
    def test_validate_names_the_first_fault(self, vertices, message):
        """Range first, then adjacency, each reported at its first fault."""
        with pytest.raises(InvalidWalkError, match=f"^{message}$"):
            Walk(vertices).validate(cycle_graph(5))

    @pytest.mark.parametrize("g", [path_graph(4), cycle_graph(4),
                                   Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])],
                             ids=["P4", "C4", "star"])
    def test_flags_match_their_definitions(self, g):
        """Every vertex sequence of 1..6 vertices under two colorings: it is
        a walk iff every step is an edge, and the flags are the walk's
        halves compared vertex by vertex and color by color."""
        for cols in ((1, 2, 1, 2), (1, 2, 3, 1)):
            c = Coloring(cols, 3)
            for m in range(1, 7):
                for vs in itertools.product(range(4), repeat=m):
                    is_walk = all((min(a, b), max(a, b)) in g.edges
                                  for a, b in zip(vs, vs[1:]))
                    if not is_walk:
                        with pytest.raises(InvalidWalkError):
                            classify_walk(g, c, Walk(vs))
                        continue
                    wc = classify_walk(g, c, Walk(vs))
                    t = m // 2
                    first, second = vs[:t], vs[t:]
                    assert wc.even_length == (m % 2 == 0)
                    assert wc.simple_path == (len(set(vs)) == m)
                    if m % 2:
                        assert wc.repetitive is None and not wc.boring
                        assert not wc.stroll
                        continue
                    assert wc.boring == (first == second)
                    assert wc.stroll == all(a != b for a, b in zip(first, second))
                    assert wc.repetitive == (
                        [cols[v] for v in first] == [cols[v] for v in second])


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


class TestInputChecks:
    def test_empty_colors(self):
        with pytest.raises(InvalidArgumentError, match="must be nonempty"):
            Coloring.from_colors([])

    def test_non_digit_string(self):
        with pytest.raises(InvalidArgumentError,
                           match="not a digit-string coloring: '12a'"):
            Coloring.from_digits("12a")

    def test_digit_form_needs_k_at_most_nine(self):
        assert Coloring((1, 2), 9).to_digits() == "12"
        with pytest.raises(InvalidArgumentError, match="requires k <= 9"):
            Coloring((1, 2), 10).to_digits()

    def test_empty_walk(self):
        with pytest.raises(InvalidArgumentError, match="walk must be nonempty"):
            Walk(())


# every public entry that reads a coloring of a graph, each of which checks
# the sizes through model._check_coloring
_SIZED_ENTRIES = {
    **{f"{f.__name__}-{p}": functools.partial(f, property=p)
       for f in (decide.find_witness, decide.holds)
       for p in decide.PROPERTIES},
    "is_walk_nonrepetitive_cycle_fast": decide.is_walk_nonrepetitive_cycle_fast,
    "is_distance2": is_distance2,
    "encode_sa": saseq.encode_sa,
    "brute_force_check": functools.partial(oracle.brute_force_check,
                                           property="walk"),
}


@pytest.mark.parametrize("digits", ["1213", "121323"])
@pytest.mark.parametrize("entry", _SIZED_ENTRIES)
def test_coloring_size_is_checked(entry, digits):
    with pytest.raises(InvalidArgumentError,
                       match="^coloring size does not match graph$"):
        _SIZED_ENTRIES[entry](cycle_graph(5), Coloring.from_digits(digits))
