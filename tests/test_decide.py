import itertools
import json
import operator
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

from nonrepcolor import decide, model
from nonrepcolor.construct import (
    classify_edges,
    figure1_fixture,
    rho_path_coloring,
    sigma_cycle_coloring,
    table1_coloring,
)
from nonrepcolor.decide import (
    PROPERTIES,
    Witness,
    _seeds,
    _square_path_dfs,
    accepting_starts,
    exists_repetitive_nonboring_walk,
    exists_repetitive_path,
    exists_repetitive_stroll,
    find_witness,
    holds,
    is_walk_nonrepetitive_cycle_fast,
)
from nonrepcolor.model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    Walk,
    classify_walk,
    cycle_graph,
    folds,
    is_distance2,
    is_repetitive,
    path_graph,
)
from nonrepcolor.saseq import encode_sa
from nonrepcolor.search import Colorings, _proper

from test_oracle import _colored, _small_graphs
from test_search import _least_square, _random_square_free

P21_WORD = "121312321323123213121"
PRODUCT_WITNESSES = Path(__file__).parent / "data" / "product_witnesses.json"
LINE_WITNESSES = Path(__file__).parent / "data" / "line_witnesses.json"


class TestStrollDecider:
    def test_p21_word_is_stroll_nonrepetitive(self):
        g = path_graph(21)
        assert exists_repetitive_stroll(g, Coloring.from_digits(P21_WORD)) is None

    def test_seven_path_witness(self):
        g = path_graph(7)
        c = Coloring.from_digits("1232123")
        w = exists_repetitive_stroll(g, c)
        assert w is not None
        assert c.sequence_of(w.walk.vertices) == (1, 2, 3, 2, 1, 2, 3, 2)

    def test_improper_edge_is_shortest_witness(self):
        g = path_graph(2)
        w = exists_repetitive_stroll(g, Coloring((1, 1), 1))
        assert w is not None and w.walk.vertices == (0, 1)

    def test_deterministic(self):
        g = path_graph(7)
        c = Coloring.from_digits("1232123")
        a = exists_repetitive_stroll(g, c)
        b = exists_repetitive_stroll(g, c)
        assert a.walk == b.walk


class TestWalkDecider:
    def test_eight_cycle_table_row(self):
        g = cycle_graph(8)
        c = Coloring.from_digits("12341243")
        assert exists_repetitive_nonboring_walk(g, c) is None

    def test_star_with_twin_leaves(self):
        # center 0 with leaves 1, 2 colored alike: 1,0,2,0 is a witness
        g = Graph.from_edges(3, [(0, 1), (0, 2)])
        c = Coloring((2, 1, 1), 2)
        w = exists_repetitive_nonboring_walk(g, c)
        assert w is not None
        assert not w.walk_class.boring and w.walk_class.repetitive is True

    def test_figure1_graph_fails(self):
        g, c = figure1_fixture()
        w = exists_repetitive_nonboring_walk(g, c)
        assert w is not None
        assert not w.walk_class.boring

    @pytest.mark.parametrize("n,edges,colors", [
        (5, [(0, 1), (0, 3), (1, 4), (2, 3), (3, 4)], (1, 2, 1, 4, 1)),
        (6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)], (3, 2, 1, 1, 3, 3)),
    ])
    def test_later_start_from_same_vertex_wins_tie(self, n, edges, colors):
        # an earlier start from vertex 0 accepts at length 4 first; the later
        # start (0, 4) gives a lexicographically smaller walk of that length
        g = Graph.from_edges(n, edges)
        w = exists_repetitive_nonboring_walk(g, Coloring(colors, 4))
        assert w.walk.vertices == (0, 1, 4, 1)


class TestPathDecider:
    def test_nine_cycle_three_coloring_fails(self):
        g = cycle_graph(9)
        c = Coloring.from_digits("123132123")
        w = exists_repetitive_path(g, c)
        assert w is not None and w.walk_class.simple_path
        seq = c.sequence_of(w.walk.vertices)
        assert is_repetitive(seq)

    def test_four_path(self):
        g = path_graph(4)
        assert exists_repetitive_path(g, Coloring.from_digits("1213")) is None

    def test_improper_edge(self):
        g = path_graph(2)
        w = exists_repetitive_path(g, Coloring((1, 1), 1))
        assert w is not None and w.walk.vertices == (0, 1)


def _same_path_witness(g, c):
    w = exists_repetitive_path(g, c)
    assert (w and w.walk.vertices) == _square_path_dfs(g, c.colors), c.colors


@pytest.mark.parametrize("make_graph,n", [(path_graph, n) for n in range(1, 10)]
                         + [(cycle_graph, n) for n in range(3, 10)])
def test_square_factor_matches_dfs(make_graph, n):
    """On paths and cycles the square scan returns the DFS's witness."""
    g = make_graph(n)
    for cols in itertools.product((1, 2, 3), repeat=n):
        _same_path_witness(g, Coloring(cols, 3))


@pytest.mark.parametrize("k", [3, 4])
def test_square_factor_matches_dfs_relabelled(k):
    """Paths and cycles whose vertex ids do not follow the line."""
    rng = random.Random(k)
    for _ in range(500):
        n = rng.randint(1, 12)
        cyclic = n >= 3 and rng.random() < 0.5
        ids = rng.sample(range(n), n)
        edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if cyclic else [])
        g = Graph.from_edges(n, edges)
        assert g.shape == ("cycle" if cyclic else "path")
        cols = tuple(rng.randint(1, k) for _ in range(n))
        _same_path_witness(g, Coloring(cols, k))


def _path_verdicts_agree(g, colorings):
    """holds(g, c, "path") is the least-square scan's verdict; count
    rejections."""
    rejected = 0
    for c in colorings:
        ok = holds(g, c, "path")
        assert ok == (_least_square(g, c.colors) is None), c.colors
        rejected += not ok
    return rejected


@pytest.mark.parametrize("make_graph,n", [(path_graph, n) for n in range(1, 13)]
                         + [(cycle_graph, n) for n in range(3, 13)])
def test_path_verdict_matches_square_factor(make_graph, n):
    """Every 3- and 4-coloring up to renaming: all of them up to 8
    vertices, above only the proper ones, as an improper edge is a square
    of half-length 1 to both."""
    g = make_graph(n)
    rules = () if n <= 8 else (_proper,)
    colorings = list(Colorings(g, 4, rules))
    rejected = _path_verdicts_agree(g, colorings)
    assert 0 < rejected < len(colorings) or n == 1


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
@pytest.mark.parametrize("cols,path_free,cycle_free", [
    ((10, 11, 10, 11), False, False),  # chr(10) is a newline: DOTALL
    ((10, 11, 12, 10), True, False),
    ((300, 301, 302, 300, 301, 302), False, False),
    ((300, 301, 302, 301, 300), True, False),
    ((0x110000, 1, 0x110000, 1), False, False),  # beyond chr: the scan
    ((0x110000, 1, 2, 0x110000, 2, 1), True, True),
    # colors that differ in their top bit alone, below 256 and above
    ((255, 127, 255), True, False),
    ((0x110000, 0x10000, 0x110000), True, False),
])
def test_path_verdict_large_colors(make_graph, cols, path_free, cycle_free):
    g = make_graph(len(cols))
    c = Coloring(cols, max(cols))
    want = cycle_free if g.is_cycle() else path_free
    assert holds(g, c, "path") is want
    assert (_least_square(g, cols) is None) is want


def _reference_square_factor(g, cols):
    """The least of _reference_least_squares, or None."""
    squares = _reference_least_squares(g, cols)
    return min(squares) if squares else None


def _reference_least_squares(g, cols):
    """_least_squares as a scan per half-length: eq[i] = (word[i] ==
    word[i + t]), one bytes.find per run of t ones, starts below n on a
    cycle; both directions of every square at the first t, or []."""
    n, line, cyclic = g.n, g.line, g.shape == "cycle"
    if cyclic:
        line += line
    word = [cols[v] for v in line]
    for t in range(1, n // 2 + 1):
        eq = bytes(map(operator.eq, word, word[t:]))
        run = b"\x01" * t
        end = n + t - 1 if cyclic else len(eq)
        squares = []
        i = eq.find(run, 0, end)
        while i >= 0:
            seg = line[i:i + 2 * t]
            squares += (seg, seg[::-1])
            i = eq.find(run, i + 1, end)
        if squares:
            return squares
    return []


# mixed into small colors: 10 is "\n", and from 256 on every color of the
# word is renamed to its rank
LARGE_COLORS = (10, 255, 256, 300, 0x110000)


def _seeded_line_words(rng, count, max_n=80):
    """count (n, word) pairs, n <= max_n, of 1 to 5 colors, each drawn
    square-free and then, mostly, given a planted square of a random
    half-length; a few colors are swapped for LARGE_COLORS."""
    for _ in range(count):
        n, k = rng.randint(1, max_n), rng.randint(1, 5)
        word = (_random_square_free(n, k, rng) if k >= 3
                else [rng.randint(1, k) for _ in range(n)])
        if n >= 2 and rng.random() < 0.8:
            t = rng.randint(1, n // 2)
            i = rng.randint(0, n - 1)  # on a cycle the square may wrap
            for j in range(i, i + t):
                if j + t < n or rng.random() < 0.5:
                    word[(j + t) % n] = word[j % n]
        rename = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
        for col in rng.sample(LARGE_COLORS, rng.randint(0, 2)):
            rename[rng.randint(1, 5)] = col
        yield n, [rename[col] for col in word]


def _relabelled_line(n, cyclic, rng):
    ids = rng.sample(range(n), n)
    edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if cyclic else [])
    return Graph.from_edges(n, edges)


@pytest.mark.parametrize("seed", range(4))
def test_square_factor_matches_reference(seed):
    """The bit-parallel scan gives the least square of the scan per
    half-length, and every square of that length in both directions
    (_least_squares), on seeded words up to n = 80, on paths, cycles and
    lines whose vertex ids are shuffled."""
    rng = random.Random(seed)
    halves, large = set(), 0
    for n, word in _seeded_line_words(rng, 400):
        large += max(word) >= 256
        graphs = [path_graph(n), _relabelled_line(n, False, rng)]
        if n >= 3:
            graphs += [cycle_graph(n), _relabelled_line(n, True, rng)]
        for g in graphs:
            cols = [0] * n
            for v, col in zip(g.line, word):
                cols[v] = col
            square = _least_square(g, cols)
            assert square == _reference_square_factor(g, cols), (g.line, cols)
            text = decide._line_text(g, cols)
            assert set(decide._least_squares(g, text)) == \
                set(_reference_least_squares(g, cols)), (g.line, cols)
            halves.add(square and len(square) // 2)
    assert 0 < large < 400
    assert None in halves and max(halves - {None}) >= 10


def test_least_squares_past_256_colors():
    """Words of more than 256 colors, renamed to ranks past a byte, so the
    planes come from a plain loop: every square of least length, as the
    scan per half-length finds them, with none and with one planted, on
    paths and cycles (round the closing edge too)."""
    rng = random.Random(28)
    for n in (301, 600):
        base = rng.sample(range(1, 10 ** 7), n)
        for t in (None, 1, 5, 40, n // 2):
            word = list(base)
            if t:
                p = rng.randrange(n)
                for j in range(t):
                    word[(p + t + j) % n] = word[(p + j) % n]
            if len(set(word)) <= 256:
                continue
            for g in path_graph(n), cycle_graph(n):
                text = decide._line_text(g, word)
                assert ord(max(text)) >= 256
                squares = decide._least_squares(g, text)
                assert set(squares) == set(_reference_least_squares(g, word))
                assert bool(squares) == (t is not None) or not g.is_cycle()


def _whole_word_only(m, rng):
    """A word x of m letters whose circular xx has no square but the
    rotations of xx itself."""
    g = cycle_graph(2 * m)
    while True:
        x = _random_square_free(m, rng.choice((3, 4)), rng)
        if len(_reference_square_factor(g, x + x)) == 2 * m:
            return x + x


@pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
@pytest.mark.parametrize("seed", range(2))
def test_square_verdict_matches_square_factor(seed, cyclic):
    """The regex verdict matches a square at one of the first n starts of
    its text: it agrees with the least-square scan on seeded words up to
    n = 80, colors of 256 or more (renamed to ranks) included, and on even
    n whose only square on the cycle is the whole word, along paths and
    cycles, laid out in order and relabelled."""
    rng = random.Random(seed)
    words = [(n, word) for n, word in _seeded_line_words(rng, 600) if n >= 3]
    words += [(2 * m, _whole_word_only(m, rng)) for m in range(2, 41)]
    line = cycle_graph if cyclic else path_graph
    free = 0
    for n, word in words:
        for g in line(n), _relabelled_line(n, cyclic, rng):
            cols = [0] * n
            for v, col in zip(g.line, word):
                cols[v] = col
            ok = decide._square_free_line(decide._line_text(g, cols), cyclic)
            assert ok == (_least_square(g, cols) is None), word
            free += ok
    assert 0 < free < 2 * len(words)


class TestCycleFastCheck:
    def test_six_cycle_true(self):
        assert is_walk_nonrepetitive_cycle_fast(
            cycle_graph(6), Coloring.from_digits("123423"))

    def test_four_cycle_distance2_failure(self):
        assert not is_walk_nonrepetitive_cycle_fast(
            cycle_graph(4), Coloring.from_digits("1212"))

    def test_five_cycle_rainbow(self):
        assert is_walk_nonrepetitive_cycle_fast(
            cycle_graph(5), Coloring.from_digits("12345"))

    def test_rejects_non_cycle(self):
        with pytest.raises(InvalidArgumentError):
            is_walk_nonrepetitive_cycle_fast(
                path_graph(4), Coloring.from_digits("1213"))


@pytest.mark.parametrize("n", range(3, 10))
def test_cycle_fast_check_matches_distance2_and_path(n):
    """The fast check reads distance-2 and squares off the circular word:
    on every coloring of C_n over 1..4 it is is_distance2 plus the path
    verdict of holds."""
    g = cycle_graph(n)
    valid = 0
    for cols in itertools.product((1, 2, 3, 4), repeat=n):
        c = Coloring(cols, 4)
        want = is_distance2(g, c) is None and holds(g, c, "path")
        assert is_walk_nonrepetitive_cycle_fast(g, c) == want, cols
        valid += want
    # result (i): sigma(C_n) = 4 for n >= 4 but n = 5, 7
    assert (valid == 0) == (n in (5, 7))


def _witness_checks(g, c, witness, prop):
    wc = classify_walk(g, c, witness.walk)
    assert wc.repetitive is True
    if prop == "path":
        assert wc.simple_path
    elif prop == "stroll":
        assert wc.stroll
    else:
        assert not wc.boring


@pytest.mark.parametrize("n", [4, 5, 6])
def test_witness_soundness_exhaustive(n):
    """Every returned witness re-validates against the plain classifiers."""
    g = cycle_graph(n)
    deciders = {
        "path": exists_repetitive_path,
        "stroll": exists_repetitive_stroll,
        "walk": exists_repetitive_nonboring_walk,
    }
    for cols in itertools.product((1, 2, 3), repeat=n):
        c = Coloring(cols, 3)
        for prop, decider in deciders.items():
            w = decider(g, c)
            if w is not None:
                assert w.violated == prop
                _witness_checks(g, c, w, prop)


def test_hierarchy_on_table_rows():
    """Walk certificates also pass the stroll and path deciders."""
    for n in range(4, 22):
        _, c = table1_coloring(n)
        g = cycle_graph(n)
        assert exists_repetitive_stroll(g, c) is None
        assert exists_repetitive_path(g, c) is None


def _recorded_cases():
    """(graph, coloring, {property: witness digits or None}) from the record.

    product_witnesses.json holds the stroll and walk witnesses the product
    deciders returned, vertex for vertex: under "families", one list per
    property for every 3-coloring of P2..P6 and C3..C6, in
    itertools.product((1, 2, 3), repeat=n) order; under "graphs", the
    figure-1 fixture and 200 seeded random graphs on at most 7 vertices with
    k <= 4.  Vertex ids are single digits, so a walk is a digit string.
    """
    with open(PRODUCT_WITNESSES) as fh:
        record = json.load(fh)
    for name, found in record["families"].items():
        make = path_graph if name[0] == "P" else cycle_graph
        n = int(name[1:])
        for i, cols in enumerate(itertools.product((1, 2, 3), repeat=n)):
            yield make(n), Coloring(cols, 3), {p: found[p][i] for p in found}
    for case in record["graphs"]:
        g = Graph.from_edges(case["n"], case["edges"])
        cols = tuple(int(ch) for ch in case["colors"])
        yield g, Coloring(cols, case["k"]), case


def test_product_witnesses_match_record():
    """The stroll and walk deciders return the recorded witnesses exactly."""
    deciders = (("stroll", exists_repetitive_stroll),
                ("walk", exists_repetitive_nonboring_walk))
    cases = 0
    for g, c, found in _recorded_cases():
        for prop, decider in deciders:
            w = decider(g, c)
            got = w and "".join(map(str, w.walk.vertices))
            assert got == found[prop], (g.edges, c.colors, prop)
        cases += 1
    assert cases == 9 + 27 + 81 + 243 + 729 + 27 + 81 + 243 + 729 + 201


@pytest.mark.parametrize("family", ["P3", "P4", "C3", "C4", "P3-square-free"])
def test_line_witnesses_match_record(family):
    """Stroll and walk witnesses on long paths and cycles, vertex for vertex.

    line_witnesses.json lists, per family, the vertices along the line, the
    coloring by vertex id and both witnesses.  P3, P4, C3 and C4 hold two
    cases for each n in 20, 24, .., 80: a seeded square-free word with k
    colors (and no xyx factor for k = 4), one square of half-length 2..8
    planted so that every edge stays proper, through the closing edge on
    half of the cycle sizes; the second case of each n is read along a
    shuffled line.  P3-square-free holds square-free 3-colorings of
    P22..P30, which have a repetitive stroll but no repetitive simple path.
    """
    with open(LINE_WITNESSES) as fh:
        cases = json.load(fh)[family]
    assert len(cases) == (18 if family == "P3-square-free" else 32)
    for case in cases:
        line = case["line"]
        edges = list(zip(line, line[1:]))
        if family[0] == "C":
            edges.append((line[-1], line[0]))
        g = Graph.from_edges(len(line), edges)
        c = Coloring(tuple(int(ch) for ch in case["colors"]), int(family[1]))
        for prop in ("stroll", "walk"):
            w = find_witness(g, c, prop)
            assert list(w.walk.vertices) == case[prop], (line, c.colors, prop)


def _same_verdicts(g, c):
    for prop in ("path", "stroll", "walk"):
        assert holds(g, c, prop) == (find_witness(g, c, prop) is None), (
            g.edges, c.colors, prop)


@pytest.mark.parametrize("make_graph,n,k",
                         [(path_graph, n, 3) for n in range(1, 9)]
                         + [(cycle_graph, n, 3) for n in range(3, 9)]
                         + [(cycle_graph, n, 4) for n in range(3, 8)])
def test_holds_matches_find_witness(make_graph, n, k):
    """The verdict route agrees with the explaining deciders, exhaustively."""
    g = make_graph(n)
    for cols in itertools.product(range(1, k + 1), repeat=n):
        _same_verdicts(g, Coloring(cols, k))


def test_holds_matches_find_witness_on_record():
    for g, c, _ in _recorded_cases():
        _same_verdicts(g, c)


@settings(max_examples=300, deadline=None)
@given(_colored(_small_graphs()))
def test_holds_matches_find_witness_on_small_graphs(gc):
    _same_verdicts(*gc)


def test_holds_on_figure1_fixture():
    g, c = figure1_fixture()
    assert not holds(g, c, "walk") and holds(g, c, "path")
    _same_verdicts(g, c)


def test_holds_rejects_unknown_property():
    with pytest.raises(InvalidArgumentError):
        holds(path_graph(2), Coloring((1, 2), 2), "trail")


def _reference_components(adj, cols, allow_diagonal):
    """Every component of the product graph, by DFS, mirrors included.

    Each color-matched state (off the diagonal unless allow_diagonal) is
    labelled in its own component; nothing is skipped.
    """
    n = len(cols)
    labelled = set()
    for s in itertools.product(range(n), repeat=2):
        if cols[s[0]] != cols[s[1]] or s in labelled:
            continue
        if s[0] == s[1] and not allow_diagonal:
            continue
        comp, stack = {s}, [s]
        while stack:
            u, w = stack.pop()
            for t in itertools.product(adj[u], adj[w]):
                if (cols[t[0]] == cols[t[1]] and t not in comp
                        and (allow_diagonal or t[0] != t[1])):
                    comp.add(t)
                    stack.append(t)
        labelled |= comp
        yield comp


def _reference_accepting(adj, comp):
    """The states (a, b) of comp with a state (x, y) in comp, x ~ b."""
    if all(u == w for u, w in comp):  # every walk in it is boring
        return set()
    firsts_adj = {x for u, _ in comp for x in adj[u]}
    return {t for t in comp if t[1] in firsts_adj}


def _reference_starts(adj, cols, allow_diagonal):
    """Every accepting state, labelling the component of every matched state."""
    return set().union(*(_reference_accepting(adj, comp) for comp in
                         _reference_components(adj, cols, allow_diagonal)))


def _same_starts(g, cols, allow_diagonal, seeds=None):
    """accepting_starts agrees with the reference; returns its lists."""
    lists = list(accepting_starts(g, cols, allow_diagonal,
                                  _seeds(cols) if seeds is None else seeds))
    union = set().union(*lists)
    assert len(union) == sum(map(len, lists))  # no state yielded twice
    ref = _reference_starts(g._adj, cols, allow_diagonal)
    if seeds is None:
        assert union == ref, (g, cols, allow_diagonal)
    else:
        assert union <= ref, (g, cols, seeds)
    first = next(accepting_starts(g, cols, allow_diagonal,
                                  _seeds(cols) if seeds is None else seeds), None)
    assert (first is None) == (not lists)
    return lists


def test_seeds_are_matched_pairs_below_the_diagonal():
    """Every matched pair (u, w) with u < w, once, class by class."""
    assert list(_seeds((1, 2, 1, 2, 1))) == [(0, 2), (0, 4), (2, 4), (1, 3)]
    words = [(1, 2, 1, 2, 1), (3, 1, 3, 3, 2, 1, 1, 3, 2, 3)]
    words += [random.Random(s).choices((1, 2, 3, 4), k=30) for s in range(5)]
    for cols in words:
        seeds = list(_seeds(cols))
        pairs = {(u, w) for u, w in itertools.combinations(range(len(cols)), 2)
                 if cols[u] == cols[w]}
        assert sorted(seeds) == sorted(pairs), cols
        classes = [cols[u] for u, _ in seeds]
        assert len(set(classes)) == len(list(itertools.groupby(classes)))


def test_far_abab_is_rejected_by_both_routes(monkeypatch):
    """A square near the far end of a long stroll certificate is rejected.
    The verdict route labels from _seeds; find_witness reads this abab off
    the color word and draws none."""
    drawn = []

    def counted(cols, seeds=decide._seeds):
        for s in seeds(cols):
            drawn.append(s)
            yield s

    monkeypatch.setattr(decide, "_seeds", counted)
    n = 200
    _, c = rho_path_coloring(n)
    # plant c[p] c[p+1] c[p] c[p+1] at the last three p where the planted
    # c[p+1] differs from c[p+4], so no edge becomes a shorter witness
    far = [p for p in range(n - 4) if c.colors[p + 1] != c.colors[p + 4]]
    for p in far[-3:]:
        cols = list(c.colors)
        cols[p + 2:p + 4] = cols[p:p + 2]
        planted = Coloring.from_colors(cols)
        drawn.clear()
        assert not holds(path_graph(n), planted, "stroll")
        assert drawn, p
        drawn.clear()
        w = find_witness(path_graph(n), planted, "stroll")
        assert w.walk.vertices == (p, p + 1, p + 2, p + 3)
        assert not drawn, p


@pytest.mark.parametrize("allow_diagonal", [False, True])
@settings(max_examples=300, deadline=None)
@given(_colored(_small_graphs()))
def test_accepting_starts_matches_reference(allow_diagonal, gc):
    """Labelling one component per mirror pair misses no accepting state."""
    g, c = gc
    _same_starts(g, c.colors, allow_diagonal)


def test_self_mirror_component_is_yielded_once():
    """On C4 colored 1212, (1, 3) and (3, 1) share one component."""
    g = cycle_graph(4)
    lists = _same_starts(g, (1, 2, 1, 2), False)
    assert [sorted(x) for x in lists] == [[(0, 2), (1, 3), (2, 0), (3, 1)]]


def test_walk_component_through_the_diagonal():
    """On P3 colored 121, (0, 2) reaches (1, 1) only when walks may."""
    g = path_graph(3)
    assert _same_starts(g, (1, 2, 1), False) == []
    lists = _same_starts(g, (1, 2, 1), True)
    assert [sorted(x) for x in lists] == [
        [(0, 0), (0, 2), (1, 1), (2, 0), (2, 2)]]


def test_mirror_component_is_reported_unlabelled():
    """On P4 colored 1212 the stroll 0 1 2 3 starts at (0, 2) and its
    reverse 3 2 1 0 at (3, 1), in the mirror component, never labelled."""
    g = path_graph(4)
    lists = _same_starts(g, (1, 2, 1, 2), False)
    assert lists == [[(0, 2)], [(3, 1)]]


@pytest.mark.parametrize("allow_diagonal", [False, True])
@pytest.mark.parametrize("make_graph,n", [(path_graph, n) for n in range(1, 8)]
                         + [(cycle_graph, n) for n in range(3, 8)])
def test_accepting_components_lie_within_twice_their_size(make_graph, n,
                                                          allow_diagonal):
    """Every state of an accepting component K is less than 2|K| apart along
    the line, round the cycle on a cycle: the bound accepting_starts uses to
    skip the acceptance test of components seeded farther apart."""
    g = make_graph(n)
    for cols in itertools.product((1, 2, 3), repeat=n):
        for comp in _reference_components(g._adj, cols, allow_diagonal):
            if _reference_accepting(g._adj, comp):
                gaps = [abs(u - w) for u, w in comp]
                if g.is_cycle():
                    gaps = [min(d, n - d) for d in gaps]
                assert max(gaps) <= 2 * len(comp) - 1, (n, cols, comp)


def _relabelled(g, rng):
    ids = rng.sample(range(g.n), g.n)
    return Graph.from_edges(g.n, [(ids[u], ids[v]) for u, v in g.edges])


P7_RELABELLED = Graph.from_json(
    (Path(__file__).parent / "data" / "p7_relabelled.json").read_text())
C8_RELABELLED = _relabelled(cycle_graph(8), random.Random(8))
C7_SHUFFLED, C12_SHUFFLED = (_relabelled(cycle_graph(n), random.Random(n))
                             for n in (7, 12))
MATCHING = Graph.from_edges(8, [(0, 5), (1, 2), (3, 7), (4, 6)])


@pytest.mark.parametrize("g", [P7_RELABELLED, C7_SHUFFLED, C12_SHUFFLED],
                         ids=["P7-relabelled", "C7-shuffled", "C12-shuffled"])
def test_path_verdict_follows_relabelled_line(g):
    """The word is read along g.line, not by vertex number."""
    assert list(g.line) != list(range(g.n))
    colorings = list(Colorings(g, 4, () if g.n <= 8 else (_proper,)))
    assert 0 < _path_verdicts_agree(g, colorings) < len(colorings)


@pytest.mark.parametrize("g", [
    *map(path_graph, range(1, 9)), *map(cycle_graph, range(3, 9)),
    P7_RELABELLED, C8_RELABELLED, MATCHING,
], ids=[*(f"P{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        "P7-relabelled", "C8-relabelled", "matching"])
def test_two_neighbour_kernel_matches_reference(g, monkeypatch):
    """Every word over k <= 3, both modes, through the degree-2 kernel: on
    the relabelled lines with positions read from g.line. The perfect
    matching (degree 1, no line) never reaches the kernel: it takes the
    general loops, without the distance rule."""
    kernels = []

    def counted(g, kernel=decide._two_neighbours):
        kernels.append(g)
        return kernel(g)

    monkeypatch.setattr(decide, "_two_neighbours", counted)
    for cols in itertools.product((1, 2, 3), repeat=g.n):
        for allow_diagonal in (False, True):
            _same_starts(g, cols, allow_diagonal)
    assert len(kernels) == (4 * 3 ** g.n if g.line is not None else 0)


# three colors no byte holds: accepting_starts builds a row mask per color
WIDE_COLORS = (256, 300, 0x110000)


def test_general_loops_past_degree_two(monkeypatch):
    """A vertex of degree 3 keeps the nested loops over g's neighbours,
    every word over k <= 3 and over WIDE_COLORS, both modes; before those
    loops are forced, the words over WIDE_COLORS on P6, C6, the relabelled
    P7 and the matching too."""
    for h in (path_graph(6), cycle_graph(6), P7_RELABELLED, MATCHING):
        for cols in itertools.product(WIDE_COLORS, repeat=h.n):
            for allow_diagonal in (False, True):
                _same_starts(h, cols, allow_diagonal)
    monkeypatch.setattr(decide, "_two_neighbours", None)
    g = Graph.from_edges(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert g.line is None
    for names in ((1, 2, 3), WIDE_COLORS):
        for cols in itertools.product(names, repeat=g.n):
            for allow_diagonal in (False, True):
                _same_starts(g, cols, allow_diagonal)


def _short_bound(g, cols, allow_diagonal):
    """(the vertices of _short_witness's walk or None, fold) for cols."""
    walk, fold = decide._short_witness(g, decide._line_text(g, cols),
                                       allow_diagonal)
    return walk and len(walk), fold


def _proper_3_colorings(g):
    """Every proper 3-coloring of the path or cycle g, by vertex, from
    itertools.product: along g.line each color is one or two past the one
    before, mod 3, and a cycle's last color differs from its first."""
    steps = itertools.product((1, 2, 3), *[(1, 2)] * (g.n - 1))
    for first, *rest in steps:
        word = list(itertools.accumulate(
            rest, lambda col, step: (col + step - 1) % 3 + 1, initial=first))
        if g.is_cycle() and word[-1] == word[0]:
            continue
        cols = [0] * g.n
        for v, col in zip(g.line, word):
            cols[v] = col
        yield tuple(cols)


def _witnesses(cases):
    found = []
    for g, cols in cases:
        c = Coloring.from_colors(cols)
        for prop in ("stroll", "walk"):
            w = find_witness(g, c, prop)
            found.append(w and w.walk.vertices)
    return found


def _same_as_labelled(cases, monkeypatch):
    """find_witness on each (g, cols) gives what it gives through a
    labelling of every component from _seeds and a BFS from each accepting
    start with no bound: _short_witness is made to find no short witness
    but a fold, and _square_free_line no square, so that neither the band
    nor the fold lemma is assumed."""
    cases = list(cases)
    short = _witnesses(cases)
    monkeypatch.setattr(decide, "_short_witness", lambda *args: (None, True))
    monkeypatch.setattr(decide, "_square_free_line", lambda *args: True)
    assert short == _witnesses(cases)
    return short


def _planted_words(rng, n, cyclic, count):
    """Proper and distance-2 words over 3..5 colors, each with a square of
    half-length 1..6 copied in where it fits (round the cycle on a cycle)."""
    for i in range(count):
        k, gap = rng.choice((3, 4, 5)), 1 + i % 2
        word = []
        for v in range(n):
            near = word[-gap:]
            if cyclic and v >= n - gap:  # and the first ones, round the cycle
                near += word[:v + gap - n + 1]
            word.append(rng.choice([x for x in range(1, k + 1)
                                    if x not in near] or [1]))
        t = rng.randint(1, 6)
        if 2 * t <= n:
            p = rng.randrange(n if cyclic else n - 2 * t + 1)
            for j in range(t):
                word[(p + t + j) % n] = word[(p + j) % n]
        yield tuple(word)


@pytest.mark.parametrize("g", [
    *map(path_graph, range(1, 9)), *map(cycle_graph, range(3, 9)),
    P7_RELABELLED, C7_SHUFFLED,
], ids=[*(f"P{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        "P7-relabelled", "C7-shuffled"])
def test_short_bound_keeps_witnesses_exhaustive(g, monkeypatch):
    """Every 3-coloring, stroll and walk: the same witness as the labelled
    route, whether or not the word shows an equal edge, a fold or abab."""
    _same_as_labelled(((g, cols) for cols in
                       itertools.product((1, 2, 3), repeat=g.n)), monkeypatch)


@pytest.mark.parametrize("cyclic", [False, True])
def test_short_bound_keeps_witnesses_planted(cyclic, monkeypatch):
    """Seeded proper and distance-2 words up to n = 40 with planted squares,
    on lines numbered along them and on relabelled ones."""
    rng = random.Random(18 + cyclic)
    make = cycle_graph if cyclic else path_graph
    cases = []
    for n in range(3, 41):
        line = make(n)
        shuffled = _relabelled(line, rng)
        for word in _planted_words(rng, n, cyclic, 12):
            cases.append((line, word))
            relabelled = [0] * n
            for v, col in zip(shuffled.line, word):
                relabelled[v] = col
            cases.append((shuffled, tuple(relabelled)))
    found = _same_as_labelled(cases, monkeypatch)
    assert sum(w is not None for w in found) > len(found) // 2


def test_short_bound_keeps_witnesses_on_c12_shuffled(monkeypatch):
    """The shuffled C12, every proper 3-coloring."""
    g = C12_SHUFFLED
    _same_as_labelled(((g, cols) for cols in _proper_3_colorings(g)),
                      monkeypatch)


@pytest.mark.parametrize("g", [*map(path_graph, range(3, 8)),
                               *map(cycle_graph, range(3, 8))],
                         ids=[*(f"P{n}" for n in range(3, 8)),
                              *(f"C{n}" for n in range(3, 8))])
def test_short_bound_keeps_witnesses_four_colors(g, monkeypatch):
    """Every 4-coloring, stroll and walk: the same witness as the labelled
    route."""
    _same_as_labelled(((g, cols) for cols in
                       itertools.product((1, 2, 3, 4), repeat=g.n)), monkeypatch)


def _planted_sigma(rng):
    """sigma(C22..C72) with a square of half-length 2..8 copied in, once on
    C_n (round the cycle) and once on P_n."""
    for n in range(22, 73):
        _, sigma = sigma_cycle_coloring(n)
        for t in range(2, 9):
            for g in (cycle_graph(n), path_graph(n)):
                word = list(sigma.colors)
                p = rng.randrange(n if g.is_cycle() else n - 2 * t + 1)
                for j in range(t):
                    word[(p + t + j) % n] = word[(p + j) % n]
                yield g, tuple(word)


def test_short_bound_keeps_witnesses_on_planted_sigma(monkeypatch):
    """sigma's words with a planted square: the same witness as the labelled
    route, many of them through the fold-free square route."""
    cases = list(_planted_sigma(random.Random(26)))
    fold_free = [(g, cols) for g, cols in cases
                 if _short_bound(g, cols, True) == (None, False)]
    assert len(fold_free) > len(cases) // 10
    found = _same_as_labelled(cases, monkeypatch)
    assert all(found)


@pytest.mark.parametrize("names", [(10, 1, 2), (10, 0x110000, 0x110007)],
                         ids=["newline", "past-chr"])
@pytest.mark.parametrize("g", [path_graph(6), cycle_graph(6), P7_RELABELLED],
                         ids=["P6", "C6", "P7-relabelled"])
def test_short_bound_keeps_witnesses_large_colors(g, names, monkeypatch):
    """Every word over three colors among 10 (newline, which the patterns
    must match: DOTALL) and colors of 256 or more (renamed to ranks): the
    equal edges, abab factors and folds are read at every start as over
    1..3, with the same witness as the labelled route."""
    words = [tuple(names[col] for col in word)
             for word in itertools.product(range(3), repeat=g.n)]
    _same_as_labelled(((g, cols) for cols in words), monkeypatch)


class _NoAdjacency:
    def __getitem__(self, v):
        raise AssertionError("the product graph was read")


def _line_only(g):
    """g with its line and shape, but an adjacency that raises on every read:
    neither accepting_starts nor the witness BFS can run on it."""
    assert g.line and g.shape != "graph"  # both cached, read from g's edges
    h = object.__new__(Graph)
    vars(h).update(vars(g), _adj=_NoAdjacency())
    return h


def _fold_free_sigma_square(n):
    """sigma(C_n) with its first square of half-length 3 copied in that
    leaves no equal edge and no fold round the cycle."""
    _, sigma = sigma_cycle_coloring(n)
    g = cycle_graph(n)
    for p in range(n - 6):
        word = list(sigma.colors)
        word[p + 3:p + 6] = word[p:p + 3]
        if _short_bound(g, word, True) == (None, False):
            return tuple(word)


SIGMA47_SQUARE = _fold_free_sigma_square(47)


@pytest.mark.parametrize("prop,cols,walk", [
    ("stroll", (1, 2, 3, 3, 1), (2, 3)),
    ("walk", (1, 2, 3, 3, 1), (2, 3)),
    ("walk", (1, 2, 3, 1, 3, 2), (2, 3, 4, 3)),
    ("stroll", (1, 2, 3, 2, 3, 1), (1, 2, 3, 4)),
    ("stroll", SIGMA47_SQUARE, _least_square(path_graph(47), SIGMA47_SQUARE)),
    ("walk", SIGMA47_SQUARE, _least_square(path_graph(47), SIGMA47_SQUARE)),
])
def test_short_bound_skips_the_labelling(prop, cols, walk, monkeypatch):
    """An equal edge, a walk fold, a stroll abab or a square with no fold:
    the witness is read off the color word, with neither the labelling nor
    the BFS over product states."""
    def unused(*args):
        raise AssertionError("accepting_starts called")

    monkeypatch.setattr(decide, "accepting_starts", unused)
    g = path_graph(len(cols))
    assert decide._product_search(_line_only(g), cols, prop == "walk") == walk
    w = find_witness(g, Coloring.from_colors(cols), prop)
    assert w.walk.vertices == walk


@pytest.mark.parametrize("g", [
    *map(path_graph, range(1, 9)), *map(cycle_graph, range(3, 9)),
    P7_RELABELLED, C7_SHUFFLED,
], ids=[*(f"P{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        "P7-relabelled", "C7-shuffled"])
def test_walks_on_lines_skip_the_labelling(g):
    """Every 3-coloring: a walk witness on a path or cycle is read off the
    color word, with neither the labelling nor the BFS over product states,
    whatever the word shows."""
    h = _line_only(g)
    for cols in itertools.product((1, 2, 3), repeat=g.n):
        decide._product_search(h, cols, True)


def test_stroll_fold_without_abab_is_labelled(monkeypatch):
    """A fold is no stroll: 123132 has one but no abab, so its stroll
    witness is found through the product labelling."""
    calls = []

    def counted(*args, labelling=decide.accepting_starts):
        calls.append(args)
        return labelling(*args)

    monkeypatch.setattr(decide, "accepting_starts", counted)
    c = Coloring.from_colors((1, 2, 3, 1, 3, 2, 1, 2, 3, 1, 2, 3))
    g = path_graph(c.n)
    assert _short_bound(g, c.colors, False) == (None, True)
    assert _short_bound(g, c.colors, True) == (4, True)
    w = find_witness(g, c, "stroll")
    assert calls and w.walk.vertices == (6, 7, 8, 9, 10, 11)


@pytest.mark.parametrize("g", [
    *map(path_graph, range(1, 9)), *map(cycle_graph, range(3, 9)),
    P7_RELABELLED, C7_SHUFFLED,
], ids=[*(f"P{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        "P7-relabelled", "C7-shuffled"])
def test_fold_seeds_are_the_band_seeds_through_a_fold(g):
    """Every 3-coloring and every h up to n // 2: _fold_seeds gives the
    color-matched pairs at most h apart along g.line (round the cycle)
    with a fold, read from g's edges, as a coordinate; each as (u, w) with
    u < w."""
    n, pos = g.n, {v: i for i, v in enumerate(g.line)}

    def apart(u, w):
        d = abs(pos[u] - pos[w])
        return min(d, n - d) if g.is_cycle() else d

    for cols in itertools.product((1, 2, 3), repeat=n):
        text, fold = decide._line_text(g, cols), _folds(g, cols)
        for h in range(1, n // 2 + 1):
            seeds = list(decide._fold_seeds(g, text, h))
            assert all(u < w for u, w in seeds), (cols, h)
            assert set(seeds) == {
                (u, w) for u, w in itertools.combinations(range(n), 2)
                if cols[u] == cols[w] and apart(u, w) <= h
                and (u in fold or w in fold)}, (cols, h)


# (g, cols, stroll witness): the witness is as long as the least square
# and starts at an earlier vertex, (4, 3, 2, 1, 0, 9, 8, 7) on C10 and
# (5, 6, 7, 8, 9, 10, 11, 12) on P13
TIES = [
    (cycle_graph(10), (1, 2, 1, 3, 1, 2, 3, 2, 1, 3), (0, 9, 0, 1, 2, 3, 4, 5)),
    (path_graph(13), (1, 2, 3, 2, 1, 2, 3, 1, 3, 2, 3, 1, 3),
     (0, 1, 2, 3, 4, 5, 6, 5)),
]


def test_fold_square_route_labels_through_folds(monkeypatch):
    """Strolls on words with a fold, a square and no abab: only seeds with
    a fold as a coordinate are labelled, and the witness is the labelled
    route's (_same_as_labelled), on seeded planted words and sigma's.  Some
    least squares start in no labelled component, so the witness is the
    least square the search starts from as its best: on P8 12412434 the
    fold 434 has no seed in the band, and the witness is the square
    124124.  A walk as long as the least square that starts at an earlier
    vertex beats it (TIES)."""
    rng = random.Random(27)
    cases = [(path_graph(8), (1, 2, 4, 1, 2, 4, 3, 4)),
             *((g, cols) for g, cols, _ in TIES)]
    for n in range(4, 41):
        for g in (path_graph(n), cycle_graph(n)):
            cases += [(g, word) for word in _planted_words(rng, n, g.is_cycle(), 12)]
    cases += _planted_sigma(rng)
    route = []
    for g, cols in cases:
        text = decide._line_text(g, cols)
        if decide._short_witness(g, text, False) == (None, True) and \
                not decide._square_free_line(text, g.is_cycle()):
            route.append((g, cols))
    assert len(route) > 100
    drawn, labelled, own = _drawn_seeds(monkeypatch), 0, []
    for g, cols in route:
        drawn.clear()
        found = find_witness(g, Coloring.from_colors(cols), "stroll")
        fold = _folds(g, cols)
        assert all(u in fold or w in fold for u, w in drawn), cols
        labelled += bool(drawn)
        squares = decide._least_squares(g, decide._line_text(g, cols))
        h = len(squares[0]) // 2
        comps = list(_reference_components(g._adj, cols, False))
        for square in squares:
            comp = next(k for k in comps if (square[0], square[h]) in k)
            if not any(s in comp or s[::-1] in comp for s in drawn):
                own.append((g, cols, found.walk.vertices))
    assert 0 < labelled < len(route)  # a fold may have no seed in the band
    assert own[0] == (path_graph(8), (1, 2, 4, 1, 2, 4, 3, 4), (0, 1, 2, 3, 4, 5))
    for g, cols, walk in TIES:
        least = min(decide._least_squares(g, decide._line_text(g, cols)))
        assert len(walk) == len(least) and walk[0] < least[0]
        assert find_witness(g, Coloring.from_colors(cols), "stroll").walk.vertices == walk
    _same_as_labelled(route, monkeypatch)



@pytest.mark.parametrize("n", range(3, 8))
def test_short_bound_reads_round_the_cycle(n):
    """Every rotation of a word round C_n has the same bound: an equal
    edge, a fold or abab across the closing edge counts."""
    g = cycle_graph(n)
    for word in itertools.product((1, 2, 3), repeat=n):
        for diagonal in (False, True):
            bounds = {_short_bound(g, word[r:] + word[:r], diagonal)
                      for r in range(n)}
            assert len(bounds) == 1, (word, diagonal, bounds)


@pytest.mark.parametrize("big", [10, 300, 0x110000])
@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
def test_short_bound_large_colors(make_graph, big):
    """10 (newline, which the patterns match), 300 (past a byte) and
    0x110000 (both renamed to ranks) bound like any other color."""
    g = make_graph(6)

    def bound(cols, diagonal):
        return _short_bound(g, cols, diagonal)[0]

    assert bound((big, 1, big, 2, 1, 2), True) == 4
    assert bound((big, 1, big, 1, 2, 3), False) == 4
    assert bound((1, big, big, 2, 1, 3), False) == 2
    assert bound((big, 1, 2, big, 3, 2), False) is None


def _reference_short_bound(g, cols, allow_diagonal):
    """_short_bound on a list: the color word along g.line, its equal edges
    by operator.eq and its folds by model.folds, circularly on a cycle."""
    word = [cols[v] for v in g.line]
    cyclic = g.shape == "cycle"
    if cyclic:
        word.append(word[0])  # the closing edge
    if any(map(operator.eq, word, word[1:])):
        return 2, None
    fold = folds(g, cols)
    if allow_diagonal:
        return (4 if any(fold) else None), fold
    pairs = bytes(fold + fold[:1] if cyclic else fold)
    return (4 if b"\1\1" in pairs else None), fold


def _same_short_bound(g, cols):
    """The text bound of cols on g, both modes, is the list bound; returns
    the bounds."""
    bounds = []
    for diagonal in (False, True):
        bound, fold = _reference_short_bound(g, cols, diagonal)
        want = bound, None if fold is None else any(fold)
        assert _short_bound(g, cols, diagonal) == want, (cols, diagonal)
        bounds.append(bound)
    return bounds


@pytest.mark.parametrize("g", [*map(path_graph, range(1, 10)),
                               *map(cycle_graph, range(3, 10))],
                         ids=[*(f"P{n}" for n in range(1, 10)),
                              *(f"C{n}" for n in range(3, 10))])
def test_short_bound_matches_reference_exhaustive(g):
    """Every word over 1..3: the same bound and fold as the list reads."""
    for cols in itertools.product((1, 2, 3), repeat=g.n):
        _same_short_bound(g, cols)


def test_short_bound_matches_reference_seeded():
    """Seeded 4- and 5-color words up to n = 60, on paths, cycles and
    relabelled lines, with 10, 300 and 0x110000 among the colors: mostly
    square-free, some with a square of half-length 1 or 2 copied in."""
    rng = random.Random(25)
    seen = set()
    for i in range(300):
        n, k = rng.randint(1, 60), 4 + i % 2
        word = _random_square_free(n, k, rng)
        if n >= 4 and rng.random() < 0.4:
            t = rng.randint(1, 2)
            p = rng.randrange(n - 2 * t + 1)
            word[p + t:p + 2 * t] = word[p:p + t]
        names = rng.sample([10, 300, 0x110000, *range(1, 6)], k)
        word = [names[col - 1] for col in word]
        graphs = [path_graph(n), _relabelled_line(n, False, rng)]
        if n >= 3:
            graphs += [cycle_graph(n), _relabelled_line(n, True, rng)]
        for g in graphs:
            cols = [0] * n
            for v, col in zip(g.line, word):
                cols[v] = col
            seen.update(_same_short_bound(g, cols))
    assert seen == {2, 4, None}


# One word of each kind, over colors chr cannot hold: an equal edge, a fold,
# a square (abcabc, no fold) and none of these (five colors, as C7 has no
# walk-nonrepetitive 4-coloring).
PAST_CHR = 0x110000
PAST_CHR_WORDS = {"equal edge": "abbcdab", "fold": "abacdbc",
                  "square": "abcabcd", "none": "abcdabe"}


@pytest.mark.parametrize("kind", PAST_CHR_WORDS)
@pytest.mark.parametrize("g", [path_graph(7), cycle_graph(7), P7_RELABELLED],
                         ids=["P7", "C7", "P7-relabelled"])
def test_colors_past_chr_give_the_renamed_witnesses(g, kind):
    """find_witness on colors of 0x110000 and more gives, for each
    property, the witness of the same word renamed to 1..5."""
    letters = PAST_CHR_WORDS[kind]
    small, large = [0] * g.n, [0] * g.n
    for v, ch in zip(g.line, letters):
        small[v] = "abcde".index(ch) + 1
        large[v] = PAST_CHR + small[v] * 7

    def witnesses(cols):
        c = Coloring.from_colors(cols)
        return [w and (w.walk.vertices, w.violated)
                for w in (find_witness(g, c, prop) for prop in PROPERTIES)]

    found = witnesses(large)
    assert found == witnesses(small)
    assert any(found) == (kind != "none"), found


@pytest.mark.parametrize("depth", range(3, 9))
def test_stroll_prefix_seeds(depth):
    """Seeds (depth, w) find a new repetitive stroll through vertex depth.

    Every 3-word on the path 0..depth whose prefix without the last vertex
    has no repetitive stroll: the components through the new vertex decide
    the stroll property of the longer path, as the incremental stroll rule
    of the search assumes.
    """
    arc, prefix_arc = path_graph(depth + 1), path_graph(depth)
    for word in itertools.product((1, 2, 3), repeat=depth + 1):
        if _reference_starts(prefix_arc._adj, word[:depth], False):
            continue
        seeds = [(depth, w) for w in range(depth) if word[w] == word[depth]]
        lists = _same_starts(arc, word, False, seeds)
        assert (not lists) == (not _reference_starts(arc._adj, word, False)), word


def _canonical_words(n, k):
    """Every word of n colors over 1..k up to renaming the colors: each
    color first appears after every smaller one."""
    def grow(word, top):
        if len(word) == n:
            yield tuple(word)
            return
        for col in range(1, min(top + 1, k) + 1):
            yield from grow(word + [col], max(top, col))
    return grow([], 0)


def _folds(g, cols):
    """The vertices with two neighbours of one color, from g's edges."""
    return {v for v, nbrs in enumerate(g._adj)
            if len(nbrs) == 2 and cols[nbrs[0]] == cols[nbrs[1]]}


def _straight_run(comp, pos, n, cyclic):
    """comp keeps the difference or the sum of positions along the line
    (mod n on a cycle), and its first positions are consecutive."""
    for sign in (1, -1):
        keys = {pos[u] - sign * pos[w] for u, w in comp}
        if len({key % n for key in keys} if cyclic else keys) > 1:
            continue
        firsts = {pos[u] for u, _ in comp}
        if cyclic:
            return sum((p - 1) % n not in firsts for p in firsts) <= 1
        return max(firsts) - min(firsts) + 1 == len(firsts)
    return False


def _least_accepted_walk(adj, comp, starts):
    """The least (2t, walk) over the accepted nonboring product walks in comp
    from starts, every product walk enumerated, shortest first."""
    best = None
    for s0 in starts:
        walks = [(s0,)]
        while walks and (best is None or 2 * len(walks[0]) <= best[0]):
            for seq in walks:
                if seq[-1][0] in adj[s0[1]] and any(u != w for u, w in seq):
                    walk = tuple(u for u, _ in seq) + tuple(w for _, w in seq)
                    best = min(best or (len(walk), walk), (len(walk), walk))
            walks = [seq + (s,) for seq in walks for s in itertools.product(
                adj[seq[-1][0]], adj[seq[-1][1]]) if s in comp]
    return best


@pytest.mark.parametrize("g", [
    *map(path_graph, range(1, 9)), *map(cycle_graph, range(3, 9)),
    P7_RELABELLED, C7_SHUFFLED,
], ids=[*(f"P{n}" for n in range(1, 9)), *(f"C{n}" for n in range(3, 9)),
        "P7-relabelled", "C7-shuffled"])
def test_fold_free_components_are_straight_runs(g):
    """The lemma behind find_witness's fold-free routes, on every 3- and
    4-coloring up to renaming the colors (the folds, the product
    components, their acceptance and the squares are all blind to color
    names), both modes.

    A component with no fold coordinate is a constant-difference or
    constant-sum run along g.line and accepts only if the color word holds
    a square; so in a word with no fold the least accepted walk is the
    least square (_least_squares), which find_witness returns with nothing
    labelled; without a square the components through the seeds through a
    fold (and, for walks, the pair of each fold's neighbours, as (v, v)
    moves to it) give every accepting start; and a word with neither a
    fold nor a square has no accepting start, so find_witness labels
    nothing for it.
    """
    n, cyclic = g.n, g.is_cycle()
    pos = {v: i for i, v in enumerate(g.line)}
    for word in _canonical_words(n, 4):
        cols = [0] * n
        for v, col in zip(g.line, word):
            cols[v] = col
        cols = tuple(cols)
        folds = _folds(g, cols)
        inner = g.line if cyclic else g.line[1:-1]
        assert {v for v, f in zip(inner, model.folds(g, cols)) if f} == folds
        square = _least_square(g, cols) is not None
        for allow_diagonal in (False, True):
            seeds = {(u, w) for u, w in itertools.combinations(range(n), 2)
                     if cols[u] == cols[w] and (u in folds or w in folds)}
            if allow_diagonal:
                seeds |= {tuple(sorted(g._adj[v])) for v in folds}
            ref, least = set(), []
            for comp in _reference_components(g._adj, cols, allow_diagonal):
                accepting = _reference_accepting(g._adj, comp)
                ref |= accepting
                if any(u in folds or w in folds for u, w in comp):
                    continue
                assert _straight_run(comp, pos, n, cyclic), (word, comp)
                assert square or not accepting, (word, comp)
                if accepting:
                    least.append(_least_accepted_walk(g._adj, comp, accepting))
            if square and not folds:
                assert min(least)[1] == _least_square(g, cols), (word, least)
            if not square:
                lists = accepting_starts(g, cols, allow_diagonal, seeds)
                assert set().union(*lists) == ref, (word, allow_diagonal)
                assert folds or not ref, (word, allow_diagonal)


@pytest.mark.parametrize("g", [path_graph(1), path_graph(2), cycle_graph(3),
                               P7_RELABELLED, C7_SHUFFLED, C12_SHUFFLED],
                         ids=["P1", "P2", "C3", "P7-relabelled", "C7-shuffled",
                              "C12-shuffled"])
def test_folds_are_sa_letters_and_edge_classes(g):
    """On every proper 3-coloring, folds along g.line are the vertices the
    adjacency shows with two neighbours of one color, encode_sa's S
    letters, and on an even cycle the symmetry behind classify_edges: a
    matching edge is good iff neither end is a fold."""
    inner = g.line if g.is_cycle() else g.line[1:-1]
    count = 0
    for c in map(Coloring, _proper_3_colorings(g), itertools.repeat(3)):
        flags = folds(g, c.colors)
        assert {v for v, f in zip(inner, flags) if f} == _folds(g, c.colors)
        assert flags == [ch == "S" for ch in encode_sa(g, c)], c.colors
        if g.is_cycle() and g.n % 2 == 0:
            good = [e.good for e in classify_edges(g, c)]
            assert good == [not (flags[i] or flags[i + 1])
                            for i in range(0, g.n, 2)], c.colors
        count += 1
    # the proper 3-colorings: 3 * 2^(n - 1) of a path, 2^n + 2(-1)^n of a cycle
    assert count == (2 ** g.n + 2 * (-1) ** g.n if g.is_cycle()
                     else 3 * 2 ** (g.n - 1))


# The 4-color stroll certificate of P64 that bench/certs.json freezes:
# 25 of its vertices are folds, so it is square-free and has no abab.
RHO64_FROZEN = tuple(map(int, "1213121412131231321232412131214123121314"
                              "121312141231321232412131"))


def _drawn_seeds(monkeypatch):
    """Every seed accepting_starts draws, whoever calls it, in a list."""
    drawn = []

    def counted(g, cols, allow_diagonal, seeds, labelling=accepting_starts):
        seeds = list(seeds)
        drawn.extend(seeds)
        return labelling(g, cols, allow_diagonal, seeds)

    monkeypatch.setattr(decide, "accepting_starts", counted)
    return drawn


@pytest.mark.parametrize("n", [22, 47, 90, 300])
def test_sigma_is_decided_without_labelling(n, monkeypatch):
    """sigma(C_n) and its restriction to P_n have no fold and no square:
    find_witness never calls accepting_starts for either property."""
    _, c = sigma_cycle_coloring(n)

    def unused(*args):
        raise AssertionError("accepting_starts called")

    monkeypatch.setattr(decide, "accepting_starts", unused)
    for g in (cycle_graph(n), path_graph(n)):
        for prop in ("stroll", "walk"):
            assert find_witness(g, c, prop) is None, (g.shape, prop)


@pytest.mark.parametrize("off,n", [(0, 64), (3, 40), (20, 31), (42, 22)])
def test_fold_route_on_rho_windows(off, n, monkeypatch):
    """A window of the frozen stroll certificate has folds but no square:
    find_witness labels from every seed, as holds does, and agrees with it."""
    word = RHO64_FROZEN[off:off + n]
    g, c = path_graph(n), Coloring.from_colors(word)
    text = decide._line_text(g, word)
    assert decide._short_witness(g, text, False) == (None, True)
    assert decide._square_free_line(text, False)
    drawn = _drawn_seeds(monkeypatch)
    assert find_witness(g, c, "stroll") is None
    assert drawn == list(_seeds(word))
    drawn.clear()
    assert holds(g, c, "stroll")
    assert drawn == list(_seeds(word))


def test_fold_route_finds_square_free_strolls(monkeypatch):
    """The square-free 3-colorings of line_witnesses.json have a stroll
    witness through a fold, found by labelling from every seed."""
    with open(LINE_WITNESSES) as fh:
        cases = json.load(fh)["P3-square-free"]
    drawn = _drawn_seeds(monkeypatch)
    for case in cases:
        line = case["line"]
        g = Graph.from_edges(len(line), list(zip(line, line[1:])))
        word = tuple(int(ch) for ch in case["colors"])
        assert decide._square_free_line(decide._line_text(g, word), False)
        drawn.clear()
        w = find_witness(g, Coloring.from_colors(word), "stroll")
        assert list(w.walk.vertices) == case["stroll"]
        assert drawn == list(_seeds(word))


def test_holds_reads_no_square_and_no_fold(monkeypatch):
    """holds labels the product graph alone: with every read of the color
    word made to fail, its stroll and walk verdicts stand."""
    _, sigma = sigma_cycle_coloring(47)
    planted = list(sigma.colors)
    planted[10:13] = planted[7:10]
    cases = [(cycle_graph(47), sigma), (path_graph(47), sigma),
             (path_graph(47), Coloring.from_colors(planted)),
             (path_graph(64), Coloring.from_colors(RHO64_FROZEN)),
             (path_graph(12), Coloring.from_colors((1, 2, 3, 1, 3, 2) * 2))]
    props = ("stroll", "walk")
    expected = [find_witness(g, c, p) is None for g, c in cases for p in props]
    assert True in expected and False in expected

    def unused(*args):
        raise AssertionError("holds read the color word")

    for name in ("_square_free_line", "_least_squares", "_short_witness",
                 "_line_text"):
        monkeypatch.setattr(decide, name, unused)
    assert [holds(g, c, p) for g, c in cases for p in props] == expected


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
def test_find_witness_reads_one_text(make_graph, monkeypatch):
    """find_witness on a path or cycle builds the color word's text once
    (_line_text), for every property, and the least-square scan reads that
    very text: on sigma's square-free word, and with a square of
    half-length 1..8 planted in it."""
    built, scanned = [], []

    def line_text(g, cols, build=decide._line_text):
        built.append(build(g, cols))
        return built[-1]

    def least_squares(g, text, scan=decide._least_squares):
        scanned.append(text)
        return scan(g, text)

    monkeypatch.setattr(decide, "_line_text", line_text)
    monkeypatch.setattr(decide, "_least_squares", least_squares)
    rng, n = random.Random(29), 47
    _, sigma = sigma_cycle_coloring(n)
    g, words = make_graph(n), [sigma.colors]
    for t in range(1, 9):
        word = list(sigma.colors)
        p = rng.randrange(n - 2 * t + 1)
        word[p + t:p + 2 * t] = word[p:p + t]
        words.append(tuple(word))
    product_scans = 0
    for word in words:
        for prop in PROPERTIES:
            built.clear()
            scanned.clear()
            w = find_witness(g, Coloring.from_colors(word), prop)
            assert len(built) == 1, (word, prop)
            assert all(text is built[0] for text in scanned), (word, prop)
            assert (w is None) == (word == sigma.colors), (word, prop)
            if prop == "path":
                assert len(scanned) == 1, word
            else:
                product_scans += len(scanned)
    assert product_scans > 0


def test_witness_input_checks():
    """A Witness names a known property and a walk that repeats."""
    g = path_graph(2)
    edge = Walk((0, 1))
    repeats = classify_walk(g, Coloring.from_digits("11"), edge)
    assert Witness(edge, repeats, "path").violated == "path"
    with pytest.raises(InvalidArgumentError, match="unknown property 'dist2'"):
        Witness(edge, repeats, "dist2")
    differs = classify_walk(g, Coloring.from_digits("12"), edge)
    with pytest.raises(InvalidArgumentError, match="must be repetitive"):
        Witness(edge, differs, "path")
    with pytest.raises(InvalidArgumentError, match="unknown property 'dist2'"):
        find_witness(g, Coloring.from_digits("11"), "dist2")
