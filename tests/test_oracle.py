import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nonrepcolor.construct import figure1_fixture
from nonrepcolor.decide import (
    exists_repetitive_nonboring_walk,
    exists_repetitive_path,
    exists_repetitive_stroll,
)
from nonrepcolor.model import (Coloring, Graph, InvalidArgumentError,
                               classify_walk, cycle_graph, path_graph)
from nonrepcolor.oracle import (DEFAULT_MAX_WALKS, brute_force_check,
                               brute_force_check_many)


class TestPublishedColorings:
    def test_eight_cycle_stroll_free(self):
        g = cycle_graph(8)
        v = brute_force_check(g, Coloring.from_digits("12132123"), "stroll", T=8)
        assert not v.found and not v.aborted

    def test_six_cycle_stroll_free(self):
        g = cycle_graph(6)
        v = brute_force_check(g, Coloring.from_digits("212313"), "stroll", T=6)
        assert not v.found and not v.aborted

    def test_doubled_vertex_pair(self):
        g = path_graph(2)
        v = brute_force_check(g, Coloring((1, 1), 1), "stroll", T=1)
        assert v.found and len(v.witness) == 2


def test_witnesses_revalidate():
    g = cycle_graph(5)
    for cols in itertools.product((1, 2, 3), repeat=5):
        c = Coloring(cols, 3)
        verdicts = brute_force_check_many(g, c, ("path", "stroll", "walk"), T=4)
        for prop, v in verdicts.items():
            if v.witness is None:
                continue
            wc = classify_walk(g, c, v.witness)
            assert wc.repetitive is True
            assert len(v.witness) <= 2 * v.bound
            if prop == "path":
                assert wc.simple_path
            elif prop == "stroll":
                assert wc.stroll
            else:
                assert not wc.boring


@pytest.mark.parametrize("digits", ["12312", "12321", "11231", "12132"])
def test_monotone_in_bound(digits):
    g = path_graph(5)
    c = Coloring.from_digits(digits)
    for prop in ("stroll", "walk"):
        found = [brute_force_check(g, c, prop, T=T).found for T in (1, 2, 4, 8)]
        # once a witness appears it stays for every larger bound
        assert found == sorted(found)


def test_walk_cap_aborts_with_partial_result():
    g = cycle_graph(6)
    c = Coloring.from_digits("123423")  # no witness exists at all
    v = brute_force_check(g, c, "walk", T=10, max_walks=50)
    # the walk that trips the cap is still counted
    assert v.aborted and not v.found and v.walks_examined <= 51


@pytest.mark.parametrize("make_graph", [path_graph, cycle_graph])
def test_small_graph_agreement_with_decider(make_graph):
    """P4/C4, all 3-colorings: bounded oracle agrees with the product decider."""
    g = make_graph(4)
    for cols in itertools.product((1, 2, 3), repeat=4):
        c = Coloring(cols, 3)
        verdicts = brute_force_check_many(g, c, ("stroll", "walk"), T=8)
        for prop, decider in (("stroll", exists_repetitive_stroll),
                              ("walk", exists_repetitive_nonboring_walk)):
            w = decider(g, c)
            dec_found = w is not None and len(w.walk) <= 16
            assert dec_found == verdicts[prop].found, (cols, prop)


@st.composite
def _small_graphs(draw):
    """Trees, unicyclic graphs and dense graphs on at most 7 vertices."""
    kind, smallest = draw(st.sampled_from(
        [("tree", 1), ("unicyclic", 3), ("dense", 2)]))
    n = draw(st.integers(smallest, 7))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "dense":
        return Graph.from_edges(n, draw(st.lists(
            st.sampled_from(pairs), min_size=len(pairs) // 2, unique=True)))
    ids = draw(st.permutations(range(n)))
    edges = {tuple(sorted((ids[v], ids[draw(st.integers(0, v - 1))])))
             for v in range(1, n)}
    if kind == "unicyclic":
        edges.add(draw(st.sampled_from([e for e in pairs if e not in edges])))
    return Graph.from_edges(n, edges)


def _colored(graphs):
    return graphs.flatmap(lambda g: st.integers(1, 4).flatmap(
        lambda k: st.lists(st.integers(1, k), min_size=g.n, max_size=g.n).map(
            lambda cols: (g, Coloring(tuple(cols), k)))))


def _path_agreement(g, c):
    # T = n covers every simple path, so "not found" is a full claim
    v = brute_force_check_many(g, c, ("path",), T=g.n)["path"]
    w = exists_repetitive_path(g, c)
    assert not v.aborted and (w and w.walk) == v.witness


@settings(max_examples=300, deadline=None)
@given(_colored(_small_graphs()))
def test_path_decider_matches_oracle(gc):
    """Both return the shortest, then lexicographically least, witness."""
    _path_agreement(*gc)


@settings(max_examples=50, deadline=None)
@given(_colored(st.just(figure1_fixture()[0])))
def test_path_decider_matches_oracle_on_figure1_graph(gc):
    _path_agreement(*gc)


def test_path_decider_matches_oracle_on_figure1_fixture():
    _path_agreement(*figure1_fixture())


def _product_agreement(g, c, T=4):
    # the oracle sees walks of at most 2T vertices; past that only "none"
    verdicts = brute_force_check_many(g, c, ("stroll", "walk"), T=T)
    for prop, decider in (("stroll", exists_repetitive_stroll),
                          ("walk", exists_repetitive_nonboring_walk)):
        w = decider(g, c)
        v = verdicts[prop]
        assert not v.aborted
        if w is not None and len(w.walk) <= 2 * T:
            assert v.witness == w.walk, (prop, g.edges, c.colors)
        else:
            assert v.witness is None, (prop, g.edges, c.colors)


@settings(max_examples=300, deadline=None)
@given(_colored(_small_graphs()))
def test_product_deciders_match_oracle(gc):
    """Stroll and walk witnesses up to 8 vertices equal the oracle's."""
    _product_agreement(*gc)


def test_product_deciders_match_oracle_on_figure1_fixture():
    _product_agreement(*figure1_fixture())


def test_input_checks_and_default_bound():
    g, c = path_graph(4), Coloring.from_digits("1213")
    with pytest.raises(InvalidArgumentError, match="unknown property 'dist2'"):
        brute_force_check_many(g, c, ("walk", "dist2"))
    with pytest.raises(InvalidArgumentError, match="bound T must be >= 1"):
        brute_force_check(g, c, "walk", T=0)
    # T = n^2 is out of reach with no witness: the default walk cap
    # (DEFAULT_MAX_WALKS) ends the call, aborted
    verdict = brute_force_check(g, c, "stroll")
    assert verdict.bound == 16 and not verdict.found  # T = n^2
    assert verdict.aborted
    assert verdict.walks_examined == DEFAULT_MAX_WALKS + 1
