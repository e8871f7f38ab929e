import itertools
import json
import random
from pathlib import Path

import pytest

from nonrepcolor.construct import figure1_fixture
from nonrepcolor.decide import exists_repetitive_stroll
from nonrepcolor.model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    classify_walk,
    cycle_graph,
    path_graph,
)
from nonrepcolor.saseq import (
    FORBIDDEN_ARCS,
    FORBIDDEN_WORDS,
    LONGEST_H_FREE_WORD,
    InconsistentWordError,
    decode_sa,
    encode_sa,
    enumerate_h_free,
    h_witness_stroll,
    is_h_free,
)

P21_WORD = "121312321323123213121"
GOLDEN_COUNTS = Path(__file__).parent / "data" / "h_free_counts.json"


class TestEncode:
    def test_four_path(self):
        c = Coloring.from_digits("1213")
        assert encode_sa(path_graph(4), c) == "SA"

    def test_p21_word(self):
        c = Coloring.from_digits(P21_WORD)
        assert encode_sa(path_graph(21), c) == LONGEST_H_FREE_WORD

    def test_twelve_cycle_interior(self):
        c = Coloring.from_digits("123121321231")
        word = encode_sa(cycle_graph(12), c)
        assert word[1:11] == "AAASAAASAA"

    def test_relabelled_path_reads_along_the_line(self):
        # P5 laid out 0-2-1-3-4, colored 12132 along the line
        g = Graph.from_edges(5, [(0, 2), (2, 1), (1, 3), (3, 4)])
        assert encode_sa(g, Coloring.from_digits("11232")) == "SAA"

    @pytest.mark.parametrize("cyclic", [False, True], ids=["path", "cycle"])
    def test_relabelled_word_is_the_word_along_the_line(self, cyclic):
        rng = random.Random(6)
        for _ in range(200):
            n = rng.randint(3, 12)
            ids = rng.sample(range(n), n)
            edges = list(zip(ids, ids[1:])) + ([(ids[-1], ids[0])] if cyclic else [])
            g = Graph.from_edges(n, edges)
            along = [rng.randint(1, 3)]
            while len(along) < n:
                along.append(rng.choice([x for x in (1, 2, 3) if x != along[-1]]))
            colors = [0] * n
            for v, col in zip(g.line, along):
                colors[v] = col
            natural = (cycle_graph if cyclic else path_graph)(n)
            assert (encode_sa(g, Coloring(tuple(colors), 3))
                    == encode_sa(natural, Coloring(tuple(along), 3)))

    def test_rejects_improper(self):
        with pytest.raises(InvalidArgumentError):
            encode_sa(path_graph(3), Coloring.from_digits("112"))

    def test_rejects_four_colors(self):
        with pytest.raises(InvalidArgumentError):
            encode_sa(path_graph(4), Coloring.from_digits("1234"))


class TestDecode:
    def test_all_asymmetrical_is_periodic(self):
        assert decode_sa("A" * 7, "path").colors == (1, 2, 3, 1, 2, 3, 1, 2, 3)

    def test_twelve_cycle_closure_fails(self):
        # interior AAASAAASAA forces colors 123121321231 and an improper wrap
        c = decode_sa("AAASAAASAA", "path")
        assert c.colors == tuple(int(d) for d in "123121321231")
        with pytest.raises(InconsistentWordError):
            decode_sa("A" + "AAASAAASAA" + "A", "cycle")

    def test_consistent_cycle_word(self):
        c = Coloring.from_digits("123123")
        word = encode_sa(cycle_graph(6), c)
        assert decode_sa(word, "cycle").colors == c.colors

    def test_round_trip_short_words(self):
        for length in range(1, 11):
            for tup in itertools.product("AS", repeat=length):
                word = "".join(tup)
                if "SS" in word:
                    continue
                c = decode_sa(word, "path")
                assert encode_sa(path_graph(length + 2), c) == word


class TestForbiddenFactors:
    def test_longest_word_is_free(self):
        assert is_h_free(LONGEST_H_FREE_WORD) is None

    def test_double_s_found(self):
        assert is_h_free("ASASSA") == (3, "SS")

    def test_factor_equal_to_word(self):
        assert is_h_free("AASAASAA") == (0, "AASAASAA")

    def test_cyclic_wraparound(self):
        # SA...AS wraps into SS
        word = "SAAAS"
        assert is_h_free(word) is None
        assert is_h_free(word, cyclic=True) == (4, "SS")


class TestForbiddenArcs:
    def test_thirty_strings_closed_under_reversal(self):
        assert len(set(FORBIDDEN_ARCS)) == len(FORBIDDEN_ARCS) == 30
        assert set(FORBIDDEN_ARCS) == {a[::-1] for a in FORBIDDEN_ARCS}

    def test_arcs_are_the_colorings_of_the_forbidden_words(self):
        """Every proper coloring over 1..3 of each word's path, read by
        encode_sa rather than decoded."""
        want = set()
        for h in FORBIDDEN_WORDS:
            n = len(h) + 2
            for first, *steps in itertools.product(
                    (1, 2, 3), *[(1, 2)] * (n - 1)):
                cols = [first]
                for step in steps:  # the next color, one of the other two
                    cols.append((cols[-1] + step - 1) % 3 + 1)
                if encode_sa(path_graph(n), Coloring(tuple(cols), 3)) == h:
                    want.add("".join(map(chr, cols)))
        assert set(FORBIDDEN_ARCS) == want


class TestEnumeration:
    def test_maximum_length_nineteen(self):
        words, max_len = enumerate_h_free(25)
        assert max_len == 19
        assert [w for w in words if len(w) == 19] == [LONGEST_H_FREE_WORD]

    def test_no_word_of_length_twenty(self):
        words, max_len = enumerate_h_free(20)
        assert max_len == 19 and all(len(w) <= 19 for w in words)

    def test_golden_counts(self):
        words, _ = enumerate_h_free(25)
        counts = {}
        for w in words:
            counts[len(w)] = counts.get(len(w), 0) + 1
        golden = {int(k): v for k, v in
                  json.loads(GOLDEN_COUNTS.read_text()).items()}
        assert counts == golden

    def test_counts_against_independent_filter(self):
        words, _ = enumerate_h_free(25)
        mine = {w for w in words if len(w) <= 10}
        slow = set()
        for length in range(1, 11):
            for tup in itertools.product("AS", repeat=length):
                w = "".join(tup)
                if not any(h in w for h in FORBIDDEN_WORDS):
                    slow.add(w)
        assert mine == slow


EXPECTED_SEQUENCES = {
    "SS": "1212",
    "AAAA": "123123",
    "ASASA": "12321232",
    "AASAASAA": "212313212313",
    "AAASAAASAAA": "3212312132123121",
}


@pytest.mark.parametrize("h", FORBIDDEN_WORDS)
def test_witness_strolls(h):
    n, walk, seq = h_witness_stroll(h)
    assert n == len(h) + 2
    assert "".join(map(str, seq)) == EXPECTED_SEQUENCES[h]
    g = path_graph(n)
    c = decode_sa(h, "path")
    wc = classify_walk(g, c, walk)
    assert wc.stroll and wc.repetitive is True
    # the general decider also rejects the decoded coloring
    assert exists_repetitive_stroll(g, c) is not None


def test_witness_needs_forbidden_word():
    with pytest.raises(InvalidArgumentError):
        h_witness_stroll("ASA")


def test_free_words_decode_to_stroll_nonrepetitive_paths():
    """Converse at small scale: factor-free words give valid colorings."""
    words, _ = enumerate_h_free(17)
    for word in words:
        g = path_graph(len(word) + 2)
        c = decode_sa(word, "path")
        assert exists_repetitive_stroll(g, c) is None, word


def test_input_checks():
    # the Figure 1 graph, a triangle with a tail, in a proper 3-coloring
    with pytest.raises(InvalidArgumentError,
                       match="applies to paths and cycles"):
        encode_sa(figure1_fixture()[0], Coloring.from_digits("1231312313"))
    with pytest.raises(InvalidArgumentError, match="unknown graph kind 'tree'"):
        decode_sa("SA", "tree")
    with pytest.raises(InvalidArgumentError, match="at least three letters"):
        decode_sa("SA", "cycle")
    with pytest.raises(InvalidArgumentError, match="max_len must be >= 1"):
        enumerate_h_free(0)


def test_decode_wrap_letters_disagree():
    # SAA decodes to 123, whose closing edge is proper but whose first
    # letter is an A round the cycle
    assert decode_sa("AAA", "cycle").colors == (1, 2, 3)
    with pytest.raises(InconsistentWordError,
                       match=r"wrap letters are A\.\.\.A, word says S\.\.\.A"):
        decode_sa("SAA", "cycle")


def _first_factor(word, cyclic):
    """is_h_free by brute force: the least start, then the first forbidden
    word in FORBIDDEN_WORDS, read off each rotation (cyclic) or suffix."""
    for pos in range(len(word)):
        rest = word[pos:] + word[:pos] if cyclic else word[pos:]
        for h in FORBIDDEN_WORDS:
            if len(h) <= len(word) and rest.startswith(h):
                return pos, h
    return None


def test_h_free_matches_brute_force():
    """Every word over {S, A} of 1..12 letters, with wrapping and without."""
    for length in range(1, 13):
        for letters in itertools.product("SA", repeat=length):
            word = "".join(letters)
            for cyclic in (False, True):
                assert is_h_free(word, cyclic) == _first_factor(word, cyclic), \
                    (word, cyclic)
