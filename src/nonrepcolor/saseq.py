"""Symmetry words over {S, A} for proper 3-colorings of paths and cycles.

A degree-2 vertex is symmetrical (S) when its two neighbors share a color,
asymmetrical (A) otherwise.  With the first two colors fixed to 1, 2 the
word determines the whole 3-coloring.  Five words are forbidden in the
word of any stroll-nonrepetitive coloring; each carries an explicit
repetitive stroll on the decoded path.
"""

from __future__ import annotations

from typing import Optional

from .model import (
    Coloring,
    Graph,
    InvalidArgumentError,
    Walk,
)

FORBIDDEN_WORDS = ("SS", "AAAA", "ASASA", "AASAASAA", "AAASAAASAAA")

# longest word avoiding all five forbidden factors; re-derived by
# enumerate_h_free in the tests (double-entry against transcription errors)
LONGEST_H_FREE_WORD = "SASAASAAASAAASAASAS"


class InconsistentWordError(ValueError):
    """Cycle word whose decoded coloring fails to close up."""


def _validate_word(w: str) -> str:
    if any(ch not in "SA" for ch in w):
        raise InvalidArgumentError(f"word must be over {{S, A}}: {w!r}")
    return w


def _third_color(a: int, b: int) -> int:
    return 6 - a - b


def encode_sa(g: Graph, c: Coloring) -> str:
    """SA-word of a proper 3-coloring: one letter per degree-2 vertex.

    Paths yield the word for interior vertices 1..n-2 (length n-2), cycles
    one letter per vertex (length n).  Requires colors within {1, 2, 3} and
    a proper coloring, otherwise symmetry is not well defined.
    """
    if c.n != g.n:
        raise InvalidArgumentError("coloring size does not match graph")
    if max(c.colors) > 3:
        raise InvalidArgumentError("SA encoding requires a 3-coloring")
    if g.shape == "graph":
        raise InvalidArgumentError("SA encoding applies to paths and cycles")
    is_cyc = g.shape == "cycle"
    cols = c.colors
    for u, v in g.edges:
        # the wrap edge of a cycle may be improper: closure contradictions
        # are still classified letter by letter
        if is_cyc and (u, v) == (0, g.n - 1):
            continue
        if cols[u] == cols[v]:
            raise InvalidArgumentError("SA encoding requires a proper coloring")
    vertices = range(g.n) if is_cyc else range(1, g.n - 1)
    letters = []
    for v in vertices:
        a, b = g.neighbors(v)
        letters.append("S" if cols[a] == cols[b] else "A")
    return "".join(letters)


def decode_sa(word: str, graph_kind: str) -> Coloring:
    """Unique proper 3-coloring with c(v0)=1, c(v1)=2 realizing the word.

    For a path the word has one letter per interior vertex and decodes a
    path on len(word)+2 vertices.  For a cycle the word is the full cyclic
    word (one letter per vertex); the decode walks the interior letters and
    then checks that the wrap-around is proper and matches the wrap letters,
    raising InconsistentWordError otherwise.
    """
    _validate_word(word)
    if graph_kind == "path":
        n = len(word) + 2
        colors = [1, 2]
        for letter in word:
            prev2, prev = colors[-2], colors[-1]
            colors.append(prev2 if letter == "S" else _third_color(prev2, prev))
        return Coloring(tuple(colors), 3)
    if graph_kind == "cycle":
        n = len(word)
        if n < 3:
            raise InvalidArgumentError("cycle word needs at least three letters")
        colors = [1, 2]
        for letter in word[1:n - 1]:
            prev2, prev = colors[-2], colors[-1]
            colors.append(prev2 if letter == "S" else _third_color(prev2, prev))
        if colors[-1] == colors[0]:
            raise InconsistentWordError(
                f"wrap edge improper: c(v{n - 1})c(v0) = {colors[-1]}{colors[0]}")
        last = "S" if colors[-2] == colors[0] else "A"
        first = "S" if colors[-1] == colors[1] else "A"
        if word[n - 1] != last or word[0] != first:
            raise InconsistentWordError(
                f"wrap letters are {first}...{last}, word says {word[0]}...{word[n - 1]}")
        return Coloring(tuple(colors), 3)
    raise InvalidArgumentError(f"unknown graph kind {graph_kind!r}")


def is_h_free(word: str, cyclic: bool = False) -> Optional[tuple]:
    """None iff no forbidden factor occurs; otherwise the leftmost (pos, factor).

    cyclic=True checks every rotation, i.e. factors may wrap around; a
    factor longer than the word cannot occur in either mode.
    """
    _validate_word(word)
    text = word + word[:max(len(h) for h in FORBIDDEN_WORDS) - 1] if cyclic else word
    best = None
    for h in FORBIDDEN_WORDS:
        if len(h) > len(word):
            continue
        pos = text.find(h)
        if cyclic and pos >= len(word):
            pos = -1
        if pos >= 0 and (best is None or pos < best[0]):
            best = (pos, h)
    return best


def enumerate_h_free(max_len: int):
    """All words avoiding the forbidden factors, up to max_len letters.

    The search self-terminates (no such word is longer than 19); max_len is
    a safety cap.  Returns (words ordered by length then lexicographically,
    maximum achieved length).
    """
    if max_len < 1:
        raise InvalidArgumentError("max_len must be >= 1")
    by_length = [[""]]
    for length in range(1, max_len + 1):
        cur = []
        for w in by_length[length - 1]:
            for letter in "AS":
                ext = w + letter
                if not any(ext.endswith(h) for h in FORBIDDEN_WORDS):
                    cur.append(ext)
        if not cur:
            break
        by_length.append(cur)
    words = [w for bucket in by_length[1:] for w in bucket]
    return words, len(by_length) - 1


# explicit repetitive strolls carried by each forbidden word, on the path
# whose interior word is the factor, colored with c(v0)=1, c(v1)=2
_WITNESS_STROLLS = {
    "SS": (0, 1, 2, 3),
    "AAAA": (0, 1, 2, 3, 4, 5),
    "ASASA": (0, 1, 2, 3, 4, 5, 6, 5),
    "AASAASAA": (1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 8),
    "AAASAAASAAA": (2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 11),
}


def h_witness_stroll(h: str):
    """The explicit repetitive stroll induced by a forbidden word.

    Returns (path order, Walk, repetitive color sequence) on the path whose
    interior SA-word is h, decoded with c(v0)=1, c(v1)=2.
    """
    if h not in FORBIDDEN_WORDS:
        raise InvalidArgumentError(f"{h!r} is not a forbidden word")
    walk = Walk(_WITNESS_STROLLS[h])
    n = len(h) + 2
    coloring = decode_sa(h, "path")
    seq = coloring.sequence_of(walk.vertices)
    return n, walk, seq

