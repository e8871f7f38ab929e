"""Output checks written independently of the library under test.

They share no code with nonrepcolor, so a defect there cannot hide itself:
square detection is a plain slice comparison, and the stroll check is a
bitmask reachability over colour-matched vertex pairs instead of the
library's per-start breadth-first search.  They are meant for the sizes the
benchmark uses (up to about a hundred vertices).
"""

from __future__ import annotations


def has_square(word, circular: bool) -> bool:
    """True iff some factor of the word is a square xx.

    On a cycle the factors are the simple paths, that is circular factors of
    length at most n.  A square read backwards is a square, so one direction
    suffices.
    """
    n = len(word)
    w = tuple(word) * 2 if circular else tuple(word)
    for t in range(1, n // 2 + 1):
        for i in range(n if circular else n - 2 * t + 1):
            if w[i:i + t] == w[i + t:i + 2 * t]:
                return True
    return False


def is_distance2_cycle(word) -> bool:
    """True iff no two vertices at distance 1 or 2 on the cycle share a colour."""
    n = len(word)
    return all(word[i] != word[(i + 1) % n] and word[i] != word[(i + 2) % n]
               for i in range(n))


def is_walk_nonrep_cycle(word) -> bool:
    """Walk property on a cycle: distance-2 and circularly square-free."""
    return is_distance2_cycle(word) and not has_square(word, circular=True)


def path_adj(n: int):
    return [[w for w in (v - 1, v + 1) if 0 <= w < n] for v in range(n)]


def cycle_adj(n: int):
    return [[(v - 1) % n, (v + 1) % n] for v in range(n)]


def has_repetitive_stroll(adj, cols) -> bool:
    """True iff some stroll v_1..v_2t has c(v_i) = c(v_{t+i}) for every i.

    A pair state (u, w) holds the i-th vertex of each half.  mask[(u, w)]
    collects every second-half start b from which the pair is reachable;
    the stroll closes when the first half's last vertex u is adjacent to b.
    """
    n = len(cols)
    mask = {}
    for u in range(n):
        for w in range(n):
            if u != w and cols[u] == cols[w]:
                mask[u * n + w] = 1 << w
    work = list(mask)
    while work:
        s = work.pop()
        u, w = divmod(s, n)
        m = mask[s]
        for u2 in adj[u]:
            for w2 in adj[w]:
                if u2 != w2 and cols[u2] == cols[w2]:
                    s2 = u2 * n + w2
                    if m & ~mask[s2]:
                        mask[s2] |= m
                        work.append(s2)
    return any(mask[s] >> b & 1 for s in mask for b in adj[s // n])


def vtm(length: int, offset: int = 0) -> tuple:
    """Factor of the ternary Thue-Morse word 2102012..., which is square-free.

    Letter i is t(i+1) - t(i) + 1 for the Thue-Morse word t, shifted to the
    colours 1..3.
    """
    def t(i):
        return bin(i).count("1") & 1
    return tuple(t(i + 1) - t(i) + 2 for i in range(offset, offset + length))
