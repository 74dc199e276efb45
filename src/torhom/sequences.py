"""Binary sequences, sequence pairs, and shuffle permutations.

Bit strings are plain Python strings over '0'/'1', read left to right
(index 1 first).  Permutations are one-line image tuples: perm[i] is the
image of position i, 0-indexed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple


class WeightMismatch(ValueError):
    def __init__(self, wv: int, ww: int):
        super().__init__(f"weight mismatch: |v|={wv}, |w|={ww}")
        self.wv = wv
        self.ww = ww


class EmptyInput(ValueError):
    pass


def parse_bits(s: str) -> str:
    if any(c not in "01" for c in s):
        raise ValueError(f"not a 0/1 string: {s!r}")
    return s


def weight(v: str) -> int:
    """Number of ones."""
    return v.count("1")


def inversions(s: Sequence[int]) -> int:
    """Pairs i < j with s_i > s_j."""
    count = 0
    for i in range(len(s)):
        si = s[i]
        for j in range(i + 1, len(s)):
            if si > s[j]:
                count += 1
    return count


def bit_inversions(v: str) -> int:
    """Pairs i < j with v_i = 1, v_j = 0; linear-time special case."""
    count = 0
    ones = 0
    for c in v:
        if c == "1":
            ones += 1
        else:
            count += ones
    return count


@dataclass(frozen=True)
class SeqPair:
    """A pair (v, w) with equal weight l; lengths are m+l and n+l."""

    v: str
    w: str

    @property
    def l(self) -> int:
        return weight(self.v)

    @property
    def m(self) -> int:
        return len(self.v) - self.l

    @property
    def n(self) -> int:
        return len(self.w) - self.l

    def key(self) -> str:
        return f"{self.v}|{self.w}"


def pair_validate(v: str, w: str) -> SeqPair:
    v, w = parse_bits(v), parse_bits(w)
    wv, ww = weight(v), weight(w)
    if wv != ww:
        raise WeightMismatch(wv, ww)
    return SeqPair(v, w)


def pair_rank(p: SeqPair) -> Tuple[int, int, int]:
    """Termination measure: total length, then total weight (heavier
    first), then total inversions.  Every recursion step strictly drops
    this rank: shortening rules drop the length, the weight-raising
    branch of the split rule drops the negated weight, and its other
    branch trades the trailing zeros' inversions away."""
    return (
        len(p.v) + len(p.w),
        -(weight(p.v) + weight(p.w)),
        bit_inversions(p.v) + bit_inversions(p.w),
    )


def pair_strictly_precedes(p: SeqPair, q: SeqPair) -> bool:
    return pair_rank(p) < pair_rank(q)


Perm = Tuple[int, ...]


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose(x: Perm, y: Perm) -> Perm:
    """x after y: (x*y)(i) = x(y(i))."""
    return tuple(x[y[i]] for i in range(len(y)))


def transposition(n: int, i: int) -> Perm:
    """s_i in S_n swapping positions i, i+1 (1-indexed i)."""
    images = list(range(n))
    images[i - 1], images[i] = images[i], images[i - 1]
    return tuple(images)


def shuffle_permutation(v: str) -> Perm:
    """Permutation sending the first k positions to the zero slots of v and
    the last l positions to the one slots, built by the inductive rules:
    append 1 keeps the permutation, append 0 composes with a descending
    run of adjacent transpositions."""
    v = parse_bits(v)
    if not v:
        raise EmptyInput("shuffle permutation of the empty sequence")
    perm: Perm = (0,)
    ones = 1 if v[0] == "1" else 0
    for r in range(2, len(v) + 1):
        c = v[r - 1]
        extended = perm + (r - 1,)
        if c == "1":
            perm = extended
            ones += 1
        else:
            for i in range(r - 1, r - 1 - ones, -1):
                extended = compose(extended, transposition(r, i))
            perm = extended
    return perm


def shuffle_permutation_closed(v: str) -> Perm:
    """The closed-form product over the zero positions i_1 < ... < i_k:
    the j-th factor is the descending run s_{i_j - 1} ... s_j, empty when
    i_j = j.  Factors compose left to right with the rightmost applied
    first."""
    v = parse_bits(v)
    if not v:
        raise EmptyInput("shuffle permutation of the empty sequence")
    r = len(v)
    zeros = [i + 1 for i, c in enumerate(v) if c == "0"]
    perm = identity_perm(r)
    for j, ij in enumerate(zeros, start=1):
        for i in range(ij - 1, j - 1, -1):
            perm = compose(perm, transposition(r, i))
    return perm

