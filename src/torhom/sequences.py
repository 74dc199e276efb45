"""Binary sequences and the sequence pairs (v, w) the recursion runs on.

Bit strings are plain Python strings over '0'/'1', read left to right
(index 1 first).  Shuffled links, Sym^l colorings and grid fillings all
reach the recursion as such a pair, so no braid permutation is built.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from .record import Record


class WeightMismatch(ValueError):
    def __init__(self, wv: int, ww: int):
        super().__init__(f"weight mismatch: |v|={wv}, |w|={ww}")
        self.wv = wv
        self.ww = ww


def parse_bits(s: str) -> str:
    if s.strip("01"):
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


class SeqPair(Record):
    """A pair (v, w) with equal weight l; lengths are m+l and n+l."""

    __slots__ = ("v", "w")

    def __init__(self, v: str, w: str):
        self.v = v
        self.w = w

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
