"""Admissible grid fillings and the sigma <-> (v, w) dictionary.

An r x N grid is filled with the symbols '1', '0', '*'.  Each column is
either unoccupied (all zeros) or has some zeros on top, a single one,
and stars below it.  Columns are in bijection with values in {0,...,r}
via the zero count, so fillings correspond to sequences over {0,...,r}.

The per-row "at most one 1" constraint stated alongside the bijection
cannot hold for all sequences (two columns with the same occupied row
collide); validation here enforces the column structure only, which is
what the sequence calculus below actually uses.

The pair (v, w) of a sequence is read straight off sigma.  The grid code
(filling_from_sigma, filling_from_w, rotate) is the reference that the
roundtrip suite checks this readout and the rotation rules against.
"""

from __future__ import annotations

from math import comb
from typing import List, Optional, Sequence, Tuple

from .record import Record
from .ring import GradedSeries, LaurentPoly, qat_monomial
from .recursion import MemoTable, eval_p
from .sequences import SeqPair, inversions, pair_validate

ONE = "1"
ZERO = "0"
STAR = "*"


class AdmissibilityError(ValueError):
    pass


class ReconstructionError(ValueError):
    pass


class FillArgError(ValueError):
    pass


class SigmaSeq(Record):
    __slots__ = ("r", "entries")

    def __init__(self, r: int, entries: Tuple[int, ...]):
        if r < 1:
            raise ValueError("r must be positive")
        for e in entries:
            if not 0 <= e <= r:
                raise ValueError(f"sigma entry {e} outside [0, {r}]")
        self.r = r
        self.entries = entries

    @classmethod
    def of(cls, r: int, entries: Sequence[int]) -> "SigmaSeq":
        return cls(r, tuple(entries))

    @property
    def N(self) -> int:
        return len(self.entries)


class Filling(Record):
    """cells[i][j] is the symbol in row i+1 (from the top), column j+1."""

    __slots__ = ("r", "N", "cells")

    def __init__(self, r: int, N: int, cells: Tuple[Tuple[str, ...], ...]):
        if len(cells) != r or any(len(row) != N for row in cells):
            raise AdmissibilityError("grid shape mismatch")
        self.r = r
        self.N = N
        self.cells = cells
        for j in range(N):
            self.column_zero_count(j)  # validates column structure

    def column(self, j: int) -> Tuple[str, ...]:
        return tuple(self.cells[i][j] for i in range(self.r))

    def column_zero_count(self, j: int) -> int:
        """Zeros above the one; r for an unoccupied column.  Raises if the
        column is not zeros, then optionally a one with stars below."""
        col = self.column(j)
        k = 0
        while k < self.r and col[k] == ZERO:
            k += 1
        if k == self.r:
            return self.r
        if col[k] != ONE or any(c != STAR for c in col[k + 1:]):
            raise AdmissibilityError(f"column {j + 1} is not admissible: {col}")
        return k

    def ascii(self) -> str:
        return "\n".join("".join(row) for row in self.cells)


def _column_cells(r: int, zeros: int) -> Tuple[str, ...]:
    if zeros == r:
        return (ZERO,) * r
    return (ZERO,) * zeros + (ONE,) + (STAR,) * (r - zeros - 1)


def filling_from_sigma(s: SigmaSeq) -> Filling:
    cols = [_column_cells(s.r, e) for e in s.entries]
    cells = tuple(tuple(cols[j][i] for j in range(s.N)) for i in range(s.r))
    return Filling(s.r, s.N, cells)


def sigma_from_filling(t: Filling) -> SigmaSeq:
    return SigmaSeq.of(t.r, [t.column_zero_count(j) for j in range(t.N)])


def v_of_sigma(s: SigmaSeq) -> str:
    """A one for each occupied column, that is each entry below r."""
    return "".join("1" if e < s.r else "0" for e in s.entries)


def w_of_sigma(s: SigmaSeq) -> str:
    """The filling's entries read left to right, bottom row first, stars
    skipped: row i (from 0 at the top) holds a zero in each column with
    more than i zeros and a one in each column with exactly i."""
    return "".join("0" if e > i else "1"
                   for i in range(s.r - 1, -1, -1) for e in s.entries if e >= i)


def filling_from_w(r: int, N: int, w: str) -> Filling:
    """Rebuild the unique filling with the given readout: consume w from
    right to left while filling boxes right to left, top to bottom; a
    placed one stars out the rest of its column."""
    grid: List[List[Optional[str]]] = [[None] * N for _ in range(r)]
    pos = len(w) - 1
    for i in range(r):
        for j in range(N - 1, -1, -1):
            if grid[i][j] == STAR:
                continue
            if pos < 0:
                raise ReconstructionError("w exhausted before the grid was filled")
            c = w[pos]
            pos -= 1
            if c not in (ZERO, ONE):
                raise ReconstructionError(f"bad symbol {c!r} in w")
            grid[i][j] = c
            if c == ONE:
                for k in range(i + 1, r):
                    grid[k][j] = STAR
    if pos >= 0:
        raise ReconstructionError(f"{pos + 1} unread symbols left in w")
    return Filling(r, N, tuple(tuple(row) for row in grid))


def rotate(t: Filling, fill: Optional[int] = None) -> Filling:
    """Delete the top-right entry and shift every label to its successor
    (rightwards within a row, wrapping to the row above).  Equivalently
    the columns shift cyclically right, the last column moving up."""
    if t.N < 1:
        raise FillArgError("cannot rotate an empty filling")
    last = t.column_zero_count(t.N - 1)
    if last == 0:
        # case 1: the column 1,*,...,* disappears entirely
        if fill is not None:
            raise FillArgError("fill bit supplied but the last column is topped by a one")
        cells = tuple(row[:-1] for row in t.cells)
        return Filling(t.r, t.N - 1, cells)
    if last < t.r:
        # case 2: occupied below the top row; the one moves up a row
        if fill is not None:
            raise FillArgError("fill bit supplied but the last column is occupied")
        new_first = _column_cells(t.r, last - 1)
    else:
        # case 3: unoccupied column leaves a vacancy in the bottom left
        if fill not in (0, 1):
            raise FillArgError("rotation of an unoccupied column needs fill=0 or fill=1")
        new_first = _column_cells(t.r, t.r if fill == 0 else t.r - 1)
    cells = tuple(
        (new_first[i],) + t.cells[i][:-1] for i in range(t.r)
    )
    return Filling(t.r, t.N, cells)


def rotate_both(t: Filling) -> Tuple[Filling, Filling]:
    """Convenience for case 3: the two fillings (fill 0, fill 1)."""
    return rotate(t, fill=0), rotate(t, fill=1)


def c_statistic(s: SigmaSeq) -> int:
    """inv(sigma) plus the sum over k of C(#{i : sigma_i >= k}, 2)."""
    total = inversions(s.entries)
    for k in range(1, s.r + 1):
        count = sum(1 for e in s.entries if e >= k)
        total += comb(count, 2)
    return total


def rev(s: SigmaSeq) -> SigmaSeq:
    return SigmaSeq.of(s.r, tuple(reversed(s.entries)))


def seq_pair_of_sigma(s: SigmaSeq) -> SeqPair:
    return pair_validate(v_of_sigma(s), w_of_sigma(s))


def f_sigma(s: SigmaSeq, memo: Optional[MemoTable] = None) -> GradedSeries:
    return eval_p(seq_pair_of_sigma(s), memo)


def g_sigma(s: SigmaSeq, memo: Optional[MemoTable] = None) -> GradedSeries:
    pair = seq_pair_of_sigma(s)
    # a zero appended to a valid pair keeps it valid
    return eval_p(SeqPair(pair.v, pair.w + "0"), memo)


class IdentityCheck(Record):
    __slots__ = ("name", "sigma", "passed", "lhs", "rhs")
    __hash__ = None  # a result, compared but not used as a key

    def __init__(self, name: str, sigma: Tuple[int, ...], passed: bool,
                 lhs: GradedSeries, rhs: GradedSeries):
        self.name = name
        self.sigma = sigma
        self.passed = passed
        self.lhs = lhs
        self.rhs = rhs


def _extend(s: SigmaSeq, suffix: Sequence[int]) -> SigmaSeq:
    return SigmaSeq.of(s.r, s.entries + tuple(suffix))


def _prepend(s: SigmaSeq, prefix: Sequence[int]) -> SigmaSeq:
    return SigmaSeq.of(s.r, tuple(prefix) + s.entries)


def verify_lemma53(r: int, entries: Sequence[int],
                   memo: Optional[MemoTable] = None) -> List[IdentityCheck]:
    """Check every comparison identity rooted at the given sigma.

    The stated k range of (K1a) starts at 0, where the rotated sequence
    (k-1)sigma is meaningless; the k = 0 instance verified here is
    g(sigma 0 0) = (t^{l+1} + a) g(sigma 0), which is what a single
    rotation of the trailing zero yields (checked numerically).
    """
    s = SigmaSeq.of(r, entries)
    if memo is None:
        memo = MemoTable()
    l = sum(1 for e in s.entries if e < r)
    t_pow = lambda k: qat_monomial(0, 0, k)
    a_mono = qat_monomial(0, 1, 0)

    def t_l_plus_a(power: int) -> GradedSeries:
        return GradedSeries.from_poly(
            LaurentPoly({t_pow(power): 1, a_mono: 1})
        )

    f = lambda sig: f_sigma(sig, memo)
    g = lambda sig: g_sigma(sig, memo)
    checks: List[IdentityCheck] = []

    def record(name, lhs, rhs, sigma=s.entries):
        checks.append(IdentityCheck(name, sigma, lhs == rhs, lhs, rhs))

    # (L1) f(sigma 0) = (t^l + a) f(sigma)
    record("L1", f(_extend(s, [0])), t_l_plus_a(l) * f(s))
    # (L2) f(sigma k) = f((k-1) sigma), 1 <= k <= r-1
    for k in range(1, r):
        record(f"L2[k={k}]", f(_extend(s, [k])), f(_prepend(s, [k - 1])))
    # (L3) f(sigma r) = t^-l f((r-1) sigma) + q t^-l f(r sigma)
    lhs = f(_extend(s, [r]))
    rhs = f(_prepend(s, [r - 1])).scale(qat_monomial(0, 0, -l)) \
        + f(_prepend(s, [r])).scale(qat_monomial(1, 0, -l))
    record("L3", lhs, rhs)
    # (K1a) g(sigma k 0) = (t^{l+1} + a) g((k-1) sigma), 1 <= k <= r-1
    for k in range(1, r):
        record(f"K1a[k={k}]", g(_extend(s, [k, 0])), t_l_plus_a(l + 1) * g(_prepend(s, [k - 1])))
    # (K1a) k = 0 variant: one rotation instead of two
    record("K1a[k=0]", g(_extend(s, [0, 0])), t_l_plus_a(l + 1) * g(_extend(s, [0])))
    # (K1b) g(sigma r 0) = g((r-1) sigma)
    record("K1b", g(_extend(s, [r, 0])), g(_prepend(s, [r - 1])))
    # (K2) g(sigma k) = g((k-1) sigma), 1 <= k <= r-1
    for k in range(1, r):
        record(f"K2[k={k}]", g(_extend(s, [k])), g(_prepend(s, [k - 1])))
    # (K3) g(sigma r) = t^-l g((r-1) sigma) + q t^-l g(r sigma)
    lhs = g(_extend(s, [r]))
    rhs = g(_prepend(s, [r - 1])).scale(qat_monomial(0, 0, -l)) \
        + g(_prepend(s, [r])).scale(qat_monomial(1, 0, -l))
    record("K3", lhs, rhs)
    return checks
