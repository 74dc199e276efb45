"""Top-level invariants: torus links, shuffled links, colored torus knots."""

from __future__ import annotations

from math import gcd
from typing import Dict, Optional

from .record import Record
from .ring import GradedSeries, Monomial
from .recursion import MemoTable, eval_p
from .sequences import pair_validate


class DomainError(ValueError):
    pass


class ColorError(ValueError):
    pass


class TorusLinkSpec(Record):
    __slots__ = ("m", "n")

    def __init__(self, m: int, n: int):
        if m < 1 or n < 1:
            raise DomainError(f"positive torus links only, got T({m},{n})")
        self.m = m
        self.n = n


def torus_link_homology(spec: TorusLinkSpec, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Graded rank of the homology of T(m,n): the recursion at a pair of
    all-zero sequences."""
    pair = pair_validate("0" * spec.m, "0" * spec.n)
    return eval_p(pair, memo)


def shuffled_link_homology(v: str, w: str, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Weight-one shuffles of the torus braid: 1/(1-q) times the
    recursion value."""
    pair = pair_validate(v, w)
    if pair.l != 1:
        raise ColorError(f"shuffled links need |v| = |w| = 1, got {pair.l}")
    return eval_p(pair, memo).with_extra_denominator({1: 1})


def colored_sequences(m: int, n: int, l: int, order: str = "theorem"):
    """The pair indexing the Sym^l-colored T(m,n).

    "theorem" puts the l ones first (1^l 0^{ml-l}); "example" matches the
    zeros-first display convention (0^{ml-l} 1^l).
    """
    if order == "theorem":
        v = "1" * l + "0" * (m * l - l)
        w = "1" * l + "0" * (n * l - l)
    elif order == "example":  # only the benchmark's worker (perfbench/worker.py) asks for it
        v = "0" * (m * l - l) + "1" * l
        w = "0" * (n * l - l) + "1" * l
    else:
        raise ValueError(f"unknown order {order!r}")
    return pair_validate(v, w)


# `order` stays for the benchmark's worker, the last caller that passes "example"
def colored_torus_homology(m: int, n: int, l: int, order: str = "theorem",
                           memo: Optional[MemoTable] = None) -> GradedSeries:
    """Sym^l-colored invariant: prod_{i=1..l} (1 - q t^{1-i})^{-1} times
    the recursion value.  Defined up to an overall monomial (framing of
    the colored component is not fixed)."""
    if m < 1 or n < 1 or l < 1:
        raise DomainError(f"need m, n, l >= 1, got ({m}, {n}, {l})")
    pair = colored_sequences(m, n, l, order)
    value = eval_p(pair, memo)
    return value.with_extra_denominator({i: 1 for i in range(1, l + 1)})


# Only the benchmark's worker (perfbench/worker.py) still calls this.
def colored_torus_both(m: int, n: int, l: int,
                       memo: Optional[MemoTable] = None) -> Dict[str, GradedSeries]:
    """The series of both sequence orderings, by order name."""
    return {order: colored_torus_homology(m, n, l, order, memo)
            for order in ("theorem", "example")}


def normalization_shift(spec: TorusLinkSpec) -> Monomial:
    """The monomial (Q^-4 A T)^s with s = (e + c - strands)/2.

    The (m,n) diagram has writhe e = mn and closes up to c = gcd(m,n)
    components on m + n strands, so e + c - strands = (m-1)(n-1) + c - 1.
    If m and n are both even, (m-1)(n-1) and c - 1 are both odd; otherwise
    (m-1)(n-1) and c - 1 are both even.  The sum is always even.
    """
    m, n = spec.m, spec.n
    s = (m * n + gcd(m, n) - m - n) // 2
    return (-4 * s, s, s)


def normalized_homology(spec: TorusLinkSpec, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Writhe-normalized invariant; may leave the (q,a,t) sublattice."""
    return torus_link_homology(spec, memo).scale(normalization_shift(spec))
