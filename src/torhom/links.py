"""Top-level invariants: torus links, shuffled links, colored torus knots."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, Optional

from .ring import GradedSeries, Monomial, equal_up_to_monomial
from .recursion import MemoTable, eval_p
from .sequences import pair_validate


class DomainError(ValueError):
    pass


class ColorError(ValueError):
    pass


class ParityError(ValueError):
    pass


@dataclass(frozen=True)
class TorusLinkSpec:
    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise DomainError(f"positive torus links only, got T({self.m},{self.n})")


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
    elif order == "example":
        v = "0" * (m * l - l) + "1" * l
        w = "0" * (n * l - l) + "1" * l
    else:
        raise ValueError(f"unknown order {order!r}")
    return pair_validate(v, w)


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


def colored_torus_both(m: int, n: int, l: int,
                       memo: Optional[MemoTable] = None) -> Dict[str, GradedSeries]:
    """Both sequence orderings, plus whether they agree up to a monomial."""
    out = {
        "theorem": colored_torus_homology(m, n, l, "theorem", memo),
        "example": colored_torus_homology(m, n, l, "example", memo),
    }
    out["match_up_to_monomial"] = equal_up_to_monomial(out["theorem"], out["example"])
    return out


@dataclass(frozen=True)
class NormalizationData:
    e: int        # writhe
    c: int        # component count
    strands: int  # braid width

    def shift_exponent(self) -> int:
        if (self.e + self.c - self.strands) % 2:
            raise ParityError(
                f"e + c - strands = {self.e + self.c - self.strands} is odd")
        return (self.e + self.c - self.strands) // 2


def torus_normalization(spec: TorusLinkSpec) -> NormalizationData:
    # the cabled crossing of the (m,n) diagram carries m*n positive
    # crossings; the closure has gcd(m,n) components on m+n strands
    return NormalizationData(e=spec.m * spec.n, c=gcd(spec.m, spec.n),
                             strands=spec.m + spec.n)


def normalization_shift(spec: TorusLinkSpec) -> Monomial:
    """The monomial (Q^-4 A T)^s with s = (e + c - strands)/2."""
    s = torus_normalization(spec).shift_exponent()
    return (-4 * s, s, s)


def normalized_homology(spec: TorusLinkSpec, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Writhe-normalized invariant; may leave the (q,a,t) sublattice."""
    return torus_link_homology(spec, memo).scale(normalization_shift(spec))
