"""Known values used by the verification suites.

The tabulated T(4,6) series and the Sym^2-colored trefoil display were
transcribed by hand; the colored unknot is a closed-form product.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .ring import DenomVector, GradedSeries, LaurentPoly, qat_monomial

# (coeff, q-exponent, t-exponent) rows, one list per a-degree block
_T46_BLOCKS: Dict[int, List[Tuple[int, int, int]]] = {
    0: [
        (-1, 8, 1), (-1, 7, 2), (-1, 6, 3), (-1, 5, 4), (-1, 4, 5), (-1, 3, 6),
        (-1, 2, 7), (-1, 1, 8),
        (1, 8, 0), (1, 7, 1), (1, 1, 7), (1, 0, 8),
        (1, 6, 1), (-1, 4, 3), (-1, 3, 4), (1, 1, 6),
        (1, 5, 1), (2, 4, 2), (2, 3, 3), (2, 2, 4), (1, 1, 5),
    ],
    1: [
        (-1, 7, 1), (-1, 6, 2), (-1, 5, 3), (-1, 4, 4), (-1, 3, 5), (-1, 2, 6),
        (-1, 1, 7),
        (1, 7, 0), (-1, 5, 2), (-1, 4, 3), (-1, 3, 4), (-1, 2, 5), (1, 0, 7),
        (1, 6, 0), (1, 5, 1), (-1, 4, 2), (-2, 3, 3), (-1, 2, 4), (1, 1, 5),
        (1, 0, 6),
        (1, 5, 0), (3, 4, 1), (3, 3, 2), (3, 2, 3), (3, 1, 4), (1, 0, 5),
        (1, 3, 1), (1, 2, 2), (1, 1, 3),
    ],
    2: [
        (-1, 5, 1), (-1, 4, 2), (-1, 3, 3), (-1, 2, 4), (-1, 1, 5),
        (1, 5, 0), (-1, 3, 2), (-1, 2, 3), (1, 0, 5),
        (1, 4, 0), (1, 3, 1), (1, 1, 3), (1, 0, 4),
        (1, 3, 0), (2, 2, 1), (2, 1, 2), (1, 0, 3),
    ],
    3: [
        (-1, 2, 1), (-1, 1, 2), (1, 2, 0), (1, 1, 1), (1, 0, 2),
    ],
}


def _qat_poly(terms: List[Tuple[int, int, int, int]]) -> LaurentPoly:
    """Accumulate (coeff, q, a, t) rows into a polynomial."""
    acc: Dict[Tuple[int, int, int], int] = {}
    for c, i, j, k in terms:
        key = qat_monomial(i, j, k)
        acc[key] = acc.get(key, 0) + c
    return LaurentPoly(acc)


ONE_PLUS_A = _qat_poly([(1, 0, 0, 0), (1, 0, 1, 0)])


def t46_series() -> GradedSeries:
    """Graded rank of the T(4,6) homology:
    t^-8 (1+a)/(1-q)^2 times four a-graded blocks."""
    blocks = LaurentPoly.zero()
    for j, rows in _T46_BLOCKS.items():
        blocks = blocks + _qat_poly([(c, i, j, k) for c, i, k in rows])
    num = (ONE_PLUS_A * blocks).scale(qat_monomial(0, 0, -8))
    return GradedSeries(num, DenomVector.from_dict({1: 2}))


def colored_unknot_series(l: int) -> GradedSeries:
    """prod_{i=1..l} (t^{i-1} + a) / (1 - q t^{1-i}), for l >= 1."""
    if l < 1:
        raise ValueError(f"need l >= 1, got {l}")
    num = ONE_PLUS_A  # the i = 1 factor
    for i in range(2, l + 1):
        num = num * _qat_poly([(1, 0, 0, i - 1), (1, 0, 1, 0)])
    return GradedSeries(num, DenomVector.from_dict({i: 1 for i in range(1, l + 1)}))


def colored_trefoil_display() -> GradedSeries:
    """The Sym^2-colored trefoil series, as displayed:
    t^-5 (1+a)(t+a)(t^5 + q t^3 + q^2 t + q t^2 + a(t^3 + q t + t^2 + q)
    + a^2) / ((1-q)(1-q t^-1)), defined up to an overall monomial."""
    t_plus_a = _qat_poly([(1, 0, 0, 1), (1, 0, 1, 0)])
    core = _qat_poly([
        (1, 0, 0, 5), (1, 1, 0, 3), (1, 2, 0, 1), (1, 1, 0, 2),
        (1, 0, 1, 3), (1, 1, 1, 1), (1, 0, 1, 2), (1, 1, 1, 0),
        (1, 0, 2, 0),
    ])
    num = (ONE_PLUS_A * t_plus_a * core).scale(qat_monomial(0, 0, -5))
    return GradedSeries(num, DenomVector.from_dict({1: 1, 2: 1}))


SIGMA_EXAMPLE_R = 5
SIGMA_EXAMPLE = (3, 0, 1, 5)
SIGMA_EXAMPLE_V = "1110"
SIGMA_EXAMPLE_W = "010000100100"
