"""Exact Poincare series of triply graded homology of positive torus
links, shuffled links, and Sym^l-colored torus knots."""

from .ring import (
    DenomVector,
    GradedSeries,
    LatticeError,
    LaurentPoly,
    equal_up_to_monomial,
    expand_series,
    qat_monomial,
    render,
    series_equal,
)
from .sequences import (
    SeqPair,
    WeightMismatch,
    bit_inversions,
    inversions,
    pair_validate,
    weight,
)
from .recursion import MemoTable, RuleTag, classify_rule, eval_p
from .links import (
    ColorError,
    DomainError,
    TorusLinkSpec,
    colored_torus_both,
    colored_torus_homology,
    normalization_shift,
    normalized_homology,
    shuffled_link_homology,
    torus_link_homology,
)
from .fillings import (
    Filling,
    SigmaSeq,
    c_statistic,
    f_sigma,
    filling_from_sigma,
    filling_from_w,
    g_sigma,
    rotate,
    rotate_both,
    sigma_from_filling,
    v_of_sigma,
    verify_lemma53,
    w_of_sigma,
)

__version__ = "0.1.0"
