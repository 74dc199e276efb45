import pytest

from torhom.links import (
    ColorError,
    DomainError,
    TorusLinkSpec,
    colored_sequences,
    colored_torus_both,
    colored_torus_homology,
    normalization_shift,
    normalized_homology,
    shuffled_link_homology,
    torus_link_homology,
)
from torhom.recursion import eval_p
from torhom.reference import ONE_PLUS_A, colored_unknot_series
from torhom.ring import series_equal
from torhom.sequences import pair_validate


class TestTorus:
    def test_domain(self):
        with pytest.raises(DomainError):
            TorusLinkSpec(0, 5)
        with pytest.raises(DomainError):
            TorusLinkSpec(3, -1)

    def test_is_recursion_at_all_zeros(self, memo):
        got = torus_link_homology(TorusLinkSpec(2, 3), memo)
        assert got == eval_p(pair_validate("00", "000"), memo)

    def test_symmetric_in_m_n(self, memo):
        for m in range(1, 5):
            for n in range(1, 5):
                a = torus_link_homology(TorusLinkSpec(m, n), memo)
                b = torus_link_homology(TorusLinkSpec(n, m), memo)
                assert series_equal(a, b)

    def test_unknots(self, memo):
        unknot = torus_link_homology(TorusLinkSpec(1, 1), memo)
        for m in range(1, 13):
            assert torus_link_homology(TorusLinkSpec(m, 1), memo) == unknot

    def test_even_t_exponent(self, memo):
        for m, n in [(2, 2), (3, 4), (5, 2)]:
            assert torus_link_homology(TorusLinkSpec(m, n), memo).num.has_even_t()


class TestShuffled:
    def test_needs_weight_one(self, memo):
        with pytest.raises(ColorError):
            shuffled_link_homology("11", "11", memo)
        with pytest.raises(ColorError):
            shuffled_link_homology("00", "00", memo)

    def test_extra_denominator(self, memo):
        plain = eval_p(pair_validate("10", "01"), memo)
        shuffled = shuffled_link_homology("10", "01", memo)
        assert shuffled == plain.with_extra_denominator({1: 1})


class TestColored:
    def test_sequences(self):
        assert colored_sequences(2, 3, 2, "theorem").key() == "1100|110000"
        assert colored_sequences(2, 3, 2, "example").key() == "0011|000011"
        with pytest.raises(ValueError):
            colored_sequences(2, 3, 2, "sideways")

    def test_domain(self):
        with pytest.raises(DomainError):
            colored_torus_homology(2, 3, 0)
        with pytest.raises(DomainError):
            colored_torus_homology(0, 3, 1)

    @pytest.mark.parametrize("m, n, l", [(2, 4, 2), (3, 6, 1), (4, 4, 3), (6, 9, 2)])
    def test_links_are_refused(self, m, n, l):
        # gcd(m, n) > 1: the pair symmetrizes one component of a link; the
        # message names that pair, whose value `torhom pair` still computes
        v, w = "1" * l + "0" * (m * l - l), "1" * l + "0" * (n * l - l)
        assert colored_sequences(m, n, l, "theorem").key() == f"{v}|{w}"
        for call in (colored_torus_homology, colored_torus_both):
            with pytest.raises(DomainError, match=f"`pair {v} {w}`") as err:
                call(m, n, l)
            assert "\n" not in str(err.value)

    def test_l1_degenerates_to_torus(self, memo):
        for m, n in [(1, 1), (2, 3), (3, 4)]:
            colored = colored_torus_homology(m, n, 1, "theorem", memo)
            plain = torus_link_homology(TorusLinkSpec(m, n), memo)
            # the all-zeros relation folds the 1/(1-q) prefactor back in
            assert series_equal(colored, plain)

    def test_both_orders_reported(self, memo):
        both = colored_torus_both(2, 3, 2, memo)
        assert set(both) == {"theorem", "example"}
        for order, series in both.items():
            assert series == colored_torus_homology(2, 3, 2, order, memo)

    def test_unknot_reference(self, memo):
        # the closed form starts from its i = 1 factor (1 + a)
        assert colored_unknot_series(1) == colored_torus_homology(1, 1, 1, "theorem", memo)
        assert colored_unknot_series(1).num == ONE_PLUS_A
        with pytest.raises(ValueError):
            colored_unknot_series(0)


class TestNormalization:
    def test_shift_examples(self):
        assert normalization_shift(TorusLinkSpec(1, 1)) == (0, 0, 0)
        # trefoil and Hopf link both shift by (Q^-4 A T)^1
        assert normalization_shift(TorusLinkSpec(2, 3)) == (-4, 1, 1)
        assert normalization_shift(TorusLinkSpec(2, 2)) == (-4, 1, 1)
        # e = 24 crossings, c = 2 components, 10 strands: s = 8
        assert normalization_shift(TorusLinkSpec(4, 6)) == (-32, 8, 8)

    def test_normalized_is_scaled(self, memo):
        spec = TorusLinkSpec(2, 3)
        plain = torus_link_homology(spec, memo)
        assert normalized_homology(spec, memo) == plain.scale((-4, 1, 1))

    def test_unknot_unchanged(self, memo):
        spec = TorusLinkSpec(1, 1)
        assert normalized_homology(spec, memo) == torus_link_homology(spec, memo)
