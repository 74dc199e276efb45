import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torhom.ring import (
    DenomVector,
    GradedSeries,
    LatticeError,
    LaurentPoly,
    denom_monomial,
    divide_one_minus,
    equal_up_to_monomial,
    expand_series,
    monomial_to_qat,
    qat_monomial,
    render,
    series_equal,
)


def qat(terms):
    return LaurentPoly.from_qat(terms)


ONE_PLUS_A = qat({(0, 0, 0): 1, (0, 1, 0): 1})
T_PLUS_A = qat({(0, 0, 1): 1, (0, 1, 0): 1})


# small random Laurent polynomials on the full (Q, A, T) lattice
monomials = st.tuples(st.integers(-6, 6), st.integers(-3, 3), st.integers(-6, 6))
coeffs = st.integers(-9, 9).filter(bool)
polys = st.dictionaries(monomials, coeffs, max_size=6).map(LaurentPoly)


class TestLattice:
    def test_qat_embedding(self):
        assert qat_monomial(1, 0, 0) == (2, 0, 0)
        assert qat_monomial(0, 1, 0) == (-2, 1, 0)
        assert qat_monomial(0, 0, 1) == (-2, 0, 2)

    def test_round_trip(self):
        for m in [(0, 0, 0), (4, 1, -2), (-6, 2, 8)]:
            assert qat_monomial(*monomial_to_qat(m)) == m

    def test_off_lattice(self):
        with pytest.raises(LatticeError):
            monomial_to_qat((1, 0, 0))
        with pytest.raises(LatticeError):
            monomial_to_qat((0, 0, 3))


class TestPolyArith:
    def test_additive_inverse(self):
        f = qat({(2, 1, -1): 3, (0, 0, 0): -2})
        assert (f + (-f)).is_zero()
        assert (f - f).is_zero()

    def test_product_example(self):
        got = ONE_PLUS_A * T_PLUS_A
        want = qat({(0, 0, 1): 1, (0, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1})
        assert got == want

    def test_hand_expansion(self):
        # (1+a)(q+t+a-qt), expanded by hand term by term
        f = qat({(1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): -1})
        want = qat({
            (1, 0, 0): 1, (0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 1): -1,
            (1, 1, 0): 1, (0, 1, 1): 1, (0, 2, 0): 1, (1, 1, 1): -1,
        })
        assert ONE_PLUS_A * f == want

    def test_no_zero_coefficients(self):
        f = qat({(0, 0, 0): 1})
        g = qat({(0, 0, 0): -1, (1, 0, 0): 2})
        assert (0, 0, 0) not in (f + g).terms

    def test_scale(self):
        f = qat({(1, 0, 0): 1, (0, 0, 0): 1})
        assert f.scale((2, 0, 0), 3) == LaurentPoly(
            {(4, 0, 0): 3, (2, 0, 0): 3})
        assert f.scale((0, 0, 0), 0).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(polys, polys, polys)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_sub_is_add_neg(self, f):
        assert (f - f).is_zero()
        assert -(-f) == f


class TestDivision:
    def test_exact_factor_cancels(self):
        one_minus_q = LaurentPoly({(0, 0, 0): 1, denom_monomial(1): -1})
        quo = divide_one_minus(one_minus_q * ONE_PLUS_A, denom_monomial(1))
        assert quo == ONE_PLUS_A

    def test_not_divisible(self):
        assert divide_one_minus(ONE_PLUS_A, denom_monomial(1)) is None

    @settings(max_examples=60, deadline=None)
    @given(polys)
    def test_multiply_then_divide_round_trip(self, f):
        for i in (1, 2, 3):
            factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(i): -1})
            assert divide_one_minus(factor * f, denom_monomial(i)) == f


class TestDenomVector:
    def test_from_dict_drops_zero(self):
        assert DenomVector.from_dict({1: 2, 2: 0}) == DenomVector(((1, 2),))

    def test_rejects_bad_entries(self):
        with pytest.raises(ValueError):
            DenomVector.from_dict({0: 1})
        with pytest.raises(ValueError):
            DenomVector.from_dict({1: -1})

    def test_merges(self):
        a = DenomVector.from_dict({1: 2})
        b = DenomVector.from_dict({1: 1, 3: 1})
        assert a.merged_max(b).as_dict() == {1: 2, 3: 1}
        assert a.merged_sum(b).as_dict() == {1: 3, 3: 1}


class TestSeries:
    def test_additive_identity(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        assert x + GradedSeries.zero() == x

    def test_cancellation_forces_canonical(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        zero = x + (-x)
        assert zero.is_zero() and zero.den.is_empty()

    def test_denominators_add_under_product(self):
        x = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        sq = x * x
        assert sq.den.as_dict() == {1: 2}
        assert sq.num == ONE_PLUS_A * ONE_PLUS_A

    @settings(max_examples=40, deadline=None)
    @given(polys)
    def test_canonicalize_round_trip(self, f):
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(1): -1})
        s = GradedSeries(factor * f, DenomVector.from_dict({1: 1}))
        assert s == GradedSeries.from_poly(f)
        assert GradedSeries(s.num, s.den) == s

    def test_value_equality_across_representations(self):
        a = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(2): -1})
        b = GradedSeries(ONE_PLUS_A * factor, DenomVector.from_dict({1: 1, 2: 1}))
        assert series_equal(a, b)
        assert a == b  # canonical forms coincide

    def test_expand_geometric(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        want = ONE_PLUS_A * qat({(0, 0, 0): 1, (1, 0, 0): 1, (2, 0, 0): 1})
        assert expand_series(s, 2) == want

    def test_expand_zero(self):
        assert expand_series(GradedSeries.zero(), 5).is_zero()

    def test_expand_agrees_across_representations(self):
        a = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        factor = LaurentPoly({(0, 0, 0): 1, denom_monomial(2): -1})
        b = GradedSeries(ONE_PLUS_A * factor,
                         DenomVector.from_dict({1: 1, 2: 1}),
                         canonical=True)  # deliberately non-canonical value
        assert expand_series(a, 6) == expand_series(b, 6)


class TestUpToMonomial:
    def test_shift_found(self):
        a = GradedSeries.from_poly(T_PLUS_A)
        b = GradedSeries.from_poly(T_PLUS_A.scale(qat_monomial(2, 0, -1)))
        assert equal_up_to_monomial(b, a) == qat_monomial(2, 0, -1)

    def test_no_shift(self):
        assert equal_up_to_monomial(
            GradedSeries.from_poly(T_PLUS_A),
            GradedSeries.from_poly(ONE_PLUS_A)) is None

    def test_zero_cases(self):
        z = GradedSeries.zero()
        x = GradedSeries.from_poly(ONE_PLUS_A)
        assert equal_up_to_monomial(z, z) == (0, 0, 0)
        assert equal_up_to_monomial(z, x) is None


class TestGradingConvert:
    def test_round_trip(self):
        f = qat({(2, 1, -3): 5, (0, 0, 0): 1})
        as_qat = {monomial_to_qat(m): c for m, c in f.terms.items()}
        rebuilt = LaurentPoly.from_qat(as_qat)
        assert rebuilt.sorted_terms() == f.sorted_terms()

    def test_off_lattice_raises(self):
        with pytest.raises(LatticeError):
            for m in LaurentPoly({(1, 0, 0): 1}).terms:
                monomial_to_qat(m)


class TestRender:
    def test_human_simple(self):
        assert render(GradedSeries.from_poly(ONE_PLUS_A), "human") == "1 + a"

    def test_json_bytes(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        assert render(s, "json") == '{"num":[[-2,1,0,1],[0,0,0,1]],"den":[[1,1]]}'

    def test_json_round_trips_terms(self):
        s = GradedSeries(T_PLUS_A, DenomVector.from_dict({2: 3}))
        data = json.loads(render(s, "json"))
        assert data["den"] == [[2, 3]]
        assert LaurentPoly({tuple(row[:3]): row[3] for row in data["num"]}) == s.num

    def test_latex_fraction(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 1}))
        out = render(s, "latex")
        assert out.startswith("\\frac{") and "(1 - q)" in out

    def test_denominator_text(self):
        s = GradedSeries(ONE_PLUS_A, DenomVector.from_dict({1: 2, 2: 1}))
        assert "(1-q)^2" in render(s, "human")
        assert "t^(-1)" in render(s, "human")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            render(GradedSeries.one(), "yaml")
