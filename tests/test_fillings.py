import itertools
import random

import pytest

import torhom.fillings as fillings
import torhom.recursion as recursion
import torhom.ring as ring
from torhom.checks import suite_lemma53
from torhom.fillings import (
    AdmissibilityError,
    FillArgError,
    Filling,
    ReconstructionError,
    SigmaSeq,
    c_statistic,
    f_sigma,
    filling_from_sigma,
    filling_from_w,
    g_sigma,
    rev,
    rotate,
    rotate_both,
    seq_pair_of_sigma,
    sigma_from_filling,
    v_of_sigma,
    verify_lemma53,
    w_of_sigma,
)
from torhom.links import TorusLinkSpec, torus_link_homology
from torhom.recursion import MemoTable, RuleTag, eval_p
from torhom.ring import GradedSeries, LaurentPoly
from torhom.sequences import inversions, pair_validate

ONE_PLUS_A = LaurentPoly.from_qat({(0, 0, 0): 1, (0, 1, 0): 1})


def all_sigmas(r_max, n_max):
    for r in range(1, r_max + 1):
        for n in range(n_max + 1):
            for entries in itertools.product(range(r + 1), repeat=n):
                yield SigmaSeq.of(r, entries)


class TestSigmaSeq:
    def test_entry_range(self):
        with pytest.raises(ValueError):
            SigmaSeq.of(2, (3,))
        with pytest.raises(ValueError):
            SigmaSeq.of(0, ())

    def test_worked_example(self):
        sig = SigmaSeq.of(5, (3, 0, 1, 5))
        assert v_of_sigma(sig) == "1110"
        assert w_of_sigma(sig) == "010000100100"
        assert inversions(sig.entries) == 2
        assert c_statistic(sig) == 7
        assert rev(sig).entries == (5, 1, 0, 3)

    def test_worked_example_grid(self):
        grid = filling_from_sigma(SigmaSeq.of(5, (3, 0, 1, 5)))
        assert grid.ascii() == "\n".join([
            "0100",
            "0*10",
            "0**0",
            "1**0",
            "***0",
        ])

    def test_weight_balance(self):
        for sig in all_sigmas(4, 4):
            seq_pair_of_sigma(sig)  # raises on weight mismatch

    def test_r1_degeneracy(self):
        for sig in all_sigmas(1, 6):
            if sig.r == 1:
                assert w_of_sigma(sig) == v_of_sigma(sig)


class TestFillingValidation:
    def test_shape_mismatch(self):
        with pytest.raises(AdmissibilityError):
            Filling(2, 2, (("0", "0"),))

    def test_bad_column(self):
        # a one above a zero is not admissible
        with pytest.raises(AdmissibilityError):
            Filling(2, 1, (("1",), ("0",)))

    def test_stars_must_follow_one(self):
        with pytest.raises(AdmissibilityError):
            Filling(2, 1, (("*",), ("1",)))


class TestRoundTrips:
    def test_sigma_filling_sigma(self):
        for sig in all_sigmas(4, 5):
            assert sigma_from_filling(filling_from_sigma(sig)) == sig

    def test_sigma_w_filling_sigma(self):
        # the readout taken straight off sigma rebuilds sigma's own grid
        for sig in all_sigmas(4, 5):
            grid = filling_from_sigma(sig)
            assert filling_from_w(sig.r, sig.N, w_of_sigma(sig)) == grid
            assert [c == "1" for c in v_of_sigma(sig)] == \
                ["1" in grid.column(j) for j in range(sig.N)]

    def test_w_rejects_wrong_length(self):
        with pytest.raises(ReconstructionError):
            filling_from_w(2, 2, "0")
        with pytest.raises(ReconstructionError):
            filling_from_w(1, 1, "00")
        with pytest.raises(ReconstructionError):
            filling_from_w(1, 1, "x")


class TestRotation:
    def test_case1_drops_column(self):
        # last column topped by a one: the column disappears
        grid = filling_from_sigma(SigmaSeq.of(2, (1, 0)))
        assert sigma_from_filling(rotate(grid)).entries == (1,)

    def test_case2_moves_one_up(self):
        grid = filling_from_sigma(SigmaSeq.of(3, (0, 2)))
        assert sigma_from_filling(rotate(grid)).entries == (1, 0)

    def test_case3_needs_fill(self):
        grid = filling_from_sigma(SigmaSeq.of(2, (0, 2)))
        with pytest.raises(FillArgError):
            rotate(grid)
        f0, f1 = rotate_both(grid)
        assert sigma_from_filling(f0).entries == (2, 0)
        assert sigma_from_filling(f1).entries == (1, 0)

    def test_fill_rejected_when_occupied(self):
        grid = filling_from_sigma(SigmaSeq.of(2, (0, 1)))
        with pytest.raises(FillArgError):
            rotate(grid, fill=0)
        grid = filling_from_sigma(SigmaSeq.of(2, (0, 0)))
        with pytest.raises(FillArgError):
            rotate(grid, fill=1)

    def test_empty_grid(self):
        with pytest.raises(FillArgError):
            rotate(filling_from_sigma(SigmaSeq.of(2, ())))


class TestStatistics:
    def test_c_examples(self):
        assert c_statistic(SigmaSeq.of(5, (3, 0, 1, 5))) == 7
        assert c_statistic(SigmaSeq.of(1, ())) == 0
        # all entries maximal: pure pair-count contribution
        assert c_statistic(SigmaSeq.of(2, (2, 2, 2))) == 2 * 3


class TestSeriesValues:
    def test_f_of_single_occupied_column(self, memo):
        # a single column with the one in the top row gives p(1,1) = 1 + a
        for r in (1, 2, 3):
            got = f_sigma(SigmaSeq.of(r, (0,)), memo)
            assert got == GradedSeries.from_poly(ONE_PLUS_A)

    def test_f_matches_recursion(self, memo):
        sig = SigmaSeq.of(2, (1, 2, 0))
        assert f_sigma(sig, memo) == eval_p(pair_validate(
            v_of_sigma(sig), w_of_sigma(sig)), memo)

    def test_g_appends_zero(self, memo):
        sig = SigmaSeq.of(2, (1, 2))
        assert g_sigma(sig, memo) == eval_p(pair_validate(
            v_of_sigma(sig), w_of_sigma(sig) + "0"), memo)

    def test_g_validates_its_pair_once(self, memo, monkeypatch):
        calls = []

        def counting(v, w):
            calls.append((v, w))
            return pair_validate(v, w)

        monkeypatch.setattr(fillings, "pair_validate", counting)
        sig = SigmaSeq.of(5, (3, 0, 1, 5))
        g_sigma(sig, memo)
        assert calls == [(v_of_sigma(sig), w_of_sigma(sig))]


class TestIdentities:
    def test_r1_exhaustive(self, memo):
        for entries in itertools.product(range(2), repeat=3):
            for check in verify_lemma53(1, entries, memo):
                assert check.passed, (check.name, entries)

    def test_r2_exhaustive(self, memo):
        for entries in itertools.product(range(3), repeat=3):
            for check in verify_lemma53(2, entries, memo):
                assert check.passed, (check.name, entries)

    def test_empty_sigma(self, memo):
        results = {c.name: c for c in verify_lemma53(3, (), memo)}
        l1 = results["L1"]
        assert l1.passed
        # f((0)) over the empty sequence is (t^0 + a) * 1 = 1 + a
        assert l1.lhs == GradedSeries.from_poly(ONE_PLUS_A)

    def test_a_rule2_fault_fails_the_t_plus_a_identities(self, monkeypatch):
        # L1 and K1a multiply by t^l + a through rule 2's own helper; a rule 2
        # that multiplies by t^{l+1} + a must still fail exactly those checks;
        # debug mode would stop the faulty rule earlier, at its layout bound
        monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
        rule2 = recursion.RULES[RuleTag.Rule2_bothEndOne]
        wrong = rule2._replace(combine=lambda pair, values, _: values[0].times_t_plus_a(pair.l))
        monkeypatch.setitem(recursion.RULES, RuleTag.Rule2_bothEndOne, wrong)
        failed = [c.name for c in verify_lemma53(2, (0, 1)) if not c.passed]
        assert failed == ["L1", "K1a[k=1]", "K1a[k=0]"]

    def test_check_lemma53_random_block_draws_the_wider_scan(self, monkeypatch):
        # the 100 sigmas of random.Random(0) at r <= 6 and N <= 7, drawn r, then N,
        # then the entries, written out so that a change to the suite's draws fails here
        rng = random.Random(0)
        want = []
        for _ in range(100):
            r = rng.randint(1, 6)
            n = rng.randint(0, 7)
            want.append((r, tuple(rng.randint(0, r) for _ in range(n))))
        seen = []

        def recording(r, sigma, memo=None):
            checks = verify_lemma53(r, sigma, memo)
            seen.append((r, sigma, len(checks)))
            return checks

        monkeypatch.setattr(fillings, "verify_lemma53", recording)
        results = suite_lemma53(r_max=1, length=0)
        assert [line for line, _, _ in results] == [
            "lemma53 exhaustive r<=1 N<=0 (5 identities)", "lemma53 random x100 seed=0"]
        assert all(passed for _, passed, _ in results)
        assert seen[0] == (1, (), 5)  # the exhaustive block's one sigma
        assert [(r, sigma) for r, sigma, _ in seen[1:]] == want
        assert sum(count for _, _, count in seen[1:]) == 1268

    def test_no_product_of_two_series_is_formed(self, monkeypatch):
        want = torus_link_homology(TorusLinkSpec(6, 6), MemoTable())

        def refuse(*args):
            raise AssertionError("a product of two numerators")

        monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
        monkeypatch.setattr(GradedSeries, "__mul__", refuse)
        assert all(c.passed for c in verify_lemma53(3, (0, 1, 3)))
        assert torus_link_homology(TorusLinkSpec(6, 6), MemoTable()) == want
