"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single pass/fail
line on the real stdout, so the verdict is visible even under pytest's
output capture.
"""

import sys
import time

import pytest

import conftest
from torhom import checks, links, reference
from torhom.fillings import SigmaSeq, v_of_sigma, w_of_sigma
from torhom.recursion import MemoTable, eval_p
from torhom.ring import equal_up_to_monomial, series_equal
from torhom.sequences import pair_validate


def report(num, label, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    print(line, file=sys.__stdout__, flush=True)
    conftest.CRITERION_LINES.append(line)
    assert ok, f"criterion {num}: {label}"


@pytest.fixture(scope="module")
def acc_memo():
    return MemoTable()


def test_criterion_01_t46_regression(acc_memo):
    t0 = time.monotonic()
    got = links.torus_link_homology(links.TorusLinkSpec(4, 6), acc_memo)
    elapsed = time.monotonic() - t0
    ok = series_equal(got, reference.t46_series()) and elapsed < 1.0
    report(1, f"T(4,6) matches the tabulated series ({elapsed:.2f}s)", ok)


def test_criterion_02_colored_unknot(acc_memo):
    t0 = time.monotonic()
    ok = all(
        series_equal(links.colored_torus_homology(1, 1, l, "theorem", acc_memo),
                     reference.colored_unknot_series(l))
        for l in range(1, 7))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(2, f"colored unknot closed form, l = 1..6 ({elapsed:.2f}s)", ok)


def test_criterion_03_colored_trefoil(acc_memo):
    # resolution protocol: compute both sequence orderings with the
    # global prefactor and accept if either matches the display up to a
    # monomial; the ones-first ordering is the one that matches, with
    # the identity shift
    t0 = time.monotonic()
    display = reference.colored_trefoil_display()
    shifts = {
        order: equal_up_to_monomial(
            links.colored_torus_homology(2, 3, 2, order, acc_memo), display)
        for order in ("theorem", "example")
    }
    elapsed = time.monotonic() - t0
    ok = shifts["theorem"] == (0, 0, 0) and elapsed < 1.0
    report(3, f"colored trefoil display matched, shifts={shifts} ({elapsed:.2f}s)", ok)


def test_criterion_04_sigma_example():
    sig = SigmaSeq.of(reference.SIGMA_EXAMPLE_R, reference.SIGMA_EXAMPLE)
    ok = (v_of_sigma(sig) == reference.SIGMA_EXAMPLE_V
          and w_of_sigma(sig) == reference.SIGMA_EXAMPLE_W)
    report(4, "sigma (3,0,1,5) over r=5 gives v=1110, w=010000100100", ok)


def test_criterion_05_symmetry(acc_memo):
    results = checks.suite_symmetry(memo=acc_memo)
    ok = all(passed for _, passed, _ in results)
    report(5, "p(v,w) = p(w,v): exhaustive len<=10 plus 200 seeded random", ok)


def test_criterion_06_unknot_family(acc_memo):
    results = checks.suite_unknot_family(memo=acc_memo)
    ok = all(passed for _, passed, _ in results)
    report(6, "p(0^m, 0) = (1+a)/(1-q) for m = 1..12", ok)


def test_criterion_07_positivity(acc_memo):
    results = checks.suite_positivity(memo=acc_memo)
    ok = all(passed for _, passed, _ in results)
    report(7, "expansions to q-degree 12 are nonnegative", ok)


def test_criterion_08_parity(acc_memo):
    results = checks.suite_parity(memo=acc_memo)
    ok = all(passed for _, passed, _ in results)
    # structural sweep over everything the earlier criteria computed
    ok = ok and all(value.num.has_even_t() for value in acc_memo.values())
    report(8, f"even T-exponent on all {len(acc_memo)} cached values", ok)


def test_criterion_09_lemma_identities(acc_memo):
    results = checks.suite_lemma53(memo=acc_memo)
    ok = all(passed for _, passed, _ in results)
    report(9, "comparison identities: exhaustive r<=3, N<=4 plus 100 random", ok)


def test_criterion_10_filling_round_trips():
    results = checks.suite_roundtrip()
    ok = all(passed for _, passed, _ in results)
    report(10, "filling round-trips and rotation rules, r<=4, N<=5", ok)


def test_criterion_11_performance():
    budgets = [(6, 1.0), (8, 10.0), (10, 120.0)]
    timings = []
    ok = True
    for n, budget in budgets:
        memo = MemoTable()
        t0 = time.monotonic()
        eval_p(pair_validate("0" * n, "0" * n), memo)
        elapsed = time.monotonic() - t0
        timings.append(f"T({n},{n}) {elapsed:.2f}s/{budget:.0f}s "
                       f"entries={len(memo)} hits={memo.hits} "
                       f"misses={memo.misses}")
        ok = ok and elapsed < budget
    report(11, "; ".join(timings), ok)
