"""Mutation tests: the probe digest bites on every rule fault.

`test_golden.PROBE_DIGESTS` pins the values of the probe pairs, the
check that keeps a stale cache file from changing an answer.  Each fault
below replaces one rule's combine in `recursion.RULES`, which `_plan`
reads at every step, and evaluates the probe on a fresh table: the digest
must change.  Each fault is one change to a faithful copy of its rule,
and the faithful copies must reproduce the recorded digest, so a fault
differs from the rules in nothing but its change.  Rules 3 and 4 share
one identity step, `recursion._same`, which is their faithful copy; the
walk follows a rule only while its combine is that step, so a fault in
either is planned as a step.  Debug mode is pinned off: its layout bound
would stop some faults before the digest sees them.
"""

import pytest

import torhom.recursion as recursion
import torhom.ring as ring
from test_golden import PROBE, PROBE_DIGESTS, sha256
from torhom.recursion import ENCODER_VERSION, MemoTable, RuleTag, eval_p
from torhom.ring import qat_monomial, series_json
from torhom.sequences import pair_validate


def rule2(dl=0, a=(0, 1, 0)):
    """Rule 2's (t^l + a) child with t^l times t^dl and a replaced by the
    monomial q^i a^j t^k, (i, j, k) = `a`: rule 2 as given by default."""
    return lambda p, vs, _: vs[0].plus_scaled(vs[0], qat_monomial(*a),
                                              qat_monomial(0, 0, p.l - 1 + dl))


def rule5(first=(0, 0), second=(1, 0)):
    """Rule 5 with weights q^i t^(k - l) on p(1v, 1w) and p(0v, 0w), for
    (i, k) = `first` and `second`: rule 5 as given by default."""
    def combine(p, vs, _):
        (i1, k1), (i2, k2) = first, second
        return vs[0].plus_scaled(vs[1], qat_monomial(i2, 0, k2 - p.l),
                                 qat_monomial(i1, 0, k1 - p.l))
    return combine


def all_zeros(i=1):
    """p(1v', 1w') / (1 - q t^(1 - i)); the all-zeros rule at i = 1."""
    return lambda p, vs, _: vs[0].with_extra_denominator({i: 1})


def renaming(times):
    """Rule 3 or 4 with its child's value times the monomial q^i a^j t^k,
    (i, j, k) = `times`."""
    return lambda p, vs, _: vs[0].scale(qat_monomial(*times))


FAITHFUL = {RuleTag.Rule2_bothEndOne: rule2(), RuleTag.Rule5_bothEndZero: rule5(),
            RuleTag.AllZeros: all_zeros(), RuleTag.Rule3_v0w1: recursion._same,
            RuleTag.Rule4_v1w0: recursion._same}

FAULTS = {
    "rule 2: t^l -> t^(l+1)": (RuleTag.Rule2_bothEndOne, rule2(dl=1)),
    "rule 2: a -> qa": (RuleTag.Rule2_bothEndOne, rule2(a=(1, 1, 0))),
    "rule 2: a -> at": (RuleTag.Rule2_bothEndOne, rule2(a=(0, 1, 1))),
    "rule 5: q t^-l -> q t^(1-l)": (RuleTag.Rule5_bothEndZero, rule5(second=(1, 1))),
    "rule 5: weights swapped": (RuleTag.Rule5_bothEndZero,
                                rule5(first=(1, 0), second=(0, 0))),
    "rule 5: second term times qt": (RuleTag.Rule5_bothEndZero, rule5(second=(2, 1))),
    "all-zeros: 1 - q -> 1 - q t^-1": (RuleTag.AllZeros, all_zeros(2)),
    "rule 3: child times q": (RuleTag.Rule3_v0w1, renaming((1, 0, 0))),
    "rule 4: child times a": (RuleTag.Rule4_v1w0, renaming((0, 1, 0))),
}


def install(monkeypatch, combines):
    """Put `combines` in place of their rules' combines, debug mode off."""
    monkeypatch.setattr(ring, "DEBUG_DESCENT", False)
    for tag, combine in combines.items():
        monkeypatch.setitem(recursion.RULES, tag, recursion.RULES[tag]._replace(combine=combine))


def probe_digest(monkeypatch, combines):
    """The digest of the probe's values with `combines` in place of their rules'."""
    install(monkeypatch, combines)
    memo = MemoTable()
    return sha256("\n".join(series_json(eval_p(pair_validate(v, w), memo))
                            for v, w in PROBE).encode())


@pytest.mark.parametrize("combines", [{}, FAITHFUL], ids=["rules", "faithful copies"])
def test_the_rules_reproduce_the_probe(monkeypatch, combines):
    assert probe_digest(monkeypatch, combines) == PROBE_DIGESTS[ENCODER_VERSION]


@pytest.mark.parametrize("fault", FAULTS)
def test_each_fault_changes_the_probe(monkeypatch, fault):
    tag, combine = FAULTS[fault]
    assert probe_digest(monkeypatch, {tag: combine}) != PROBE_DIGESTS[ENCODER_VERSION]


@pytest.mark.parametrize("fault", ["rule 3: child times q", "rule 4: child times a"])
def test_a_renaming_fault_below_the_root_changes_its_value(monkeypatch, fault):
    # the probe's root (10, 0001) is itself of rule 3; T(3,4) is of no
    # renaming rule, but its walk meets both, and must plan a patched one
    root = pair_validate("000", "0000")
    want = series_json(eval_p(root, MemoTable()))
    tag, combine = FAULTS[fault]
    install(monkeypatch, {tag: combine})
    assert series_json(eval_p(root, MemoTable())) != want
