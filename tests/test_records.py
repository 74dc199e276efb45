"""The six value records: construction, equality, hashing, repr text,
properties and validation errors, pinned so that a change of how they are
declared shows here."""

import pytest

from torhom.fillings import AdmissibilityError, Filling, IdentityCheck, SigmaSeq
from torhom.links import DomainError, TorusLinkSpec
from torhom.ring import DenomVector, GradedSeries
from torhom.sequences import SeqPair

CELLS = (("0", "1"), ("0", "*"))
ZERO, ONE = GradedSeries.zero(), GradedSeries.one()

# (class, positional arguments, the same as keywords, a different record, repr)
RECORDS = [
    (SeqPair, ("01", "10"), {"v": "01", "w": "10"}, SeqPair("01", "01"),
     "SeqPair(v='01', w='10')"),
    (DenomVector, (((1, 2),),), {"mult": ((1, 2),)}, DenomVector(((1, 1),)),
     "DenomVector(mult=((1, 2),))"),
    (TorusLinkSpec, (2, 3), {"m": 2, "n": 3}, TorusLinkSpec(3, 2),
     "TorusLinkSpec(m=2, n=3)"),
    (SigmaSeq, (2, (0, 2)), {"r": 2, "entries": (0, 2)}, SigmaSeq(2, (2, 0)),
     "SigmaSeq(r=2, entries=(0, 2))"),
    (Filling, (2, 2, CELLS), {"r": 2, "N": 2, "cells": CELLS},
     Filling(2, 2, (("0", "0"), ("0", "0"))),
     "Filling(r=2, N=2, cells=(('0', '1'), ('0', '*')))"),
    (IdentityCheck, ("L1", (0,), False, ZERO, ONE),
     {"name": "L1", "sigma": (0,), "passed": False, "lhs": ZERO, "rhs": ONE},
     IdentityCheck("L1", (0,), True, ONE, ONE),
     f"IdentityCheck(name='L1', sigma=(0,), passed=False, lhs={ZERO!r}, rhs={ONE!r})"),
]
IDS = [r[0].__name__ for r in RECORDS]


@pytest.mark.parametrize("cls, args, kwargs, other, text", RECORDS, ids=IDS)
def test_construction_equality_and_repr(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != args  # a record is not a tuple of its fields
    assert repr(a) == repr(b) == text
    for name, value in kwargs.items():
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls, args, kwargs, other, text",
                         [r for r in RECORDS if r[0] is not IdentityCheck],
                         ids=[i for i in IDS if i != "IdentityCheck"])
def test_equal_records_hash_equal(cls, args, kwargs, other, text):
    assert hash(cls(*args)) == hash(cls(**kwargs))
    assert len({cls(*args), cls(**kwargs), other}) == 2


def test_equal_fields_of_another_class_are_not_equal():
    class Shifted(TorusLinkSpec):
        pass

    assert Shifted(2, 3) != TorusLinkSpec(2, 3) and TorusLinkSpec(2, 3) != Shifted(2, 3)
    assert Shifted(2, 3) == Shifted(2, 3)


def test_identity_check_is_not_hashable():
    with pytest.raises(TypeError):
        hash(IdentityCheck("L1", (0,), True, ZERO, ZERO))


def test_default_denominator_is_empty():
    assert DenomVector() == DenomVector(()) == DenomVector.from_dict({})
    assert repr(DenomVector()) == "DenomVector(mult=())" and DenomVector().is_empty()


def test_seq_pair_properties():
    p = SeqPair("0110", "101")
    assert (p.l, p.m, p.n) == (2, 2, 1)
    assert p.key() == "0110|101"
    assert SeqPair("", "").key() == "|"


@pytest.mark.parametrize("build, error, match", [
    (lambda: TorusLinkSpec(0, 5), DomainError, r"positive torus links only, got T\(0,5\)"),
    (lambda: TorusLinkSpec(m=3, n=-1), DomainError, r"got T\(3,-1\)"),
    (lambda: SigmaSeq(2, (3,)), ValueError, r"sigma entry 3 outside \[0, 2\]"),
    (lambda: SigmaSeq(0, ()), ValueError, "r must be positive"),
    (lambda: Filling(2, 2, (("0", "1"),)), AdmissibilityError, "grid shape mismatch"),
    (lambda: Filling(2, 1, (("0",), ("0", "0"))), AdmissibilityError, "grid shape mismatch"),
    (lambda: Filling(2, 1, (("1",), ("0",))), AdmissibilityError, "column 1 is not admissible"),
], ids=["torus-zero", "torus-negative", "sigma-entry", "sigma-r", "filling-rows",
        "filling-columns", "filling-column"])
def test_validation_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()
