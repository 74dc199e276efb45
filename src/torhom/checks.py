"""Batch verification suites shared by the CLI and the test harness.

Each suite returns a list of (case-name, passed, detail) triples so the
CLI can print one line per case and exit nonzero on any failure.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, List, Optional, Tuple

from . import fillings, links, reference
from .recursion import MemoTable, eval_p
from .ring import equal_up_to_monomial, expand_series, series_equal
from .sequences import SeqPair, pair_validate

CheckResult = Tuple[str, bool, str]

# sizes no caller varies; the command-line flags set only the suites' arguments
SYMMETRY_RANDOM_COUNT = 200
SYMMETRY_RANDOM_MAX_LEN = 16
TORUS_MAX = 6  # positivity and parity also run T(m,n), m, n <= TORUS_MAX
LEMMA53_RANDOM_COUNT = 100
LEMMA53_RANDOM_R_MAX = 5
LEMMA53_RANDOM_LEN_MAX = 6
UNKNOT_M_MAX = 12


def _valid_pairs(max_len: int, max_total: Optional[int] = None) -> Iterable[SeqPair]:
    for a in range(max_len + 1):
        for b in range(max_len + 1):
            if max_total is not None and a + b > max_total:
                continue
            for v_bits in itertools.product("01", repeat=a):
                v = "".join(v_bits)
                lv = v.count("1")
                for w_bits in itertools.product("01", repeat=b):
                    w = "".join(w_bits)
                    if w.count("1") == lv:
                        yield SeqPair(v, w)


def _random_pair(rng: random.Random, max_len: int,
                 max_zeros: int = 16) -> SeqPair:
    # evaluation cost grows exponentially in the zero count, so cap it
    a = rng.randint(0, max_len)
    b = rng.randint(0, max_len)
    l_min = max(0, (a + b - max_zeros + 1) // 2)
    l = rng.randint(l_min, min(a, b))
    v = ["0"] * a
    for i in rng.sample(range(a), l):
        v[i] = "1"
    w = ["0"] * b
    for i in rng.sample(range(b), l):
        w[i] = "1"
    return SeqPair("".join(v), "".join(w))


def suite_paper_values(memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    out: List[CheckResult] = []

    got = links.torus_link_homology(links.TorusLinkSpec(4, 6), memo)
    out.append(("T(4,6) tabulated series", series_equal(got, reference.t46_series()), ""))

    for l in range(1, 5):
        got = links.colored_torus_homology(1, 1, l, "theorem", memo)
        ok = series_equal(got, reference.colored_unknot_series(l))
        out.append((f"colored unknot l={l}", ok, ""))

    shift = equal_up_to_monomial(links.colored_torus_homology(2, 3, 2, "theorem", memo),
                                 reference.colored_trefoil_display())
    out.append(("colored trefoil equals the display", shift == (0, 0, 0),
                f"shift={shift}" if shift is not None else "no match"))

    sig = fillings.SigmaSeq.of(reference.SIGMA_EXAMPLE_R, reference.SIGMA_EXAMPLE)
    ok = (fillings.v_of_sigma(sig) == reference.SIGMA_EXAMPLE_V
          and fillings.w_of_sigma(sig) == reference.SIGMA_EXAMPLE_W)
    out.append(("sigma example v/w", ok,
                f"v={fillings.v_of_sigma(sig)} w={fillings.w_of_sigma(sig)}"))
    return out


def suite_symmetry(length: int = 10, seed: int = 0,
                   memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    out: List[CheckResult] = []
    bad = 0
    total = 0
    for pair in _valid_pairs(length, max_total=length):
        total += 1
        lhs = eval_p(pair, memo)
        rhs = eval_p(SeqPair(pair.w, pair.v), memo)
        if lhs != rhs:
            bad += 1
            out.append((f"symmetry {pair.v}|{pair.w}", False, "p(v,w) != p(w,v)"))
    out.append((f"symmetry exhaustive len<={length} ({total} pairs)", bad == 0, ""))
    rng = random.Random(seed)
    bad = 0
    for _ in range(SYMMETRY_RANDOM_COUNT):
        pair = _random_pair(rng, SYMMETRY_RANDOM_MAX_LEN)
        if eval_p(pair, memo) != eval_p(SeqPair(pair.w, pair.v), memo):
            bad += 1
            out.append((f"symmetry random {pair.v}|{pair.w}", False, ""))
    out.append((f"symmetry random x{SYMMETRY_RANDOM_COUNT} seed={seed}", bad == 0, ""))
    bad = 0
    for v, w in (("0" * 11, "0" * 9), ("0" * 12, "0" * 10), ("10" * 6, "0" * 10 + "1" * 6)):
        if eval_p(SeqPair(v, w), memo) != eval_p(SeqPair(w, v), memo):
            bad += 1
            out.append((f"symmetry deep {v}|{w}", False, ""))
    out.append(("symmetry deep zero-heavy probes", bad == 0, ""))
    return out


def suite_positivity(length: int = 6, depth: int = 12,
                     memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    out: List[CheckResult] = []
    bad = 0
    total = 0
    for pair in _valid_pairs(length):
        total += 1
        expanded = expand_series(eval_p(pair, memo), depth)
        if any(c < 0 for c in expanded.terms.values()):
            bad += 1
            out.append((f"positivity {pair.v}|{pair.w}", False, ""))
    out.append((f"positivity pairs len<={length} depth={depth} ({total} pairs)", bad == 0, ""))
    bad = 0
    for m in range(1, TORUS_MAX + 1):
        for n in range(1, TORUS_MAX + 1):
            expanded = expand_series(
                links.torus_link_homology(links.TorusLinkSpec(m, n), memo), depth)
            if any(c < 0 for c in expanded.terms.values()):
                bad += 1
                out.append((f"positivity T({m},{n})", False, ""))
    out.append((f"positivity torus m,n<={TORUS_MAX}", bad == 0, ""))
    return out


def suite_parity(length: int = 6, memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    bad = 0
    total = 0
    for pair in _valid_pairs(length):
        total += 1
        if not eval_p(pair, memo).num.has_even_t():
            bad += 1
    for m in range(1, TORUS_MAX + 1):
        for n in range(1, TORUS_MAX + 1):
            total += 1
            if not links.torus_link_homology(links.TorusLinkSpec(m, n), memo).num.has_even_t():
                bad += 1
    return [(f"even T-exponent on {total} values", bad == 0, f"{bad} violations")]


def suite_lemma53(r_max: int = 3, length: int = 4, seed: int = 0,
                  memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    out: List[CheckResult] = []
    bad = 0
    total = 0
    for r in range(1, r_max + 1):
        for n in range(0, length + 1):
            for sigma in itertools.product(range(r + 1), repeat=n):
                for check in fillings.verify_lemma53(r, sigma, memo):
                    total += 1
                    if not check.passed:
                        bad += 1
                        out.append((f"lemma53 r={r} sigma={sigma} {check.name}", False, ""))
    out.append((f"lemma53 exhaustive r<={r_max} N<={length} ({total} identities)", bad == 0, ""))
    rng = random.Random(seed)
    bad = 0
    for _ in range(LEMMA53_RANDOM_COUNT):
        r = rng.randint(1, LEMMA53_RANDOM_R_MAX)
        n = rng.randint(0, LEMMA53_RANDOM_LEN_MAX)
        sigma = tuple(rng.randint(0, r) for _ in range(n))
        for check in fillings.verify_lemma53(r, sigma, memo):
            if not check.passed:
                bad += 1
                out.append((f"lemma53 random r={r} sigma={sigma} {check.name}", False, ""))
    out.append((f"lemma53 random x{LEMMA53_RANDOM_COUNT} seed={seed}", bad == 0, ""))
    return out


def suite_roundtrip(r_max: int = 4, length: int = 5) -> List[CheckResult]:
    out: List[CheckResult] = []
    bad_sigma = bad_w = bad_rot = 0
    total = 0
    for r in range(1, r_max + 1):
        for n in range(0, length + 1):
            for entries in itertools.product(range(r + 1), repeat=n):
                total += 1
                sig = fillings.SigmaSeq.of(r, entries)
                filling = fillings.filling_from_sigma(sig)
                if fillings.sigma_from_filling(filling) != sig:
                    bad_sigma += 1
                if fillings.filling_from_w(r, n, fillings.w_of_sigma(sig)) != filling:
                    bad_w += 1
                if n >= 1 and not _rotation_matches(sig):
                    bad_rot += 1
    out.append((f"sigma->filling->sigma r<={r_max} N<={length} ({total} cases)", bad_sigma == 0, ""))
    out.append(("sigma->w->filling->sigma", bad_w == 0, f"{bad_w} failures"))
    out.append(("rotation matches sequence rules", bad_rot == 0, f"{bad_rot} failures"))
    return out


def _rotation_matches(sig: fillings.SigmaSeq) -> bool:
    filling = fillings.filling_from_sigma(sig)
    r = sig.r
    head, last = sig.entries[:-1], sig.entries[-1]
    if last == 0:
        got = fillings.sigma_from_filling(fillings.rotate(filling))
        return got.entries == head
    if last < r:
        got = fillings.sigma_from_filling(fillings.rotate(filling))
        return got.entries == (last - 1,) + head
    f0, f1 = fillings.rotate_both(filling)
    return (fillings.sigma_from_filling(f0).entries == (r,) + head
            and fillings.sigma_from_filling(f1).entries == (r - 1,) + head)


def suite_unknot_family(memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    expected = eval_p(pair_validate("0", "0"), memo)
    out: List[CheckResult] = []
    for m in range(1, UNKNOT_M_MAX + 1):
        got = eval_p(pair_validate("0" * m, "0"), memo)
        out.append((f"p(0^{m}, 0) = (1+a)/(1-q)", got == expected, ""))
    return out


SUITES = {
    "paper-values": suite_paper_values,
    "symmetry": suite_symmetry,
    "positivity": suite_positivity,
    "parity": suite_parity,
    "lemma53": suite_lemma53,
    "roundtrip": suite_roundtrip,
    "unknot-family": suite_unknot_family,
}
