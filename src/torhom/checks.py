"""Batch verification suites shared by the CLI and the test harness.

Each suite returns a list of (case-name, passed, detail) triples so the
CLI can print one line per case and exit nonzero on any failure.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable, Iterator, List, Optional, Tuple

from . import fillings, links, reference
from .recursion import MemoTable, eval_p
from .ring import GradedSeries, equal_up_to_monomial, expand_series, series_equal
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
    v, w = fillings.v_of_sigma(sig), fillings.w_of_sigma(sig)
    ok = (v, w) == (reference.SIGMA_EXAMPLE_V, reference.SIGMA_EXAMPLE_W)
    out.append(("sigma example v/w", ok, f"v={v} w={w}"))
    return out


def _tally(summary: str, cases: Iterable[Tuple[str, bool]], detail: str = "") -> List[CheckResult]:
    """A failed result for each failing (name, ok) case, then the block's
    summary, passed iff no case failed; {n} in `summary` is the case count."""
    cases = list(cases)
    failed = [(name, False, detail) for name, ok in cases if not ok]
    return failed + [(summary.format(n=len(cases)), not failed, "")]


def _torus_links(memo: MemoTable) -> Iterator[Tuple[str, GradedSeries]]:
    for m in range(1, TORUS_MAX + 1):
        for n in range(1, TORUS_MAX + 1):
            yield f"T({m},{n})", links.torus_link_homology(links.TorusLinkSpec(m, n), memo)


def _sigmas(r_max: int, length: int) -> Iterator[Tuple[int, Tuple[int, ...]]]:
    """Every (r, sigma) with r <= r_max and sigma of length <= `length`."""
    for r in range(1, r_max + 1):
        for n in range(0, length + 1):
            for sigma in itertools.product(range(r + 1), repeat=n):
                yield r, sigma


def suite_symmetry(length: int = 10, seed: int = 0,
                   memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo

    def cases(kind: str, pairs: Iterable[SeqPair]) -> Iterator[Tuple[str, bool]]:
        for pair in pairs:
            yield (f"symmetry {kind}{pair.v}|{pair.w}",
                   eval_p(pair, memo) == eval_p(SeqPair(pair.w, pair.v), memo))

    rng = random.Random(seed)
    deep = (("0" * 11, "0" * 9), ("0" * 12, "0" * 10), ("10" * 6, "0" * 10 + "1" * 6))
    return (_tally(f"symmetry exhaustive len<={length} ({{n}} pairs)",
                   cases("", _valid_pairs(length, max_total=length)), "p(v,w) != p(w,v)")
            + _tally(f"symmetry random x{SYMMETRY_RANDOM_COUNT} seed={seed}",
                     cases("random ", (_random_pair(rng, SYMMETRY_RANDOM_MAX_LEN)
                                       for _ in range(SYMMETRY_RANDOM_COUNT))))
            + _tally("symmetry deep zero-heavy probes",
                     cases("deep ", (SeqPair(v, w) for v, w in deep))))


def suite_positivity(length: int = 6, depth: int = 12,
                     memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo

    def cases(named: Iterable[Tuple[str, GradedSeries]]) -> Iterator[Tuple[str, bool]]:
        for name, series in named:
            yield (f"positivity {name}",
                   all(c >= 0 for c in expand_series(series, depth).terms.values()))

    return (_tally(f"positivity pairs len<={length} depth={depth} ({{n}} pairs)",
                   cases((f"{p.v}|{p.w}", eval_p(p, memo)) for p in _valid_pairs(length)))
            + _tally(f"positivity torus m,n<={TORUS_MAX}", cases(_torus_links(memo))))


def suite_parity(length: int = 6, memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo
    even = [s.num.has_even_t() for s in itertools.chain(
        (eval_p(pair, memo) for pair in _valid_pairs(length)),
        (series for _, series in _torus_links(memo)))]
    bad = sum(not ok for ok in even)
    return [(f"even T-exponent on {len(even)} values", bad == 0, f"{bad} violations")]


def suite_lemma53(r_max: int = 3, length: int = 4, seed: int = 0,
                  memo: Optional[MemoTable] = None) -> List[CheckResult]:
    memo = MemoTable() if memo is None else memo

    def cases(kind: str, sigmas: Iterable[Tuple[int, Tuple[int, ...]]]):
        for r, sigma in sigmas:
            for check in fillings.verify_lemma53(r, sigma, memo):
                yield f"lemma53 {kind}r={r} sigma={sigma} {check.name}", check.passed

    def random_sigmas(rng: random.Random) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        for _ in range(LEMMA53_RANDOM_COUNT):
            r = rng.randint(1, LEMMA53_RANDOM_R_MAX)
            n = rng.randint(0, LEMMA53_RANDOM_LEN_MAX)
            yield r, tuple(rng.randint(0, r) for _ in range(n))

    return (_tally(f"lemma53 exhaustive r<={r_max} N<={length} ({{n}} identities)",
                   cases("", _sigmas(r_max, length)))
            + _tally(f"lemma53 random x{LEMMA53_RANDOM_COUNT} seed={seed}",
                     cases("random ", random_sigmas(random.Random(seed)))))


def suite_roundtrip(r_max: int = 4, length: int = 5) -> List[CheckResult]:
    cases = [(sig, fillings.filling_from_sigma(sig)) for sig in
             (fillings.SigmaSeq.of(r, sigma) for r, sigma in _sigmas(r_max, length))]
    bad_sigma = sum(fillings.sigma_from_filling(filling) != sig for sig, filling in cases)
    bad_w = sum(not _w_rebuilds(sig, filling) for sig, filling in cases)
    bad_rot = sum(not _rotation_matches(sig, filling) for sig, filling in cases if sig.entries)
    return [(f"sigma->filling->sigma r<={r_max} N<={length} ({len(cases)} cases)",
             bad_sigma == 0, ""),
            ("sigma->w->filling->sigma", bad_w == 0, f"{bad_w} failures"),
            ("rotation matches sequence rules", bad_rot == 0, f"{bad_rot} failures")]


def _w_rebuilds(sig: fillings.SigmaSeq, filling: fillings.Filling) -> bool:
    try:
        return fillings.filling_from_w(sig.r, sig.N, fillings.w_of_sigma(sig)) == filling
    except fillings.ReconstructionError:  # a readout that cannot be rebuilt fails
        return False


def _rotation_matches(sig: fillings.SigmaSeq, filling: fillings.Filling) -> bool:
    r = sig.r
    head, last = sig.entries[:-1], sig.entries[-1]
    if last < r:
        got = fillings.sigma_from_filling(fillings.rotate(filling))
        return got.entries == (head if last == 0 else (last - 1,) + head)
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
