"""Memoized evaluation of the graded-rank recursion on sequence pairs.

The evaluator plans a query with one walk on an explicit work stack
(pairs a few hundred bits long must not hit Python's recursion limit),
then combines along the plan, and caches canonical series keyed by the
pair verbatim.  The symmetry p(v,w) = p(w,v) is a theorem under test,
so keys are never canonicalized across the swap.

`classify_rule` picks a pair's rule; `RULES` gives, for each rule, the
pairs its value depends on and the step that combines their values;
`query_layout` sizes the packed numerators of one query.  The plan keeps
each pair's key and its children's, so the combine loop reads and evicts
by key, and each rule's combine is one ring call.  Rules 3 and 4 only
rename a pair, handing their one child's value on: the walk follows them
to the pair whose value they hand on, so a renaming is never a step and
never an entry, unless it is a query's root.
"""

from __future__ import annotations

import hashlib
import os
import time
from enum import Enum
from math import comb, gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from . import ring
from .ring import (
    DenomVector,
    GradedSeries,
    LaurentPoly,
    decode_numerator,
    encode_numerator,
)
from .sequences import SeqPair, pair_strictly_precedes, pair_validate

ENCODER_VERSION = "torhom-series-packed-3"


class RuleTag(Enum):
    BaseEmptyLeft = "base-empty-left"
    BaseEmptyRight = "base-empty-right"
    Rule2_bothEndOne = "rule2"
    Rule3_v0w1 = "rule3"
    Rule4_v1w0 = "rule4"
    Rule5_bothEndZero = "rule5"
    AllZeros = "all-zeros"

    __hash__ = object.__hash__  # members are singletons; Enum's hash is Python code


def classify_rule(p: SeqPair) -> RuleTag:
    v, w = p.v, p.w
    if not v:
        return RuleTag.BaseEmptyLeft
    if not w:
        return RuleTag.BaseEmptyRight
    if v[-1] == "1":
        return RuleTag.Rule2_bothEndOne if w[-1] == "1" else RuleTag.Rule4_v1w0
    if w[-1] == "1":
        return RuleTag.Rule3_v0w1
    return RuleTag.Rule5_bothEndZero if "1" in v or "1" in w else RuleTag.AllZeros


Layout = Tuple[int, int]  # (t-slots, a-slots) of every numerator in one query


def query_layout(pair: SeqPair) -> Layout:
    """Slots that hold every numerator the recursion builds below `pair`.

    With M = len(v) and N = len(w): te = (MN - M - N + gcd(M, N))/2 + 1
    t-cells (1 when either sequence is empty) and ae = max(M, N) + 1
    a-cells.  The bound is measured, not proved: it is exact for T(n,n)
    and for the all-ones pairs (l ones on each side), and it held for
    every numerator of random pairs with up to 5 ones and 7 zeros a side;
    for the algebra behind it see Gorsky-Oblomkov-Rasmussen-Shende,
    arXiv:1207.4523.  Both extents are nondecreasing in M and N, and no
    rule lengthens a sequence, so the root's bound covers every pair
    below it.  A bound that is too small costs repacks, never an answer.
    """
    m, n = len(pair.v), len(pair.w)
    te = (m * n - m - n + gcd(m, n)) // 2 + 1 if m and n else 1
    return te, max(m, n) + 1


def _base_case(pair: SeqPair, values: List[GradedSeries], layout: Layout) -> GradedSeries:
    """(1 + a)^n / (1 - q)^n, n the length of the sequence that is not empty."""
    n = len(pair.v) + len(pair.w)
    num = LaurentPoly.from_qat({(0, j, 0): comb(n, j) for j in range(n + 1)}, layout)
    return GradedSeries(num, DenomVector.from_dict({1: n}))


def _rule2(pair: SeqPair, values: List[GradedSeries], layout: Layout) -> GradedSeries:
    return values[0].times_t_plus_a(pair.v.count("1") - 1)


def _same(pair: SeqPair, values: List[GradedSeries], layout: Layout) -> GradedSeries:
    """Rules 3 and 4: the pair's value is its one child's."""
    return values[0]


def _all_zeros(pair: SeqPair, values: List[GradedSeries], layout: Layout) -> GradedSeries:
    return values[0].with_extra_denominator({1: 1})


def _rule5(pair: SeqPair, values: List[GradedSeries], layout: Layout) -> GradedSeries:
    # t^{-l} p(1v,1w) + q t^{-l} p(0v,0w); t^{-l} and q t^{-l} are the
    # lattice points qat_monomial(0, 0, -l) and qat_monomial(1, 0, -l)
    l2 = 2 * pair.v.count("1")
    first, second = values
    return first.plus_scaled(second, (l2 + 2, 0, -l2), (l2, 0, -l2))


class Rule(NamedTuple):
    """A rule: the pairs a value depends on, and how their values combine
    (the query's layout sizes the numerators a combine packs afresh).  A
    rule whose combine is `_same` renames its one child, and `_plan`
    follows it instead of planning it."""

    children: Callable[[SeqPair], Tuple[SeqPair, ...]]
    combine: Callable[[SeqPair, List[GradedSeries], Layout], GradedSeries]


RULES: Dict[RuleTag, Rule] = {
    RuleTag.BaseEmptyLeft: Rule(lambda p: (), _base_case),
    RuleTag.BaseEmptyRight: Rule(lambda p: (), _base_case),
    RuleTag.Rule2_bothEndOne: Rule(lambda p: (SeqPair(p.v[:-1], p.w[:-1]),), _rule2),
    RuleTag.Rule3_v0w1: Rule(lambda p: (SeqPair(p.v[:-1], "1" + p.w[:-1]),), _same),
    RuleTag.Rule4_v1w0: Rule(lambda p: (SeqPair("1" + p.v[:-1], p.w[:-1]),), _same),
    RuleTag.Rule5_bothEndZero: Rule(
        lambda p: (SeqPair("1" + p.v[:-1], "1" + p.w[:-1]),
                   SeqPair("0" + p.v[:-1], "0" + p.w[:-1])),
        _rule5),
    RuleTag.AllZeros: Rule(lambda p: (SeqPair("1" + p.v[1:], "1" + p.w[1:]),), _all_zeros),
}


class MemoTable:
    """Map SeqPair -> GradedSeries with hit and miss counters.

    `get` counts one lookup; eval_p takes a query's hits, misses and
    deepest stack from its plan and folds them in once per call.
    `load_s` and `save_s` are the seconds the last load and save took;
    `peak_entries` is the most entries held at once.

    An evicting table (`evict=True`) keeps of each query only what the
    query asked for: eval_p drops every other entry it computed as soon
    as the last pair that needs it has been combined.  Entries stored
    before the query started, loaded or computed, are never dropped.  A
    table made without `evict` keeps every entry, so queries that share
    it reuse each other's work.  Either way a pair of rule 3 or 4, which
    only renames its child, is an entry only as a query's root (see
    `_plan`).

    Cache file: a version header, then one line per entry, sorted by key:

        <checksum>\t<v>|<w>\t<den>\t<num>

    `den` is `i:m,...` (empty for no factor), `num` the numerator as
    `ring.encode_numerator` writes it, and the checksum the first 8 bytes
    of the SHA-256 of everything after the first tab, in hex.  `save`
    writes what the table holds: for an evicting table, the query results
    and the lines it loaded.  `load` reads the file into one buffer and
    checks every line's checksum and key in place, and that each key sorts
    after the one before, so a damaged line or a repeated key exits 2
    however far it is from the query; a file cut at a line boundary is a
    smaller valid table.  An entry stays a `memoryview` of its line until
    a lookup first needs it, so a query decodes only the series it reads,
    and `save` copies an unchanged line verbatim.
    """

    def __init__(self, path: Optional[str] = None, evict: bool = False):
        self._table: Dict[str, Union[GradedSeries, memoryview]] = {}
        self.evict = evict
        self.hits = self.misses = self.max_depth = self._peak = 0
        self.load_s = self.save_s = 0.0
        self.path = path
        self._synced: Optional[str] = None  # a file that holds exactly this table
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            # found now, not when `save` opens its temp file after the work
            raise ValueError(f"cache directory of {path} does not exist")
        if path and os.path.exists(path):
            self.load(path)

    def get(self, pair: SeqPair) -> Optional[GradedSeries]:
        value = self.peek(pair)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def peek(self, pair: SeqPair) -> Optional[GradedSeries]:
        key = pair.key()
        value = self._table.get(key)
        if isinstance(value, memoryview):  # checked inline: every query's root is looked up here
            value = self._decode(key, value)
        return value

    def _decode(self, key: str, line: memoryview) -> GradedSeries:
        """Replace an entry still held as its cache line by its series.
        Decoding leaves the table's contents as they were, so `_synced`
        stays."""
        try:
            value = _decode_series(line)
        except ValueError as exc:
            raise ValueError(f"damaged cache entry {key!r}") from exc
        self._table[key] = value
        return value

    def put(self, pair: SeqPair, value: GradedSeries) -> None:
        self._table[pair.key()] = value
        self._synced = None

    @property
    def peak_entries(self) -> int:
        return max(self._peak, len(self._table))

    def record(self, hits: int, misses: int, depth: int) -> None:
        self.hits += hits
        self.misses += misses
        self.max_depth = max(self.max_depth, depth)

    def __len__(self) -> int:
        return len(self._table)

    def values(self):
        for key, line in [(k, v) for k, v in self._table.items() if isinstance(v, memoryview)]:
            self._decode(key, line)
        return self._table.values()

    # -- persistence ----------------------------------------------------

    @staticmethod
    def _version_line() -> str:
        digest = hashlib.sha256(ENCODER_VERSION.encode()).hexdigest()[:16]
        return f"{ENCODER_VERSION} {digest}"

    def save(self, path: Optional[str] = None) -> None:
        """Write the table to a temp file beside `path`, sync it, and move
        it over `path`, so an interrupted save leaves the old file whole."""
        path = path or self.path
        if not path:
            raise ValueError("no cache path configured")
        if path == self._synced:
            return  # nothing was added since this file was read or written
        t0 = time.perf_counter()
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(self._version_line().encode() + b"\n")
                for key in sorted(self._table):
                    value = self._table[key]
                    fh.write(value if isinstance(value, memoryview)
                             else _encode_series(key, value))
                    fh.write(b"\n")
                fh.flush()
                os.fsync(fh.fileno())
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)  # keep the file's mode
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._synced = path
        self.save_s = time.perf_counter() - t0

    def load(self, path: str) -> None:
        t0 = time.perf_counter()
        synced = path if not self._table else None
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.endswith(b"\n"):
            data += b"\n"  # a last line without its newline loads too
        pos = data.index(b"\n") + 1
        if data[:pos - 1] != self._version_line().encode():
            raise ValueError(f"cache version mismatch in {path}")
        view, number, last = memoryview(data), 1, ""
        while pos < len(data):
            end = data.index(b"\n", pos)
            number += 1
            tab = data.find(b"\t", pos, end)
            if tab < 0 or data[pos:tab] != _checksum(view[tab + 1:end]):
                raise ValueError(f"damaged cache line {number} in {path}")
            stop = data.find(b"\t", tab + 1, end)
            key = data[tab + 1:stop if stop >= 0 else end].decode("latin-1")
            v, bar, w = key.partition("|")
            if not bar or v.strip("01") or w.strip("01") or v.count("1") != w.count("1"):
                try:  # a bad key: word the reason as pair_validate does
                    v, w = key.split("|")
                    pair_validate(v, w)
                except ValueError as exc:
                    raise ValueError(f"bad cache key {key!r} in {path}: {exc}") from exc
            if key <= last:  # save writes each key once, in order
                raise ValueError(f"cache key {key!r} repeated or out of order "
                                 f"at line {number} in {path}")
            self._table[key] = view[pos:end]
            pos, last = end + 1, key
        self._synced = synced
        self.load_s = time.perf_counter() - t0


def _checksum(body: bytes) -> bytes:
    return hashlib.sha256(body).hexdigest()[:16].encode()


def _den_text(den: DenomVector) -> str:
    return ",".join([f"{i}:{m}" for i, m in den.mult])


def _encode_series(key: str, series: GradedSeries) -> bytes:
    """The cache line of one entry, without its newline."""
    body = f"{key}\t{_den_text(series.den)}\t{encode_numerator(series.num)}".encode()
    return _checksum(body) + b"\t" + body


def _decode_series(line: memoryview) -> GradedSeries:
    """The series of a cache line whose checksum and key `load` checked;
    raises ValueError on a malformed field or a series not in lowest terms."""
    _, _, den_text, num_text = str(line, "ascii").split("\t")
    mult = {}
    for item in den_text.split(",") if den_text else ():
        i, m = item.split(":")
        mult[int(i)] = int(m)
    den = DenomVector.from_dict(mult)
    if _den_text(den) != den_text:
        raise ValueError(f"bad denominator {den_text!r}")
    series = GradedSeries(decode_numerator(num_text), den)
    if series.den != den:  # a zero numerator over a denominator, too
        raise ValueError("a series not in lowest terms")
    return series


Step = Tuple[SeqPair, str, Callable, Tuple[str, ...]]  # pair, key, combine, children's keys


def _plan(pair: SeqPair, memo: MemoTable) -> Tuple[List[Step], Dict[str, int], int, int]:
    """One post-order walk from `pair`, its rule's first child first.

    Returns, for `pair` and every pair below it that `memo` does not hold
    and whose rule combines, the pair, its key, its rule's combine step
    and its children's keys, in an order in which each pair follows its
    children; for an evicting memo, how many parents each of those pairs
    but `pair` has among them; the hits, a reference to a pair stored
    before the walk or already planned; and the deepest stack.  The walk
    does not descend into a stored pair, and a stored pair gets no count,
    so eviction never drops it; a stored pair still held as its cache
    line is decoded in place.

    Renamings.  Rules 3 and 4 hand their one child's value on: their
    combine is `_same`.  A child whose rule's combine is `_same` is
    followed down its chain of such rules to the first pair that is
    stored or whose rule combines, and that pair's key stands for the
    child; debug mode asserts that each hop descends.  So a renaming is
    neither a step nor an entry, except the query's root, which is
    planned with `_same` so that it is stored under its own key.  A rule
    whose combine is not `_same` is planned as a step, whatever its tag.

    Each pair is planned once.  Only rule 5 has two children, and its
    second (0v, 0w) waits on the stack, as the end X of its chain, while
    the first (1v, 1w) is walked.  With no hop, X is (0v, 0w), which ranks
    above the first child under `pair_rank` (two ones fewer), and every
    pair below the first ranks lower still, so the walk cannot meet X
    there.  A hop shortens the pair, so a chain's end can lie below the
    first child (both children of (10, 100) reach (1, 1)); the walk then
    pushes X again and plans it there, and the copy left on the stack
    finds X planned at its first visit and counts as a hit.  Debug mode
    asserts that only the end of a chain is pushed twice.
    """
    steps: Dict[str, Step] = {}
    parents: Dict[str, int] = {}
    table, hits, depth, evict, debug = memo._table, 0, 1, memo.evict, ring.DEBUG_DESCENT
    chained = set()  # debug mode: every pair a chain reached
    # a pair's first visit carries its rule and no keys; its second, its step
    todo: list = [(pair, pair.key(), RULES[classify_rule(pair)], None)]
    while todo:
        entry = todo.pop()
        current, key, rule, keys = entry
        if keys is not None:  # second visit: every child is planned
            steps[key] = entry
            continue
        if key in steps:  # a chain's end, planned since it was pushed
            if debug:
                assert key in chained, ("pushed twice", current)
            hits += 1
            continue
        children_of, combine = rule
        at, keys = len(todo), []
        todo.append(None)  # the second visit, once the children's keys are known
        for child in reversed(children_of(current)):  # the first child is popped first
            if debug:
                assert pair_strictly_precedes(child, current), (current, child)
            child_key = child.key()
            stored = table.get(child_key)
            while stored is None and child_key not in steps:
                rule = RULES[classify_rule(child)]
                if rule.combine is not _same:
                    break
                below, = rule.children(child)
                if debug:  # a chain that did not descend would never end
                    assert pair_strictly_precedes(below, child), (child, below)
                    chained.add(below.key())
                child, child_key = below, below.key()
                stored = table.get(child_key)
            else:  # a hit: stored, or planned already
                keys.append(child_key)
                hits += 1
                if stored is None:
                    if evict:
                        parents[child_key] += 1
                elif isinstance(stored, memoryview):
                    memo._decode(child_key, stored)
                continue
            keys.append(child_key)
            if evict:
                parents[child_key] = parents.get(child_key, 0) + 1
            todo.append((child, child_key, rule, None))
        if len(todo) > depth:
            depth = len(todo)
        keys.reverse()
        todo[at] = (current, key, combine, tuple(keys))
    return list(steps.values()), parents, hits, depth


def eval_p(pair: SeqPair, memo: Optional[MemoTable] = None) -> GradedSeries:
    """Evaluate the recursion along `_plan(pair, memo)`.

    Each planned pair's combine step reads its children's values from the
    table by the keys in its step and stores the pair's value through
    `memo.put`; an evicting memo then drops each child whose last parent
    this was.  The plan's hits, its pairs (each a miss) and its deepest
    stack reach the memo's counters once.  Base cases are packed in the
    layout `query_layout(pair)`, so every sum built from them shares it; a
    stored value from another layout (a cache file, an earlier query) is
    repacked by the first sum that meets it.  Without a memo, the query
    gets an evicting one of its own.
    """
    if memo is None:
        memo = MemoTable(evict=True)
    cached = memo.peek(pair)
    if cached is not None:
        memo.record(1, 0, 0)
        return cached
    layout = query_layout(pair)
    steps, parents, hits, depth = _plan(pair, memo)
    table, put, evict, debug = memo._table, memo.put, memo.evict, ring.DEBUG_DESCENT
    read, peak = table.__getitem__, memo._peak
    for current, _, combine, keys in steps:
        if debug:
            for key in keys:  # read only while a parent still needs it
                assert parents.get(key, 1) > 0, ("evicted", current, key)
        value = combine(current, [*map(read, keys)], layout)
        if debug:
            assert value.num.within(*layout), (current, layout)
        put(current, value)
        if evict:
            for key in keys:
                left = parents.get(key)
                if left is not None:  # computed by this query
                    parents[key] = left - 1
                    if left == 1:
                        if len(table) > peak:  # only a drop lowers the count
                            peak = len(table)
                        del table[key]
    memo._peak = peak
    memo.record(hits, len(steps), depth)
    return value


# Nothing in torhom calls this; the benchmark's tracer (perfbench/tracing.py)
# still resolves it by name.  It goes once the tracer drops that target.
def eval_p_parallel(pair: SeqPair, memo: Optional[MemoTable] = None) -> GradedSeries:
    return eval_p(pair, memo)
