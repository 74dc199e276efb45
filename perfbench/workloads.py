"""Inputs of the benchmark's three workloads.

A workload is run as a sequence of units, one fresh worker process per
unit:

- torus-cold: one ``torhom torus 9 9 --format json`` with an empty
  memo, as a user's command-line run starts.  T(9,9) has the dense
  numerators of T(10,10) at a third of the cost (about 3 s and 156 MB
  against 9 s and 462 MB), so a 35-second run holds about ten samples
  instead of three.
- cache-warm: one ``torhom torus 8 8 --format json --cache FILE``; the
  first unit of every cycle of CACHE_CYCLE runs with FILE absent
  (compute, then write a 3.6 MB file), the others with FILE present
  (load, look up, rewrite).  A cold query takes about 1.4 s and a warm
  one 0.7 s, so a cycle of 3 gives a 35-second run about 10 cold samples
  for first_query_s and 20 warm ones for queries_per_s; at T(9,9) it was
  3 and 6.
- identity-batch: one session of SESSION_QUERIES small checked queries
  sharing one MemoTable, in a closed loop with a single client.  A
  session has a fixed length because the table only grows (about 7,000
  entries and 64 MB peak after 500 queries, 19,000 and 169 MB after
  2,000), so with one table per run peak memory would depend on how many
  queries a faster program gets through.  The reset costs little reuse:
  the memo hit ratio was 0.40 in sessions of 250 and 500 queries, 0.42 at
  1,000 and 0.435 at 2,000.  A session takes about a second, so a
  35-second run holds about 30 of them, each drawn afresh.  With a dozen
  sessions repeated instead, queries_per_s spread by 0.12 and
  peak_rss_mb by 0.05 (interquartile range over median, nine seeds),
  against 0.10 and 0.025 with fresh sessions.

This module only makes inputs.  It imports torhom only inside
random_pair, which workers call, so the parent process that schedules
the units never loads the program.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Tuple

TORUS_COLD_ARGV = ["torus", "9", "9", "--format", "json"]
CACHE_WARM_ARGV = ["torus", "8", "8", "--format", "json", "--cache"]
CACHE_CYCLE = 3
SESSION_QUERIES = 500
# zeros in a pair (v, w).  Evaluation cost is exponential in them: at 16, as
# in the symmetry suite, one pair can take seconds and hundreds of MB and
# the numerators are no longer small, which is what this workload is for
MAX_ZEROS = 12
# every session opens with the same query on an empty memo, T(6,8) against
# T(8,6), so first_query_s compares like with like.  It takes about 0.06 s
# and has 14 zeros, more than MAX_ZEROS but cheap; as the opener, the 4-ms
# T(4,6) check spread by 0.2 (interquartile range over median, nine seeds)
# whether scaled to the host's speed or not
SESSION_OPENER = ("torus", 6, 8)
# the three suites of identity-batch queries: random symmetric pairs,
# lemma 5.3 identities and named small values.  The weights give each suite
# about a third of a session's query time (pair 0.30, lemma53 0.32, named
# 0.33 and the opener 0.05, seven sessions): a lemma53 query cost about
# 3 ms, a pair 1.5 ms and a named one 1.3 ms.  run.py prints the shares of
# every run.
SUITES = ("pair", "lemma53", "named")
SUITE_WEIGHTS = (7, 4, 8)
NAMED_KINDS = ("torus", "colored", "unknot", "t46", "shuffled")

Query = Tuple


def result_digest(stdout: str) -> str:
    """SHA-256 of the envelope's ``result`` payload, as the CLI prints it."""
    result = json.loads(stdout)["result"]
    return hashlib.sha256(json.dumps(result, separators=(",", ":")).encode()).hexdigest()


# -- identity-batch -----------------------------------------------------


def random_pair(rng: random.Random) -> Tuple[str, str]:
    """A pair (v, w) drawn by the symmetry suite's ``_random_pair``:
    lengths up to 16, equal weights, at most MAX_ZEROS zeros.  It raises
    ValueError when the two lengths leave no weight with that few zeros;
    such a draw is made again."""
    from torhom.checks import _random_pair  # only workers import torhom

    while True:
        try:
            pair = _random_pair(rng, 16, MAX_ZEROS)
        except ValueError:
            continue
        return pair.v, pair.w


def _lemma53_sigma(rng: random.Random) -> Tuple[int, Tuple[int, ...]]:
    """(r, sigma) drawn as the lemma53 suite draws them, r <= 5 and N <= 6,
    and drawn again while an identity at sigma would evaluate a pair with
    more than MAX_ZEROS zeros; without that, sigma = (5,3,5,5,5,5) alone
    runs for minutes."""
    while True:
        r = rng.randint(1, 5)
        sigma = tuple(rng.randint(0, r) for _ in range(rng.randint(0, 6)))
        # v has a zero per entry r, w has e zeros per entry e; the
        # identities append at most an entry r, and g one more zero
        if sigma.count(r) + sum(sigma) + r + 2 <= MAX_ZEROS:
            return r, sigma


def _weight_one_pair(rng: random.Random, max_len: int = 8) -> Tuple[str, str]:
    """Two weight-one sequences of length <= max_len, MAX_ZEROS zeros at most."""
    while True:
        v, w = (_weight_one(rng, max_len) for _ in range(2))
        if len(v) + len(w) - 2 <= MAX_ZEROS:
            return v, w


def _weight_one(rng: random.Random, max_len: int) -> str:
    n = rng.randint(1, max_len)
    bits = ["0"] * n
    bits[rng.randrange(n)] = "1"
    return "".join(bits)


def _named_query(rng: random.Random, kind: str) -> Query:
    if kind == "torus":
        while True:
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            if m + n <= MAX_ZEROS:
                return ("torus", m, n)
    if kind == "colored":
        return ("colored", rng.randint(2, 4))  # 3l <= MAX_ZEROS zeros
    if kind == "unknot":
        return ("unknot", rng.randint(1, 4))
    if kind == "t46":
        return ("t46",)
    return ("shuffled",) + _weight_one_pair(rng)


def _spread(n: int, names: Tuple[str, ...], weights: Tuple[int, ...]) -> List[str]:
    """n names, as many of each as its weight's share allows, the
    remainder going to the first names."""
    counts = [n * w // sum(weights) for w in weights]
    for i in range(n - sum(counts)):
        counts[i] += 1
    return [name for name, c in zip(names, counts) for _ in range(c)]


def session_queries(seed: int, session: int) -> List[Query]:
    """The queries of one identity-batch session, a function of the seed.

    Every session holds the same number of queries of each suite and
    named kind, in an order the seed shuffles, so sessions differ only in
    the pairs, sigmas and values drawn and not in how many of each kind.
    """
    rng = random.Random(f"identity-batch:{seed}:{session}")
    kinds = _spread(SESSION_QUERIES - 1, SUITES, SUITE_WEIGHTS)
    named = _spread(kinds.count("named"), NAMED_KINDS, (1,) * len(NAMED_KINDS))
    rng.shuffle(kinds)
    rng.shuffle(named)
    queries: List[Query] = [SESSION_OPENER]
    for kind in kinds:
        if kind == "pair":
            queries.append(("pair",) + random_pair(rng))
        elif kind == "lemma53":
            queries.append(("lemma53",) + _lemma53_sigma(rng))
        else:
            queries.append(_named_query(rng, named.pop()))
    return queries


def suite_of(query: Query) -> str:
    """Which of the three suites of SUITES a query belongs to, or
    "opener" for SESSION_OPENER."""
    if query == SESSION_OPENER:
        return "opener"
    return query[0] if query[0] in SUITES else "named"


def query_key(query: Query) -> str:
    return " ".join(str(x) for x in query)


def expected_digests(path: str) -> Dict[str, str]:
    with open(path) as fh:
        return json.load(fh)
