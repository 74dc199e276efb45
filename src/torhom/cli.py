"""Command-line front end.

Exit codes: 0 success, 1 check-suite failure, 2 usage, domain or cache-file
error, or an input too large for memory.
Output on stdout is deterministic for fixed inputs and flags; timing and
memo counters go to the envelope's timing block (json) or to stderr
(human).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import fillings, links
from .recursion import MemoTable, eval_p
from .ring import GradedSeries, expand_series, render, series_payload
from .sequences import inversions, pair_validate


def _memo(args) -> Tuple[MemoTable, float]:
    """The memo table of a series command whose --expand and --cache ask for
    something, and the clock reading its `timing.seconds` counts from.  The
    table evicts: it ends up holding the command's results and the lines
    it loaded, and so does the --cache file it saves."""
    if args.expand is not None and args.expand < 0:
        raise ValueError(f"--expand must be at least 0, got {args.expand}")
    if args.cache == "":
        raise ValueError("--cache needs a file name")
    return MemoTable(path=args.cache, evict=True), time.perf_counter()


def _show(args, memo: MemoTable, t0: float, command: str, params: Dict,
          shown: List[Tuple[str, str, GradedSeries]], fields: Optional[Dict] = None,
          before: Sequence[str] = (), after: Sequence[str] = ()) -> int:
    """Save the memo table if --cache names a file, then print the JSON
    envelope or the human/latex lines; only the form printed is built.

    `shown` holds (suffix, label, series): the series with suffix "" is the
    envelope's `result`, each other one `result_<suffix>`, and each is
    followed by its expansion under --expand.  `fields` are envelope keys
    after those; `before` and `after` are human lines around theirs.
    """
    if args.cache:
        memo.save()
    timing = {"seconds": time.perf_counter() - t0, "entries": len(memo),
              "peak_entries": memo.peak_entries, "hits": memo.hits, "misses": memo.misses,
              "max_depth": memo.max_depth}
    if args.cache:
        timing.update(cache_load_s=memo.load_s, cache_save_s=memo.save_s)
    depth = args.expand

    def expansion(s: GradedSeries) -> GradedSeries:
        return GradedSeries.from_poly(expand_series(s, depth))

    if args.format == "json":
        env = {"command": command, "params": params}
        for suffix, _, s in shown:
            tail = f"_{suffix}" if suffix else ""
            env[f"result{tail}"] = series_payload(s)
            if depth is not None:
                if not suffix:
                    env["expand_depth"] = depth
                env[f"expansion{tail}"] = series_payload(expansion(s))
        env.update(fields or {}, timing=timing)
        print(json.dumps(env, separators=(",", ":")))
        return 0
    lines = list(before)
    for _, label, s in shown:
        lines.append(f"{label} = {render(s, args.format)}")
        if depth is not None:
            lines.append(f"expansion(q-degree <= {depth}) = "
                         f"{render(expansion(s), args.format)}")
    print("\n".join([*lines, *after]))
    print(f"memo entries: {len(memo)} (peak {memo.peak_entries})", file=sys.stderr)
    print(f"elapsed: {timing['seconds']:.3f}s  hits={memo.hits} misses={memo.misses} "
          f"max_depth={memo.max_depth}", file=sys.stderr)
    if args.cache:
        print(f"cache: load {memo.load_s:.3f}s  save {memo.save_s:.3f}s", file=sys.stderr)
    return 0


def cmd_torus(args) -> int:
    spec = links.TorusLinkSpec(args.m, args.n)
    memo, t0 = _memo(args)
    label = f"T({spec.m},{spec.n})"
    if args.normalized:
        series, label = links.normalized_homology(spec, memo), f"normalized {label}"
    else:
        series = links.torus_link_homology(spec, memo)
    return _show(args, memo, t0, "torus",
                 {"m": spec.m, "n": spec.n, "normalized": args.normalized},
                 [("", label, series)])


def cmd_pair(args) -> int:
    pair = pair_validate(args.v, args.w)
    memo, t0 = _memo(args)
    return _show(args, memo, t0, "pair", {"v": pair.v, "w": pair.w},
                 [("", f"p({pair.v or 'empty'},{pair.w or 'empty'})", eval_p(pair, memo))])


def cmd_colored(args) -> int:
    memo, t0 = _memo(args)
    if args.order == "both":
        both = links.colored_torus_both(args.m, args.n, args.l, memo)
    else:
        both = {args.order: links.colored_torus_homology(
            args.m, args.n, args.l, args.order, memo)}
    orders = [o for o in ("theorem", "example") if o in both]
    shown = [(o if i else "", f"colored({args.m},{args.n};l={args.l})[{o}]", both[o])
             for i, o in enumerate(orders)]
    fields, after = {}, []
    if "match_up_to_monomial" in both:
        shift = both["match_up_to_monomial"]
        fields["orders_match_up_to_monomial"] = list(shift) if shift is not None else None
        after.append(f"orders match up to monomial: "
                     f"{'Q^%d A^%d T^%d' % shift if shift is not None else 'no'}")
    return _show(args, memo, t0, "colored",
                 {"m": args.m, "n": args.n, "l": args.l, "order": args.order},
                 shown, fields, after=after)


def _sigma_entries(text: str) -> Tuple[int, ...]:
    """The entries of a comma-separated sigma, each in ASCII decimal digits
    (`int` alone would also take '1_0', ' 1' and other scripts' digits)."""
    entries = text.split(",") if text else []
    for e in entries:
        if not (e.isascii() and e.isdigit()):
            raise ValueError(f"sigma entry {e!r} is not a decimal number")
    return tuple(map(int, entries))


def cmd_sigma(args) -> int:
    entries = _sigma_entries(args.sigma)
    sig = fillings.SigmaSeq.of(args.r, entries)
    memo, t0 = _memo(args)
    pair = fillings.seq_pair_of_sigma(sig)
    series = (fillings.g_sigma if args.g else fillings.f_sigma)(sig, memo)
    label = f"{'g' if args.g else 'f'}({args.sigma or 'empty'})"
    fields, after = {"v": pair.v, "w": pair.w}, []
    if args.stats:
        stats = fields["stats"] = {"inv": inversions(entries), "c": fillings.c_statistic(sig),
                                   "rev": list(fillings.rev(sig).entries)}
        after = [f"inv = {stats['inv']}", f"c = {stats['c']}",
                 f"rev = {','.join(map(str, stats['rev']))}"]
    return _show(args, memo, t0, "sigma", {"r": args.r, "sigma": list(entries), "g": args.g},
                 [("", label, series)], fields, before=[f"v = {pair.v}", f"w = {pair.w}"],
                 after=after)


# checks.SUITES's names, kept here so that the other commands start without checks
SUITE_NAMES = ("lemma53", "paper-values", "parity", "positivity", "roundtrip", "symmetry",
               "unknot-family")
# check flag -> the suite parameter it sets, and its least value (a suite checks nothing below)
CHECK_FLAGS = (("r", "r_max", 1), ("len", "length", 0), ("depth", "depth", 0),
               ("seed", "seed", None))


def cmd_check(args) -> int:
    import inspect  # only here, so that the other commands start without them
    from . import checks

    suite = checks.SUITES[args.suite]
    params = inspect.signature(suite).parameters
    kwargs = {}
    for flag, name, least in CHECK_FLAGS:
        value = getattr(args, flag)
        if value is None:
            continue
        if name not in params:
            raise ValueError(f"check {args.suite} does not take --{flag}")
        if least is not None and value < least:
            raise ValueError(f"--{flag} must be at least {least}, got {value}")
        kwargs[name] = value
    results = suite(**kwargs)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torhom",
        description="Exact graded ranks of triply graded homology of positive "
                    "torus links, shuffled links, and colored torus knots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_series_flags(p):
        p.add_argument("--expand", type=int, metavar="D", default=None,
                       help="also print the expansion truncated at q-degree D")
        p.add_argument("--format", choices=("human", "json", "latex"),
                       default="human")
        p.add_argument("--cache", metavar="FILE", default=None,
                       help="save the query results to FILE and reuse those it holds")

    p = sub.add_parser("torus", help="graded rank for the torus link T(m,n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--normalized", action="store_true")
    add_series_flags(p)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("pair", help="evaluate the recursion at a pair v, w")
    p.add_argument("v")
    p.add_argument("w")
    add_series_flags(p)
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("colored", help="Sym^l-colored torus knot invariant")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    p.add_argument("--order", choices=("theorem", "example", "both"),
                   default="both")
    add_series_flags(p)
    p.set_defaults(func=cmd_colored)

    p = sub.add_parser("sigma", help="evaluate f (or g) at a filling sequence")
    p.add_argument("r", type=int)
    p.add_argument("sigma", help="comma-separated entries in [0, r]")
    p.add_argument("--g", action="store_true", help="evaluate g instead of f")
    p.add_argument("--stats", action="store_true",
                   help="print inv, c, and the reversed sequence")
    add_series_flags(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--len", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # bad input, a --cache path that cannot be used, or an input too large to build
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {'out of memory' if isinstance(exc, MemoryError) else exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
