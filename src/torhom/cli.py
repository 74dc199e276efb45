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
from .ring import GradedSeries, expand_series, render, series_json
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
          label: str, series: GradedSeries, fields: Optional[Dict] = None,
          before: Sequence[str] = (), after: Sequence[str] = ()) -> int:
    """Save the memo table if --cache names a file, then print the JSON
    envelope or the human/latex lines; only the form printed is built.

    `series` is the envelope's `result`, followed by its expansion under
    --expand.  `fields` are envelope keys after those; `before` and
    `after` are human lines around `label`'s.
    """
    if args.cache:
        memo.save()
    timing = {"seconds": time.perf_counter() - t0, "entries": len(memo),
              "peak_entries": memo.peak_entries, "hits": memo.hits, "misses": memo.misses,
              "max_depth": memo.max_depth}
    if args.cache:
        timing.update(cache_load_s=memo.load_s, cache_save_s=memo.save_s)
    depth = args.expand
    expansion = None if depth is None else GradedSeries.from_poly(expand_series(series, depth))

    if args.format == "json":
        def text(value) -> str:
            return json.dumps(value, separators=(",", ":"))

        # the envelope as ordered (key, JSON text) pairs; each series written by series_json
        env = [("command", text(command)), ("params", text(params)),
               ("result", series_json(series))]
        if expansion is not None:
            env += [("expand_depth", text(depth)), ("expansion", series_json(expansion))]
        env += [(key, text(value)) for key, value in {**(fields or {}), "timing": timing}.items()]
        print("{" + ",".join([f'"{key}":{value}' for key, value in env]) + "}")
        return 0
    lines = [*before, f"{label} = {render(series, args.format)}"]
    if expansion is not None:
        lines.append(f"expansion(q-degree <= {depth}) = {render(expansion, args.format)}")
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
                 {"m": spec.m, "n": spec.n, "normalized": args.normalized}, label, series)


def cmd_pair(args) -> int:
    pair = pair_validate(args.v, args.w)
    memo, t0 = _memo(args)
    return _show(args, memo, t0, "pair", {"v": pair.v, "w": pair.w},
                 f"p({pair.v or 'empty'},{pair.w or 'empty'})", eval_p(pair, memo))


def cmd_colored(args) -> int:
    memo, t0 = _memo(args)
    return _show(args, memo, t0, "colored", {"m": args.m, "n": args.n, "l": args.l},
                 f"colored({args.m},{args.n};l={args.l})",
                 links.colored_torus_homology(args.m, args.n, args.l, "theorem", memo))


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
                 label, series, fields, before=[f"v = {pair.v}", f"w = {pair.w}"],
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


def _series_flags(p) -> None:
    p.add_argument("--expand", type=int, metavar="D", default=None,
                   help="also print the expansion truncated at q-degree D")
    p.add_argument("--format", choices=("human", "json", "latex"),
                   default="human")
    p.add_argument("--cache", metavar="FILE", default=None,
                   help="save the query results to FILE and reuse those it holds")


def _torus_args(p) -> None:
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--normalized", action="store_true")
    _series_flags(p)


def _pair_args(p) -> None:
    p.add_argument("v")
    p.add_argument("w")
    _series_flags(p)


def _colored_args(p) -> None:
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("l", type=int)
    _series_flags(p)


def _sigma_args(p) -> None:
    p.add_argument("r", type=int)
    p.add_argument("sigma", help="comma-separated entries in [0, r]")
    p.add_argument("--g", action="store_true", help="evaluate g instead of f")
    p.add_argument("--stats", action="store_true",
                   help="print inv, c, and the reversed sequence")
    _series_flags(p)


def _check_args(p) -> None:
    p.add_argument("suite", choices=SUITE_NAMES)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--len", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)


# command -> (help line, function adding its arguments, function running it)
COMMANDS = {
    "torus": ("graded rank for the torus link T(m,n)", _torus_args, cmd_torus),
    "pair": ("evaluate the recursion at a pair v, w", _pair_args, cmd_pair),
    "colored": ("Sym^l-colored torus knot invariant", _colored_args, cmd_colored),
    "sigma": ("evaluate f (or g) at a filling sequence", _sigma_args, cmd_sigma),
    "check": ("run a verification suite", _check_args, cmd_check),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or with `command` (a key of COMMANDS)
    of that one only; its usage and error lines are the full parser's."""
    parser = argparse.ArgumentParser(
        prog="torhom",
        description="Exact graded ranks of triply graded homology of positive "
                    "torus links, shuffled links, and colored torus knots.")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
    else:
        # the top usage line names every command, not just the one added
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{%s}" % ",".join(COMMANDS))
    for name in COMMANDS if command is None else (command,):
        help_line, add_arguments, run = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=run)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # only the asked command's parser: -h, no command or an unknown one get them all
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
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
