"""Run one unit of a benchmark workload in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB

JOB is a JSON object made by run.py.  The worker imports torhom first,
so that the monotonic clock reading it reports as ``ready`` marks the end
of interpreter start-up plus ``import torhom``; run.py read the same
clock just before starting the process.  The worker then runs the unit,
times every query from outside the call, and prints one JSON line.
"""

import time

import torhom  # noqa: F401  (the import being timed)

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from torhom import cli, fillings, links, recursion, reference, ring, sequences  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def cli_query(argv):
    """Run the command line in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def run_cli_unit(argv, first, tracer):
    if tracer:
        tracer.qid = 0
    t0 = time.perf_counter()
    code, stdout = cli_query(argv)
    elapsed = time.perf_counter() - t0
    digest = workloads.result_digest(stdout) if code == 0 else None
    return [{"key": " ".join(argv[:3]), "s": elapsed, "first": first,
             "code": code, "digest": digest}]


class References:
    """Tabulated and closed-form values, built once before any timing."""

    def __init__(self):
        self.t46 = reference.t46_series()
        self.unknot = {l: reference.colored_unknot_series(l) for l in range(1, 5)}
        self.trefoil = reference.colored_trefoil_display()


def identity_query(query, memo, refs):
    """Answer one query through the public API; True when its check holds.

    Modules are read at call time, so traced wrappers are the ones called.
    """
    kind = query[0]
    equal = ring.series_equal
    if kind == "pair":
        _, v, w = query
        p = recursion.eval_p(sequences.pair_validate(v, w), memo)
        q = recursion.eval_p(sequences.pair_validate(w, v), memo)
        return equal(p, q)
    if kind == "lemma53":
        _, r, sigma = query
        checks = fillings.verify_lemma53(r, sigma, memo)
        return bool(checks) and all(c.passed for c in checks)
    if kind == "torus":
        _, m, n = query
        return equal(links.torus_link_homology(links.TorusLinkSpec(m, n), memo),
                     links.torus_link_homology(links.TorusLinkSpec(n, m), memo))
    if kind == "colored":
        l = query[1]
        a = links.colored_torus_both(2, 3, l, memo)
        b = links.colored_torus_both(3, 2, l, memo)
        ok = equal(a["theorem"], b["theorem"]) and equal(a["example"], b["example"])
        if l == 2:
            # the displayed colored trefoil matches one of the two orderings
            ok = ok and any(ring.equal_up_to_monomial(a[o], refs.trefoil) is not None
                            for o in ("theorem", "example"))
        return ok
    if kind == "unknot":
        l = query[1]
        return equal(links.colored_torus_homology(1, 1, l, "theorem", memo), refs.unknot[l])
    if kind == "t46":
        return equal(links.torus_link_homology(links.TorusLinkSpec(4, 6), memo), refs.t46)
    if kind == "shuffled":
        _, v, w = query
        return equal(links.shuffled_link_homology(v, w, memo),
                     links.shuffled_link_homology(w, v, memo))
    raise ValueError(f"unknown query kind {kind!r}")


def run_session(session, queries, refs, tracer):
    memo = recursion.MemoTable()
    records = []
    clock = time.perf_counter
    for i, query in enumerate(queries):
        suite = workloads.suite_of(query)
        if tracer:
            tracer.qid = i
            tracer.suite = suite
        t0 = clock()
        try:
            ok = identity_query(query, memo, refs)
        except Exception:  # a failing query is counted, and the session goes on
            traceback.print_exc(file=sys.stderr)
            ok = False
        elapsed = clock() - t0
        record = {"key": f"s{session}q{i}", "s": elapsed, "first": i == 0, "ok": ok,
                  "suite": suite}
        if not ok:
            record["query"] = workloads.query_key(query)
        records.append(record)
    return records


def trace_summary(tracer, spans_path):
    tracer.active = False
    summary = {
        "spans": tracer.aggregate(),
        "counts": dict(tracer.counts),
        "suite_memo": {f"{suite}.{key}": n for (suite, key), n in tracer.suite_memo.items()},
        "gc_pause_s": tracer.gc_pause_s,
        "missing": tracer.missing,
        "memo": tracing.memo_properties(tracer.memos[-1]) if tracer.memos else None,
    }
    if spans_path:
        tracer.write_spans(spans_path)
    return summary


def main():
    job = json.loads(sys.argv[1])
    out = {"ready": READY}
    if job.get("probe"):
        print(json.dumps(out))
        return 0
    tracer = tracing.Tracer() if job.get("trace") else None
    workload = job["workload"]
    # reference values and queries are made before tracing starts
    if workload == "identity-batch":
        refs = References()
        session = workloads.session_queries(job["seed"], job["unit"])
    if tracer:
        tracer.install()
    if workload == "torus-cold":
        queries = run_cli_unit(workloads.TORUS_COLD_ARGV, True, tracer)
    elif workload == "cache-warm":
        queries = run_cli_unit(workloads.CACHE_WARM_ARGV + [job["cache"]],
                               job["cold"], tracer)
        out["cache_bytes"] = os.path.getsize(job["cache"])
    elif workload == "identity-batch":
        queries = run_session(job["unit"], session, refs, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    out["queries"] = queries
    out["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        out["trace"] = trace_summary(tracer, job.get("spans"))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
