"""Where the compile path is wrapped, and the per-layer metrics.

Each wrap point is an attribute the compile path looks up at call time:
the batch driver's module globals, the pipeline module's globals, the
checker's module attribute (imported inside ``_solve_write`` on every
call), and methods on the kernel, memo and cache classes.  Spans nest,
so a layer's *self* time excludes the layers it calls.
"""

import statistics

#: Span names in the order the per-layer metrics list them.
SELF_MS = (
    "core.certify", "graph.frontend", "core.solve", "core.postpass",
    "lang.parse", "lang.print", "analysis.accesses", "commgen.problems",
    "commgen.annotate", "commgen.prepare", "batch.compile",
    "incremental.solve", "batch.cache_get", "batch.cache_put",
)

#: Every per-layer metric with its unit, as the traced run prints them.
PER_LAYER = {
    "core.certify.self_ms": "ms/req",
    "core.certify.calls": "calls/req",
    "core.certify.paths": "paths/call",
    "core.certify.truncated_frac": "frac",
    "core.certify.accept_frac": "frac",
    "graph.frontend.self_ms": "ms/req",
    "graph.frontend.calls": "calls/req",
    "graph.ifg_nodes": "nodes/call",
    "core.solve.self_ms": "ms/req",
    "core.solve.calls": "calls/req",
    "core.postpass.self_ms": "ms/req",
    "lang.parse.self_ms": "ms/req",
    "lang.print.self_ms": "ms/req",
    "analysis.accesses.self_ms": "ms/req",
    "commgen.problems.self_ms": "ms/req",
    "commgen.annotate.self_ms": "ms/req",
    "commgen.prepare.self_ms": "ms/req",
    "batch.compile.self_ms": "ms/req",
    "incremental.solve.self_ms": "ms/req",
    "incremental.whole_hit_frac": "frac",
    "incremental.interval_hit_frac": "frac",
    "incremental.verdict_hit_frac": "frac",
    "batch.cache_get.self_ms": "ms/req",
    "batch.cache_put.self_ms": "ms/req",
    "batch.cache.hit_frac": "frac",
    "batch.cache.entry_kb": "KiB",
    "service.compile_ms_p50": "ms",
    "service.queue_ms_p50": "ms",
    "fleet.hop_ms_p50": "ms",
    "fleet.rerouted": "count",
    "trace.overhead_frac": "frac",
}


def _observe_certify(tracer, result, args, kwargs):
    full, min_trip = result
    paths = full.paths_checked
    if full.truncated:
        paths += min_trip.paths_checked   # the separate min-trip enumeration
    tracer.count("certify.paths", paths)
    tracer.count("certify.truncated", int(full.truncated))
    accepted = (not full.by_kind("balance")
                and min_trip.ok(ignore=("safety", "redundant")))
    tracer.count("certify.accepted", int(accepted))


def _observe_frontend(tracer, result, args, kwargs):
    tracer.count("frontend.ifg_nodes", len(result.ifg.nodes()))


def _observe_cache_get(tracer, result, args, kwargs):
    tracer.count("cache.hits" if result is not None else "cache.misses")


def _observe_cache_put(tracer, result, args, kwargs):
    tracer.count("cache.puts")
    tracer.count("cache.put_bytes", len(result))


def wrap_points():
    """``(owner, attribute, span name, observer)`` for every layer."""
    import repro.batch.driver as driver
    import repro.commgen.pipeline as pipeline
    import repro.core.checker as checker
    import repro.graph.pipeline as graph_pipeline
    from repro.batch.cache import PipelineCache
    from repro.core.kernel.incremental import IncrementalSolveMemo
    from repro.core.kernel.planned import PlannedSolver

    return [
        (driver, "compile_one", "batch.compile", None),
        (driver, "compile_delta", "batch.delta", None),
        (driver, "analyzed_program_for", "graph.frontend", _observe_frontend),
        (graph_pipeline, "parse", "lang.parse", None),
        (driver, "prepare_communication", "commgen.prepare", None),
        (pipeline, "collect_accesses", "analysis.accesses", None),
        (pipeline, "build_read_problem", "commgen.problems", None),
        (pipeline, "build_write_problem", "commgen.problems", None),
        (PlannedSolver, "run", "core.solve", None),
        (pipeline, "shift_synthetic_productions", "core.postpass", None),
        (checker, "check_placement_dual", "core.certify", _observe_certify),
        (IncrementalSolveMemo, "solve", "incremental.solve", None),
        (IncrementalSolveMemo, "write_verdict", "incremental.verdict", None),
        (IncrementalSolveMemo, "store_write_verdict", "incremental.verdict",
         None),
        (driver, "annotate_prepared", "commgen.annotate", None),
        (pipeline, "format_program", "lang.print", None),
        (PipelineCache, "get", "batch.cache_get", _observe_cache_get),
        (PipelineCache, "put", "batch.cache_put", _observe_cache_put),
    ]


def _frac(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def memo_fractions(incremental_blocks):
    """Whole-solve, interval and verdict hit fractions summed over the
    ``incremental`` blocks of compile results (``None`` blocks skipped)."""
    totals = {}
    for block in incremental_blocks:
        for key, value in (block or {}).items():
            if isinstance(value, int):
                totals[key] = totals.get(key, 0) + value
    fractions = {}
    for name, hits, misses in (("whole", "whole_hits", "whole_misses"),
                               ("interval", "interval_hits",
                                "interval_misses"),
                               ("verdict", "verdict_hits", "verdict_misses")):
        h, m = totals.get(hits, 0), totals.get(misses, 0)
        fractions[f"incremental.{name}_hit_frac"] = _frac(h, h + m)
    return fractions


def layer_metrics(summary, counters, requests):
    """Span-derived per-layer metrics, per compile request."""
    metrics = {}
    for name in SELF_MS:
        self_s = summary.get(name, {}).get("self_s", 0.0)
        metrics[f"{name}.self_ms"] = 1000.0 * self_s / requests
    calls = {name: summary.get(name, {}).get("calls", 0)
             for name in ("core.certify", "graph.frontend", "core.solve")}
    for name, n in calls.items():
        metrics[f"{name}.calls"] = n / requests
    certify = calls["core.certify"]
    metrics["core.certify.paths"] = _frac(counters.get("certify.paths", 0),
                                          certify)
    metrics["core.certify.truncated_frac"] = _frac(
        counters.get("certify.truncated", 0), certify)
    metrics["core.certify.accept_frac"] = _frac(
        counters.get("certify.accepted", 0), certify)
    metrics["graph.ifg_nodes"] = _frac(counters.get("frontend.ifg_nodes", 0),
                                       calls["graph.frontend"])
    hits = counters.get("cache.hits", 0)
    metrics["batch.cache.hit_frac"] = _frac(
        hits, hits + counters.get("cache.misses", 0))
    metrics["batch.cache.entry_kb"] = _frac(
        counters.get("cache.put_bytes", 0) / 1024.0,
        counters.get("cache.puts", 0))
    return metrics


def p50_ms(seconds):
    return 1000.0 * statistics.median(seconds) if seconds else 0.0
