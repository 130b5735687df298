"""Compile benchmark: one workload, one seed, one JSON line.

    python3 compilebench/run.py --workload cold-jumpy --seed 1 \\
        --seconds 20 --trace 0

Run from the root of a checkout (the compiler is imported from
``src/``).  Set-up runs several times off the clock; the timed phase
repeats rounds of the workload until ``--seconds`` have passed; the
oracle then checks every output.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines hold the environment and noise record and any findings.
See ``compilebench/README.md``.
"""

import argparse
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-jumpy", "cold-structured", "edit-stream", "serve-mixed")

#: Fewest timed rounds per run (each slot's latency is a median over
#: rounds); traced runs alternate untraced and traced rounds.
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4
#: Samples beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Inputs per in-process cold workload.
COLD_JUMPY_INPUTS = 48
COLD_STRUCTURED_INPUTS = 120
#: Inputs re-solved with the reference backend.
REFERENCE_SAMPLE = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "programs_per_s": "1/s",
    "ok_frac": "frac",
    "peak_rss_mb": "MiB",
    "sim_makespan": "sim_time",
    "sim_makespan_overlap": "sim_time",
    "sim_messages": "count",
    "server_cpu_ms_per_req": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _make(name, seed, trace):
    from compilebench.workloads import ColdWorkload, EditStream, ServeMixed

    if name == "cold-jumpy":
        return ColdWorkload(name, seed, COLD_JUMPY_INPUTS, jumpy=True)
    if name == "cold-structured":
        return ColdWorkload(name, seed, COLD_STRUCTURED_INPUTS, jumpy=False)
    if name == "edit-stream":
        return EditStream(seed)
    return ServeMixed(seed, ROOT, trace=trace)


class Rounds:
    """Latencies and outcomes per slot, kept apart for traced rounds."""

    def __init__(self, slots, canonical):
        self.n = len(slots)
        self.canonical = canonical
        self.latency = {False: [[] for _ in slots], True: [[] for _ in slots]}
        self.first = [None] * self.n
        self.last = [None] * self.n
        self.failed = {}         # slot -> first error
        self.mismatched = set()  # output differs from the slot's first
        self.durations = []      # compiler-reported compile seconds
        self.hops = []           # wall latency minus compile seconds
        self.incremental = []
        self.requests = {False: 0, True: 0}

    def recorder(self, traced):
        def record(index, latency, outcome):
            self.latency[traced][index].append(latency)
            self.requests[traced] += 1
            if not outcome.ok:
                self.failed.setdefault(index, outcome.error)
            self.last[index] = outcome
            if self.first[index] is None:
                self.first[index] = outcome
            elif (outcome.ok and self.first[index].ok
                  and self.canonical(outcome.text)
                  != self.canonical(self.first[index].text)):
                self.mismatched.add(index)
            if not traced:
                self.durations.append(outcome.duration_s)
                self.hops.append(max(0.0, latency - outcome.duration_s))
                self.incremental.append(outcome.incremental)
        return record

    def medians(self, traced=False):
        return [statistics.median(v) for v in self.latency[traced] if v]


def _measure(workload, seconds, trace):
    """The timed phase; returns ``(rounds, rounds run, timed seconds,
    tracer, wrap points)``."""
    from compilebench.inputs import unrenamed
    from compilebench.layers import wrap_points
    from compilebench.tracer import Tracer

    # served texts carry their round's array names; compare them without
    rounds = Rounds(workload.slots, unrenamed if workload.name ==
                    "serve-mixed" else str)
    tracer = Tracer()
    points = wrap_points() if trace and workload.name != "serve-mixed" else []
    minimum = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    count = 0
    # stop at the round boundary nearest to ``seconds``
    while (count < minimum or time.perf_counter() - start
           + 0.5 * (time.perf_counter() - start) / count < seconds):
        traced = bool(trace) and count % 2 == 1
        if traced and points:
            tracer.install(points)
        try:
            workload.run_round(count, rounds.recorder(traced))
        finally:
            tracer.uninstall()
        count += 1
    return rounds, count, time.perf_counter() - start, tracer, points


def _tail(medians):
    """The highest percentile of ``medians`` with at least
    :data:`TAIL_BEYOND` samples beyond it: ``(value, percentile)``."""
    ordered = sorted(medians)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def _oracle(workload, rounds, seed):
    """Check every output; returns ``(failed slots, problems that make
    the run incorrect, findings)``."""
    from compilebench.oracle import check_output, reference_identical
    from repro.batch import compile_one

    failed = dict(rounds.failed)
    incorrect = [f"{workload.slots[i].name}: output differs between rounds"
                 for i in sorted(rounds.mismatched)]
    checks = workload.texts_to_check(rounds.last)
    for index, (source, output) in sorted(checks.items()):
        if workload.name in ("edit-stream", "serve-mixed"):
            # a delta or a served reply must equal a cold local compile
            cold = compile_one(workload.slots[index].name, source)
            if not cold.ok or cold.annotated_source != output:
                incorrect.append(f"{workload.slots[index].name}: output "
                                 f"differs from a cold compile_one")
        problems = check_output(output, seed * 1000 + index)
        if problems:
            failed.setdefault(index, "; ".join(problems))
    for index, slot in enumerate(workload.slots[:REFERENCE_SAMPLE]):
        try:
            same, differing = reference_identical(slot.text)
        except Exception as error:  # noqa: BLE001 - reported, run goes on
            failed.setdefault(index, f"reference backend: "
                                     f"{type(error).__name__}: {error}")
            continue
        if not same:
            incorrect.append(f"{slot.name}: reference backend differs in "
                             f"{differing} dataflow variables")
    findings = [f"{workload.slots[i].describe}: {error}"
                for i, error in sorted(failed.items())]
    return failed, incorrect, findings


def _end_to_end(workload, rounds, count, timed_s, cpu_s, rss_mb, setup_s,
                failed, seed):
    from compilebench.oracle import quality_metrics

    medians = rounds.medians()
    tail, percentile = _tail(medians)
    quality, quality_findings = quality_metrics(seed)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1000.0 * statistics.median(medians),
        "latency_tail_ms": 1000.0 * tail,
        "programs_per_s": len(medians) / sum(medians),
        "ok_frac": (rounds.n - len(failed)) / rounds.n,
        "peak_rss_mb": rss_mb,
        "server_cpu_ms_per_req": 1000.0 * cpu_s / rounds.requests[False],
        **quality,
    }
    notes = [f"latency_tail_ms: p{percentile:.1f} of {len(medians)} "
             f"per-input medians ({TAIL_BEYOND} beyond), {count} rounds "
             f"in {timed_s:.2f} s"]
    return metrics, notes + [f"quality suite: {f}" for f in quality_findings]


def _per_layer(workload, rounds, tracer, points):
    from compilebench import selftest
    from compilebench.layers import layer_metrics, memo_fractions, p50_ms
    from compilebench.tracer import summarize
    from repro.service import ServiceClient

    incorrect = selftest.run() + selftest.unpatched_problems(points)
    rerouted = 0
    queue_ms = 0.0
    if workload.name == "serve-mixed":
        untraced, traced = workload.fleets
        queue_ms = 1000.0 * untraced.shard_queue_p50_s()
        for fleet in workload.fleets:
            with ServiceClient(port=fleet.port) as client:
                rerouted += client.status()["fleet"]["rerouted"]
        untraced.stop()
        spans = _child_spans(traced.stop())
        summary, counters = spans["summary"], spans["counters"]
        requests = traced.requests
        workload.fleets = []
    else:
        summary, counters = summarize(tracer.spans), tracer.counters
        requests = rounds.requests[True]
    metrics = layer_metrics(summary, counters, requests)
    metrics.update(memo_fractions(rounds.incremental))
    metrics["service.compile_ms_p50"] = p50_ms(rounds.durations)
    metrics["service.queue_ms_p50"] = queue_ms
    metrics["fleet.hop_ms_p50"] = p50_ms(rounds.hops)
    metrics["fleet.rerouted"] = rerouted
    metrics["trace.overhead_frac"] = (sum(rounds.medians(True))
                                      / sum(rounds.medians(False)) - 1.0)
    # the workloads must exercise the layers they claim
    if workload.name == "cold-jumpy":
        top = max(summary, key=lambda name: summary[name]["self_s"])
        if top != "core.certify":
            incorrect.append(f"layer placement: largest self time on "
                             f"cold-jumpy is {top}, not core.certify")
    if workload.name == "cold-structured":
        calls = summary.get("core.certify", {}).get("calls", 0)
        if calls:
            incorrect.append(f"layer placement: core.certify ran {calls} "
                             f"times on cold-structured")
    shares = sorted(((v["self_s"], k) for k, v in summary.items()),
                    reverse=True)
    total = sum(s for s, _ in shares) or 1.0
    notes = ["self-time shares: " + ", ".join(
        f"{k} {100 * s / total:.1f}%" for s, k in shares[:8])]
    return metrics, incorrect, notes


def _child_spans(output):
    for line in output.splitlines():
        if line.startswith("SPANS "):
            return json.loads(line[len("SPANS "):])
    raise RuntimeError("traced fleet printed no spans")


def main(argv=None):
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no compiler source under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, src]
    from compilebench.layers import PER_LAYER
    from compilebench.record import (NoiseWindow, environment, peak_rss_mb,
                                     process_cpu_s)

    window = NoiseWindow()
    import_start = time.perf_counter()
    try:
        import repro.batch  # noqa: F401 - timed: the compile path's imports
        import repro.machine.executor  # noqa: F401
        import repro.sched  # noqa: F401
        import repro.service  # noqa: F401
        import repro.testing.edits  # noqa: F401
    except ImportError as error:
        print(f"error: cannot import the compiler from {src}: {error}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start

    workload = _make(args.workload, args.seed, bool(args.trace))
    try:
        setups = []
        for repeat in range(workload.setup_repeats):
            if repeat:
                workload.close()   # off the clock: stop the last set-up's fleet
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        pid = (workload.fleets[0].pid if args.workload == "serve-mixed"
               else "self")
        cpu0 = process_cpu_s(pid)
        rounds, count, timed_s, tracer, points = _measure(
            workload, args.seconds, args.trace)
        cpu_s = process_cpu_s(pid) - cpu0
        rss_mb = peak_rss_mb(pid)
        failed, incorrect, findings = _oracle(workload, rounds, args.seed)
        if args.trace:
            metrics, layer_incorrect, notes = _per_layer(workload, rounds,
                                                         tracer, points)
            incorrect += layer_incorrect
            units = PER_LAYER
        else:
            metrics, notes = _end_to_end(
                workload, rounds, count, timed_s, cpu_s, rss_mb,
                import_s + statistics.median(setups), failed, args.seed)
            units = END_TO_END_UNITS
    finally:
        workload.close()

    noise = window.close()
    noise.update(setup_runs_s=setups, import_s=import_s, timed_s=timed_s,
                 rounds=count, timed_cpu_s=cpu_s,
                 cpu_pid="fleet" if pid != "self" else "self")
    print("env " + json.dumps(environment(ROOT)))
    print("noise " + json.dumps(noise))
    for line in notes:
        print(line)
    for finding in findings:
        print(f"finding: {finding}")
    for problem in incorrect:
        print(f"incorrect: {problem}")
    result = {
        "correct": not incorrect,
        "attempted": rounds.n,
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
