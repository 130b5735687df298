"""Run ``repro fleet`` (2 shards, 1 thread worker each) as a child.

``--trace 1`` wraps the compile path in this process before the fleet
starts (the same points as the in-process workloads,
:func:`compilebench.layers.wrap_points`) and, once the fleet has been
drained, prints one ``SPANS {json}`` line with the per-span self times
and counters, after uninstalling the wrappers.
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

    from compilebench.layers import wrap_points
    from compilebench.tracer import Tracer, summarize
    from repro.cli import main as repro_main

    tracer = Tracer()
    if args.trace:
        tracer.install(wrap_points())
    try:
        status = repro_main(["fleet", "--shards", "2", "--workers", "1",
                             "--pool", "thread", "--port", "0"])
    finally:
        tracer.uninstall()
    if args.trace:
        print("SPANS " + json.dumps({"summary": summarize(tracer.spans),
                                     "counters": tracer.counters}),
              flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
