"""Checks of the span arithmetic and of the wrappers' removal.

Run at the start of every traced run; a failure makes the run report
``correct: false``.
"""

import math
import types

from compilebench.tracer import Tracer, patched_points, self_times

#: (id, name, start, end, parent): ``b`` overlaps ``a``, ``c`` outlives
#: the root, ``g`` nests inside ``a``.
SYNTHETIC = [
    (0, "root", 0.0, 10.0, None),
    (1, "a", 1.0, 4.0, 0),
    (2, "b", 3.0, 6.0, 0),
    (3, "c", 8.0, 12.0, 0),
    (4, "g", 2.0, 3.0, 1),
]
#: root: 10 - |[1, 6] ∪ [8, 10]| = 3; a: 3 - 1 = 2; the leaves keep
#: their whole duration.
EXPECTED = {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0}

_LIVE = '''
def work(n):
    return sum(range(n))

def leaf():
    return work(20000)

def middle():
    return leaf() + work(10000) + leaf()

def outer():
    return middle() + leaf() + work(5000)
'''


def _synthetic_problems():
    got = self_times(SYNTHETIC)
    return [f"synthetic span {k}: self {got[k]} != {v}"
            for k, v in EXPECTED.items() if not math.isclose(got[k], v)]


def _live_problems():
    module = types.ModuleType("compilebench_selftest_layer")
    exec(_LIVE, module.__dict__)
    originals = {name: vars(module)[name] for name in ("outer", "middle",
                                                        "leaf")}
    points = [(module, name, name, None) for name in originals]
    tracer = Tracer()
    tracer.install(points)
    try:
        module.outer()
    finally:
        tracer.uninstall()
    problems = []
    spans = tracer.spans
    root = [s for s in spans if s[4] is None]
    if len(root) != 1 or len(spans) != 5:
        return [f"live nesting recorded {len(spans)} spans, "
                f"{len(root)} roots (want 5 and 1)"]
    total = sum(self_times(spans).values())
    duration = root[0][3] - root[0][2]
    if not math.isclose(total, duration, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"live self times sum to {total}, root lasted "
                        f"{duration}")
    if patched_points(points) or any(vars(module)[name] is not original
                                     for name, original in originals.items()):
        problems.append("live wrappers still installed after uninstall")
    return problems


def run():
    """Every self-test problem found (empty when all pass)."""
    return _synthetic_problems() + _live_problems()


def unpatched_problems(points):
    """Problems if any compile-path wrapper survived its traced round."""
    left = patched_points(points)
    return [f"wrapper left installed: {name}" for name in left]
