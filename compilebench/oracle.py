"""Output oracle: read an annotated program back and run it.

The compiler's output is text.  The oracle reads that text back
(``READ_Send{...}`` lines become :class:`~repro.lang.ast.Comm` nodes;
the parser itself rejects ``{``) and executes it in the machine
simulator under the ``never``, ``always`` and seeded ``random`` branch
policies.  A receive without a matching send, or a message still
outstanding when the program ends, fails the input.  This judges the
generated communication by running it, not by asking the placement
code that produced it.

The simulated run times and message counts of a fixed quality suite
give the code-quality metrics; :func:`reference_identical` re-solves an
input with the reference backend and compares every dataflow variable.
"""

import math
import re

from repro.lang import ast
from repro.lang.parser import parse
from repro.machine.executor import ConditionPolicy, Simulator
from repro.util.errors import ReproError

#: Loop bound the generated programs use; small enough to keep each
#: simulation in the low milliseconds, large enough for nested loops
#: to repeat their bodies.
BINDINGS = {"n": 4}

_COMM_LINE = re.compile(
    r"^(?P<prefix>\s*(?:\d+\s+)?)"
    r"(?P<kind>READ|WRITE)(?P<tags>(?:_[A-Z][a-z]+)*)"
    r"\{(?P<args>.*)\}\s*$")
_PLACEHOLDER = "zzcomm"

#: Which of the paper's two solutions a phase comes from: BEFORE
#: (READ) problems send at EAGER and receive at LAZY, AFTER (WRITE)
#: problems the other way round; atomic operations are LAZY.
_TIMING = {("read", "send"): "EAGER", ("read", "recv"): "LAZY",
           ("write", "send"): "LAZY", ("write", "recv"): "EAGER"}


def _split_args(text):
    """Split ``a(1:n), b(c(i), 2)`` at top-level commas."""
    args, depth, current = [], 0, []
    for char in text:
        if char == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
            continue
        depth += (char == "(") - (char == ")")
        current.append(char)
    if current:
        args.append("".join(current).strip())
    return [arg for arg in args if arg]


def read_back(text):
    """Parse annotated source into an AST with ``Comm`` statements."""
    comms = []
    lines = []
    for line in text.splitlines():
        match = _COMM_LINE.match(line)
        if match is None:
            lines.append(line)
            continue
        tags = [t for t in match["tags"].split("_") if t]
        phase = None
        if tags and tags[-1] in ("Send", "Recv"):
            phase = tags.pop().lower()
        kind = match["kind"].lower()
        comms.append(ast.Comm(
            kind, phase, _split_args(match["args"]),
            reduce=tags[0].lower() if tags else None,
            timing=_TIMING.get((kind, phase), "LAZY")))
        lines.append(f"{match['prefix']}{_PLACEHOLDER}{len(comms) - 1} = 0")
    program = parse("\n".join(lines) + "\n")
    program.body = _restore(program.body, comms)
    return program


def _restore(body, comms):
    restored = []
    for stmt in body:
        if (isinstance(stmt, ast.Assign) and isinstance(stmt.target, ast.Var)
                and stmt.target.name.startswith(_PLACEHOLDER)):
            comm = comms[int(stmt.target.name[len(_PLACEHOLDER):])]
            comm.label = stmt.label
            stmt = comm
        elif isinstance(stmt, ast.Do):
            stmt.body = _restore(stmt.body, comms)
        elif isinstance(stmt, ast.If):
            stmt.then_body = _restore(stmt.then_body, comms)
            stmt.else_body = _restore(stmt.else_body, comms)
        restored.append(stmt)
    return restored


def policies(seed):
    """The three branch policies every output runs under."""
    return [("never", ConditionPolicy("never")),
            ("always", ConditionPolicy("always")),
            ("random", ConditionPolicy("random", seed=seed))]


def check_output(text, seed):
    """Run one annotated output under every policy; return the problems
    found (none when it is balanced under every policy)."""
    try:
        program = read_back(text)
    except ReproError as error:
        return [f"read-back: {error}"]
    problems = []
    for name, policy in policies(seed):
        simulator = Simulator(program, bindings=BINDINGS, policy=policy)
        try:
            simulator.run()
        except ReproError as error:
            problems.append(f"{name}: {error}")
            continue
        outstanding = simulator.machine_state()["outstanding"]
        if outstanding:
            left = sorted({key for (key, _), _ in outstanding})
            problems.append(f"{name}: outstanding at exit: {', '.join(left)}")
    return problems


# -- code quality ---------------------------------------------------------------

#: The fixed quality suite: generator seeds and sizes, the same for
#: every workload and every ``--seed``.
QUALITY_SUITE = tuple((index, 10 + 2 * (index % 4)) for index in range(16))
#: Random-policy runs per suite program.
QUALITY_POLICIES = 2


def quality_suite_sources():
    from repro.lang.printer import format_program
    from repro.testing.generator import ArrayProgramGenerator

    return [(f"quality-{index}",
             format_program(ArrayProgramGenerator(seed=index).program(size)))
            for index, size in QUALITY_SUITE]


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def quality_metrics(seed):
    """Simulated makespan (naive and overlap-scheduled) and message
    count of the quality suite under seeded random branch policies.

    Returns ``(metrics, findings)``; a suite program whose output fails
    the oracle is left out of the geomeans and listed in ``findings``."""
    from repro.batch import compile_one
    from repro.sched import compare_schedules

    naive, overlap, messages, findings = [], [], 0, []
    for index, (name, source) in enumerate(quality_suite_sources()):
        compiled = compile_one(name, source)
        if not compiled.ok:
            findings.append(f"{name}: compile failed: {compiled.error}")
            continue
        program = read_back(compiled.annotated_source)
        for k in range(QUALITY_POLICIES):
            policy_seed = seed * 1000 + index * QUALITY_POLICIES + k
            try:
                comparison = compare_schedules(
                    program, bindings=BINDINGS, branch="random",
                    seed=policy_seed)
            except ReproError as error:
                findings.append(f"{name} policy seed {policy_seed}: {error}")
                continue
            naive.append(comparison.naive.total_time)
            overlap.append(comparison.overlap.total_time)
            messages += comparison.naive.messages
    return {"sim_makespan": _geomean(naive),
            "sim_makespan_overlap": _geomean(overlap),
            "sim_messages": float(messages)}, findings


# -- reference backend -------------------------------------------------------------

def _solution_bits(prepared):
    from repro.core.problem import Timing
    from repro.core.solution import SHARED_VARIABLES, TIMED_VARIABLES

    bits = []
    for label in ("read", "write"):
        solution = getattr(prepared, f"{label}_solution")
        for node in prepared.analyzed.ifg.nodes():
            for variable in SHARED_VARIABLES:
                bits.append((label, node.name, variable, None,
                             solution.bits(variable, node)))
            for timing in Timing:
                for variable in TIMED_VARIABLES:
                    bits.append((label, node.name, variable, timing.name,
                                 solution.bits(variable, node, timing)))
    return bits


def reference_identical(text):
    """Whether the planned (default) and reference solver backends give
    bit-identical dataflow solutions for ``text``; returns ``(same,
    differing variable count)``."""
    from repro.commgen.pipeline import prepare_communication

    planned = _solution_bits(prepare_communication(text))
    reference = _solution_bits(prepare_communication(
        text, solver_backend="reference"))
    differing = sum(1 for a, b in zip(planned, reference) if a != b)
    differing += abs(len(planned) - len(reference))
    return differing == 0, differing
