"""Seeded inputs: generator programs and edit sequences.

Everything here is a function of ``(workload, seed)``; nothing reads the
clock or the compiler under test.  Programs come from
:class:`~repro.testing.generator.ArrayProgramGenerator` with a fixed
size mix; each carries the generator seed it was drawn with, so a
failing input can be rebuilt on its own.
"""

import random
import re
from dataclasses import dataclass

from repro.lang import ast
from repro.lang.printer import format_program
from repro.testing.generator import ArrayProgramGenerator

#: Statement counts cycled through by every program list.
SIZE_MIX = (20, 24, 28, 32)
#: Goto probability for programs that must jump out of loops; such a
#: program is redrawn until it holds at least one ``if … goto``.
JUMPY_GOTO_PROBABILITY = 0.3


@dataclass(frozen=True)
class Program:
    name: str
    text: str
    generator_seed: int
    size: int
    goto_probability: float

    def describe(self):
        return (f"{self.name} = ArrayProgramGenerator(seed="
                f"{self.generator_seed}, goto_probability="
                f"{self.goto_probability}).program(size={self.size})")


def _has_goto(statements):
    for stmt in statements:
        if isinstance(stmt, (ast.IfGoto, ast.Goto)):
            return True
        if isinstance(stmt, ast.Do) and _has_goto(stmt.body):
            return True
        if isinstance(stmt, ast.If) and (_has_goto(stmt.then_body)
                                         or _has_goto(stmt.else_body)):
            return True
    return False


def rng_for(workload, seed):
    return random.Random(f"{workload}:{seed}")


def draw_program(rng, name, size, jumpy):
    """One program: with at least one goto out of a loop when ``jumpy``,
    jump-free (``goto_probability=0``) otherwise."""
    probability = JUMPY_GOTO_PROBABILITY if jumpy else 0.0
    while True:
        generator_seed = rng.randrange(2 ** 31)
        tree = ArrayProgramGenerator(
            seed=generator_seed, goto_probability=probability).program(size)
        if not jumpy or _has_goto(tree.body):
            return Program(name, format_program(tree), generator_seed, size,
                           probability)


def programs(workload, seed, count, jumpy):
    """``count`` programs over :data:`SIZE_MIX`; program ``i`` jumps
    out of a loop when ``jumpy(i)``."""
    rng = rng_for(workload, seed)
    return [draw_program(rng, f"{workload}-s{seed}-{index}",
                         SIZE_MIX[index % len(SIZE_MIX)], jumpy(index))
            for index in range(count)]


_ARRAY_NAME = re.compile(r"\b(xa|xb|xc|ind)\b")


def renamed(text, tag):
    """``text`` with every array renamed by ``tag`` (``xa`` → ``xar3``
    for tag ``r3``): the same program and the same compile work, but a
    source text and solver problem that no cache has seen."""
    return _ARRAY_NAME.sub(lambda m: f"{m.group(1)}{tag}", text)


_RENAMED = re.compile(r"\b(xa|xb|xc|ind)r\d+\b")


def unrenamed(text):
    """Undo :func:`renamed` for a round tag ``r<number>``."""
    return _RENAMED.sub(lambda m: m.group(1), text)
