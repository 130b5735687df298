"""The four workloads: what one round sends, and how each is set up.

A round sends every slot (one input or request) once; the timed phase
repeats rounds, and each slot's latency is the median over its rounds.

* ``cold-jumpy`` — serial ``compile_one(cache=None)`` over programs
  that jump out of loops: path-enumeration certification does most of
  the work.
* ``cold-structured`` — the same entry point over jump-free programs:
  the write solve never certifies, so the frontend, solver and
  annotator do the work.
* ``edit-stream`` — cumulative seeded edits through ``compile_delta``
  against a cache warmed in set-up.  Every round starts from a copy of
  the warm cache, so each round does the same work.
* ``serve-mixed`` — one client, one connection, a closed loop with a
  window of one, against a ``repro fleet`` child process: fresh
  programs, deltas routed by base digest, and hot repeats.  Each round
  renames the arrays (:func:`~compilebench.inputs.renamed`), so its
  fresh programs and deltas miss every cache exactly as in round one.
"""

import copy
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass

from compilebench import inputs

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Outcome:
    """What one slot returned in one round."""

    ok: bool
    text: str = None
    duration_s: float = 0.0      # compile time the compiler reported
    incremental: dict = None
    error: str = None


def _from_compiled(compiled):
    return Outcome(ok=compiled.ok, text=compiled.annotated_source,
                   duration_s=compiled.duration_s,
                   incremental=compiled.incremental, error=compiled.error)


def _guarded(call):
    """Run one compile; a crash inside the compiler becomes a failed
    outcome (it is reported as a finding) instead of ending the run."""
    try:
        return call()
    except Exception as error:  # noqa: BLE001 - the benchmark must go on
        return Outcome(ok=False, error=f"{type(error).__name__}: {error}")


@dataclass
class Slot:
    name: str
    text: str
    describe: str


class ColdWorkload:
    """Serial ``compile_one(cache=None)`` over seeded programs."""

    setup_repeats = 3

    def __init__(self, name, seed, count, jumpy):
        self.name = name
        self.seed = seed
        self.count = count
        self.jumpy = jumpy
        self.slots = []

    def setup(self):
        from repro.batch import compile_one

        drawn = inputs.programs(self.name, self.seed, self.count,
                                lambda index: self.jumpy)
        self.slots = [Slot(p.name, p.text, p.describe()) for p in drawn]
        # first-call costs (lazy imports, plan caches) stay out of round one
        _guarded(lambda: compile_one("warm-up", drawn[0].text))

    def order(self, round_index):
        order = list(range(len(self.slots)))
        inputs.rng_for(self.name, f"{self.seed}/{round_index}").shuffle(order)
        return order

    def run_round(self, round_index, record):
        # through the driver module's attribute, where a traced round
        # has wrapped it
        from repro.batch import driver

        for index in self.order(round_index):
            slot = self.slots[index]
            start = time.perf_counter()
            outcome = _guarded(lambda: _from_compiled(
                driver.compile_one(slot.name, slot.text)))
            record(index, time.perf_counter() - start, outcome)

    def texts_to_check(self, outcomes):
        """``{slot index: (source, output)}`` for the oracle."""
        return {i: (s.text, outcomes[i].text)
                for i, s in enumerate(self.slots) if outcomes[i].ok}

    def close(self):
        pass


class EditStream(ColdWorkload):
    """Cumulative seeded edits through ``compile_delta``."""

    bases = 8
    #: Edit kinds applied to every base, in order.  An ``insert`` changes
    #: the flow graph, so the write placement is solved and certified
    #: again; a ``scalar_rhs`` edit changes only statement text, so the
    #: whole solve and the certification verdict replay from the memo.
    #: With one re-certified delta in five, the median and the tail
    #: percentile (10 deltas beyond it, of 40) both fall inside the
    #: replayed group, and the eight re-certified deltas weigh in
    #: ``programs_per_s``.  A median or tail that fell among the few
    #: re-certified deltas, or on the edge between the groups, would
    #: follow the spread of certification cost from seed to seed.
    edit_kinds = ("scalar_rhs", "insert", "scalar_rhs", "scalar_rhs",
                  "scalar_rhs")

    def __init__(self, seed):
        super().__init__("edit-stream", seed, self.bases, jumpy=True)
        self.warm = None
        self.base_digest = []

    def setup(self):
        from repro.batch import PipelineCache, compile_one, source_fingerprint
        from repro.testing.edits import EditModel

        drawn = inputs.programs(self.name, self.seed, self.count,
                                lambda index: True)
        model = EditModel(seed=inputs.rng_for(self.name, self.seed)
                          .randrange(2 ** 31))
        self.slots, self.base_digest = [], []
        for program in drawn:
            previous = program.text
            for step, kind in enumerate(self.edit_kinds):
                edited = getattr(model, kind)(previous)
                if edited is None or edited == previous:
                    kind, edited = model.random_edit(previous)
                self.slots.append(Slot(
                    f"{program.name}+{step + 1}", edited,
                    f"{program.describe()} then {step + 1} edit(s), "
                    f"last {kind}"))
                self.base_digest.append(source_fingerprint(previous))
                previous = edited
        cache = PipelineCache()
        for program in drawn:
            _guarded(lambda: compile_one(program.name, program.text, cache))
        self.warm = cache

    def order(self, round_index):
        return range(len(self.slots))   # cumulative edits go in order

    def run_round(self, round_index, record):
        from repro.batch import driver

        cache = copy.deepcopy(self.warm)
        for index in self.order(round_index):
            slot = self.slots[index]
            digest = self.base_digest[index]
            start = time.perf_counter()
            outcome = _guarded(lambda: _from_compiled(driver.compile_delta(
                slot.name, slot.text, cache, base_digest=digest)))
            record(index, time.perf_counter() - start, outcome)


# -- serve-mixed -------------------------------------------------------------------

class FleetProcess:
    """A ``repro fleet`` child process (2 shards, 1 thread worker each)."""

    def __init__(self, root, trace=False):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "fleet_child.py"),
             "--trace", "1" if trace else "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self._stderr = deque(maxlen=40)
        self._stderr_reader = threading.Thread(
            target=self._drain_stderr, daemon=True)
        self._stderr_reader.start()
        line = self.process.stdout.readline()
        if "listening on" not in line:
            self.process.kill()
            self.process.wait()
            raise RuntimeError(f"fleet did not start: {line!r} "
                               f"{''.join(self._stderr)}")
        # "repro-fleet router listening on H:P (2 shards: H:P, H:P)"
        words = line.replace("(", " ").replace(")", " ").replace(",", " ")
        addresses = [w for w in words.split() if ":" in w and
                     w.rsplit(":", 1)[1].isdigit()]
        self.port = int(addresses[0].rsplit(":", 1)[1])
        self.shard_ports = [int(a.rsplit(":", 1)[1]) for a in addresses[1:]]
        self.pid = self.process.pid
        self.requests = 0

    def _drain_stderr(self):
        for line in self.process.stderr:
            self._stderr.append(line)

    def shard_queue_p50_s(self):
        """Count-weighted mean of the shards' queue-time p50s."""
        from repro.service import ServiceClient

        total = weight = 0.0
        for port in self.shard_ports:
            with ServiceClient(port=port) as client:
                latency = client.status()["latency"]["queue_s"]
            total += latency["p50_s"] * latency["count"]
            weight += latency["count"]
        return total / weight if weight else 0.0

    def stop(self):
        """Drain the fleet and wait for the child; return what it
        printed after the announce line."""
        from repro.service import ServiceClient, ServiceError

        if self.process.poll() is None:
            try:
                with ServiceClient(port=self.port, timeout_s=30) as client:
                    client.drain()
            except (ServiceError, OSError):
                pass
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.terminate()
            try:
                self.process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        rest = self.process.stdout.read()
        self.process.stdout.close()
        self._stderr_reader.join(timeout=5)
        return rest


class ServeMixed:
    """Closed loop, window one, against a fleet child process."""

    name = "serve-mixed"
    bases = 16
    hot_every = 3
    setup_repeats = 3

    def __init__(self, seed, root, trace=False):
        self.seed = seed
        self.root = root
        self.trace = trace
        self.fleets = []
        self.slots = []
        self.kinds = []      # (kind, base index) per slot
        self.pairs = []      # (base text, edited text) per base
        self.last_tag = None

    def setup(self):
        from repro.testing.edits import EditModel

        drawn = inputs.programs(self.name, self.seed, self.bases,
                                lambda index: False)
        model = EditModel(seed=inputs.rng_for(self.name, self.seed)
                          .randrange(2 ** 31))
        self.slots, self.kinds, self.pairs = [], [], []
        for index, program in enumerate(drawn):
            _, edited = model.random_edit(program.text)
            self.pairs.append((program.text, edited))
            kinds = ["fresh"] + (["hot"] if index % self.hot_every == 0
                                 else []) + ["delta"]
            for kind in kinds:
                text = edited if kind == "delta" else program.text
                self.slots.append(Slot(f"{program.name}:{kind}", text,
                                       f"{program.describe()} ({kind})"))
                self.kinds.append((kind, index))
        # traced runs alternate rounds between an untraced and a traced fleet
        self.fleets = [FleetProcess(self.root)]
        if self.trace:
            self.fleets.append(FleetProcess(self.root, trace=True))
        for fleet in self.fleets:
            self._send_round(fleet, "w", lambda *args: None)

    def fleet_for(self, round_index):
        return self.fleets[round_index % len(self.fleets)]

    def texts(self, tag):
        """The slot texts of the round tagged ``tag``, plus each delta's
        base digest."""
        from repro.batch import source_fingerprint

        texts, digests = [], []
        for kind, index in self.kinds:
            base, edited = self.pairs[index]
            base = inputs.renamed(base, tag)
            texts.append(inputs.renamed(edited, tag) if kind == "delta"
                         else base)
            digests.append(source_fingerprint(base) if kind == "delta"
                           else None)
        return texts, digests

    def run_round(self, round_index, record):
        self.last_tag = f"r{round_index}"
        self._send_round(self.fleet_for(round_index), self.last_tag, record)

    def _send_round(self, fleet, tag, record):
        from repro.service import ServiceClient

        texts, digests = self.texts(tag)
        with ServiceClient(port=fleet.port, timeout_s=60) as client:
            for index, slot in enumerate(self.slots):
                text, digest = texts[index], digests[index]
                start = time.perf_counter()
                outcome = _guarded(lambda: self._request(
                    client, slot.name, text, digest))
                record(index, time.perf_counter() - start, outcome)
                fleet.requests += 1

    @staticmethod
    def _request(client, name, text, digest):
        if digest is None:
            reply = client.compile(text, name=name)
        else:
            reply = client.compile_delta(text, base_digest=digest, name=name)
        return Outcome(ok=bool(reply.get("ok")),
                       text=reply.get("annotated_source"),
                       duration_s=reply.get("duration_s", 0.0),
                       incremental=reply.get("incremental"),
                       error=reply.get("error"))

    def texts_to_check(self, outcomes):
        texts, _ = self.texts(self.last_tag)
        return {i: (texts[i], outcomes[i].text)
                for i in range(len(self.slots)) if outcomes[i].ok}

    def close(self):
        for fleet in self.fleets:
            fleet.stop()
        self.fleets = []
