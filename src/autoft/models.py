"""Executable reference machines for checking generated properties.

Each model simulates a small design together with a well-behaved environment
and emits concrete traces with the same column names the bundled fixture RTL
would produce. Running the generated property set over those traces shows the
properties mean what they should: the correct machines produce no violations,
the deliberately broken ones produce exactly the expected ones.

The broken buffer reproduces a classic queue deadlock at desk scale: its
acknowledge ignores the full condition, so an accepted request can be dropped
and its response never appears. The fixed variant gates the acknowledge with
"not full". The pipeline model holds a single request in flight; its fault
mode double-issues an id that is already outstanding.

A model is a `_Model` subclass that declares, then simulates:

* `columns`: the trace's signal names, in order;
* `_cycles(st)`: a generator over the seeded stimulus `st` that yields one
  tuple per cycle, in `columns` order, and then advances its state;
* `liveness_window`: the cycles an eventuality gets to discharge. Liveness
  cannot be concluded on finite traces, so the window generously covers the
  worst-case latency of the correct design;
* `expected_violated_kinds`: the kinds the model must violate (none by default).

`check_bundle_on_model` reads only what a model declares. It takes the values
of each symbolic id from the id's node: every value of its literal width,
which is what `(* anyconst *)` ranges over. Each property is evaluated under
only the ids its body reads, and its entries name those alone: a property
that reads no id is evaluated once per trace and its entry names no id value.
Before any trace is drawn, each body is compiled once per value of the ids
it reads, each id compiled as a constant and no node rewritten; a trace is
then evaluated into one memo, in which a subtree shared by two bodies is
derived once.
The queue models hold `depth` = 2 entries, the fixtures' default `DEPTH`.
"""
from __future__ import annotations

import random
from collections import Counter, namedtuple
from itertools import product

from .diagnostics import SymbolicWidthError
from .parser import literal_width_bits
from .properties import GeneratedProperty
# `eval_property` is not called here, but perfbench's traced run patches it under this name.
from .tracecheck import VACUOUS, Compiler, Trace, Verdict, eval_property  # noqa: F401


class ModelCheckEntry(namedtuple("ModelCheckEntry", "trace_index symb_values kind verdict")):
    """One property's verdict on one trace; symb_values holds (symbolic column, value) pairs, () if it reads none."""

    __slots__ = ()


class ModelCheckReport(namedtuple("ModelCheckReport", "model entries")):
    __slots__ = ()

    def violated(self) -> list[ModelCheckEntry]:
        return [e for e in self.entries if e.verdict.outcome == "violated"]

    def violated_kinds(self) -> frozenset[str]:
        return frozenset(e.kind for e in self.violated())

    def pending(self) -> list[ModelCheckEntry]:
        return [e for e in self.entries if e.verdict.outcome == "pending"]

    def summary(self) -> str:
        counts = Counter(e.verdict.outcome for e in self.entries)
        return f"{self.model}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


class _Stimulus:
    """Deterministic random stimulus with bounded response starvation."""

    MAX_STALL = 2  # cycles a response may be starved before it is acknowledged

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self._stalled = 0

    def flip(self, p: float) -> bool:
        return self.rng.random() < p

    def ack(self, p_stall: float) -> int:
        if self._stalled >= self.MAX_STALL or not self.flip(p_stall):
            self._stalled = 0
            return 1
        self._stalled += 1
        return 0


class _Model:
    """`n_traces` seeded traces, each `_cycles`' rows transposed onto `columns`.

    The environment requests for `drive` cycles, then drains for `tail` (class defaults).
    """

    name: str
    columns: tuple[str, ...]
    liveness_window: int
    expected_violated_kinds: frozenset[str] = frozenset()

    def __init__(self, n_traces: int = 6, drive: int | None = None, tail: int | None = None):
        self.n_traces = n_traces
        self.drive = self.drive if drive is None else drive
        self.tail = self.tail if tail is None else tail

    def traces(self) -> list[Trace]:
        return [Trace(dict(zip(self.columns, zip(*self._cycles(_Stimulus(seed))))))
                for seed in range(1, self.n_traces + 1)]


class FifoModel(_Model):
    """Well-behaved untracked queue matching the `fifo` fixture."""

    name = "fifo"
    columns = ("in_val", "in_ack", "in_data", "out_val", "out_ack", "out_data")
    liveness_window = 12
    drive, tail = 20, 8
    depth = 2  # queue entries

    def _cycles(self, st):
        queue: list[int] = []
        for cycle in range(self.drive + self.tail):
            driving = cycle < self.drive
            in_val = 1 if driving and st.flip(0.7) else 0
            in_data = st.rng.randrange(256)
            in_ack = 1 if len(queue) < self.depth else 0
            out_val = 1 if queue else 0
            out_ack = st.ack(0.4) if driving else 1
            yield in_val, in_ack, in_data, out_val, out_ack, queue[0] if queue else 0
            if out_val and out_ack:
                queue.pop(0)
            if in_val and in_ack:
                queue.append(in_data)


class NocBufferModel(_Model):
    """Id-tracked queue matching the `noc_buffer` fixtures.

    With buggy=True the acknowledge ignores the full condition and a request
    accepted while full is silently dropped, so the response for its id never
    appears: the tracked liveness check must catch exactly that. As in the
    RTL, "full" is the occupancy at the start of the cycle, before its pop.
    """

    n_ids = 4
    depth = 2  # queue entries
    columns = (
        "buf_in_val", "buf_in_ack", "buf_in_mshrid", "buf_in_data", "buf_in_transid",
        "buf_out_val", "buf_out_ack", "buf_out_mshrid", "buf_out_data", "buf_out_transid",
    )
    liveness_window = 14
    drive, tail = 22, 10

    def __init__(self, buggy: bool = False, **sizes):
        super().__init__(**sizes)
        self.buggy = buggy
        self.name = "noc_buffer_buggy" if buggy else "noc_buffer"
        self.expected_violated_kinds = frozenset({"liveness"}) if buggy else frozenset()

    def _cycles(self, st):
        queue: list[tuple[int, int]] = []
        env_outstanding: set[int] = set()
        for cycle in range(self.drive + self.tail):
            driving = cycle < self.drive
            free = sorted(set(range(self.n_ids)) - env_outstanding)
            in_val = 1 if driving and free and st.flip(0.8) else 0
            in_id = free[st.rng.randrange(len(free))] if in_val else 0
            in_data = st.rng.randrange(256)
            full = len(queue) == self.depth  # before this cycle's pop, as the RTL reads it
            in_ack = 1 if self.buggy or not full else 0
            out_val = 1 if queue else 0
            out_id, out_data = queue[0] if queue else (0, 0)
            out_ack = st.ack(0.5) if driving else 1
            yield (in_val, in_ack, in_id, in_data, in_id,
                   out_val, out_ack, out_id, out_data, out_id)
            if out_val and out_ack:
                queue.pop(0)
                env_outstanding.discard(out_id)
            if in_val and in_ack:
                env_outstanding.add(in_id)
                if not full:
                    queue.append((in_id, in_data))
                # else: accepted while full, entry dropped (the bug), even if this cycle pops


class PipelineModel(_Model):
    """Single-outstanding pipeline matching the `pipeline` fixture.

    The environment may raise its request while the stage is busy and then
    holds it stable until accepted. With double_issue=True the acknowledge is
    forced high once while busy and the environment reuses the in-flight id,
    breaking the one-per-id uniqueness assumption.
    """

    latency = 2
    n_ids = 4
    columns = (
        "pipe_in_val", "pipe_in_ack", "pipe_in_transid", "pipe_in_data",
        "pipe_out_val", "pipe_out_transid", "pipe_out_data", "busy", "pipe_in_active",
    )
    liveness_window = 10
    drive, tail = 22, 6

    def __init__(self, double_issue: bool = False, **sizes):
        super().__init__(**sizes)
        self.double_issue = double_issue
        self.name = "pipeline_double_issue" if double_issue else "pipeline"
        # A double issue breaks uniqueness directly; the phantom request also
        # leaves the outstanding counter permanently above zero after its one
        # response, so the activity check fails as a consequence.
        self.expected_violated_kinds = frozenset({"uniqueness", "active_covered"} if double_issue else ())

    def _cycles(self, st):
        busy = 0
        inflight: tuple[int, int] | None = None  # (id, data)
        respond_at = -1
        pending: tuple[int, int] | None = None  # request held while busy
        next_id = 0
        faulted = False
        for cycle in range(self.drive + self.tail):
            driving = cycle < self.drive
            if pending is None and driving and st.flip(0.6):
                pending = (next_id, st.rng.randrange(256))
                next_id = (next_id + 1) % self.n_ids
            fault_now = (self.double_issue and not faulted and busy and inflight is not None
                         and pending is None and cycle >= 4)
            if fault_now:
                pending = inflight  # reuse the in-flight id and data
            in_val = 1 if pending is not None else 0
            in_id, in_data = pending if pending else (0, 0)
            in_ack = 1 if (not busy or fault_now) else 0
            out_val = 1 if cycle == respond_at else 0
            out_id, out_data = inflight if (out_val and inflight) else (0, 0)
            yield in_val, in_ack, in_id, in_data, out_val, out_id, out_data, busy, busy
            if out_val:
                busy = 0
                inflight = None
            if in_val and in_ack:
                if fault_now:
                    faulted = True  # double accept recorded; keep first response
                else:
                    inflight = (in_id, in_data)
                    respond_at = cycle + self.latency
                    busy = 1
                pending = None


# The most id assignments one property is checked under: 10 bits of ids.
MAX_ID_ASSIGNMENTS = 1 << 10


def check_bundle_on_model(txns, props: list[GeneratedProperty], model) -> ModelCheckReport:
    """Evaluate every property over every model trace, under every value of the ids it reads.

    Each property is evaluated under only the symbolic ids its body reads:
    every value of each one's literal width, or their product if it reads
    several, and its entries name those ids alone. An id whose width is not
    literal, or ids with more than MAX_ID_ASSIGNMENTS values together, raise
    SymbolicWidthError before the property is compiled. Unbounded
    eventualities are cut to the model's liveness window. `txns` is not
    read: every property body already names the signals it needs.

    Before any trace is drawn, each body is compiled once per id assignment
    it reads, every id a constant of its value, all through one compiler:
    a subtree that reads no id (handshakes, the counter) is one closure in
    every body, and one that reads an id (the in-flight bit, the sampled
    register, matched handshakes) is one closure per value, shared by every
    property that reads it. Each trace is then evaluated into one memo, so
    each of those closures derives its column once per trace. Entries come
    in assignment order: the k-th assignment of every property that has one,
    in property order.
    """
    compiler = Compiler(model.liveness_window)
    rows = []  # per property, (assignment, property, evaluator with the body's ids fixed under it)
    for p in props:
        widths = {}
        for name, symb in compiler.ids(p.body).items():
            widths[name] = literal_width_bits(symb.width_expr)
            if widths[name] is None:
                raise SymbolicWidthError(f"symbolic id '{name}' has no literal width: '{symb.width_expr}'")
        if (count := 1 << sum(widths.values())) > MAX_ID_ASSIGNMENTS:
            ids = ", ".join(f"'{name}' of {bits} bits" for name, bits in widths.items())
            raise SymbolicWidthError(f"property '{p.name}' reads symbolic ids {ids}: {count} values to check, "
                                     f"more than {MAX_ID_ASSIGNMENTS}")
        assigns = [tuple(zip(widths, values)) for values in product(*(range(1 << b) for b in widths.values()))]
        rows.append([(a, p, compiler.property(p.body, dict(a))) for a in assigns])
    order = [row[k] for k in range(max(map(len, rows), default=0)) for row in rows if k < len(row)]

    entries: list[ModelCheckEntry] = []
    for idx, trace in enumerate(model.traces()):
        memo, n = dict(trace.columns), trace.length
        entries += [ModelCheckEntry(idx, a, p.kind,
                                    Verdict(p.name, *run(memo, n)) if n else Verdict(p.name, VACUOUS))
                    for a, p, run in order]
    return ModelCheckReport(model.name, entries)


# Module name -> model factory for the `check` command and the test suite.
MODEL_REGISTRY = {
    "fifo": FifoModel,
    "noc_buffer": lambda: NocBufferModel(buggy=False),
    "noc_buffer_buggy": lambda: NocBufferModel(buggy=True),
    "pipeline": lambda: PipelineModel(double_issue=False),
}
