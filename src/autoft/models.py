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
* `_columns(rng)`: one loop over the cycles, drawing from the seeded
  `random.Random` `rng`, that appends each cycle's values to one list per
  column, then advances its state, and returns the lists in `columns` order
  (a column that two names carry is one list, returned twice);
* `liveness_window`: the cycles an eventuality gets to discharge. Liveness
  cannot be concluded on finite traces, so the window generously covers the
  worst-case latency of the correct design;
* `expected_violated_kinds`: the kinds the model must violate (none by default).

`check_bundle_on_model` reads only what a model declares, and runs a
`tracecheck.Monitor` of the properties' bodies over each trace, under every
value of the ids each body reads.

The draws are written inline, so a draw costs no Python frame. A value
below k is `getrandbits(k.bit_length())`, drawn again while it is k or
more: the rule of CPython's `Random._randbelow_with_getrandbits`, which
`randrange(k)` calls for a `Random` whose `getrandbits` is the C one (read
in CPython 3.11's `random.py`), so a seed draws what `randrange` would. A
response is starved with probability p, by one `random()` drawn only while
it has been starved fewer than MAX_STALL cycles running. The draws are made
in the order the models first made them, and a test holds every model to
row generators over `randrange` that keep that first form.
The queue models hold `depth` = 2 entries, the fixtures' default `DEPTH`.
"""
from __future__ import annotations

import random
from bisect import insort
from collections import Counter, namedtuple

from .properties import GeneratedProperty
# `eval_property` is not called here, but perfbench's traced run patches it under this name.
from .tracecheck import Monitor, Trace, Verdict, eval_property  # noqa: F401


class ModelCheckEntry(namedtuple("ModelCheckEntry", "trace_index symb_values kind verdict")):
    """One property's verdict on one trace; symb_values holds (symbolic column, value) pairs, () if it reads none."""

    __slots__ = ()


class ModelCheckReport(namedtuple("ModelCheckReport", "model entries")):
    __slots__ = ()

    def violated(self) -> list[ModelCheckEntry]:
        return [e for e in self.entries if e.verdict.outcome == "violated"]

    def violated_kinds(self) -> frozenset[str]:
        return frozenset(e.kind for e in self.violated())

    def summary(self) -> str:
        counts = Counter(e.verdict.outcome for e in self.entries)
        return f"{self.model}: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))


MAX_STALL = 2  # cycles a response may be starved before it is acknowledged


class _Model:
    """`n_traces` seeded traces, each `_columns`' lists handed to `Trace` under `columns`.

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
        names = self.columns if self.drive + self.tail > 0 else ()  # a trace of no cycle has no column
        return [Trace(dict(zip(names, self._columns(random.Random(seed))))) for seed in range(1, self.n_traces + 1)]


class FifoModel(_Model):
    """Well-behaved untracked queue matching the `fifo` fixture."""

    name = "fifo"
    columns = ("in_val", "in_ack", "in_data", "out_val", "out_ack", "out_data")
    liveness_window = 12
    drive, tail = 20, 8
    depth = 2  # queue entries

    def _columns(self, rng):
        cols = in_val, in_ack, in_data, out_val, out_ack, out_data = [], [], [], [], [], []
        queue, stalled = [], 0
        random, bits, depth, drive = rng.random, rng.getrandbits, self.depth, self.drive
        for cycle in range(drive + self.tail):
            driving = cycle < drive
            v = 1 if driving and random() < 0.7 else 0
            while (data := bits(9)) >= 256:
                pass
            a = 1 if len(queue) < depth else 0
            out_a = 0 if driving and stalled < MAX_STALL and random() < 0.4 else 1
            stalled = 0 if out_a else stalled + 1
            in_val.append(v)
            in_ack.append(a)
            in_data.append(data)
            out_val.append(1 if queue else 0)
            out_ack.append(out_a)
            out_data.append(queue[0] if queue else 0)
            if queue and out_a:
                queue.pop(0)
            if v and a:
                queue.append(data)
        return cols


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

    def _columns(self, rng):
        in_val, in_ack, in_id, in_data, out_val, out_ack, out_id, out_data = [], [], [], [], [], [], [], []
        queue, free, stalled = [], list(range(self.n_ids)), 0  # queued (id, data); the ids free to issue, ascending
        random, bits, depth, buggy, drive = rng.random, rng.getrandbits, self.depth, self.buggy, self.drive
        for cycle in range(drive + self.tail):
            driving = cycle < drive
            v = 1 if driving and free and random() < 0.8 else 0
            k = n = len(free) if v else 0
            while k >= n > 0:  # k starts out of range, so a request draws at least once
                k = bits(n.bit_length())
            ident = free[k] if v else 0
            while (data := bits(9)) >= 256:
                pass
            full = len(queue) == depth  # before this cycle's pop, as the RTL reads it
            a = 1 if buggy or not full else 0
            head_id, head_data = queue[0] if queue else (0, 0)
            out_a = 0 if driving and stalled < MAX_STALL and random() < 0.5 else 1
            stalled = 0 if out_a else stalled + 1
            in_val.append(v)
            in_ack.append(a)
            in_id.append(ident)
            in_data.append(data)
            out_val.append(1 if queue else 0)
            out_ack.append(out_a)
            out_id.append(head_id)
            out_data.append(head_data)
            if queue and out_a:
                queue.pop(0)
                insort(free, head_id)
            if v and a:
                free.remove(ident)
                if not full:
                    queue.append((ident, data))
                # else: accepted while full, entry dropped (the bug), even if this cycle pops
        return in_val, in_ack, in_id, in_data, in_id, out_val, out_ack, out_id, out_data, out_id


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

    def _columns(self, rng):
        in_val, in_ack, in_id, in_data, out_val, out_id, out_data, busy_col = cols = [], [], [], [], [], [], [], []
        # inflight is the accepted (id, data), pending the request held while busy
        busy, inflight, respond_at, pending, next_id, faulted = 0, None, -1, None, 0, False
        random, bits, double_issue, drive = rng.random, rng.getrandbits, self.double_issue, self.drive
        for cycle in range(drive + self.tail):
            driving = cycle < drive
            if pending is None and driving and random() < 0.6:
                while (data := bits(9)) >= 256:
                    pass
                pending, next_id = (next_id, data), (next_id + 1) % self.n_ids
            fault_now = (double_issue and not faulted and busy and inflight is not None
                         and pending is None and cycle >= 4)
            if fault_now:
                pending = inflight  # reuse the in-flight id and data
            v = 1 if pending is not None else 0
            ident, data = pending if pending else (0, 0)
            a = 1 if (not busy or fault_now) else 0
            o = 1 if cycle == respond_at else 0
            out = inflight if (o and inflight) else (0, 0)
            in_val.append(v)
            in_ack.append(a)
            in_id.append(ident)
            in_data.append(data)
            out_val.append(o)
            out_id.append(out[0])
            out_data.append(out[1])
            busy_col.append(busy)
            if o:
                busy, inflight = 0, None
            if v and a:
                if fault_now:
                    faulted = True  # double accept recorded; keep first response
                else:
                    inflight, respond_at, busy = (ident, data), cycle + self.latency, 1
                pending = None
        return (*cols, busy_col)


def check_bundle_on_model(txns, props: list[GeneratedProperty], model) -> ModelCheckReport:
    """Evaluate every property over every model trace, under every value of the ids it reads.

    Each property is evaluated under only the symbolic ids its body reads:
    every value of each one's literal width, or their product if it reads
    several, and its entries name those ids alone. Entries come in
    assignment order: the k-th assignment of every property that has one,
    in property order. An id whose width is not literal, or ids with more
    than `tracecheck.MAX_ID_ASSIGNMENTS` values together, raise
    SymbolicWidthError before any trace is drawn. Unbounded eventualities
    are cut to the model's liveness window. `txns` is not read: every
    property body already names the signals it needs.

    The monitor of the bodies (`tracecheck.Monitor`) is kept on the first
    property, and taken from it while the bodies are the same, so a second
    check of the same properties renders nothing.
    """
    if not props:
        return ModelCheckReport(model.name, [])
    bodies, monitor = tuple(p.body for p in props), props[0].monitor
    if monitor is None or monitor.bodies != bodies:
        monitor = props[0].monitor = Monitor(bodies)
    order = [(a, props[i], s) for a, i, s in monitor.entries([p.name for p in props])]  # each index by its property
    entries, new, window = [], tuple.__new__, model.liveness_window  # not the records' `__new__`, written in Python
    for idx, out in enumerate(monitor.check(trace, window) for trace in model.traces()):
        entries += [new(ModelCheckEntry, (idx, a, p.kind, new(Verdict, (p.name, out[s], out[s + 1]))))
                    for a, p, s in order]
    return ModelCheckReport(model.name, entries)


# Module name -> model factory for the `check` command and the test suite.
MODEL_REGISTRY = {
    "fifo": FifoModel,
    "noc_buffer": lambda: NocBufferModel(buggy=False),
    "noc_buffer_buggy": lambda: NocBufferModel(buggy=True),
    "pipeline": lambda: PipelineModel(double_issue=False),
}
