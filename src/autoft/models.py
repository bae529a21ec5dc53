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

Liveness cannot be concluded on finite traces, so model checking evaluates
eventualities with a per-model window that generously covers the worst-case
latency of the correct design.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace

from .properties import GeneratedProperty
from .sva import Eventually, Symbolic, walk
from .tracecheck import Trace, Verdict, eval_property


@dataclass(frozen=True)
class ModelCheckEntry:
    trace_index: int
    symb_values: tuple[tuple[str, int], ...]  # (symbolic column, value) pairs
    property_name: str
    kind: str
    verdict: Verdict


@dataclass
class ModelCheckReport:
    model: str
    entries: list[ModelCheckEntry]

    def violated(self) -> list[ModelCheckEntry]:
        return [e for e in self.entries if e.verdict.outcome == "violated"]

    def violated_kinds(self) -> frozenset[str]:
        return frozenset(e.kind for e in self.violated())

    def pending(self) -> list[ModelCheckEntry]:
        return [e for e in self.entries if e.verdict.outcome == "pending"]

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for e in self.entries:
            counts[e.verdict.outcome] = counts.get(e.verdict.outcome, 0) + 1
        parts = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        return f"{self.model}: {parts}"


class _Stimulus:
    """Deterministic random stimulus with bounded response starvation."""

    def __init__(self, seed: int, max_stall: int = 2):
        self.rng = random.Random(seed)
        self.max_stall = max_stall
        self._stalled = 0

    def flip(self, p: float) -> bool:
        return self.rng.random() < p

    def ack(self, p_stall: float) -> int:
        if self._stalled >= self.max_stall or not self.flip(p_stall):
            self._stalled = 0
            return 1
        self._stalled += 1
        return 0

    def pick(self, items):
        return items[self.rng.randrange(len(items))]


class FifoModel:
    """Well-behaved untracked queue matching the `fifo` fixture."""

    name = "fifo"
    liveness_window = 12
    expected_violated_kinds: frozenset[str] = frozenset()

    def __init__(self, depth: int = 2, n_traces: int = 6, drive: int = 20, tail: int = 8):
        self.depth = depth
        self.n_traces = n_traces
        self.drive = drive
        self.tail = tail

    def traces(self) -> list[Trace]:
        return [self._trace(seed) for seed in range(1, self.n_traces + 1)]

    def _trace(self, seed: int) -> Trace:
        st = _Stimulus(seed)
        length = self.drive + self.tail
        cols: dict[str, list[int]] = {
            k: [] for k in ("in_val", "in_ack", "in_data", "out_val", "out_ack", "out_data")
        }
        queue: list[int] = []
        for cycle in range(length):
            driving = cycle < self.drive
            in_val = 1 if driving and st.flip(0.7) else 0
            in_data = st.rng.randrange(256)
            in_ack = 1 if len(queue) < self.depth else 0
            out_val = 1 if queue else 0
            out_data = queue[0] if queue else 0
            out_ack = st.ack(0.4) if driving else 1
            cols["in_val"].append(in_val)
            cols["in_ack"].append(in_ack)
            cols["in_data"].append(in_data)
            cols["out_val"].append(out_val)
            cols["out_ack"].append(out_ack)
            cols["out_data"].append(out_data)
            if out_val and out_ack:
                queue.pop(0)
            if in_val and in_ack:
                queue.append(in_data)
        return Trace(cols)


class NocBufferModel:
    """Id-tracked queue matching the `noc_buffer` fixtures.

    With buggy=True the acknowledge ignores the full condition and a request
    accepted while full is silently dropped, so the response for its id never
    appears: the tracked liveness check must catch exactly that.
    """

    n_ids = 4

    def __init__(self, buggy: bool = False, depth: int = 2, n_traces: int = 6,
                 drive: int = 22, tail: int = 10):
        self.buggy = buggy
        self.name = "noc_buffer_buggy" if buggy else "noc_buffer"
        self.depth = depth
        self.n_traces = n_traces
        self.drive = drive
        self.tail = tail
        self.liveness_window = 14
        self.expected_violated_kinds = frozenset({"liveness"}) if buggy else frozenset()

    def symb_columns(self) -> dict[str, list[int]]:
        return {"symb_buf_transid": list(range(self.n_ids))}

    def traces(self) -> list[Trace]:
        return [self._trace(seed) for seed in range(1, self.n_traces + 1)]

    def _trace(self, seed: int) -> Trace:
        st = _Stimulus(seed)
        length = self.drive + self.tail
        names = (
            "buf_in_val", "buf_in_ack", "buf_in_mshrid", "buf_in_data", "buf_in_transid",
            "buf_out_val", "buf_out_ack", "buf_out_mshrid", "buf_out_data", "buf_out_transid",
        )
        cols: dict[str, list[int]] = {k: [] for k in names}
        queue: list[tuple[int, int]] = []
        env_outstanding: set[int] = set()
        for cycle in range(length):
            driving = cycle < self.drive
            free = sorted(set(range(self.n_ids)) - env_outstanding)
            in_val = 1 if driving and free and st.flip(0.8) else 0
            in_id = st.pick(free) if in_val else 0
            in_data = st.rng.randrange(256)
            in_ack = 1 if self.buggy else (1 if len(queue) < self.depth else 0)
            out_val = 1 if queue else 0
            out_id, out_data = queue[0] if queue else (0, 0)
            out_ack = st.ack(0.5) if driving else 1
            cols["buf_in_val"].append(in_val)
            cols["buf_in_ack"].append(in_ack)
            cols["buf_in_mshrid"].append(in_id)
            cols["buf_in_transid"].append(in_id)
            cols["buf_in_data"].append(in_data)
            cols["buf_out_val"].append(out_val)
            cols["buf_out_ack"].append(out_ack)
            cols["buf_out_mshrid"].append(out_id)
            cols["buf_out_transid"].append(out_id)
            cols["buf_out_data"].append(out_data)
            if out_val and out_ack:
                queue.pop(0)
                env_outstanding.discard(out_id)
            if in_val and in_ack:
                env_outstanding.add(in_id)
                if len(queue) < self.depth:
                    queue.append((in_id, in_data))
                # else: accepted while full, entry dropped (the bug)
        return Trace(cols)


class PipelineModel:
    """Single-outstanding pipeline matching the `pipeline` fixture.

    The environment may raise its request while the stage is busy and then
    holds it stable until accepted. With double_issue=True the acknowledge is
    forced high once while busy and the environment reuses the in-flight id,
    breaking the one-per-id uniqueness assumption.
    """

    latency = 2
    n_ids = 4

    def __init__(self, double_issue: bool = False, n_traces: int = 6, drive: int = 22, tail: int = 6):
        self.double_issue = double_issue
        self.name = "pipeline_double_issue" if double_issue else "pipeline"
        self.n_traces = n_traces
        self.drive = drive
        self.tail = tail
        self.liveness_window = 10
        # A double issue breaks uniqueness directly; the phantom request also
        # leaves the outstanding counter permanently above zero after its one
        # response, so the activity check fails as a consequence.
        self.expected_violated_kinds = (
            frozenset({"uniqueness", "active_covered"}) if double_issue else frozenset()
        )

    def symb_columns(self) -> dict[str, list[int]]:
        return {"symb_pipe_transid": list(range(self.n_ids))}

    def traces(self) -> list[Trace]:
        return [self._trace(seed) for seed in range(1, self.n_traces + 1)]

    def _trace(self, seed: int) -> Trace:
        st = _Stimulus(seed)
        length = self.drive + self.tail
        names = (
            "pipe_in_val", "pipe_in_ack", "pipe_in_transid", "pipe_in_data",
            "pipe_out_val", "pipe_out_transid", "pipe_out_data", "busy", "pipe_in_active",
        )
        cols: dict[str, list[int]] = {k: [] for k in names}
        busy = 0
        inflight: tuple[int, int] | None = None  # (id, data)
        respond_at = -1
        pending: tuple[int, int] | None = None  # request held while busy
        next_id = 0
        faulted = False
        for cycle in range(length):
            driving = cycle < self.drive
            if pending is None and driving and st.flip(0.6):
                pending = (next_id, st.rng.randrange(256))
                next_id = (next_id + 1) % self.n_ids
            fault_now = (
                self.double_issue and not faulted and busy and inflight is not None
                and pending is None and cycle >= 4
            )
            if fault_now:
                pending = (inflight[0], inflight[1])  # reuse the in-flight id and data
            in_val = 1 if pending is not None else 0
            in_id, in_data = pending if pending else (0, 0)
            in_ack = 1 if (not busy or fault_now) else 0
            out_val = 1 if cycle == respond_at else 0
            out_id, out_data = inflight if (out_val and inflight) else (0, 0)
            cols["pipe_in_val"].append(in_val)
            cols["pipe_in_ack"].append(in_ack)
            cols["pipe_in_transid"].append(in_id)
            cols["pipe_in_data"].append(in_data)
            cols["pipe_out_val"].append(out_val)
            cols["pipe_out_transid"].append(out_id)
            cols["pipe_out_data"].append(out_data)
            cols["busy"].append(busy)
            cols["pipe_in_active"].append(busy)
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
        return Trace(cols)


def _windowed(p: GeneratedProperty, window: int) -> GeneratedProperty:
    """The property with an unbounded eventuality cut to `window` cycles."""
    con = getattr(p.body, "con", None)
    if isinstance(con, Eventually) and con.hi is None:
        return replace(p, body=p.body._replace(con=con._replace(hi=window)))
    return p


def check_bundle_on_model(txns, props: list[GeneratedProperty], model) -> ModelCheckReport:
    """Evaluate every property over every model trace and symbolic id value.

    Eventualities are evaluated with the model's liveness window so that
    obligations of the correct design close inside the trace. `txns` is not
    read: every property body already names the signals it needs.
    """
    window = getattr(model, "liveness_window", None)
    symb_domains = model.symb_columns() if hasattr(model, "symb_columns") else {}

    # (property, whether its body refers to a symbolic id)
    prepared = [(_windowed(p, window) if window else p, any(isinstance(n, Symbolic) for n in walk(p.body)))
                for p in props]

    assignments: list[tuple[tuple[str, int], ...]] = [()]
    for name, domain in symb_domains.items():
        assignments = [a + ((name, v),) for a in assignments for v in domain]

    entries: list[ModelCheckEntry] = []
    for idx, trace in enumerate(model.traces()):
        for k, assign in enumerate(assignments):
            extended = trace.extended({name: [v] * trace.length for name, v in assign}) if assign else trace
            for p, needs_symb in prepared:
                if needs_symb and not assign:
                    continue  # a tracked check is meaningless without an id value
                if not needs_symb and k > 0:
                    continue  # id-independent checks need only one evaluation
                verdict = eval_property(p, extended)
                entries.append(ModelCheckEntry(idx, assign, p.name, p.kind, verdict))
    return ModelCheckReport(getattr(model, "name", type(model).__name__), entries)


# Module name -> model factory for the `check` command and the test suite.
MODEL_REGISTRY = {
    "fifo": FifoModel,
    "noc_buffer": lambda: NocBufferModel(buggy=False),
    "noc_buffer_buggy": lambda: NocBufferModel(buggy=True),
    "pipeline": lambda: PipelineModel(double_issue=False),
}
