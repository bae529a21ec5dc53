"""Seeded synthetic RTL inputs and the property counts they must produce.

Two input shapes, both drawn from one seed:

* wide: a header with hundreds to thousands of transactions and an almost
  empty body, so every generation stage has real work;
* deep: a header with 1 to 8 transactions in front of a module body of tens
  of thousands of lines mixing line comments, block comments and string
  literals, a synthetic stand-in for long RTL files, where lexing the file
  dominates.

File sizes and transaction counts follow fixed ladders and only the
contents are random, so the work per round is nearly the same for every
seed and throughput compares across seeds. A transaction's attributes are
those of a fixture transaction drawn at random; its direction, how each
attribute is bound (port or annotation assign) and the annotation comment
style are fair coin flips. Each file comes with its expected
property count per kind, computed here from the attributes drawn, by the
attribute-to-checks table of the README, without calling autoft.
"""
from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass

# Transactions per wide file; body lines and transactions per deep file.
WIDE_SIZES = (250, 500, 1000, 2000, 4000)
DEEP_LINES = (10_000, 20_000, 30_000, 40_000, 50_000)
DEEP_TXNS = (1, 2, 4, 6, 8)  # dealt to the deep files in a seeded order

KINDS = (
    "liveness", "response_had_request", "counter_no_underflow", "ack_eventually",
    "stability", "active_covered", "transid_integrity", "uniqueness",
    "data_integrity", "xprop",
)


@dataclass(frozen=True)
class Txn:
    """Attributes bound on the request (p) and response (q) interface."""

    p: frozenset[str]
    q: frozenset[str]
    active: bool = False


def expected_kinds(txns: list[Txn]) -> Counter:
    """Property count per kind that the README's table gives for `txns`."""
    out: Counter = Counter()
    for t in txns:
        out.update(("liveness", "response_had_request", "counter_no_underflow"))
        out["xprop"] += 2  # one per side
        if "ack" in t.p:
            out["ack_eventually"] += 1  # assertion or cover, one either way
        if "stable" in t.p and "ack" in t.p:
            out["stability"] += 1  # without ack a request is never pending
        if t.active:
            out["active_covered"] += 1
        if "transid" in t.p and "transid" in t.q:
            out["transid_integrity"] += 1
            if "transid_unique" in t.p or "transid_unique" in t.q:
                out["uniqueness"] += 1
            if "data" in t.p and "data" in t.q:
                out["data_integrity"] += 1
    return out


# The bundled fixtures' transactions, read off their annotations and ports.
FIXTURE_TXNS = {
    "fifo": [Txn(frozenset({"val", "ack", "data"}), frozenset({"val", "ack", "data"}))],
    "pipeline": [Txn(frozenset({"val", "ack", "transid", "transid_unique", "data", "stable"}),
                     frozenset({"val", "transid", "data"}), active=True)],
    "noc_buffer": [Txn(frozenset({"val", "ack", "transid", "transid_unique", "data"}),
                       frozenset({"val", "ack", "transid", "data"}))],
    "noc_buffer_buggy": [Txn(frozenset({"val", "ack", "transid", "transid_unique", "data"}),
                             frozenset({"val", "ack", "transid", "data"}))],
    "mmu_stub": [Txn(frozenset({"val", "ack"}), frozenset({"val"})),
                 Txn(frozenset({"val", "ack", "transid"}), frozenset({"val", "transid"}))],
}

# Hand counts of the test suite's acceptance criterion 8.
FIXTURE_TOTALS = {"fifo": 6, "pipeline": 11, "noc_buffer": 9, "noc_buffer_buggy": 9, "mmu_stub": 13}


def check_rule_on_fixtures() -> list[str]:
    """Mismatches between the counting rule and the fixtures' hand counts."""
    return [
        f"{name}: rule gives {sum(expected_kinds(txns).values())}, hand count {FIXTURE_TOTALS[name]}"
        for name, txns in FIXTURE_TXNS.items()
        if sum(expected_kinds(txns).values()) != FIXTURE_TOTALS[name]
    ]


@dataclass(frozen=True)
class SynthFile:
    name: str  # module name, also the output directory of `gen`
    text: str
    txns: int
    expected: Counter


# Every synthetic transaction copies the attribute set of one transaction of
# the bundled fixtures, drawn uniformly, so the attribute mix is the fixtures'
# own and every drawn shape is one the counting rule is checked on.
FIXTURE_POOL = tuple(t for txns in FIXTURE_TXNS.values() for t in txns)


def _draw_txn(rng: random.Random) -> Txn:
    return rng.choice(FIXTURE_POOL)


def _txn_text(rng: random.Random, tn: str, t: Txn) -> tuple[list[str], list[str]]:
    """Annotation lines and port declarations for one transaction."""
    incoming = rng.random() < 0.5
    p, q = f"{tn}_req", f"{tn}_res"
    ann = [f"{tn}: {p} {'-in>' if incoming else '-out>'} {q}"]
    ports: list[tuple[str, str, str]] = []  # (direction, range, name)
    drive, recv = ("input", "output") if incoming else ("output", "input")
    for side, attrs, fwd, back in ((p, t.p, drive, recv), (q, t.q, recv, drive)):
        ports.append((fwd, "", f"{side}_val"))
        if "ack" in attrs:
            ports.append((back, "", f"{side}_ack"))
        if "transid" in attrs:
            width = rng.choice(("[3:0]", "[IDW-1:0]"))
            if rng.random() < 0.5:
                ports.append((fwd, width, f"{side}_transid"))
            else:  # bound to a differently named port by an explicit assign
                ports.append((fwd, width, f"{side}_tag"))
                ann.append(f"{width} {side}_transid = {side}_tag")
        if "transid_unique" in attrs:
            ann.append(f"{side}_transid_unique = 1'b1")
        if "data" in attrs:
            ports.append((fwd, "[DW-1:0]", f"{side}_data"))
        if "stable" in attrs:
            if rng.random() < 0.5:
                ann.append(f"{side}_stable = 1'b1")
            else:
                ports.append((fwd, "", f"{side}_stable"))
    if t.active:
        if rng.random() < 0.5:
            ports.append(("output", "", f"{p}_active"))
        else:
            ports.append(("output", "", f"busy_{tn}"))
            ann.append(f"{p}_active = busy_{tn}")
    decls = [f"    {d:<6} wire {r + ' ' if r else ''}{name}" for d, r, name in ports]
    return ann, decls


def _header(rng: random.Random, module: str, txns: list[Txn]) -> str:
    lines = [f"// Synthetic interface {module}, {len(txns)} transactions.", ""]
    decls = ["    input  wire clk", "    input  wire rst_n"]
    for i, t in enumerate(txns):
        ann, ports = _txn_text(rng, f"t{i:04d}", t)
        if rng.random() < 0.5:
            lines.extend(f"// AUTOSVA {a}" for a in ann)
        else:
            lines.append("/*AUTOSVA")
            lines.extend(ann)
            lines.append("*/")
        decls.extend(ports)
    lines.append("")
    lines.append(f"module {module} #(")
    lines.append("    parameter DW = 8,")
    lines.append("    parameter IDW = 4")
    lines.append(") (")
    lines.append(",\n".join(decls))
    lines.append(");")
    return "\n".join(lines) + "\n"


# Body items per deck of twenty: assigns with a line comment, lines with an
# inline block comment, multi-line block comments, `$display` strings holding
# comment markers, `always` blocks, wire declarations.
BODY_MIX = (("assign", 6), ("inline", 3), ("block", 2), ("display", 3), ("always", 3), ("wire", 3))


def _body(rng: random.Random, n_lines: int) -> str:
    """Filler that puts the lexer in each of its states: code, line and block comments, strings.

    The line mix is a synthetic choice, not measured on real RTL: the
    fixtures' bodies have almost no comments and no strings, so nothing in
    the repository gives a mix to copy. Comment and string lines here hide
    the other comment markers, so a lexer that skips a state misreads them.
    """
    out: list[str] = []
    deck: list[str] = []
    i = 0
    while len(out) < n_lines:
        if not deck:
            # Kinds are dealt from shuffled decks of exact proportions, so
            # every seed gives the same mix and nearly the same file size.
            deck = [kind for kind, n in BODY_MIX for _ in range(n)]
            rng.shuffle(deck)
        kind = deck.pop()
        i += 1
        if kind == "assign":
            out.append(f"    assign w{i} = w{rng.randrange(i)} ^ r{rng.randrange(i)}; // mix {i}")
        elif kind == "inline":
            out.append(f"    /* stage {i}: ack is gated with \"not full\" */ reg [7:0] r{i};")
        elif kind == "block":
            out.append("    /*")
            out.extend(f"     * note {i}.{k}: a // inside a block comment" for k in range(1 + i % 3))
            out.append("     */")
        elif kind == "display":
            out.append(f"        $display(\"state %d // not a comment /* nor this */\", w{i});")
        elif kind == "always":
            out.append("    always @(posedge clk) begin")
            out.append(f"        if (!rst_n) r{i} <= '0; else r{i} <= r{i} + 1'b1; // counter {i}")
            out.append("    end")
        else:
            out.append(f"    wire [7:0] w{i} = 8'h{rng.randrange(256):02x};")
    return "\n".join(out[:n_lines]) + "\n"


def wide_files(seed: int) -> list[SynthFile]:
    rng = random.Random(f"wide:{seed}")
    files = []
    for k, n in enumerate(WIDE_SIZES):
        txns = [_draw_txn(rng) for _ in range(n)]
        name = f"wide_{k}"
        text = _header(rng, name, txns) + "endmodule\n"
        files.append(SynthFile(name, text, n, expected_kinds(txns)))
    return files


def deep_files(seed: int) -> list[SynthFile]:
    rng = random.Random(f"deep:{seed}")
    counts = list(DEEP_TXNS)
    rng.shuffle(counts)
    files = []
    for k, (n_lines, n_txns) in enumerate(zip(DEEP_LINES, counts)):
        txns = [_draw_txn(rng) for _ in range(n_txns)]
        name = f"deep_{k}"
        text = _header(rng, name, txns) + _body(rng, n_lines) + "endmodule\n"
        files.append(SynthFile(name, text, len(txns), expected_kinds(txns)))
    return files
