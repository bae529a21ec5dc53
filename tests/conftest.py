from __future__ import annotations

from pathlib import Path

import pytest

from autoft import GenOptions, generate_bundle
from autoft.parser import Annotation, InterfaceSignal, ParsedModule, RelationDecl

ACCEPTANCE_RESULTS: list[str] = []


def record_acceptance(number: int, title: str, status: str, detail: str = "") -> None:
    extra = f" ({detail})" if detail else ""
    ACCEPTANCE_RESULTS.append(f"criterion {number} [{title}]: {status}{extra}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"

FIXTURE_NAMES = ["fifo", "pipeline", "noc_buffer", "noc_buffer_buggy", "mmu_stub"]

# The option mixes of the golden files as `gen` flags, each with the options they give: the bundles
# (`tests/golden/<fixture>`), the assert-inputs variant, and the `check` transcripts, one with a limit of 1.
GOLDEN_MIXES = {
    "bundle": (["--tool", "both"], GenOptions(tool="both")),
    "assert_inputs": (["--tool", "both", "--assert-inputs"], GenOptions(tool="both", assert_inputs=True)),
    "check": ([], GenOptions()),
    "max_outstanding_1": (["--max-outstanding", "1"], GenOptions(max_outstanding=1)),
}


def fixture_path(name: str) -> Path:
    return FIXTURES / f"{name}.sv"


def load_fixture(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


def gen_fixture(name: str, **kwargs):
    opts = GenOptions(**kwargs) if kwargs else GenOptions(tool="both")
    return generate_bundle(load_fixture(name), str(fixture_path(name)), opts)


@pytest.fixture(scope="session")
def fixture_bundles():
    return {name: gen_fixture(name) for name in FIXTURE_NAMES}


def render_annotation(ann: Annotation) -> str:
    if isinstance(ann.payload, RelationDecl):
        rel = ann.payload
        arrow = "-in>" if rel.direction == "incoming" else "-out>"
        return f"{rel.tname}: {rel.p} {arrow} {rel.q}"
    if isinstance(ann.payload, InterfaceSignal):
        return render_signal(ann.payload)
    attr = ann.payload
    width = f"{attr.width_expr} " if attr.width_expr else ""
    return f"{width}{attr.name} = {attr.expr}"


def render_signal(s: InterfaceSignal) -> str:
    if s.opaque_type:
        return f"{s.direction} {s.opaque_type} {s.name}"
    width = f"{s.width_expr} " if s.width_expr else ""
    return f"{s.direction} wire {width}{s.name}"


def render_module(pm: ParsedModule) -> str:
    """Canonical single-file rendering used by the round-trip tests."""
    lines = [f"// AUTOSVA {render_annotation(a)}" for a in pm.annotations]
    header = f"module {pm.module_name}"
    if pm.parameters:
        params = ", ".join(f"parameter {p.name} = {p.value_expr}" for p in pm.parameters)
        header += f" #({params})"
    lines.append(header + " (")
    lines.append(",\n".join(f"    {render_signal(s)}" for s in pm.signals))
    lines.append(");")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def module_projection(pm: ParsedModule):
    """Structural view of a ParsedModule, ignoring offsets and diagnostics."""
    return (
        pm.module_name,
        tuple((p.name, p.value_expr) for p in pm.parameters),
        tuple((s.direction, s.name, s.width_expr, s.opaque_type) for s in pm.signals),
        tuple(a.payload if isinstance(a.payload, RelationDecl) else a.payload._replace(offset=None)
              for a in pm.annotations),
    )
