"""Generation options shared by the property generator, emitter, and CLI."""
from __future__ import annotations

from dataclasses import dataclass, field

TOOL_JASPERGOLD = "jaspergold"
TOOL_SYMBIYOSYS = "symbiyosys"
TOOL_BOTH = "both"
TOOLS = (TOOL_JASPERGOLD, TOOL_SYMBIYOSYS, TOOL_BOTH)

DEFAULT_MAX_OUTSTANDING = 8


@dataclass
class GenOptions:
    """Knobs for one generation run.

    tool selects the proof tool driver files to emit. clk and rst name the DUT
    clock and reset ports; rst_active_low selects the polarity of the reset
    expression used in `disable iff` and register resets. assert_inputs emits
    every assumption as an assertion and sets the ASSERT_INPUTS parameter.
    bounded, when set, replaces unbounded eventualities with a finite window of
    that many cycles. max_outstanding sizes the per-transaction outstanding
    counters (overridable per transaction name).
    """

    tool: str = TOOL_SYMBIYOSYS
    clk: str = "clk"
    rst: str = "rst_n"
    rst_active_low: bool = True
    assert_inputs: bool = False
    bounded: int | None = None
    max_outstanding: int = DEFAULT_MAX_OUTSTANDING
    max_outstanding_overrides: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.bounded is not None and self.bounded < 1:
            raise ValueError("bounded window must be >= 1")
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        for tname, value in self.max_outstanding_overrides.items():
            if value < 1:
                raise ValueError(f"max_outstanding override for '{tname}' must be >= 1")

    @property
    def rst_expr(self) -> str:
        """Expression that is true while the design is in reset."""
        return f"!{self.rst}" if self.rst_active_low else self.rst

    def outstanding_limit(self, tname: str) -> int:
        return self.max_outstanding_overrides.get(tname, self.max_outstanding)
