"""Generation options shared by the property generator, emitter, and CLI, and the integer reader of their values."""
from __future__ import annotations

from collections import namedtuple

TOOL_JASPERGOLD = "jaspergold"
TOOL_SYMBIYOSYS = "symbiyosys"
TOOL_BOTH = "both"
TOOLS = (TOOL_JASPERGOLD, TOOL_SYMBIYOSYS, TOOL_BOTH)

DEFAULT_MAX_OUTSTANDING = 8


def integer(text: str) -> int:
    """text as an int if it is an optional sign and ASCII digits, ASCII whitespace around them aside; else a ValueError.

    `int` alone would also read `_` between digits, such as `1_0`, and
    other scripts' digits and spaces. The command line reads `--bounded`
    and `--max-outstanding` with it, and `Trace.from_csv` each cell.
    """
    if not text.isascii() or "_" in text:
        raise ValueError(f"not an integer: '{text}'")
    return int(text)


class GenOptions(namedtuple("GenOptions", "tool clk rst rst_active_low assert_inputs bounded max_outstanding "
                                         "max_outstanding_overrides")):
    """Knobs for one generation run.

    tool selects the proof tool driver files to emit. clk and rst name the DUT
    clock and reset ports; rst_active_low selects the polarity of the reset
    expression used in `disable iff` and register resets. assert_inputs emits
    every assumption as an assertion and sets the ASSERT_INPUTS parameter.
    bounded, when set, replaces unbounded eventualities with a finite window of
    that many cycles. max_outstanding sizes the per-transaction outstanding
    counters (overridable per transaction name); each instance holds its own
    copy of the overrides. A bound below 1 is a ValueError.
    """

    __slots__ = ()

    def __new__(cls, tool: str = TOOL_SYMBIYOSYS, clk: str = "clk", rst: str = "rst_n", rst_active_low: bool = True,
                assert_inputs: bool = False, bounded: int | None = None, max_outstanding: int = DEFAULT_MAX_OUTSTANDING,
                max_outstanding_overrides: dict[str, int] | None = None):
        if bounded is not None and bounded < 1:
            raise ValueError("bounded window must be >= 1")
        if max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")
        overrides = dict(max_outstanding_overrides or ())
        for tname, value in overrides.items():
            if value < 1:
                raise ValueError(f"max_outstanding override for '{tname}' must be >= 1")
        return super().__new__(cls, tool, clk, rst, rst_active_low, assert_inputs, bounded, max_outstanding, overrides)

    @property
    def rst_expr(self) -> str:
        """Expression that is true while the design is in reset."""
        return f"!{self.rst}" if self.rst_active_low else self.rst

    def outstanding_limit(self, tname: str) -> int:
        return self.max_outstanding_overrides.get(tname, self.max_outstanding)
