"""Formal testbench generation from annotated RTL module interfaces.

Parses transaction annotations out of a SystemVerilog module header, builds a
request/response transaction model, and renders a ready-to-run verification
bundle: an SVA property module, a bind file, and proof tool drivers. A bounded
trace evaluator doubles as the test oracle for every generated property kind.
The stages live in their own modules (`parser`, `transactions`, `signals`,
`properties`, `emit`, `tracecheck`, `models`); this package exports the
one-call pipeline.
"""
from .emit import generate_bundle, write_bundle
from .options import GenOptions

__version__ = "0.1.0"
