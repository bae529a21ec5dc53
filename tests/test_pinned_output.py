"""Pinned bytes: every file `gen` writes, and every warning, for seeded and hand-made inputs.

The expected sha256 of each file and of each warning list are recorded in
`tests/data/pinned_output.json`. They compare the output with that of an
earlier checkout, so they hold however the renderer is built. The inputs are
perfbench's seed-1 wide files of 250, 500 and 1000 transactions and its five
deep files (`perfbench/inputs.py`, imported and not changed), `REPEATED_SHAPES`,
and `SHARED_ID`, each under every golden option mix.

To record the hashes of this checkout, after a change that is meant to alter
the output:

    PYTHONPATH=src python tests/test_pinned_output.py
"""
import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from autoft.emit import generate_model

from conftest import GOLDEN_MIXES, REPO
from test_emit import REPEATED_SHAPES

PINNED = Path(__file__).resolve().parent / "data" / "pinned_output.json"

# Two transactions on one request interface, so they share its handshake wire and its `ack` assign; the first
# one's id has a user type on both sides, so its width is unknown; an outgoing one with a parameter-wide data.
SHARED_ID = """/*AUTOSVA
a: req -in> res
b: req -in> alt
req_ack = !busy
c: cmd -out> done
[W-1:0] cmd_data = cmd_payload
*/
module shared_id #(parameter W = 8) (
    input  wire clk,
    input  wire rst_n,
    input  wire busy,
    input  wire req_val,
    input  id_t req_transid,
    output wire res_val,
    output id_t res_transid,
    output wire alt_val,
    output wire [3:0] alt_transid,
    output wire cmd_val,
    input  wire cmd_ack,
    output wire cmd_transid,
    output wire [W-1:0] cmd_payload,
    input  wire done_val,
    input  wire done_transid,
    input  wire [W-1:0] done_data
);
endmodule
"""


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", REPO / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs() -> dict[str, str]:
    """Each pinned input's text by name."""
    pb = _perfbench_inputs()
    files = [*pb.wide_files(1)[:3], *pb.deep_files(1)]
    return {**{f.name: f.text for f in files}, "repeated_shapes": REPEATED_SHAPES, "shared_id": SHARED_ID}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output(name: str, text: str, opts) -> dict[str, str]:
    """The sha256 of each file `gen` writes for `text`, and of its warnings as (code, message, span), in order."""
    model = generate_model(text, f"{name}.sv", opts)
    hashes = {file: digest("".join(pieces)) for file, pieces in model.files()}
    hashes["warnings"] = digest(json.dumps([(d.code, d.message, list(d.span or ())) for d in model.warnings]))
    return hashes


def pins() -> dict[str, dict[str, str]]:
    """`output` of each input under each golden mix, by "<input>/<mix>"."""
    return {f"{name}/{mix}": output(name, text, opts)
            for name, text in inputs().items() for mix, (_, opts) in GOLDEN_MIXES.items()}


def test_pinned_output_is_unchanged():
    want, got = json.loads(PINNED.read_text(encoding="utf-8")), pins()
    assert sorted(got) == sorted(want)
    assert [key for key in got if got[key] != want[key]] == []


def test_shared_id_header_exercises_what_it_names():
    _, opts = GOLDEN_MIXES["check"]
    model = generate_model(SHARED_ID, "shared_id.sv", opts)
    assert [d.code for d in model.warnings] == ["opaque-port-type", "opaque-port-type", "unknown-id-width"]
    assert model.aux[0].signals[1].name == "req_hsk" and "req_hsk" not in [s.name for s in model.aux[1].signals]


if __name__ == "__main__":
    recorded = pins()
    PINNED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} records to {PINNED}")
