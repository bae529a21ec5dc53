"""Annotated module headers built in code, shared by the tests and `bench/evaluator.py`; no `autoft` import."""
from __future__ import annotations


def wide_header(n: int) -> str:
    """A module header with `n` tracked transactions, half of them bound by assignments: two shapes, repeated."""
    notes, ports = [], ["input wire clk", "input wire rst_n"]
    for i in range(n):
        notes.append(f"// AUTOSVA t{i}: r{i} -in> s{i}")
        ports += [f"input wire r{i}_val", f"output wire r{i}_ack", f"output wire s{i}_val",
                  f"input wire [7:0] r{i}_data", f"output wire [7:0] s{i}_data"]
        if i % 2:
            notes += [f"// AUTOSVA [3:0] r{i}_transid = r{i}_tag", f"// AUTOSVA [3:0] s{i}_transid = s{i}_tag",
                      f"// AUTOSVA r{i}_stable = r{i}_data"]
            ports += [f"input wire [3:0] r{i}_tag", f"output wire [3:0] s{i}_tag"]
        else:
            ports += [f"input wire [3:0] r{i}_transid", f"output wire [3:0] s{i}_transid"]
    return "\n".join(notes) + "\nmodule wide (\n" + ",\n".join(ports) + "\n);\nendmodule\n"
