import errno
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from autoft.cli import build_arg_parser, main

from conftest import FIXTURE_NAMES, GOLDEN, REPO, fixture_path, load_fixture


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    out = capsys.readouterr()
    return code, out.out, out.err


# fifo with a port named like its liveness label, which synthesis renames, and the warnings `gen` prints for it.
FIFO_LIVENESS = load_fixture("fifo").replace(" clk,", " clk,\n    input wire fifo_liveness,")
SKIPPED = ("warning[data-without-transid]: data integrity of 'fifo' needs a transaction id on both interfaces; "
           "check skipped\n")
RENAMED = "warning[name-collision-renamed]: generated name 'fifo_liveness' collides, renamed to 'fifo_liveness_1'\n"


def bundle_hashes(directory):
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


class TestGen:
    def test_gen_writes_bundle(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["gen", fixture_path("fifo"), "--tool", "symbiyosys", "-o", tmp_path / "out"], capsys
        )
        assert code == 0
        target = tmp_path / "out" / "fifo"
        assert sorted(p.name for p in target.iterdir()) == [
            "fifo.sby", "fifo_bind.svh", "fifo_prop.sv",
        ]
        assert "wrote" in out

    def test_gen_idempotent_hashes(self, tmp_path, capsys):
        args = ["gen", fixture_path("pipeline"), "--tool", "both", "-o", tmp_path / "out"]
        assert run_cli(args, capsys)[0] == 0
        first = bundle_hashes(tmp_path / "out")
        assert run_cli(args, capsys)[0] == 0
        assert bundle_hashes(tmp_path / "out") == first

    def test_warnings_on_stderr_do_not_block(self, tmp_path, capsys):
        code, out, err = run_cli(["gen", fixture_path("fifo"), "-o", tmp_path / "o"], capsys)
        assert code == 0
        assert "data-without-transid" in err
        assert "data-without-transid" not in out

    def test_declaration_repeating_a_port_exits_one(self, tmp_path, capsys):
        src = tmp_path / "m.sv"
        src.write_text(
            "// AUTOSVA t: a -in> b\n// AUTOSVA input [1:0] a_transid\n"
            "module m (\ninput wire a_val,\ninput wire [1:0] a_transid,\n"
            "output wire b_val,\noutput wire [1:0] b_transid\n);\nendmodule\n"
        )
        code, _, err = run_cli(["gen", src, "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert f"{src}:2:12: error[malformed-port-decl]: port 'a_transid' declared twice" in err
        assert not (tmp_path / "o").exists()

    def test_unbalanced_annotation_exits_one(self, tmp_path, capsys):
        # The annotation's `(` would be emitted as `wire ... = (ptw_req_tag;`.
        src = tmp_path / "mmu_stub.sv"
        src.write_text(fixture_path("mmu_stub").read_text().replace(
            "ptw_req_transid = ptw_req_tag", "ptw_req_transid = (ptw_req_tag"))
        code, _, err = run_cli(["gen", src, "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert f"{src}:10:30: error[unbalanced-brackets]: '(' does not balance" in err
        assert not (tmp_path / "o").exists()

    def test_comment_in_annotation_exits_one(self, tmp_path, capsys):
        # The `//` would comment out the `;` of `wire pipe_in_active = busy // note;`.
        src = tmp_path / "pipeline.sv"
        src.write_text(fixture_path("pipeline").read_text().replace(
            "pipe_in_active = busy", "pipe_in_active = busy // note"))
        code, _, err = run_cli(["gen", src, "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert f"{src}:9:34: error[bad-annotation]: stray '//'" in err
        assert not (tmp_path / "o").exists()

    def test_validation_errors_exit_one_and_report_all(self, tmp_path, capsys):
        bad = tmp_path / "bad.sv"
        bad.write_text(
            "// AUTOSVA t: a => b\n"  # bad arrow
            "// AUTOSVA u: c -in> d\n"
            "// AUTOSVA u: c -in> d\n"  # duplicate tname
            "// AUTOSVA e_bogus = x\n"  # bad suffix
            "module m (\ninput wire clk,\ninput wire rst_n,\ninput wire c_val,\noutput wire d_val\n);\nendmodule\n"
        )
        code, out, err = run_cli(["gen", bad, "-o", tmp_path / "o"], capsys)
        assert code == 1
        for needle in ("bad-arrow", "duplicate-transaction-name", "bad-field-suffix"):
            assert needle in err
        assert err.count("error[") == 3  # exactly one diagnostic per problem
        assert not (tmp_path / "o").exists()

    def test_clock_or_reset_that_is_no_port_exits_one(self, tmp_path, capsys):
        code, out, err = run_cli(["gen", fixture_path("fifo"), "--clk", "clock", "--rst", "reset",
                                  "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert err.startswith("error[unknown-clock]: clock 'clock' is not a port of module 'fifo'\n"
                              "error[unknown-reset]: reset 'reset' is not a port of module 'fifo'\n")
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen", "check", "link"])
    def test_clock_that_is_the_reset_exits_one(self, command, tmp_path, capsys, monkeypatch):
        # Else every property reads `@(posedge rst_n) disable iff (!rst_n)` and checks nothing.
        monkeypatch.chdir(tmp_path)
        child = ["--child", f"{fixture_path('pipeline')}=am"] if command == "link" else []
        code, out, err = run_cli([command, fixture_path("fifo"), "--clk", "rst_n", "--rst", "rst_n", *child], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error[clock-is-reset]: clock and reset are both 'rst_n' in module 'fifo'\n")
        assert list(tmp_path.iterdir()) == []

    def test_diagnostics_carry_position_and_text(self, tmp_path, capsys):
        bad = tmp_path / "bad.sv"
        bad.write_text("// AUTOSVA t: a => b\nmodule m (\ninput wire a_val\n);\nendmodule\n")
        code, _, err = run_cli(["gen", bad, "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert f"{bad}:1:" in err
        assert "t: a => b" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gen", "{missing}"], "input file '{missing}' not found"),
            (["check", "{missing}"], "input file '{missing}' not found"),
            (["link", "{missing}", "--child", "{child}=am"], "input file '{missing}' not found"),
            (["link", "{parent}", "--child", "{missing}=am"], "child file '{missing}' not found"),
        ],
        ids=["gen", "check", "link-parent", "link-child"],
    )
    def test_missing_input_is_usage_error(self, argv, message, tmp_path, capsys, monkeypatch):
        paths = dict(missing=tmp_path / "nope.sv", parent=fixture_path("mmu_stub"),
                     child=fixture_path("pipeline"))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, err = run_cli([a.format(**paths) for a in argv], capsys)
        assert code == 2
        assert err == f"error: {message.format(**paths)}\n"
        assert out == ""
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [["gen", "{dir}", "-o", "o"], ["check", "{dir}"], ["link", "{dir}", "--child", "{child}=am", "-o", "o"],
         ["link", "{parent}", "--child", "{dir}=am", "-o", "o"]],
        ids=["gen", "check", "link-parent", "link-child"],
    )
    def test_directory_as_input_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        paths = dict(dir=tmp_path / "rtl.sv", parent=fixture_path("mmu_stub"), child=fixture_path("pipeline"))
        paths["dir"].mkdir()
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([a.format(**paths) for a in argv], capsys)
        assert code == 2
        assert err == f"error: cannot read '{paths['dir']}': {os.strerror(errno.EISDIR)}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen", "{bad}", "-o", "o"], ["check", "{bad}"], ["link", "{bad}", "-o", "o"],
         ["link", "{parent}", "--child", "{bad}=am", "-o", "o"]],
        ids=["gen", "check", "link-parent", "link-child"],
    )
    def test_input_that_is_not_utf8_is_usage_error(self, argv, tmp_path):
        # A Latin-1 byte in a comment far past the text reader's chunk size, run as a user's
        # process so that a traceback would show.
        text = (load_fixture("fifo") + "// filler line\n" * 10000).encode()
        bad = tmp_path / "latin1.sv"
        bad.write_bytes(text + b"// (c) 2021 \xa9 ACME\n")
        args = [a.format(bad=bad, parent=fixture_path("fifo")) for a in argv]
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        run = subprocess.run([sys.executable, "-m", "autoft.cli", *args], cwd=tmp_path, env=env,
                             capture_output=True, text=True)
        assert run.returncode == 2
        assert "Traceback" not in run.stderr
        # Every source is read before any is generated, so no warning of the parent precedes the error.
        assert run.stderr == f"error: file '{bad}' is not UTF-8: byte 0xa9 at offset {len(text) + 12}\n"
        assert run.stdout == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [["gen", "{locked}", "-o", "o"], ["check", "{locked}"],
         ["link", "{parent}", "--child", "{locked}=am", "-o", "o"]],
        ids=["gen", "check", "link-child"],
    )
    def test_input_that_cannot_be_read_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        # chmod does not deny a read to root, so the read itself is made to fail.
        locked = tmp_path / "locked.sv"
        locked.write_text(load_fixture("fifo"))
        read_text = Path.read_text

        def deny(path, *args, **kwargs):
            if path == locked:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", deny)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([a.format(locked=locked, parent=fixture_path("fifo")) for a in argv], capsys)
        assert code == 2
        assert err == f"error: cannot read '{locked}': {os.strerror(errno.EACCES)}\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_output_that_cannot_be_written_is_usage_error(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out, err = run_cli(["gen", fixture_path("fifo"), "-o", blocker], capsys)
        assert code == 2
        assert err.endswith(f"error: cannot write '{blocker / 'fifo'}': Not a directory\n")
        assert out == ""

    def test_misspelled_tool_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", str(fixture_path("fifo")), "--tool", "jasper"])
        assert exc.value.code == 2

    def test_bounded_zero_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gen", fixture_path("fifo"), "-o", tmp_path / "o", "--bounded", "0"], capsys
        )
        assert code == 2
        assert "bounded" in err

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+", ""])
    def test_bounded_takes_ascii_digits_only(self, value, tmp_path, capsys):
        # `int` reads `1_0` as 10 and ARABIC-INDIC DIGIT THREE as 3.
        with pytest.raises(SystemExit) as exc:
            main(["gen", str(fixture_path("fifo")), "-o", str(tmp_path / "o"), "--bounded", value])
        assert exc.value.code == 2
        assert f"argument --bounded: invalid integer value: '{value}'\n" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["1_0", "\u0663", "+", "", "fifo=1_0", "fifo=\u0663", "fifo=+", "fifo="])
    def test_max_outstanding_takes_ascii_digits_only(self, value, tmp_path, capsys):
        code, out, err = run_cli(["gen", fixture_path("fifo"), "-o", tmp_path / "o", "--max-outstanding", value],
                                 capsys)
        assert (code, out, err) == (2, "", f"error: --max-outstanding expects N or TNAME=N, got '{value}'\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["gen", "check", "link"])
    def test_bad_max_outstanding_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for value in ("lots", "=3"):  # `=3` names no transaction
            code, out, err = run_cli(
                [command, fixture_path("fifo"), "--max-outstanding", value],
                capsys,
            )
            assert code == 2
            assert err == f"error: --max-outstanding expects N or TNAME=N, got '{value}'\n"
            assert out == ""
            assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "check", "link"])
    def test_unknown_max_outstanding_name_is_usage_error(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli([command, fixture_path("fifo"), "--max-outstanding", "nosuch=3",
                                  "--max-outstanding", "fifo=2"], capsys)
        assert code == 2
        assert err == (f"{fixture_path('fifo')}:3:12: warning[data-without-transid]: data integrity of 'fifo' needs "
                       "a transaction id on both interfaces; check skipped\n"
                       "error: --max-outstanding: no transaction named nosuch\n")
        assert out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["gen", "check"])
    def test_a_label_rename_prints_after_the_synthesis_warnings(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        src = tmp_path / "fifo.sv"
        src.write_text(FIFO_LIVENESS)
        code, _, err = run_cli([command, src, *(["-o", tmp_path / "o"] if command == "gen" else [])], capsys)
        assert code == 0
        assert err == f"{src}:3:12: {SKIPPED}{RENAMED}"

    @pytest.mark.parametrize("command", ["gen", "check", "link"])
    def test_a_label_rename_prints_before_an_unknown_max_outstanding_name(self, command, tmp_path, capsys,
                                                                           monkeypatch):
        # Synthesis renames the label, so it prints with the module's warnings, before the names are checked.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        src = tmp_path / "fifo.sv"
        src.write_text(FIFO_LIVENESS)
        code, out, err = run_cli([command, src, "--max-outstanding", "nosuch=3"], capsys)
        assert code == 2
        assert err == f"{src}:3:12: {SKIPPED}{RENAMED}error: --max-outstanding: no transaction named nosuch\n"
        assert out == ""
        assert list(tmp_path.iterdir()) == [src]

    def test_a_failed_gen_prints_no_label_rename(self, tmp_path, capsys, monkeypatch):
        # Labels are checked only when the module has no error.
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        src = tmp_path / "fifo.sv"
        src.write_text(FIFO_LIVENESS)
        code, out, err = run_cli(["gen", src, "--clk", "clock", "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert err == f"error[unknown-clock]: clock 'clock' is not a port of module 'fifo'\n{src}:3:12: {SKIPPED}"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_max_outstanding_may_name_a_child_transaction(self, tmp_path, capsys):
        code, _, _ = run_cli(["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('pipeline')}=am",
                              "--max-outstanding", "pipe=2", "-o", tmp_path / "o"], capsys)
        assert code == 0

    def test_one_sided_transid_message(self, tmp_path, capsys):
        bad = tmp_path / "one_sided.sv"
        bad.write_text(
            "// AUTOSVA t: a -in> b\n"
            "module m (\ninput wire a_val,\noutput wire b_val,\ninput wire [3:0] a_transid\n);\nendmodule\n"
        )
        code, _, err = run_cli(["gen", bad, "-o", tmp_path / "o"], capsys)
        assert code == 1
        assert "one-sided-attr" in err
        assert "only one interface" in err

    def test_color_env_controls_escape_codes(self, tmp_path, capsys, monkeypatch):
        bad = tmp_path / "bad.sv"
        bad.write_text("// AUTOSVA t: a => b\nmodule m (\ninput wire a_val\n);\nendmodule\n")
        monkeypatch.setenv("AUTOFT_COLOR", "1")
        _, _, err = run_cli(["gen", bad, "-o", tmp_path / "o"], capsys)
        assert "\x1b[31m" in err
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        _, _, err = run_cli(["gen", bad, "-o", tmp_path / "o"], capsys)
        assert "\x1b[" not in err

    def test_color_env_colors_warnings_as_errors(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("AUTOFT_COLOR", "1")
        code, _, err = run_cli(["gen", fixture_path("fifo"), "-o", tmp_path / "o"], capsys)
        assert code == 0
        assert "\x1b[33mwarning\x1b[0m[data-without-transid]: " in err
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        _, _, err = run_cli(["gen", fixture_path("fifo"), "-o", tmp_path / "o"], capsys)
        assert "warning[data-without-transid]: " in err and "\x1b[" not in err


class TestCheck:
    @staticmethod
    def widened_buffer(tmp_path, width):
        src = tmp_path / "noc_buffer.sv"
        src.write_text(fixture_path("noc_buffer").read_text().replace("[1:0] buf_in_transid", f"{width} buf_in_transid")
                       .replace("[1:0] buf_out_transid", f"{width} buf_out_transid"))
        return src

    def test_ids_of_ten_bits_are_checked(self, tmp_path, capsys):
        # Every value of the id is checked on every trace; 1,024 values still are.
        code, out, err = run_cli(["check", self.widened_buffer(tmp_path, "[9:0]")], capsys)
        assert code == 0 and "violated" not in err

    def test_ids_of_more_than_ten_bits_are_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["check", self.widened_buffer(tmp_path, "[11:0]")], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: property 'buf_")
        assert err.endswith(" reads symbolic ids 'symb_buf_transid' of 12 bits: 4096 values to check, more than 1024\n")

    def test_check_well_behaved_fifo(self, capsys):
        code, out, _ = run_cli(["check", fixture_path("fifo")], capsys)
        assert code == 0
        assert "holds=" in out

    def test_check_fixed_buffer(self, capsys):
        assert run_cli(["check", fixture_path("noc_buffer")], capsys)[0] == 0

    def test_check_buggy_buffer_reports_violated_liveness(self, capsys):
        code, out, err = run_cli(["check", fixture_path("noc_buffer_buggy")], capsys)
        assert code == 1
        assert "violated" in err
        assert "buf_liveness" in err

    def test_check_missing_file(self, tmp_path, capsys):
        assert run_cli(["check", tmp_path / "missing.sv"], capsys)[0] == 2

    def test_check_unknown_module(self, tmp_path, capsys):
        src = tmp_path / "other.sv"
        src.write_text(
            "// AUTOSVA t: a -in> b\nmodule other (\n"
            "input wire clk,\ninput wire rst_n,\ninput wire a_val,\noutput wire b_val\n);\nendmodule\n"
        )
        code, _, err = run_cli(["check", src], capsys)
        assert code == 2
        assert "no reference model" in err

    def test_check_signal_the_model_lacks_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "fifo.sv"
        src.write_text(load_fixture("fifo").replace(
            "// AUTOSVA fifo: in -in> out\n", "// AUTOSVA fifo: in -in> out\n// AUTOSVA in_stable = in_data_q\n"))
        code, out, err = run_cli(["check", src], capsys)
        assert code == 2
        assert out == ""
        assert err.endswith("error: reference model 'fifo' has no signal 'in_stable'\n")
        assert "Traceback" not in err

    def test_check_labels_id_free_verdicts_without_an_id(self, capsys):
        code, _, err = run_cli(["check", fixture_path("noc_buffer"), "--max-outstanding", "1"], capsys)
        assert code == 1
        first = err.splitlines()[1]
        assert first == "  buf_response_had_request: violated at cycle 3 [response_had_request, trace 0]"


# Golden `check` runs: case name -> (fixture, extra arguments).
CHECK_CASES = {
    "fifo": ("fifo", []),
    "noc_buffer": ("noc_buffer", []),
    "noc_buffer_buggy": ("noc_buffer_buggy", []),
    "pipeline": ("pipeline", []),
    "noc_buffer_max_outstanding_1": ("noc_buffer", ["--max-outstanding", "1"]),
}


def check_transcript(case, capsys, monkeypatch) -> str:
    """Exit code, stdout and stderr of `autoft check` on a case, run from the repo root."""
    fixture, extra = CHECK_CASES[case]
    monkeypatch.chdir(REPO)
    monkeypatch.setenv("AUTOFT_COLOR", "0")
    code, out, err = run_cli(["check", f"fixtures/{fixture}.sv", *extra], capsys)
    return f"exit {code}\n--- stdout\n{out}--- stderr\n{err}"


class TestCheckGolden:
    @pytest.mark.parametrize("case", sorted(CHECK_CASES))
    def test_check_matches_golden_transcript(self, case, capsys, monkeypatch):
        golden = (GOLDEN / "check" / f"{case}.txt").read_text(encoding="utf-8")
        assert check_transcript(case, capsys, monkeypatch) == golden


def _fifo2(tmp_path):
    """fifo.sv with the module renamed to fifo2: a second module whose transaction is named `fifo` too."""
    clone = tmp_path / "fifo2.sv"
    clone.write_text(load_fixture("fifo").replace("module fifo", "module fifo2"))
    return clone


class TestLink:
    def test_link_with_am_as(self, tmp_path, capsys):
        code, out, _ = run_cli(
            [
                "link", fixture_path("mmu_stub"),
                "--child", f"{fixture_path('pipeline')}=am,as",
                "--tool", "both", "-o", tmp_path / "out",
            ],
            capsys,
        )
        assert code == 0
        parent = (tmp_path / "out" / "mmu_stub" / "mmu_stub_prop.sv").read_text()
        assert "bind pipeline pipeline_prop #(.ASSERT_INPUTS(1))" in parent
        assert (tmp_path / "out" / "pipeline" / "pipeline_prop.sv").exists()

    def test_link_matches_golden_bytes(self, tmp_path, capsys):
        code, _, _ = run_cli(
            ["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('pipeline')}=am,as",
             "-o", tmp_path / "out"],
            capsys,
        )
        assert code == 0
        assert bundle_hashes(tmp_path / "out") == bundle_hashes(GOLDEN / "link")

    def test_child_path_may_hold_an_equals_sign(self, tmp_path, capsys):
        child = tmp_path / "a=b" / "pipeline.sv"
        child.parent.mkdir()
        child.write_text(load_fixture("pipeline"), encoding="utf-8")
        code, _, _ = run_cli(["link", fixture_path("mmu_stub"), "--child", f"{child}=am,as", "-o", tmp_path / "out"],
                             capsys)
        assert code == 0
        assert bundle_hashes(tmp_path / "out") == bundle_hashes(GOLDEN / "link")

    def test_link_prints_child_warnings_once(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('fifo')}=am",
             "-o", tmp_path / "o"],
            capsys,
        )
        assert code == 0
        assert err.count("warning[data-without-transid]") == 1

    def test_label_renames_print_with_each_modules_warnings(self, tmp_path, capsys, monkeypatch):
        # Synthesis renames a label, so each module's renames print with its other warnings, as it is generated.
        monkeypatch.setenv("AUTOFT_COLOR", "0")
        for dut in ("fifo", "fifo2"):
            (tmp_path / f"{dut}.sv").write_text(FIFO_LIVENESS.replace("module fifo", f"module {dut}"))
        code, _, err = run_cli(["link", tmp_path / "fifo.sv", "--child", f"{tmp_path / 'fifo2.sv'}=am",
                                "-o", tmp_path / "o"], capsys)
        assert code == 0
        assert err == f"{tmp_path / 'fifo.sv'}:3:12: {SKIPPED}{RENAMED}{tmp_path / 'fifo2.sv'}:3:12: {SKIPPED}{RENAMED}"
        for dut in ("fifo", "fifo2"):
            assert "fifo_liveness_1: assert property" in (tmp_path / "o" / dut / f"{dut}_prop.sv").read_text()

    def test_link_shared_tname_binds_each_module(self, tmp_path, capsys):
        code, _, _ = run_cli(["link", fixture_path("fifo"), "--child", f"{_fifo2(tmp_path)}=am", "-o", tmp_path / "o"],
                             capsys)
        assert code == 0
        assert "bind fifo2 fifo2_prop fifo2_prop_i (.*);\n" in (tmp_path / "o" / "fifo" / "fifo_prop.sv").read_text()
        sby = (tmp_path / "o" / "fifo" / "fifo.sby").read_text()
        assert sby.endswith("[files]\nfifo.sv\nfifo_prop.sv\nfifo_bind.svh\nfifo2.sv\nfifo2_prop.sv\n")

    def test_max_outstanding_sets_a_shared_name_in_each_module(self, tmp_path, capsys):
        code, _, _ = run_cli(["link", fixture_path("fifo"), "--child", f"{_fifo2(tmp_path)}=am",
                              "--max-outstanding", "fifo=3", "-o", tmp_path / "o"], capsys)
        assert code == 0
        for dut in ("fifo", "fifo2"):
            assert "parameter FIFO_MAX_OUTSTANDING = 3\n" in (tmp_path / "o" / dut / f"{dut}_prop.sv").read_text()

    @pytest.mark.parametrize("parent, children", [("fifo", ["leaf", "leaf"]), ("leaf", ["leaf"])],
                             ids=["child-twice", "parent-as-child"])
    def test_repeated_module_writes_nothing(self, parent, children, tmp_path, capsys):
        leaf = tmp_path / "leaf.sv"
        leaf.write_text("module leaf (\ninput wire clk,\ninput wire rst_n,\ninput wire a\n);\nendmodule\n")
        paths = {"fifo": fixture_path("fifo"), "leaf": leaf}
        argv = ["link", paths[parent], *(a for c in children for a in ("--child", f"{paths[c]}=am")),
                "-o", tmp_path / "o"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert err.endswith("error[duplicate-module]: module 'leaf' is linked 2 times; the parent and each am child "
                            "must be distinct modules\n")
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_as_without_am_is_usage_error(self, tmp_path, capsys):
        spec = f"{fixture_path('pipeline')}=as"
        code, out, err = run_cli(["link", fixture_path("mmu_stub"), "--child", spec, "-o", tmp_path / "o"], capsys)
        assert code == 2
        assert err == f"error: child flag 'as' needs 'am' in '{spec}'\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("suffix", ["", "="], ids=["PATH", "PATH="])
    def test_child_without_am_is_usage_error(self, suffix, tmp_path, capsys):
        # Such a child used to be generated and then dropped, so `pipe=2` passed the name check and changed nothing.
        spec = f"{fixture_path('pipeline')}{suffix}"
        code, out, err = run_cli(["link", fixture_path("mmu_stub"), "--child", spec, "--max-outstanding", "pipe=2",
                                  "-o", tmp_path / "o"], capsys)
        assert code == 2
        assert err == f"error: no flag 'am' in '{spec}': a child is linked as PATH=am or PATH=am,as\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("blocked, failed", [("out", "out/mmu_stub"), ("out/pipeline", "out/pipeline")],
                             ids=["parent", "child"])
    def test_output_that_cannot_be_written_is_usage_error(self, blocked, failed, tmp_path, capsys):
        (tmp_path / blocked).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / blocked).write_text("")
        code, _, err = run_cli(
            ["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('pipeline')}=am", "-o", tmp_path / "out"],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: cannot write '{tmp_path / failed}': ")
        assert err.count("\n") == 1

    def test_child_directory_that_cannot_be_made_writes_nothing(self, tmp_path, capsys):
        # Every directory is made before any file is written, so the parent's bundle is not left behind.
        (tmp_path / "o3").mkdir()
        (tmp_path / "o3" / "pipeline").write_text("")
        code, out, err = run_cli(
            ["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('pipeline')}=am", "-o", tmp_path / "o3"],
            capsys,
        )
        assert code == 2
        assert err.startswith(f"error: cannot write '{tmp_path / 'o3' / 'pipeline'}': ")
        assert "wrote" not in out
        assert not [p for p in (tmp_path / "o3").rglob("*") if p.parent.name == "mmu_stub"]

    def test_link_child_without_path_is_usage_error(self, tmp_path, capsys):
        code, out, err = run_cli(["link", fixture_path("mmu_stub"), "--child", "=am", "-o", tmp_path / "o"], capsys)
        assert code == 2
        assert err == "error: no child file in '=am'\n"
        assert out == ""
        assert not (tmp_path / "o").exists()

    def test_child_without_the_clock_writes_nothing(self, tmp_path, capsys):
        child = tmp_path / "pipeline.sv"
        child.write_text(load_fixture("pipeline").replace("clk", "clock"))
        code, out, err = run_cli(["link", fixture_path("mmu_stub"), "--child", f"{child}=am", "-o", tmp_path / "o"],
                                 capsys)
        assert code == 1
        assert "error[unknown-clock]: clock 'clk' is not a port of module 'pipeline'\n" in err
        assert out == ""
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags", [[], ["--assert-inputs"]], ids=["default", "assert_inputs"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_gen_is_link_without_children(self, name, flags, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)

        def outcome(command):
            code, out, err = run_cli([command, fixture_path(name), *flags, "-o", "o"], capsys)
            written = bundle_hashes(tmp_path / "o")
            shutil.rmtree(tmp_path / "o")
            return code, out, err, written

        gen = outcome("gen")
        assert gen[0] == 0 and gen[3]
        assert outcome("link") == gen

    def test_link_bad_flag(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["link", fixture_path("fifo"), "--child", f"{fixture_path('pipeline')}=xx"],
            capsys,
        )
        assert code == 2


# One process's calls, in this order: each pair differs by one option, so an option carried over to the
# next call would change what that call writes or prints.
REUSE_SEQUENCE = [
    ["gen", fixture_path("fifo"), "--max-outstanding", "fifo=2"],
    ["gen", fixture_path("fifo")],
    ["gen", fixture_path("pipeline"), "--assert-inputs"],
    ["gen", fixture_path("pipeline")],
    ["gen", fixture_path("mmu_stub"), "--tool", "both"],
    ["gen", fixture_path("mmu_stub")],
    ["link", fixture_path("mmu_stub"), "--child", f"{fixture_path('pipeline')}=am,as"],
    ["gen", fixture_path("noc_buffer")],
    ["check", fixture_path("noc_buffer"), "--max-outstanding", "1"],
    ["check", fixture_path("noc_buffer")],
]


class TestParserReuse:
    @staticmethod
    def outcome(argv, outdir, capsys):
        """Exit code, stdout, stderr and the bytes written of one call, its output directory removed after."""
        args = [*argv, "-o", outdir] if argv[0] != "check" else argv
        code, out, err = run_cli(args, capsys)
        written = bundle_hashes(outdir) if outdir.exists() else {}
        shutil.rmtree(outdir, ignore_errors=True)
        return code, out, err, written

    def test_every_call_matches_the_first_call_of_a_fresh_parser(self, tmp_path, capsys):
        dirs = [tmp_path / f"o{i}" for i in range(len(REUSE_SEQUENCE))]
        first = []
        for argv, outdir in zip(REUSE_SEQUENCE, dirs):
            first.append(self.outcome(argv, outdir, capsys))
        assert [self.outcome(argv, outdir, capsys) for argv, outdir in zip(REUSE_SEQUENCE, dirs)] == first
        assert all(a != b for a, b in zip(first[:6:2], first[1:6:2]))
        assert first[-2] != first[-1]
        assert build_arg_parser() is build_arg_parser()

    def test_help_is_the_same_on_a_later_call(self, tmp_path, capsys):
        def help_text():
            with pytest.raises(SystemExit) as exc:
                main(["gen", "--help"])
            assert exc.value.code == 0
            return capsys.readouterr().out

        fresh = help_text()
        assert run_cli(["gen", fixture_path("fifo"), "-o", tmp_path / "o"], capsys)[0] == 0
        assert help_text() == fresh
        assert "--max-outstanding N|TNAME=N" in fresh


# perfbench's traced run (`perfbench/layers.py:import_times`) takes a median import time of each of
# these modules and crashes if `import autoft.cli` stops loading one (the `import_times` FOUND line of
# CHANGES.md), so none of them may become a lazy import until that is mended.
EAGER = ("cli", "parser", "emit", "models", "tracecheck")


def test_import_set(tmp_path):
    # Without `site` (-S), whose `.pth` files may load any module first, every module the import needs shows.
    # The first line printed is what the import adds, the last what one `gen` has added by its end.
    code = ("import sys; n = set(sys.modules); import autoft.cli; print(*sorted(set(sys.modules) - n)); "
            "autoft.cli.main(sys.argv[1:]); print(*sorted(set(sys.modules) - n))")
    run = subprocess.run([sys.executable, "-S", "-c", code, "gen", str(fixture_path("fifo")), "-o", str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")), capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    added, after_gen = set(lines[0].split()), set(lines[-1].split())
    assert not added & {"dataclasses", "inspect", "csv", "typing"}
    assert {f"autoft.{m}" for m in EAGER} <= added
    # The command line is read without argparse, whose import and first message lookups load the other two.
    assert not (added | after_gen) & {"argparse", "gettext", "locale"}
    assert (tmp_path / "fifo" / "fifo_prop.sv").is_file()


def test_startup_bench_runs_at_one_round(tmp_path):
    # This checkout on both sides, so that the before/after half runs too.
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, str(REPO / "bench" / "startup.py"), "--src", str(REPO / "src"), "--rounds", "1",
                    "--out", str(out)], capture_output=True, text=True, check=True)
    report = json.loads(out.read_text())
    items = {"floor", "import", "gen_fifo", "gen_mmu_stub_both", "check_noc_buffer", "link_mmu_stub"}
    assert set(report["items"]) == set(report["paired_after_over_before"]) == items
    assert set(report["paired_above_floor_after_over_before"]) == items - {"floor"}
    for side in ("before", "after"):
        assert set(report[side]["ms"]) == items
        assert set(report[side]["above_floor_ms"]) == items - {"floor"}
        adds = report[side]["import_adds"]
        assert adds["count"] == len(adds["modules"])
        assert {f"autoft.{m}" for m in EAGER} <= set(adds["modules"])
