from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multirec
from multirec import cli
from multirec.cli import _MAX_LETTERS, _MAX_LINES, _MAX_SCAN_LETTERS, _check_budget, main
from multirec.figures import _fixture
from multirec.generators import WORD_NAMES, Morphism, named_word
from multirec.lattice import WordSource
from multirec.recurrence import RecurrenceBudget
from multirec.render import read_grid_fixture, to_text
from multirec.rotation import sturmian_spec

# diagonal block sequence of the derivative example, as published
DIAGONAL_BLOCKS = "[0/1][1/0][1/1][0/1][0/1][0/0][0/1][1/0][0/1][1/0]"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extract_diagonal_blocks(capsys):
    code, out, _ = run(
        capsys, "extract", "--preset", "surd-not-ssurdo-2x2",
        "--dir", "1,1", "--size", "1x2", "--len", "10",
    )
    assert code == 0
    assert out == DIAGONAL_BLOCKS + "\n"


def test_extract_json_blocks(capsys):
    code, out, _ = run(
        capsys, "extract", "--preset", "surd-not-ssurdo-2x2",
        "--dir", "1,1", "--size", "1x2", "--len", "2", "--json",
    )
    assert code == 0
    assert json.loads(out) == [[[1], [0]], [[0], [1]]]


def test_extract_origin_shift(capsys):
    code, out, _ = run(
        capsys, "extract", "--preset", "surd-not-ssurdo-2x2",
        "--dir", "1,1", "--size", "1x2", "--len", "9", "--origin", "1,1",
    )
    assert code == 0
    assert out.rstrip("\n") == DIAGONAL_BLOCKS[len("[0/1]"):]


def test_generate_text_grid(capsys):
    code, out, _ = run(capsys, "generate", "--preset", "sierpinski", "--box", "8x4")
    assert code == 0
    assert out == (
        "1 0 0 0 1 0 0 0\n"
        "1 1 0 0 1 1 0 0\n"
        "1 0 1 0 1 0 1 0\n"
        "1 1 1 1 1 1 1 1\n"
    )


def test_generate_pbm(capsys):
    code, out, _ = run(
        capsys, "generate", "--preset", "sierpinski", "--box", "4x2",
        "--format", "pbm",
    )
    assert code == 0
    assert out.splitlines()[:2] == ["P1", "4 2"]


def test_generate_iterate_matches_reference_grid(capsys):
    code, out, _ = run(
        capsys, "generate", "--preset", "preimage-3x2", "--iterate", "3",
        "--letter", "1",
    )
    assert code == 0
    rows, _ = read_grid_fixture(_fixture("fig-preimage.txt"))
    assert out.rstrip("\n") == to_text(rows)


def test_generate_flag_conflicts(capsys):
    code, _, err = run(
        capsys, "generate", "--preset", "sierpinski", "--box", "4x4",
        "--iterate", "2",
    )
    assert code == 1
    assert "mutually exclusive" in err
    code, _, err = run(capsys, "generate", "--preset", "sierpinski")
    assert code == 1
    assert "--box" in err


def test_generate_box_dimension_mismatch(capsys):
    code, _, err = run(capsys, "generate", "--word", "thue-morse", "--box", "4x4")
    assert code == 1
    assert "--box '4x4'" in err and "dimension 1" in err


def test_unknown_word_is_a_usage_error(capsys):
    code, _, err = run(capsys, "generate", "--word", "no-such-word", "--box", "4x4")
    assert code == 1


@pytest.mark.parametrize("name", WORD_NAMES)
def test_every_named_word_renders(capsys, name):
    """The CLI resolves every name of the library's table."""
    box = "x".join(["6"] * named_word(name).dimension)
    code, out, err = run(capsys, "generate", "--word", name, "--box", box)
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == (6 if "x" in box else 1)


@pytest.mark.parametrize("argv, words", [
    (["generate", "--word", "thue-morse", "--iterate", "3"], ["--iterate", "--preset", "--morphism"]),
    (["generate", "--preset", "sierpinski", "--box", "4x4", "--letter", "7"], ["letter 7"]),
    (["generate", "--preset", "sierpinski", "--iterate", "2", "--letter", "7"], ["letter 7"]),
    (["generate", "--preset", "sierpinski", "--iterate", "2", "--letter", "-1"], ["letter -1"]),
    (["generate", "--preset", "sierpinski", "--iterate", "-1"], ["bad --iterate -1"]),
    (["generate", "--word", "sierpinski", "--letter", "0", "--box", "4x2"], ["--letter", "--word"]),
    (["generate", "--word", "no-such-word", "--box", "4x4"], ["unknown word"]),
    (["generate", "--morphism", "no-such-file.json", "--box", "4x4"], ["no-such-file.json"]),
    (["classify", "--morphism", "no-such-file.json"], ["no-such-file.json"]),
    (["generate", "--preset", "sierpinski", "--box", "garbage"], ["--box 'garbage'"]),
    (["extract", "--preset", "sierpinski", "--dir", "a,b", "--size", "1x1", "--len", "2"],
     ["--dir 'a,b'"]),
    (["extract", "--preset", "sierpinski", "--dir", "1,1", "--size", "1y1", "--len", "2"],
     ["--size '1y1'"]),
    (["extract", "--preset", "sierpinski", "--dir", "1,1", "--size", "1x1", "--len", "2",
      "--origin", "q"], ["--origin 'q'"]),
    (["extract", "--preset", "sierpinski", "--dir", "1,1", "--size", "1x1", "--len", "2",
      "--origin", "1,2,3"], ["--origin '1,2,3'", "dimension 2"]),
    (["extract", "--preset", "sierpinski", "--dir", "1,1", "--size", "1x1", "--len", "2",
      "--origin", "1"], ["--origin '1'", "dimension 2"]),
    (["extract", "--preset", "sierpinski", "--dir", "1,1", "--size", "1x1x1", "--len", "2",
      "--origin", "1,1"], ["--size '1x1x1'", "dimension 2"]),
    (["derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2", "--box", "4x3",
      "--scheme", "uniform", "--scan-box", "garbage"], ["--scan-box 'garbage'"]),
    (["derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2", "--box", "0x3"],
     ["--box '0x3'", "positive"]),
    (["extract", "--word", "sierpinski", "--dir", "1,1,1", "--size", "1x1", "--len", "2"],
     ["--dir '1,1,1'", "dimension 2"]),
    (["derive", "--word", "thue-morse", "--size", "2", "--box", "3x3"],
     ["--box '3x3'", "dimension 1"]),
    (["derive", "--word", "thue-morse", "--size", "2x2", "--box", "3"],
     ["--size '2x2'", "dimension 1"]),
], ids=["iterate-word", "box-letter", "iterate-letter", "iterate-negative-letter", "iterate-negative",
        "word-letter",
        "unknown-word",
        "missing-morphism", "classify-missing-morphism", "box", "dir", "size", "origin",
        "origin-long", "origin-short", "size-with-origin",
        "scan-box", "derive-box", "dir-dimension",
        "derive-box-dimension", "derive-size-dimension"])
def test_malformed_input_exits_1_with_a_message(capsys, argv, words):
    """Bad input never prints a traceback: main returns 1, and the one
    message line names what was wrong."""
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("multirec") and err.count("\n") == 1
    assert all(word in err for word in words)


def test_output_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    code, out, _ = run(capsys, "generate", "--preset", "sierpinski", "--box", "6x3")
    assert code == 0
    code2 = main([
        "generate", "--preset", "sierpinski", "--box", "6x3", "-o", str(path)
    ])
    capsys.readouterr()
    assert code2 == 0
    assert path.read_text() == out


def test_repeated_runs_are_byte_identical(capsys):
    args = ("derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2",
            "--box", "8x8", "--scheme", "uniform", "--json")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second
    assert first[0] == 0


def test_subgroups_text(capsys):
    code, out, _ = run(capsys, "subgroups", "--s", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "C(5) in dimension 2: 6 subgroups"
    assert len(lines) == 7


@pytest.mark.parametrize("argv, flag", [
    (["--s", "100000"], "--s 100000 --d 2"),
    (["--s", "102"], "--s 102 --d 2"),
    (["--s", "16", "--d", "5"], "--s 16 --d 5"),
    (["--s", "2", "--d", "1000000000000"], "--s 2 --d 1000000000000"),
    (["--s", "1"], "--s 1 --d 2"),
    (["--s", "-4"], "--s -4 --d 2"),
    (["--s", "5", "--d", "0"], "--s 5 --d 0"),
])
def test_subgroups_refuses_degenerate_and_oversized_families(capsys, monkeypatch, argv, flag):
    """s < 2, d < 1 and s^(d + 1) residues above the letter limit are
    refused before any vector is enumerated."""
    def never(*args):
        raise AssertionError("an enumeration started")

    monkeypatch.setattr("multirec.cli.family_c", never)
    code, out, err = run(capsys, "subgroups", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and flag in err


def test_subgroups_at_the_limit(capsys):
    """101^3 residues are within the limit."""
    code, out, _ = run(capsys, "subgroups", "--s", "101")
    assert code == 0
    assert out.splitlines()[0] == "C(101) in dimension 2: 102 subgroups"


def test_subgroups_json(capsys):
    code, out, _ = run(capsys, "subgroups", "--s", "6", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["subgroups"]) == 12
    assert all(len(g["elements"]) == 6 for g in payload["subgroups"])


def test_classify_surd_preset(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "surd-not-ssurdo-2x2")
    assert code == 0
    assert out == "SURD\n"


def test_classify_witness_line(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "sierpinski")
    assert code == 0
    assert out.startswith("NOT_SURD\n")
    assert "verified=True" in out


def test_classify_rejects_other_shapes(capsys):
    code, _, err = run(capsys, "classify", "--preset", "ssurdo-3x3")
    assert code == 1
    assert "(2, 2)" in err


def test_check_ssurdo_preset_passes(capsys):
    code, out, _ = run(
        capsys, "check", "--preset", "ssurdo-3x3", "--mode", "ssurdo",
        "--budget", "800,2,1,2,64",
    )
    assert code == 0
    assert "BOUNDED_WITNESSED" in out


def test_check_urd_failure_exits_2(capsys):
    code, _, err = run(
        capsys, "check", "--word", "fib-rows", "--mode", "urd",
        "--budget", "1000,2,2,2,64",
    )
    assert code == 2
    assert "urd check failed" in err


def test_check_ur_rejects_a_claim(capsys):
    code, out, err = run(
        capsys, "check", "--word", "toeplitz-rows", "--mode", "ur",
        "--budget", "600,2,2,2,64", "--claim", "1",
    )
    assert code == 1
    assert out == ""
    assert "--claim" in err


def test_check_ur_json(capsys):
    code, out, _ = run(
        capsys, "check", "--word", "toeplitz-rows", "--mode", "ur",
        "--budget", "600,2,2,2,64", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(entry["window"] is not None for entry in payload)


def test_bad_budget_string(capsys):
    code, _, err = run(
        capsys, "check", "--preset", "sierpinski", "--budget", "100,2",
    )
    assert code == 1


def test_derive_grid_output(capsys):
    code, out, _ = run(
        capsys, "derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2",
        "--box", "6x6",
    )
    assert code == 0
    rows = out.rstrip("\n").splitlines()
    assert len(rows) == 6
    # bottom row is printed last and starts at the origin's code
    assert rows[-1].split()[0] == "0"


def test_derive_uniform_marks_origin(capsys):
    code, out, _ = run(
        capsys, "derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2",
        "--box", "4x4", "--scheme", "uniform",
    )
    assert code == 0
    assert out.rstrip("\n").splitlines()[-1].split()[0] == "?"


def test_uniform_derive_pads_to_its_printed_tokens(capsys):
    """The origin prints as one-character `?`, so single-digit codes stand
    one space apart, as in a per-direction grid."""
    code, out, _ = run(capsys, "derive", "--word", "ssurdo-3x3", "--size", "1x1",
                       "--box", "4x4", "--scheme", "uniform")
    assert code == 0
    assert out == "0 1 1 2\n0 0 1 0\n0 0 2 0\n? 1 1 1\n"


def test_derive_budget_exhaustion_exits_3(capsys):
    code, _, err = run(
        capsys, "derive", "--word", "sierpinski", "--size", "1x1",
        "--box", "4x4",
    )
    assert code == 3
    assert "budget exhausted" in err


def test_verify_figures_all_pass(capsys):
    code, out, _ = run(capsys, "verify-figures")
    assert code == 0
    lines = out.rstrip("\n").splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS ") for line in lines)


def test_no_command_is_usage(capsys):
    assert run(capsys, )[0] == 1


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_generate_one_dimensional_word(capsys):
    code, out, _ = run(capsys, "generate", "--word", "thue-morse", "--box", "16")
    assert code == 0
    assert out == "0 1 1 0 1 0 0 1 1 0 0 1 0 1 1 0\n"


def test_extract_one_dimensional_word(capsys):
    code, out, _ = run(
        capsys, "extract", "--word", "thue-morse", "--dir", "1", "--size", "2", "--len", "4",
    )
    assert code == 0
    assert out == "[01][11][10][01]\n"


def test_extract_far_rotation_origin(capsys):
    """Exact floors at 1e30 take a few enclosure steps, not a walk of
    value * 2^-53 unit steps."""
    far = 10**30
    code, out, _ = run(
        capsys, "extract", "--word", "sturmian", "--origin", f"{far},0",
        "--dir", "1,0", "--size", "1x1", "--len", "2",
    )
    spec = sturmian_spec()
    assert code == 0
    assert out == f"[{spec.letter((far, 0))}][{spec.letter((far + 1, 0))}]\n"


@pytest.mark.parametrize("word, origin, direction, size, expected", [
    ("gcd-thue-morse", f"{10**23},3", "1,1", "1x1", "[1][1][1][1]"),
    ("thue-morse", f"{10**23}", "1", "1", "[1][0][0][1]"),
    ("toeplitz-random", f"{10**23},3", "1,1", "1x1", "[0][0][1][1]"),
])
def test_extract_far_origin_of_the_integer_line_builders(capsys, word, origin, direction,
                                                         size, expected):
    """Coordinates past int64 are read pointwise, exact at any size."""
    code, out, _ = run(
        capsys, "extract", "--word", word, "--origin", origin,
        "--dir", direction, "--size", size, "--len", "4",
    )
    assert code == 0
    assert out == expected + "\n"


def test_extract_toeplitz_cell_that_no_step_fills(capsys):
    """Every bit of x | y is set at (-1, 0), so no filling step reaches it;
    the line leaves N^2 there and is refused before any cell is read."""
    code, out, err = run(
        capsys, "extract", "--word", "toeplitz-random", "--origin=-3,0",
        "--dir", "1,0", "--size", "1x1", "--len", "3",
    )
    assert code == 1
    assert out == ""
    assert err == "multirec: error: the line (-3, 0) + ell*(1, 0) for ell in [0, 2] leaves N^2\n"


@pytest.mark.parametrize("argv", [
    ["--preset", "sierpinski", "--origin=-3,0", "--dir", "1,0", "--size", "1x1", "--len", "2"],
    ["--preset", "sierpinski", "--dir=-1,1", "--size", "1x1", "--len", "2"],
    ["--word", "fib-rows", "--origin=-3,0", "--dir", "1,0", "--size", "1x1", "--len", "2"],
    ["--word", "toeplitz-random", "--origin=-4,0", "--dir", "1,0", "--size", "1x1", "--len", "2"],
    ["--word", "thue-morse", "--dir=-1", "--size", "1", "--len", "3"],
])
def test_extract_outside_the_domain_exits_1(capsys, monkeypatch, argv):
    """A line that leaves N^d is refused with one message line; the
    pointwise morphic walk, which never shrinks a negative coordinate, must
    not start."""
    def never(*args):
        raise AssertionError("a pointwise morphic walk started")

    monkeypatch.setattr(Morphism, "letter_in_fixed_point", never)
    code, out, err = run(capsys, "extract", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("multirec: error: the line ") and err.count("\n") == 1


@pytest.fixture
def no_reads(monkeypatch):
    """Make every letter read and every substitution fail the test."""
    def never(*args, **kwargs):
        raise AssertionError("a read started")

    monkeypatch.setattr(WordSource, "letter", never)
    monkeypatch.setattr(WordSource, "letters_along", never)
    monkeypatch.setattr(WordSource, "letters_on_lines", never)
    monkeypatch.setattr(Morphism, "iterate", never)


@pytest.mark.parametrize("argv, flag", [
    (["--dir", "1,1", "--size", "1x2", "--len", "-3"], "--len -3"),
    (["--dir", "0,0", "--size", "1x2", "--len", "3"], "--dir 0,0"),
    (["--dir", "0,0", "--size", "1x2", "--len", "0"], "--dir 0,0"),
])
def test_extract_refuses_a_negative_len_and_a_zero_dir(capsys, no_reads, argv, flag):
    code, out, err = run(capsys, "extract", "--preset", "surd-not-ssurdo-2x2", *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and flag in err


def test_extract_of_no_blocks_prints_an_empty_line(capsys):
    code, out, _ = run(capsys, "extract", "--preset", "surd-not-ssurdo-2x2",
                       "--dir", "1,1", "--size", "1x2", "--len", "0")
    assert code == 0
    assert out == "\n"


@pytest.mark.parametrize("claim", ["0", "-3"])
def test_check_refuses_a_claim_below_1_before_reading(capsys, no_reads, claim):
    """No gap is below 1, so such a claim is refused, not scanned."""
    code, out, err = run(capsys, "check", "--preset", "ssurdo-3x3", "--claim", claim,
                         "--budget", "10,1,1,1,1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and f"bad --claim {claim}" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--preset", "sierpinski", "--box", "100000x100000"],
    ["generate", "--preset", "sierpinski", "--iterate", "1000000000"],
    ["extract", "--word", "sturmian", "--dir", "1,1", "--size", "3x3", "--len", "1000000000"],
    ["classify", "--all", "--param", "40", "--workers", "1"],
], ids=["box", "iterate", "len", "param"])
def test_oversized_reads_exit_1_before_reading(capsys, no_reads, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "the limit of" in err


@pytest.mark.parametrize("mode, budget, limit", [
    ("urd", "1048576,1,1,1,8", "limit of 1048576 letters"),
    ("ur", "100,1,2,1,600000", "limit of 1048576 letters"),
    ("urd", "100,300,1,1,8", "limit of 65536"),
    ("ssurdo", "100,20,3,20,8", "limit of 65536"),
    ("urd", "1048575,255,1,1,256", "limit of 67108864 letters"),
    ("ssurdo", "5000,15,2,7,256", "limit of 67108864 letters"),
], ids=["horizon", "ur-grid", "directions", "ssurdo-lines", "urd-letters", "ssurdo-letters"])
def test_oversized_budgets_exit_1_before_reading(capsys, no_reads, mode, budget, limit):
    code, out, err = run(capsys, "check", "--preset", "sierpinski", "--mode", mode, "--budget", budget)
    assert code == 1
    assert out == ""
    assert limit in err


def test_budget_limits_are_inclusive_and_the_defaults_pass():
    for mode in ("urd", "surd", "ssurdo", "ur"):
        _check_budget(RecurrenceBudget(), mode, 2)
    # 2^20 letters on each of 8^2 lines; (2*511 + 2)^2 = 2^20 grid cells;
    # 4 * 8^2 * 16^2 = 2^16 lines of 2^10 letters
    _check_budget(RecurrenceBudget(_MAX_LETTERS - 1, direction_bound=7, size_bound=1), "urd", 2)
    _check_budget(RecurrenceBudget(size_bound=2, block_bound=511), "ur", 2)
    _check_budget(RecurrenceBudget(1023, direction_bound=15, size_bound=2, origin_bound=7),
                  "ssurdo", 2)
    assert 8**2 * _MAX_LETTERS == 4 * 8**2 * 16**2 * 2**10 == _MAX_LINES * 2**10 == _MAX_SCAN_LETTERS


@pytest.mark.parametrize("extra", [
    ["--box", "3000x3000"],
    ["--box", "2x2", "--horizon", "400000000"],
    ["--box", "2x1", "--scheme", "uniform", "--scan-box", "3000x3000"],
], ids=["box", "horizon", "scan-box"])
def test_oversized_derives_exit_1_before_reading(capsys, no_reads, extra):
    code, out, err = run(capsys, "derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2", *extra)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "limit of 67108864 letters" in err


def test_a_negative_derive_horizon_exits_1_naming_the_flag(capsys, no_reads):
    code, out, err = run(capsys, "derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2",
                         "--box", "4x4", "--horizon", "-3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "--horizon -3" in err


@pytest.mark.parametrize("extra, flags", [
    (["--box", "4x3", "--scan-box", "garbage"], ["--scan-box", "--scheme uniform"]),
    (["--box", "4x3", "--scheme", "uniform", "--scan-box", "5"], ["--scan-box 5", "--box 4x3"]),
    (["--box", "4x4", "--scheme", "uniform", "--scan-box", "3x3"], ["--scan-box 3x3", "--box 4x4"]),
], ids=["per-direction", "dimension", "containment"])
def test_derive_refuses_a_scan_box_it_cannot_use(capsys, no_reads, extra, flags):
    code, out, err = run(capsys, "derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2", *extra)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert all(flag in err for flag in flags)


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_classify_all_refuses_fewer_than_one_worker(capsys, no_reads, monkeypatch, workers):
    def no_survey(*args, **kwargs):
        raise AssertionError("a survey started")

    monkeypatch.setattr(cli, "survey_all_2x2", no_survey)
    code, out, err = run(capsys, "classify", "--all", "--workers", workers)
    assert code == 1
    assert out == ""
    assert "at least 1" in err


@pytest.mark.parametrize("param", ["2", "0"])
def test_classify_all_refuses_a_param_the_witnesses_cannot_take(capsys, no_reads, param):
    """Five witness families take only odd parameters, so the survey
    refuses an even or nonpositive one before its first entry reads."""
    code, out, err = run(capsys, "classify", "--all", "--param", param)
    assert code == 1
    assert out == ""
    assert f"--param {param}" in err and "odd" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("param, reason", [
    ("2", "odd"), ("0", "positive"), ("17", "limit"),
])
def test_classify_names_a_param_its_witness_cannot_take(tmp_path, capsys, param, reason):
    """Case 2 (0 -> [[0,0],[1,0]], 1 -> [[1,1],[0,1]]) takes only odd
    parameters from 1 to 16."""
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"k": 2, "dims": [2, 2],
                                "images": {"0": [[0, 0], [1, 0]], "1": [[1, 1], [0, 1]]}}))
    code, out, err = run(capsys, "classify", "--morphism", str(path), "--param", param)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert f"bad --param {param}:" in err and reason in err


def test_classify_lets_a_fixed_witness_ignore_the_param(capsys):
    code, out, _ = run(capsys, "classify", "--preset", "sierpinski", "--param", "0")
    assert code == 0
    assert "witness trivial" in out


def test_check_json_serialises_gaps_as_ints(capsys):
    for mode, key in (("urd", "max_gap"), ("surd", "sup_gap")):
        code, out, _ = run(capsys, "check", "--preset", "ssurdo-3x3", "--mode", mode,
                           "--budget", "300,2,2,1,8", "--json")
        assert code == 0
        gaps = [entry[key] for entry in json.loads(out)]
        assert gaps and all(type(g) is int for g in gaps)


def test_generate_refuses_a_morphism_with_a_side_of_1(tmp_path, capsys, no_reads):
    path = tmp_path / "flat.json"
    flat = {"k": 2, "dims": [1, 2], "images": {"0": [[0], [1]], "1": [[1], [0]]}}
    path.write_text(json.dumps(flat))
    code, out, err = run(capsys, "generate", "--morphism", str(path), "--letter", "0", "--box", "4x4")
    assert code == 1
    assert out == ""
    assert "side" in err


_ONE_CELL = {"k": 2, "dims": [1, 1], "images": {"0": [[1]], "1": [[0]]}}


def test_iterate_refuses_too_many_levels_of_a_one_cell_morphism(tmp_path, capsys, no_reads):
    """Its image has one letter at every level, so the refusal counts the
    substitution levels as well as the letters."""
    path = tmp_path / "one-cell.json"
    path.write_text(json.dumps(_ONE_CELL))
    code, out, err = run(capsys, "generate", "--morphism", str(path), "--iterate", "1000000000")
    assert code == 1
    assert out == ""
    assert "the limit of" in err


def test_iterate_on_a_one_cell_morphism(tmp_path, capsys):
    path = tmp_path / "one-cell.json"
    path.write_text(json.dumps(_ONE_CELL))
    code, out, _ = run(capsys, "generate", "--morphism", str(path), "--iterate", "3")
    assert code == 0
    assert out == "0\n"


@pytest.mark.parametrize("data, field", [
    ({}, "has no 'k'"),
    ({"k": 2}, "has no 'dims'"),
    ({"k": 2, "dims": [2, 2]}, "has no 'images'"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0]]}}, "has no image of letter 1"),
    ([], "is not an object with 'k', 'dims' and 'images'"),
    ({"k": "two", "dims": [2, 2], "images": {}}, "has a malformed 'k'"),
    ({"k": 2, "dims": 2, "images": {}}, "has a malformed 'dims'"),
    ({"k": 2, "dims": [2, 2], "images": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]]},
     "has a malformed 'images'"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1]], "1": [[1, 0], [0, 1]]}},
     "has a malformed image of letter 0"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0]], "1": [[0, 1], [1, 0, 1]]}},
     "has a malformed image of letter 1"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0]], "1": [[0, 1], 1]}},
     "has a malformed image of letter 1"),
    # int() would truncate a float and read a numeric string or a bool
    ({"k": 2.7, "dims": ["2", 2.2], "images": {"0": [[0, 0], [0, 0.9]], "1": [[1, 1.5], [1, 0]]}},
     "has a malformed 'k'"),
    ({"k": True, "dims": [2, 2], "images": {}}, "has a malformed 'k'"),
    ({"k": 2, "dims": ["2", 2], "images": {}}, "has a malformed 'dims'"),
    ({"k": 2, "dims": [2, 2.0], "images": {}}, "has a malformed 'dims'"),
    ({"k": 2, "dims": [2, True], "images": {}}, "has a malformed 'dims'"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0.9]], "1": [[1, 0], [0, 1]]}},
     "has a malformed image of letter 0"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0]], "1": [[1, "0"], [0, 1]]}},
     "has a malformed image of letter 1"),
    ({"k": 2, "dims": [2, 2], "images": {"0": [[0, 1], [1, 0]], "1": [[1, False], [0, 1]]}},
     "has a malformed image of letter 1"),
], ids=["k", "dims", "images", "image-of-1", "list", "k-type", "dims-type", "images-list",
        "short-row", "long-row", "mixed-depth", "k-float", "k-bool", "dims-string",
        "dims-float", "dims-bool", "cell-float", "cell-string", "cell-bool"])
def test_a_morphism_file_without_a_field_exits_1_naming_it(tmp_path, capsys, no_reads, data, field):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "generate", "--morphism", str(path), "--box", "4x4")
    assert (code, out) == (1, "")
    assert err == f"multirec: error: the morphism file {field}\n"


# A derive, a check, a usage error, a pgm render, a classify and the help,
# in that order.
PARSER_REUSE_RUNS = [
    ["derive", "--word", "surd-not-ssurdo-2x2", "--size", "1x2", "--box", "6x4",
     "--scheme", "uniform"],
    ["check", "--preset", "ssurdo-3x3", "--mode", "surd", "--budget", "100,2,2,1,8"],
    ["check", "--preset", "ssurdo-3x3", "--mode", "nonsense"],
    ["generate", "--preset", "sierpinski", "--box", "6x4", "--format", "pgm"],
    ["classify", "--preset", "sierpinski"],
    ["--help"],
]


def test_one_parser_serves_every_call_as_a_fresh_process_would(capsys, monkeypatch):
    """main builds its parser once per process, and each call on it gives
    the exit code, stdout and stderr of the same command run in a fresh
    interpreter."""
    monkeypatch.setenv("COLUMNS", "80")
    env = {**os.environ, "PYTHONPATH": str(Path(multirec.__file__).parents[1])}
    cli.build_parser.cache_clear()
    for argv in PARSER_REUSE_RUNS:
        fresh = subprocess.run([sys.executable, "-m", "multirec", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
        assert run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser.cache_info().misses == 1


def test_importing_the_cli_loads_no_process_pool():
    """The survey runs in one process, so the CLI imports neither
    multiprocessing nor concurrent.futures."""
    env = {**os.environ, "PYTHONPATH": str(Path(multirec.__file__).parents[1])}
    probe = ("import sys, multirec.cli; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] in ('multiprocessing', 'concurrent')))")
    fresh = subprocess.run([sys.executable, "-c", probe], env=env,
                           capture_output=True, text=True, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert fresh.stdout == "[]\n"
