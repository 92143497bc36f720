import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from simplexboundary import chain, cli, homology_point
from simplexboundary.chain import (
    Chain,
    CoefficientTuple,
    boundary,
    chain_of_term,
    check_boundary_squared,
    check_equation,
    identity_term,
)
from simplexboundary.cli import main
from simplexboundary.comfort import SimplexHomeo
from simplexboundary.geometry import BaryPoint
from simplexboundary.theta import ThetaKey, UnsupportedL, check_family, theta, theta1_on_face


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


POINT = ("--point", "[1/4,3/4]")
THETA_MAP = ("eval", "--map", "theta:L=1,n=1,i=1")
EVAL_ONE_POINT = (*THETA_MAP, *POINT)


def test_verify_equations_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys,
        "verify-equations", "--n", "1", "--grid-denominator", "12", "--out", str(out),
    )
    assert code == 0
    assert "12 instances" in stdout
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert len(report["instances"]) == 12


def test_verify_boundary_small(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        capsys, "verify-boundary", "--n", "2", "--m", "9,4", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["runs"][0]["summands"] == 24
    assert report["runs"][0]["pairs_checked"] == 12
    assert report["verdict"] == "pass"


def test_verify_boundary_coefficients_that_do_not_cancel_exit_one(tmp_path, capsys, monkeypatch):
    # One summand's weight off by one: each run pairs every summand as
    # before and reports that pair's coefficients with a witness.
    argv = ["verify-boundary", "--m", "9,4", "--n", "2", "--n-max", "3", "--out"]
    assert run(capsys, *argv, str(tmp_path / "good.json"))[0] == 0
    good = json.loads((tmp_path / "good.json").read_text())
    expand = chain._double_boundary

    def off_by_one(term, m):
        for key, weight, summand in expand(term, m):
            yield key, weight + (key == (0, 0, 0, 0)), summand

    monkeypatch.setattr(chain, "_double_boundary", off_by_one)
    code, _, _ = run(capsys, *argv, str(tmp_path / "bad.json"))
    assert code == 1
    bad = json.loads((tmp_path / "bad.json").read_text())
    assert bad["verdict"] == "fail" and len(bad["runs"]) == 2
    for before, after in zip(good["runs"], bad["runs"]):
        assert after["pairs_checked"] == before["pairs_checked"]
        assert [w["detail"] for w in after["witnesses"]] == [
            "coefficients of (0, 0, 0, 0) and (1, 0, 0, 0) do not cancel"
        ]


def test_eval_theta(capsys):
    code, stdout, _ = run(capsys, "eval", "--map", "theta:L=1,n=1,i=1", "--point", "[1/4,3/4]")
    assert code == 0
    assert stdout.strip() == "[1/5,4/5]"


def test_eval_center_fixed(capsys):
    code, stdout, _ = run(
        capsys, "eval", "--map", "theta:L=1,n=2,i=0", "--point", "[1/3,1/3,1/3]"
    )
    assert code == 0
    assert stdout.strip() == "[1/3,1/3,1/3]"


def test_eval_projection(capsys):
    code, stdout, _ = run(
        capsys, "eval", "--map", "pi_alpha:n=2,alpha=0", "--point", "[1/6,2/6,3/6]"
    )
    assert code == 0
    assert stdout.strip() == "[0,1/3,2/3]"
    # The center is in the domain of the projection onto the center itself.
    code, stdout, _ = run(
        capsys, "eval", "--map", "pi_alpha:n=2,alpha=1/3", "--point", "[1/3,1/3,1/3]"
    )
    assert (code, stdout) == (0, "[1/3,1/3,1/3]\n")


def test_eval_transcript_csv(capsys):
    code, stdout, _ = run(
        capsys,
        "eval", "--map", "theta:L=1,n=1,i=1",
        "--point", "[1/4,3/4]", "--point", "[0,1]",
    )
    assert code == 0
    assert stdout.splitlines() == [
        "input,output",
        '"[1/4,3/4]","[1/5,4/5]"',
        '"[0,1]","[0,1]"',
    ]


def test_eval_map_failure_at_a_valid_point_exits_one(capsys, monkeypatch):
    def refuse(x):
        raise ValueError("no image here")

    monkeypatch.setattr(cli, "theta", lambda key: SimplexHomeo(key.n, refuse, refuse))
    code, stdout, stderr = run(capsys, "eval", "--map", "theta:L=1,n=1,i=1", "--point", "[1/4,3/4]")
    assert (code, stdout) == (1, "")
    assert stderr == "error: no image here\n"


def raising(kind):
    def stand_in(*args, **kwargs):
        raise kind("boom")
    return stand_in


@pytest.mark.parametrize(
    "argv, name, stand_in",
    [
        (["verify-equations"], "check_equation", raising(ValueError)),
        (["verify-boundary"], "check_boundary_squared", raising(ValueError)),
        (EVAL_ONE_POINT, "theta", lambda key: SimplexHomeo(key.n, raising(ValueError), raising(ValueError))),
        (["figure", "--m", "9,4"], "_figure_segments", raising(ValueError)),
        (["homology"], "homology_table", raising(ValueError)),
        (["homology"], "homology_table", raising(AssertionError)),
    ],
    ids=["verify-equations", "verify-boundary", "eval", "figure", "homology ValueError", "homology AssertionError"],
)
def test_every_command_exits_one_on_a_raised_failure(argv, name, stand_in, tmp_path, capsys, monkeypatch):
    # main alone turns a failure that is not a usage error into exit 1.
    monkeypatch.setattr(cli, name, stand_in)
    out = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(out)) == (1, "", "error: boom\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, code, stream, expected",
    [
        (["homology", "--m", "9,4", "--n-max", "2"], 0, "stdout", "0, 0, Z\n1, 0, Z/13\n2, ×13, 0\n"),
        (["verify-equations", "--n", "1", "--L", "2"], 2, "stderr", "usage error:"),
        (["verify-equations", "--bogus"], 2, "stderr", "unrecognized arguments: --bogus"),
    ],
    ids=["homology", "usage-error", "unknown-flag"],
)
def test_entry_point_exit_codes(argv, code, stream, expected):
    # The real entry point: sys.exit(main()), an argparse error included.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "simplexboundary.cli", *argv],
        capture_output=True, encoding="utf-8", env=env, timeout=60,
    )
    assert proc.returncode == code
    assert expected in getattr(proc, stream)
    assert "Traceback" not in proc.stderr


def check_usage_error(argv, message, tmp_path, capsys):
    """Assert that ``argv`` exits 2 with nothing on stdout and exactly
    ``usage error: message`` on stderr.  A bytes item of ``argv`` is the
    text of a config file and is passed as the file's path; CONFIG in
    ``message`` stands for that path."""
    config = tmp_path / "run.cfg"
    argv = list(argv)
    for index, arg in enumerate(argv):
        if isinstance(arg, bytes):
            config.write_bytes(arg)
            argv[index] = str(config)
    assert run(capsys, *argv) == (2, "", f"usage error: {message.replace('CONFIG', str(config))}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-equations", "--n", "0"], "--n must be at least 1"),
        (["verify-boundary", "--n", "0"], "--n must be at least 1"),
        (["homology", "--n-max", "-1"], "--n-max must be nonnegative"),
        (["figure", "--alpha", "2"], "cross level 2 outside [0,1]"),
        (["figure", "--m", "9,4", "--format", "png"], "figure format must be csv or svg, got 'png'"),
        (
            ["verify-boundary", "--m", "9,x"],
            "cannot parse coefficient tuple '9,x': invalid literal for int() with base 10: 'x'",
        ),
        (["homology", "--config", b"n 2\n"], "config line without '=': 'n 2'"),
        (["eval", "--map", "theta:L=1,n", *POINT], "bad map parameter 'n' in 'theta:L=1,n'"),
        (["eval", "--map", "theta:L=1", *POINT], "theta map id needs L, n, i: 'theta:L=1'"),
        (
            ["eval", "--map", "pi_alpha:n=x,alpha=0", *POINT],
            "bad pi_alpha map id 'pi_alpha:n=x,alpha=0': invalid literal for int() with base 10: 'x'",
        ),
        (["eval", "--map", "pi_alpha:n=1", *POINT], "pi_alpha map id needs n and alpha: 'pi_alpha:n=1'"),
        (
            ["eval", "--map", "theta:L=1,n=1,i=1", "--point", "[1/4,,3/4]", *POINT],
            "cannot parse point '[1/4,,3/4]': cannot parse point from '[1/4,,3/4]'",
        ),
        (
            ["eval", "--map", "theta:L=1,n=1,i=1", "--point", " , 1/4 , 3/4 , ", *POINT],
            "cannot parse point ' , 1/4 , 3/4 , ': cannot parse point from ' , 1/4 , 3/4 , '",
        ),
        (
            ["eval", "--map", "pi_alpha:n=1,alpha=1/0", *POINT],
            "bad pi_alpha map id 'pi_alpha:n=1,alpha=1/0': zero denominator in '1/0'",
        ),
    ],
)
def test_usage_errors_exit_two(argv, message, tmp_path, capsys):
    check_usage_error(argv, message, tmp_path, capsys)


def usage_errors(*rows):
    """A test that runs ``check_usage_error`` on each ``(argv, message)``
    row, in order."""
    def test(tmp_path, capsys):
        for argv, message in rows:
            check_usage_error(argv, message, tmp_path, capsys)
    return test


# One named test per usage-error contract; check_usage_error checks each of
# its rows exactly.
FAMILY_L2 = "the homeomorphism family exists for L in {0,1}, got 2"
CAP_9 = "Θ(1,9,1) is past the cap: the inductive family is built up to dimension 8"

test_eval_bad_point_is_usage_error = usage_errors(
    (["eval", "--map", "theta:L=1,n=1,i=0", "--point", "[oops]"],
     "cannot parse point '[oops]': Invalid literal for Fraction: 'oops'"),
)
test_eval_zero_denominator_is_usage_error = usage_errors(
    ([*THETA_MAP, "--point", "[1/0,1]"], "cannot parse point '[1/0,1]': zero denominator in '1/0'"),
)
test_eval_bad_map_ids = usage_errors(
    (["eval", "--map", "theta:L=2,n=1,i=0", "--point", "[1]"], f"bad theta map id 'theta:L=2,n=1,i=0': {FAMILY_L2}"),
    (["eval", "--map", "pi_alpha:n=2,alpha=1/2", "--point", "[1,0,0]"], "pi_alpha level 1/2 outside [0, 1/3]"),
    (["eval", "--map", "pi_alpha:n=-1,alpha=0", "--point", "[1]"], "pi_alpha dimension -1 must be nonnegative"),
    (["eval", "--map", "mystery:n=1", "--point", "[1]"], "unknown map id 'mystery:n=1'"),
    (["eval", "--map", "theta:L=1,n=1,i=1,foo=2", *POINT],
     "unknown map parameter 'foo' in 'theta:L=1,n=1,i=1,foo=2'"),
    (["eval", "--map", "pi_alpha:n=1,alpha=1/4,beta=3", *POINT],
     "unknown map parameter 'beta' in 'pi_alpha:n=1,alpha=1/4,beta=3'"),
    (["eval", "--map", "counterexample:x=1", "--point", "[0,1/8,7/8]"],
     "unknown map parameter 'x' in 'counterexample:x=1'"),
    (["eval", "--map", "theta:L=1,n=1,i=1,n=2", *POINT], "repeated map parameter 'n' in 'theta:L=1,n=1,i=1,n=2'"),
)
# A point of the wrong dimension is a usage error, not a violation.
test_eval_dimension_violation = usage_errors(
    ([*THETA_MAP, "--point", "[1/3,1/3,1/3]"], "map expects dimension 1, point has dimension 2"),
)
test_eval_projection_at_the_center_is_usage_error = usage_errors(
    (["eval", "--map", "pi_alpha:n=2,alpha=0", "--point", "[1/3,1/3,1/3]"],
     "projection to layer 0 undefined at the center"),
)
test_eval_unknown_format_flag_exits_two = usage_errors(
    ([*EVAL_ONE_POINT, "--format", "bogus"], "eval format must be csv, got 'bogus'"),
)
# The command line always sets a required flag, so a config key for it
# could never take effect.
test_eval_config_keys_of_required_flags_exit_two = usage_errors(
    ([*EVAL_ONE_POINT, "--config", b"map=bogus\n"], "unknown config key 'map'"),
    ([*EVAL_ONE_POINT, "--config", b"point=[1/2,1/2]\n"], "unknown config key 'point'"),
)
test_eval_unknown_format_in_config_exits_two = usage_errors(
    ([*EVAL_ONE_POINT, "--config", b"format=bogus\n"], "eval format must be csv, got 'bogus'"),
)
test_eval_past_dimension_cap_exits_two = usage_errors(
    (["eval", "--map", "theta:L=1,n=9,i=1", "--point", "[1,0,0,0,0,0,0,0,0,0]"],
     f"bad theta map id 'theta:L=1,n=9,i=1': {CAP_9}"),
)

test_figure_zero_denominator_is_usage_error = usage_errors(
    (["figure", "--m", "9,4", "--alpha", "1/0"], "cannot parse cross level '1/0': zero denominator in '1/0'"),
)
test_figure_requires_content = usage_errors((["figure"], "nothing to draw: pass --m and/or --alpha"))
test_figure_rejects_other_dimensions = usage_errors(
    (["figure", "--m", "1,1", "--n", "3"], "unrecognized arguments: --n 3"),
)

# argparse's own errors come back from main as usage errors, not SystemExit.
test_bad_flags_exit_two = usage_errors(
    (["verify-equations", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify-equations", "--n", "x"], "argument --n: invalid int value: 'x'"),
    (["eval", "--map", "theta:L=1,n=1,i=1"], "the following arguments are required: --point"),
    ([], "the following arguments are required: command"),
)
test_format_only_where_it_selects_output = usage_errors(*(
    ([command, "--format", "csv"], "unrecognized arguments: --format csv")
    for command in ("verify-equations", "verify-boundary", "homology")
))

test_unknown_config_key = usage_errors((["homology", "--config", b"bogus=1\n"], "unknown config key 'bogus'"))
# The parsed arguments also hold the command, its function and the config
# path; a config file sets none of them.
test_config_keys_that_mirror_no_flag_are_unknown = usage_errors(*(
    (["homology", "--m", "9,4", "--n-max", "1", "--config", text], f"unknown config key {key!r}")
    for key, text in (("func", b"func=1\n"), ("command", b"command=x\n"), ("config", b"config=run.cfg\n"))
))
test_config_not_utf8_exits_two = usage_errors(
    (["homology", "--m", "9,4", "--config", b"\xff\xfe m=9,4\n"],
     "cannot read config file CONFIG: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
)
test_config_bad_integer_exits_two = usage_errors(
    (["verify-equations", "--config", b"n=abc\n"], "config key 'n': invalid literal for int() with base 10: 'abc'"),
)
# Keys compare after '-' becomes '_', so n-max and n_max are one key.
test_repeated_config_key_exits_two = usage_errors(
    (["verify-equations", "--L", "0", "--config", b"n=1\nn=2\n"], "repeated config key 'n'"),
    (["homology", "--m", "9,4", "--config", b"n-max=1\nn_max=2\n"], "repeated config key 'n_max'"),
)
# A flag given twice is refused like a repeated config key, by its full
# spelling even when an abbreviation matched it; only --point repeats.
test_repeated_flag_exits_two = usage_errors(
    (["homology", "--m", "9,4", "--n-max", "1", "--n-max", "2"], "repeated flag --n-max"),
    (["homology", "--m", "9,4", "--n-m", "1", "--n-max", "2"], "repeated flag --n-max"),
    (["homology", "--m", "9,4", "--config", b"n_max=1\n", "--config", b"n_max=1\n"], "repeated flag --config"),
    (["eval", "--map", "theta:L=1,n=1,i=1", "--map", "theta:L=1,n=1,i=0", *POINT], "repeated flag --map"),
)
# An empty --out names no file: it is refused, not read as "print to stdout".
# A verify command refuses it before any check runs.
EMPTY_OUT = "cannot write : [Errno 2] No such file or directory: ''"
test_empty_out_is_usage_error = usage_errors(
    (["verify-equations", "--L", "0", "--out", ""], EMPTY_OUT),
    (["verify-boundary", "--m", "9,4", "--n", "2", "--config", b"out=\n"], EMPTY_OUT),
    (["homology", "--m", "9,4", "--n-max", "1", "--out", ""], EMPTY_OUT),
    (["homology", "--m", "9,4", "--n-max", "1", "--config", b"out=\n"], EMPTY_OUT),
)

test_unsupported_family_exits_two = usage_errors(
    (["verify-equations", "--n", "1", "--L", "2"], FAMILY_L2),
    (["verify-boundary", "--n", "2", "--m", "1,1,1"], FAMILY_L2),
)
test_levels_past_dimension_cap_exit_two = usage_errors(
    (["verify-equations", "--n", "9", "--L", "1"], CAP_9),
    (["verify-boundary", "--n", "10", "--m", "9,4"], CAP_9),
)
test_n_max_below_n_exits_two = usage_errors(
    (["verify-equations", "--n", "3", "--n-max", "2"], "--n-max 2 is below --n 3"),
    (["verify-boundary", "--n", "3", "--n-max", "2"], "--n-max 2 is below --n 3"),
)
test_homology_unsupported_family_matches_verify_boundary = usage_errors(
    (["homology", "--m", "1,1,1"], FAMILY_L2),
    (["verify-boundary", "--m", "1,1,1"], FAMILY_L2),
)
# Each grid is built before any level runs, so nothing reaches stdout.
test_verify_equations_grid_denominator_too_small_exits_two = usage_errors(
    (["verify-equations", "--L", "0", "--n", "1", "--n-max", "3", "--grid-denominator", "2"],
     "--grid-denominator 2: denominator too small to host distinct coordinates"),
)
test_verify_boundary_grid_denominator_too_small_exits_two = usage_errors(
    (["verify-boundary", "--m", "1", "--n", "3", "--grid-denominator", "1"],
     "--grid-denominator 1: denominator too small to host distinct coordinates"),
)
# Six distinct numerators of a 5-dimensional grid point sum to at least 15.
test_verify_equations_grid_denominator_below_numerator_sum_exits_two = usage_errors(
    (["verify-equations", "--L", "0", "--n", "5", "--grid-denominator", "9"],
     "--grid-denominator 9: denominator too small to host distinct coordinates"),
)
# The level-1 grid has dimension 0, so no grid construction would notice.
test_verify_equations_nonpositive_grid_denominator_exits_two = usage_errors(
    (["verify-equations", "--L", "0", "--n", "1", "--config", b"grid-denominator=0\n"],
     "--grid-denominator 0 must be at least 1"),
)
test_verify_boundary_nonpositive_grid_denominator_exits_two = usage_errors(
    (["verify-boundary", "--m", "1", "--n", "2", "--grid-denominator", "-5"],
     "--grid-denominator -5 must be at least 1"),
)
test_verify_boundary_l_contradicting_m_exits_two = usage_errors(
    (["verify-boundary", "--m", "9,4", "--L", "0"], "unrecognized arguments: --L 0"),
)


def test_verify_equations_classical_family(tmp_path, capsys):
    out = tmp_path / "classical.json"
    code, stdout, _ = run(
        capsys, "verify-equations", "--n", "1", "--n-max", "2", "--L", "0", "--out", str(out)
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert len(report["instances"]) == 3 + 6  # one (i,k) pair per slot choice


def test_figure_csv(capsys):
    code, stdout, _ = run(capsys, "figure", "--m", "9,4", "--alpha", "1/6")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0] == "label,start,end"
    body = lines[1:]
    assert len(body) == 9  # six labelled boundary segments + three chords
    labels = [line.split(",")[0] for line in body]
    assert labels.count("+9") == 2 and labels.count("+4") == 2
    assert labels.count("-9") == 1 and labels.count("-4") == 1
    assert sum(1 for l in labels if l.startswith("cross@")) == 3


def test_figure_corner_cross(capsys):
    code, stdout, _ = run(capsys, "figure", "--alpha", "5/6")
    assert code == 0
    body = stdout.strip().splitlines()[1:]
    assert len(body) == 3
    # Chords at a level above 1/3 hug the corners: each endpoint carries 5/6.
    assert all('5/6' in line for line in body)


def test_figure_svg_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert run(capsys, "figure", "--m", "9,4", "--format", "svg", "--out", str(a))[0] == 0
    assert run(capsys, "figure", "--m", "9,4", "--format", "svg", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().startswith("<svg")


def test_homology_table(capsys):
    code, stdout, _ = run(capsys, "homology", "--m", "9,4", "--n-max", "4")
    assert code == 0
    assert stdout.splitlines() == [
        "0, 0, Z",
        "1, 0, Z/13",
        "2, ×13, 0",
        "3, 0, Z/13",
        "4, ×13, 0",
    ]


def test_homology_sigma_zero(capsys):
    code, stdout, _ = run(capsys, "homology", "--m", "1,-1", "--n-max", "3")
    assert code == 0
    assert [line.split(", ")[2] for line in stdout.splitlines()] == ["Z", "Z", "Z", "Z"]


def test_homology_failing_cross_check_exits_one(tmp_path, capsys, monkeypatch):
    # A boundary that drops one summand reads -9 for the degree-1 factor.
    real = homology_point.boundary

    def dropping(c, m):
        d = real(c, m)
        return Chain(d.dim, d.terms[1:])

    monkeypatch.setattr(homology_point, "boundary", dropping)
    out = tmp_path / "table.txt"
    code, stdout, stderr = run(capsys, "homology", "--m", "9,4", "--n-max", "3", "--out", str(out))
    assert (code, stdout) == (1, "")
    assert stderr == "error: boundary factor -9 in degree 1 disagrees with the closed form 0\n"
    assert not out.exists()


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m=9,4\nn-max=2\n")
    code, stdout, _ = run(capsys, "homology", "--config", str(config))
    assert code == 0
    assert len(stdout.splitlines()) == 3  # n-max from the config file
    code, stdout, _ = run(capsys, "homology", "--config", str(config), "--n-max", "1")
    assert len(stdout.splitlines()) == 2  # flag wins


def test_unwritable_out_exits_two(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir"
    code, _, stderr = run(capsys, "homology", "--m", "9,4", "--out", str(missing / "x"))
    assert code == 2 and "cannot write" in stderr
    code, _, stderr = run(capsys, "verify-equations", "--n", "1", "--out", str(missing / "y.json"))
    assert code == 2 and "cannot write" in stderr


def test_unwritable_out_fails_before_any_check(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "dir" / "y.json")
    for argv in (("verify-equations", "--n", "1"), ("verify-boundary", "--n", "2")):
        code, stdout, stderr = run(capsys, *argv, "--out", missing)
        assert code == 2 and "cannot write" in stderr
        assert stdout == ""  # no equation or boundary-squared line was printed


def test_out_probe_keeps_an_existing_report_when_the_run_stops(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "check_equation", interrupted)
    old = tmp_path / "old.json"
    old.write_text("previous report\n")
    new = tmp_path / "new.json"
    for out in (old, new):
        with pytest.raises(KeyboardInterrupt):
            main(["verify-equations", "--n", "1", "--out", str(out)])
    assert old.read_text() == "previous report\n"
    assert not new.exists()


def test_identical_flags_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-boundary", "--n", "2", "--m", "1,1", "--seed", "99"]
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


WEIGHTS_L2 = CoefficientTuple([1, 1, 1])
L2, CAP = (2, 0), (1, 9)  # the check_family arguments that name each missing Θ

#: Every way to ask for a Θ that is not built: an L outside {0, 1}, or
#: Θ(1,9,1) past the cap, through the package or through the CLI.
FAMILY_ENTRY_POINTS = [
    pytest.param(L2, lambda: ThetaKey(2, 1, 0), id="ThetaKey"),
    pytest.param(L2, lambda: boundary(chain_of_term(identity_term(2)), WEIGHTS_L2), id="boundary"),
    pytest.param(L2, lambda: check_equation(1, [], L=2), id="check_equation L=2"),
    pytest.param(L2, lambda: check_boundary_squared(chain_of_term(identity_term(2)), WEIGHTS_L2, []),
                 id="check_boundary_squared"),
    pytest.param(CAP, lambda: theta(ThetaKey(1, 9, 1)), id="theta"),
    pytest.param(CAP, lambda: check_equation(9, []), id="check_equation n=9"),
    pytest.param(CAP, lambda: theta1_on_face(9, 0, BaryPoint([0] + [1] * 9, 9)), id="theta1_on_face"),
] + [
    pytest.param(family, argv, id=" ".join(argv[:3]))
    for family, argv in [
        (L2, ["verify-equations", "--L", "2"]),
        (L2, ["verify-boundary", "--m", "1,1,1"]),
        (L2, ["homology", "--m", "1,1,1"]),
        (L2, ["eval", "--map", "theta:L=2,n=1,i=0", "--point", "[1/4,3/4]"]),
        (CAP, ["verify-equations", "--n", "9"]),
        (CAP, ["verify-boundary", "--m", "1,1", "--n", "10"]),
        (CAP, ["eval", "--map", "theta:L=1,n=9,i=1", "--point", "[1,0,0,0,0,0,0,0,0,0]"]),
    ]
]


@pytest.mark.parametrize("family, entry", FAMILY_ENTRY_POINTS)
def test_every_entry_point_gives_the_family_message(family, entry, capsys):
    # ``theta.check_family`` writes the one message; eval prefixes its map id.
    with pytest.raises(UnsupportedL) as exc:
        check_family(*family)
    message = str(exc.value)
    if callable(entry):
        with pytest.raises(UnsupportedL) as exc:
            entry()
        assert str(exc.value) == message
    else:
        code, stdout, stderr = run(capsys, *entry)
        prefix = f"bad theta map id {entry[2]!r}: " if entry[0] == "eval" else ""
        assert (code, stdout, stderr) == (2, "", f"usage error: {prefix}{message}\n")


#: One optional flag per case: the command, its required or content flags,
#: the flag, a value, and another value for the config file that the flag
#: must override (some of them would be usage errors on their own).
CONFIG_PARITY = [
    ("verify-equations", (), "n", "2", "1"),
    ("verify-equations", (), "n-max", "2", "1"),
    ("verify-equations", (), "L", "0", "2"),
    ("verify-equations", ("--n", "2"), "grid-denominator", "30", "0"),
    ("verify-equations", ("--n", "2"), "seed", "5", "6"),
    ("verify-boundary", (), "n", "3", "1"),
    ("verify-boundary", (), "n-max", "3", "1"),
    ("verify-boundary", (), "m", "9,4", "1,1,1"),
    ("verify-boundary", (), "grid-denominator", "30", "1"),
    ("verify-boundary", (), "seed", "5", "6"),
    ("verify-boundary", (), "out", None, None),
    ("verify-equations", (), "out", None, None),
    ("eval", EVAL_ONE_POINT[1:], "format", "csv", "bogus"),
    ("eval", EVAL_ONE_POINT[1:], "out", None, None),
    ("figure", ("--m", "9,4"), "alpha", "1/6", "2"),
    ("figure", ("--alpha", "1/6"), "m", "9,4", "x"),
    ("figure", ("--m", "9,4"), "format", "svg", "png"),
    ("figure", ("--m", "9,4"), "out", None, None),
    ("homology", (), "n-max", "3", "-1"),
    ("homology", (), "m", "9,4", "1,1,1"),
    ("homology", ("--m", "9,4"), "out", None, None),
]


@pytest.mark.parametrize(
    "command, required, flag, value, other", CONFIG_PARITY,
    ids=[f"{case[0]} --{case[2]}" for case in CONFIG_PARITY],
)
def test_config_sets_every_optional_flag(command, required, flag, value, other, tmp_path, capsys):
    # A config key gives what the flag gives, and an explicit flag wins.
    report, config = tmp_path / "report", tmp_path / "run.cfg"
    if flag == "out":
        value, other = str(report), str(tmp_path / "other")

    def outcome(flags, config_text):
        report.unlink(missing_ok=True)
        config.write_text(config_text)
        argv = [command, *required, *flags, "--config", str(config)]
        if flag != "out":
            argv += ["--out", str(report)]
        code, stdout, _ = run(capsys, *argv)
        return code, stdout, report.read_bytes() if report.exists() else None

    by_flag = outcome([f"--{flag}", value], "")
    assert by_flag[0] == 0 and by_flag[2]
    assert outcome([], f"# {flag} from the file\n\n{flag}={value}\n") == by_flag  # comment and blank lines are skipped
    assert outcome([f"--{flag}", value], f"{flag}={other}\n") == by_flag
    assert not (tmp_path / "other").exists()


def readme_examples():
    """The ``simplex-boundary`` invocations of README's CLI section, each
    with the output its ``# -> value`` comment promises, or None."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        if command.strip():
            program, *argv = shlex.split(command)
            assert program == "simplex-boundary"
            expected = comment.partition("->")[2].strip() or None
            examples.append(pytest.param(argv, expected, id=" ".join(argv)))
    return examples


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_examples(argv, expected, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # the examples' --out files land here
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    if argv[:3] == ["eval", "--map", "theta:L=1,n=1,i=1"]:
        assert expected == "[1/5,4/5]"  # the README keeps promising the value
    if expected is not None:
        assert stdout.strip() == expected
