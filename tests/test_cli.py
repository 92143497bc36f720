import json

import pytest

from simplexboundary.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_eval_bad_point_is_usage_error(capsys):
    code, _, stderr = run(capsys, "eval", "--map", "theta:L=1,n=1,i=0", "--point", "[oops]")
    assert code == 2
    assert "usage error" in stderr


def test_eval_bad_map_ids(capsys):
    code, _, stderr = run(capsys, "eval", "--map", "theta:L=2,n=1,i=0", "--point", "[1]")
    assert code == 2
    code, _, stderr = run(capsys, "eval", "--map", "pi_alpha:n=2,alpha=1/2", "--point", "[1,0,0]")
    assert code == 2
    code, _, stderr = run(capsys, "eval", "--map", "mystery:n=1", "--point", "[1]")
    assert code == 2


def test_eval_dimension_violation(capsys):
    code, _, stderr = run(capsys, "eval", "--map", "theta:L=1,n=1,i=0", "--point", "[1/3,1/3,1/3]")
    assert code == 1
    assert "dimension" in stderr


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["verify-equations", "--bogus"])
    assert exc.value.code == 2


def test_unsupported_family_exits_two(capsys):
    code, _, stderr = run(capsys, "verify-equations", "--n", "1", "--L", "2")
    assert code == 2 and "L" in stderr
    code, _, stderr = run(capsys, "verify-boundary", "--n", "2", "--m", "1,1,1")
    assert code == 2


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


def test_figure_requires_content(capsys):
    code, _, stderr = run(capsys, "figure")
    assert code == 2


def test_figure_rejects_other_dimensions(capsys):
    code, _, stderr = run(capsys, "figure", "--m", "1,1", "--n", "3")
    assert code == 2


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


def test_config_file_defaults_and_flag_priority(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m=9,4\nn-max=2\n")
    code, stdout, _ = run(capsys, "homology", "--config", str(config))
    assert code == 0
    assert len(stdout.splitlines()) == 3  # n-max from the config file
    code, stdout, _ = run(capsys, "homology", "--config", str(config), "--n-max", "1")
    assert len(stdout.splitlines()) == 2  # flag wins


def test_unknown_config_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("bogus=1\n")
    code, _, stderr = run(capsys, "homology", "--config", str(config))
    assert code == 2


def test_identical_flags_identical_reports(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify-boundary", "--n", "2", "--m", "1,1", "--seed", "99"]
    assert run(capsys, *argv, "--out", str(a))[0] == 0
    assert run(capsys, *argv, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_bad_integer_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("n=abc\n")
    code, _, stderr = run(capsys, "verify-equations", "--config", str(config))
    assert code == 2
    assert "usage error" in stderr and "'n'" in stderr


def test_eval_past_dimension_cap_exits_two(capsys):
    code, _, stderr = run(capsys, "eval", "--map", "theta:L=1,n=9,i=1", "--point", "[1,0,0,0,0,0,0,0,0,0]")
    assert code == 2
    assert "dimension 6" in stderr


def test_levels_past_dimension_cap_exit_two(capsys):
    code, _, stderr = run(capsys, "verify-equations", "--n", "7", "--L", "1")
    assert code == 2 and "dimension 6" in stderr
    code, _, stderr = run(capsys, "verify-boundary", "--n", "8", "--m", "9,4")
    assert code == 2 and "dimension 6" in stderr


def test_n_max_below_n_exits_two(capsys):
    code, stdout, stderr = run(capsys, "verify-equations", "--n", "3", "--n-max", "2")
    assert code == 2 and "--n-max 2 is below --n 3" in stderr
    assert "0 instances" not in stdout
    code, _, stderr = run(capsys, "verify-boundary", "--n", "3", "--n-max", "2")
    assert code == 2


def test_homology_unsupported_family_matches_verify_boundary(capsys):
    code, _, homology_err = run(capsys, "homology", "--m", "1,1,1")
    assert code == 2
    code, _, boundary_err = run(capsys, "verify-boundary", "--m", "1,1,1")
    assert code == 2
    assert homology_err == boundary_err


def test_format_only_where_it_selects_output():
    for command in ("verify-equations", "verify-boundary", "homology"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--format", "csv"])
        assert exc.value.code == 2


def test_verify_equations_grid_denominator_too_small_exits_two(capsys):
    code, stdout, stderr = run(
        capsys, "verify-equations", "--L", "0", "--n", "1", "--n-max", "3", "--grid-denominator", "2"
    )
    assert code == 2
    assert "usage error: --grid-denominator 2" in stderr
    assert stdout == ""  # rejected before any level runs


def test_verify_boundary_grid_denominator_too_small_exits_two(capsys):
    code, stdout, stderr = run(
        capsys, "verify-boundary", "--m", "1", "--n", "3", "--grid-denominator", "1"
    )
    assert code == 2
    assert "usage error: --grid-denominator 1" in stderr
    assert stdout == ""


def test_verify_equations_grid_denominator_below_numerator_sum_exits_two(capsys):
    # Six distinct numerators of a 5-dimensional grid point sum to at least 15.
    code, stdout, stderr = run(
        capsys, "verify-equations", "--L", "0", "--n", "5", "--grid-denominator", "9"
    )
    assert code == 2
    assert "usage error: --grid-denominator 9" in stderr
    assert stdout == ""


EVAL_ONE_POINT = ("eval", "--map", "theta:L=1,n=1,i=1", "--point", "[1/4,3/4]")


def test_eval_unknown_format_flag_exits_two(capsys):
    code, stdout, stderr = run(capsys, *EVAL_ONE_POINT, "--format", "bogus")
    assert code == 2
    assert "usage error: eval format must be csv, got 'bogus'" in stderr
    assert stdout == ""


def test_eval_unknown_format_in_config_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("format=bogus\n")
    code, stdout, stderr = run(capsys, *EVAL_ONE_POINT, "--config", str(config))
    assert code == 2
    assert "usage error: eval format must be csv, got 'bogus'" in stderr
    assert stdout == ""


def test_verify_equations_nonpositive_grid_denominator_exits_two(tmp_path, capsys):
    # The level-1 grid has dimension 0, so no grid construction would notice.
    config = tmp_path / "run.cfg"
    config.write_text("grid-denominator=0\n")
    code, stdout, stderr = run(
        capsys, "verify-equations", "--L", "0", "--n", "1", "--config", str(config)
    )
    assert code == 2
    assert "usage error: --grid-denominator 0 must be at least 1" in stderr
    assert stdout == ""


def test_verify_boundary_nonpositive_grid_denominator_exits_two(capsys):
    code, stdout, stderr = run(
        capsys, "verify-boundary", "--m", "1", "--n", "2", "--grid-denominator", "-5"
    )
    assert code == 2
    assert "usage error: --grid-denominator -5 must be at least 1" in stderr
    assert stdout == ""
