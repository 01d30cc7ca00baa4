"""CLI subcommands and exit codes (0 ok, 1 divergence, 2 config, 3 golden)."""

import pytest

from fvweno.cli import main, parse_scheme_list
from fvweno.errors import ConfigurationError
from fvweno.harness import golden as golden_mod
from fvweno.harness.runs import convergence_study
from fvweno.integrate import TimeControl
from fvweno.weno import WeightScheme


def test_parse_scheme_list():
    schemes = parse_scheme_list("JS,m,z,zr:3,zl:2:1")
    labels = [s.label for s in schemes]
    assert labels == ["JS", "M", "Z", "ZR(p=3)", "ZL(p=2,q=1)"]
    assert schemes[0].eps == 1e-12  # dissection default for js, in any case
    with pytest.raises(ConfigurationError):
        parse_scheme_list("weno9000")
    with pytest.raises(ConfigurationError, match="'z:3': z does not read p"):
        parse_scheme_list("js,z:3")


def test_dissect_refuses_two_schemes_of_one_label(capsys):
    # the stage reports are keyed by label: the second z would replace the first
    assert main(["dissect", "--schemes", "z,z", "--stage", "1", "--table", "weights"]) == 2
    assert capsys.readouterr().err.startswith("error: two schemes of the dissection share")


def test_run_command_writes_outputs(tmp_path, capsys):
    rc = main(["run", "burgers1d", "--scheme", "z", "--n", "20",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "solution.csv").exists()
    out = capsys.readouterr().out
    assert "burgers1d" in out and "errors" in out


def test_run_command_writes_the_fine_reference(tmp_path, capsys):
    # buckley-leverett has no exact solution: the run compares with a
    # fine-grid reference and writes it beside the solution
    rc = main(["run", "buckley-leverett", "--scheme", "m", "--n", "20",
               "--out", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "reference.csv").read_text().splitlines()
    assert lines[0] == "x,u" and len(lines) == 21
    assert "'reference.csv'" in (tmp_path / "plot.gp").read_text()


def test_run_rejects_bad_scheme_parameters(capsys):
    rc = main(["run", "burgers1d", "--scheme", "zr", "--p", "0.5", "--n", "20"])
    assert rc == 2


@pytest.mark.parametrize("command", [["run", "burgers1d", "--n", "10"],
                                     ["converge", "advection1d-accuracy", "--n-list", "10"]])
def test_a_parameter_the_family_does_not_read_exits_2(command, capsys):
    # z reads neither p nor q: a --p is refused, not dropped
    assert main([*command, "--scheme", "z", "--p", "3"]) == 2
    assert capsys.readouterr().err.startswith("error: z does not read p")


def test_run_rejects_non_finite_scheme_parameters(capsys):
    # a configuration error, not a run that diverges at step 6
    rc = main(["run", "burgers1d", "--scheme", "zl", "--q", "inf", "--n", "40"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: q must be finite")


@pytest.mark.parametrize("args", [["--tfinal", "nan"], ["--tfinal", "inf"], ["--tfinal", "-1"],
                                  ["--cfl", "inf"], ["--dt-scale", "inf"], ["--cfl", "50"]])
def test_run_rejects_bad_time_inputs(args, capsys):
    # a configuration error, not a run of 0 steps (or one step to T)
    rc = main(["run", "burgers1d", "--scheme", "z", "--n", "20", *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["run", "burgers1d", "--n", "10,10"],          # a pair on a 1D problem
    ["run", "burgers2d", "--n", "10,10,10"],
    ["run", "burgers1d", "--n", "abc"],
    ["converge", "burgers1d", "--n-list", "10,x"],
    ["run", "burgers1d", "--n", "2"],              # periodic: fewer cells than ghosts
])
def test_bad_cell_counts_exit_2(args, capsys):
    rc = main([*args, "--scheme", "z"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_converge_refuses_sizes_that_share_a_label(capsys):
    rc = main(["converge", "advection1d-accuracy", "--scheme", "z", "--n-list", "10,10"])
    assert rc == 2
    assert "row label 10" in capsys.readouterr().err


def test_unknown_problem_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["run", "not-a-problem", "--scheme", "z"])
    assert err.value.code == 2  # argparse rejects the choice


def test_diverging_run_exits_1(capsys):
    rc = main(["run", "blastwave", "--scheme", "zl", "--p", "5", "--q", "1",
               "--no-reference"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "stage" in err


def test_converge_command(capsys):
    rc = main(["converge", "advection1d-accuracy", "--scheme", "z",
               "--n-list", "10,20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1] == "N,L1,order1,L2,order2,Linf,orderInf"


def test_converge_command_cfl(capsys):
    rc = main(["converge", "burgers1d", "--scheme", "z", "--cfl", "0.3",
               "--n-list", "10,20"])
    assert rc == 0
    out = capsys.readouterr().out
    report = convergence_study("burgers1d", WeightScheme.z(), [10, 20],
                               time=TimeControl("cfl", 0.3))
    assert out.splitlines()[1:] == report.to_csv().splitlines()


def test_converge_command_writes_its_csv(tmp_path, capsys):
    rc = main(["converge", "advection1d-accuracy", "--scheme", "z",
               "--n-list", "10,20", "--out", str(tmp_path / "out")])
    assert rc == 0
    path = tmp_path / "out" / "advection1d-accuracy-Z.csv"
    # the file holds exactly the CSV printed between the title and the path
    assert capsys.readouterr().out == (f"advection1d-accuracy / Z\n{path.read_text()}"
                                       f"wrote {path}\n")


def test_dissect_command_text_output(capsys):
    rc = main(["dissect", "--nu", "0.5", "--delta", "1", "--schemes", "js,z",
               "--stage", "3", "--table", "solutions"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "stage 3 solutions" in out
    assert "0.448119" in out  # published JS value


def test_dissect_rejects_bad_courant(capsys):
    rc = main(["dissect", "--nu", "0.7", "--schemes", "js"])
    assert rc == 2


@pytest.mark.parametrize("schemes", ["js:abc", "zr:x", "zl:2:1:9", "zr:2:5", "js:5", "z:1"])
def test_dissect_rejects_scheme_fields_it_cannot_read(schemes, capsys):
    # a field that is not a number, or one more than the family reads (zr
    # reads p, zl p and q, the others none), is not dropped
    rc = main(["dissect", "--schemes", f"z,{schemes}", "--stage", "1", "--table", "weights"])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {schemes!r}: ")


@pytest.mark.parametrize("args", [["--final-time", "inf"], ["--final-time", "nan"],
                                  ["--delta", "inf"], ["--delta", "nan"]])
def test_dissect_rejects_non_finite_inputs(args, capsys):
    # not an OverflowError traceback, nor a reported divergence
    rc = main(["dissect", "--schemes", "js", "--stage", "1", "--table", "weights", *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_dissect_rejects_a_jump_whose_indicators_overflow(capsys):
    rc = main(["dissect", "--nu", "0.5", "--delta", "1e308"])
    assert rc == 2
    assert "delta" in capsys.readouterr().err


def test_dissect_rejects_a_courant_number_whose_carried_terms_overflow(capsys):
    # 6/nu overflows below 3.3e-308, and NaN formulas flagged nothing
    rc = main(["dissect", "--nu", "1e-308"])
    assert rc == 2
    assert "nu" in capsys.readouterr().err


def test_dissect_csv_output(tmp_path):
    rc = main(["dissect", "--schemes", "js", "--stage", "1",
               "--table", "weights", "--out", str(tmp_path)])
    assert rc == 0
    files = list(tmp_path.glob("*.csv"))
    assert len(files) == 1


def test_golden_list(capsys):
    assert main(["golden", "--list"]) == 0
    out = capsys.readouterr().out
    assert "weights-stage1" in out


def test_golden_pass_and_mismatch(tmp_path, monkeypatch, capsys):
    assert main(["golden", "solutions-stage1"]) == 0
    src = golden_mod.FIXTURE_DIR / "solutions-stage1.csv"
    (tmp_path / "solutions-stage1.csv").write_text(
        src.read_text().replace("0.5,", "0.51,", 1))
    monkeypatch.setattr(golden_mod, "FIXTURE_DIR", tmp_path)
    rc = main(["golden", "solutions-stage1"])
    assert rc == 3


def test_dissect_final_time_option(capsys):
    rc = main(["dissect", "--schemes", "zr:2", "--stage", "3",
               "--table", "solutions", "--final-time", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "solutions at T=1" in out
    assert "0.627611" in out  # ZR(p=2) cell left of the jump
