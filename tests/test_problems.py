import json

import numpy as np
import pytest

import mifht.gamma
import mifht.uniform
from mifht import DegenerateDiagonalError, RangeViolationError, SchemaError
from mifht.cli import main as cli_main
from mifht.problems import (
    ProblemSpec,
    ResultBundle,
    build_rhs,
    parse_problem,
    read_table,
    run_command,
    write_bundle,
)

MINIMAL = """
command = invert
intervals = (-1,1)
theta = identity
rhs = linear 0 1
"""

SPD2 = """
command = invert
intervals = (-2,-1) (1,2)
theta = [[1,0.5],[0.5,1]]
rhs = forward-of random-sqrt 10
modes = 64
nystrom = 48
seed = 7
"""


def test_parse_minimal():
    spec = parse_problem(MINIMAL)
    assert spec.command == "invert"
    assert spec.intervals == [(-1.0, 1.0)]
    # a 1x1 identity is the all-ones matrix, so it classifies as uniform
    assert spec.theta_matrix().classification == "uniform"


def test_parse_uniform_tag():
    spec = parse_problem("command = forward\nintervals = (-2,-1) (1,2)\n"
                         "theta = uniform\nrhs = const 1\n")
    assert spec.theta_matrix().classification == "uniform"


def test_parse_degenerate_theta_defers_error():
    # parses fine; the degenerate diagonal is rejected at run time
    spec = parse_problem("command = invert\nintervals = (-2,-1) (1,2)\n"
                         "theta = [[0,1],[1,1]]\nrhs = const 1\n")
    with pytest.raises(DegenerateDiagonalError):
        run_command(spec)


def test_parse_errors_carry_context():
    with pytest.raises(SchemaError, match="line 2"):
        parse_problem("command = invert\nnonsense line\nintervals = (-1,1)\n")
    with pytest.raises(SchemaError, match="unknown command"):
        parse_problem("command = dance\nintervals = (-1,1)\n")
    with pytest.raises(SchemaError, match="missing required"):
        parse_problem("command = invert\n")
    with pytest.raises(SchemaError, match="unknown keys"):
        parse_problem(MINIMAL + "bogus = 3\n")
    with pytest.raises(SchemaError, match="theta shape"):
        parse_problem("command = invert\nintervals = (-1,1)\n"
                      "theta = [[1,0],[0,1]]\nrhs = const 1\n").theta_matrix()


def test_presets(sys2, theta2):
    spec = parse_problem(SPD2)
    sys = spec.system()
    th = spec.theta_matrix()
    for rhs, weighted in ((["const", "2"], False), (["linear", "0", "1"], False),
                          (["cheb-sqrt", "1"], True),
                          (["gaussian-bump", "0", "0.5", "2"], False),
                          (["random-sqrt", "8"], True)):
        spec.rhs = rhs
        pf = build_rhs(spec, sys, th)
        assert pf.weighted is weighted
    spec.rhs = ["cheb-sqrt", "0"]
    pf = build_rhs(spec, sys, th)
    x = np.array([-1.5, 1.5])
    np.testing.assert_allclose(pf(x), np.sqrt(0.5 * 0.5), atol=1e-12)


def test_forward_command_delegates():
    spec = parse_problem("command = forward\nintervals = (-1,1)\n"
                         "theta = identity\nrhs = cheb-sqrt 0\nmodes = 32\n")
    bundle = run_command(spec)
    table = np.array(bundle.tables["psi"])
    # H[w U_0] = -x on the interval
    np.testing.assert_allclose(table[:, 2], -table[:, 1], atol=1e-10)


def test_invert_command_spd_two_paths():
    bundle = run_command(parse_problem(SPD2))
    d = bundle.diagnostics
    assert d["two_path_discrepancy"]["pass"]
    assert d["linear_residual"]["pass"]
    assert d["range2_residual"]["pass"]
    assert set(bundle.tables) == {"phi", "nu", "phi_resolvent"}


def test_range_check_command():
    text = SPD2.replace("command = invert", "command = range-check")
    bundle = run_command(parse_problem(text))
    assert bundle.diagnostics["in_range"] is True
    assert bundle.diagnostics["symmetric_defect"]["pass"]
    assert bundle.diagnostics["general_defect"]["pass"]


def test_selftest_command():
    spec = parse_problem("command = selftest\nintervals = (-1,1)\n"
                         "theta = identity\nrhs = const 0\n")
    bundle = run_command(spec)
    assert bundle.diagnostics["all_pass"] is True


def test_determinism():
    b1 = run_command(parse_problem(SPD2))
    b2 = run_command(parse_problem(SPD2))
    t1 = {k: v for k, v in b1.diagnostics.items() if k != "elapsed_seconds"}
    t2 = {k: v for k, v in b2.diagnostics.items() if k != "elapsed_seconds"}
    assert json.dumps(t1, default=str, sort_keys=True) == json.dumps(
        t2, default=str, sort_keys=True)
    assert np.array_equal(b1.tables["phi"], b2.tables["phi"])


def test_tables_are_float_arrays():
    bundle = run_command(parse_problem(SPD2))
    for table in bundle.tables.values():
        assert table.dtype == np.float64 and table.shape == (2 * 64, 4)
        np.testing.assert_array_equal(table[:, 0], np.repeat([0, 1], 64))


def test_write_bundle_prints_interval_index_as_integer(tmp_path):
    bundle = run_command(parse_problem(SPD2))
    lines = (write_bundle(bundle, tmp_path) / "phi.tsv").read_text().splitlines()
    assert lines[0] == "interval_index\tx\tre_value\tim_value"
    assert [ln.split("\t")[0] for ln in lines[1:]] == ["0"] * 64 + ["1"] * 64
    assert lines[1].split("\t")[1] == "-2"


UNIFORM_IN_RANGE = """
command = uniform-invert
intervals = (-2,-1) (1,2.5)
theta = uniform
rhs = forward-of random-sqrt 8
"""


def test_uniform_invert_transforms_each_function_once(monkeypatch):
    """T runs once on g and once on the recovered f; out of range, once on g."""
    calls = []
    apply_T = mifht.uniform.apply_T

    def counted(*args, **kwargs):
        calls.append(1)
        return apply_T(*args, **kwargs)

    monkeypatch.setattr(mifht.uniform, "apply_T", counted)
    bundle = run_command(parse_problem(UNIFORM_IN_RANGE))
    assert bundle.diagnostics["range_pass"] is True
    assert bundle.diagnostics["roundtrip_residual"]["pass"] is True
    assert len(calls) == 2
    calls.clear()
    with pytest.raises(RangeViolationError, match="low-frequency energy"):
        run_command(parse_problem(UNIFORM_IN_RANGE.replace(
            "forward-of random-sqrt 8", "gaussian-bump")))
    assert len(calls) == 1


def test_gamma_check_evaluates_gamma_in_batches(monkeypatch):
    """One eval each for the far field and det, two each for jump and no-jump."""
    calls = []
    evaluate = mifht.gamma.GammaSolution.eval

    def counted(self, *args, **kwargs):
        calls.append(1)
        return evaluate(self, *args, **kwargs)

    monkeypatch.setattr(mifht.gamma.GammaSolution, "eval", counted)
    bundle = run_command(parse_problem(
        "command = gamma-check\nintervals = (-2,-1) (1,2)\n"
        "theta = [[1,0.5],[0.5,1]]\nnystrom = 48\n"))
    for key in ("jump_residual", "det_drift", "nojump_gamma_f", "nojump_gt_gamma_inv"):
        assert bundle.diagnostics[key]["pass"] is True
    assert len(calls) <= 6


def test_serialization_round_trip(tmp_path):
    bundle = run_command(parse_problem(SPD2))
    out = write_bundle(bundle, tmp_path / "out")
    data = read_table(out / "phi.tsv")
    orig = np.array(bundle.tables["phi"])
    np.testing.assert_array_equal(data, orig)  # 17 significant digits: exact
    diag = json.loads((out / "diagnostics.json").read_text())
    assert diag["provenance"]["input_sha256"] == bundle.provenance["input_sha256"]


def test_samples_rhs_round_trip(tmp_path):
    # the forward command maps its rhs, so feed it phi itself; the psi
    # table then reloads as a sample-based rhs for inversion
    text = SPD2.replace("command = invert", "command = forward").replace(
        "rhs = forward-of random-sqrt 10", "rhs = random-sqrt 10")
    bundle = run_command(parse_problem(text))
    out = write_bundle(bundle, tmp_path / "fwd")
    text = (f"command = invert\nintervals = (-2,-1) (1,2)\n"
            f"theta = [[1,0.5],[0.5,1]]\nrhs = samples {out}/psi.tsv\n"
            f"modes = 64\nnystrom = 48\nseed = 7\n")
    bundle2 = run_command(parse_problem(text))
    assert bundle2.diagnostics["range2_residual"]["value"] <= 1e-5


def test_cli_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text(MINIMAL)
    assert cli_main(["invert", "--problem", str(good)]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "invert"

    bad_schema = tmp_path / "bad1.txt"
    bad_schema.write_text("command = nope\nintervals = (-1,1)\n")
    assert cli_main(["invert", "--problem", str(bad_schema)]) == 2

    bad_geom = tmp_path / "bad2.txt"
    bad_geom.write_text("command = invert\nintervals = (-1,1) (0,2)\n"
                        "theta = identity\nrhs = const 1\n")
    assert cli_main(["invert", "--problem", str(bad_geom)]) == 3

    degen = tmp_path / "bad3.txt"
    degen.write_text("command = invert\nintervals = (-2,-1) (1,2)\n"
                     "theta = [[0,1],[1,1]]\nrhs = const 1\n")
    assert cli_main(["invert", "--problem", str(degen)]) == 4

    out_of_range = tmp_path / "bad4.txt"
    out_of_range.write_text("command = uniform-invert\nintervals = (-1,1)\n"
                            "theta = uniform\nrhs = const 1\n")
    assert cli_main(["uniform-invert", "--problem", str(out_of_range)]) == 5


UNIFORM1 = """
command = uniform-invert
intervals = (-1,1)
theta = uniform
rhs = forward-of random-sqrt 8
"""

MALFORMED = {
    "lambda-without-imaginary-part": (MINIMAL, ["invert", "--lambda", "1"]),
    "lambda-zero": (MINIMAL, ["invert", "--lambda", "0,0"]),
    "lambda-not-finite": (MINIMAL + "lambda = nan,0\n", ["invert"]),
    "nystrom-zero": (MINIMAL, ["invert", "--nystrom", "0"]),
    "modes-one": (MINIMAL, ["invert", "--modes", "1"]),
    "theta-entry-not-a-number": (
        MINIMAL.replace("(-1,1)", "(-2,-1) (1,2)").replace(
            "identity", '[[1,"a"],[0.5,1]]'), ["invert"]),
    "samples-file-missing": (
        MINIMAL.replace("linear 0 1", "samples /nonexistent/psi.tsv"), ["invert"]),
    "preset-argument-not-an-integer": (
        MINIMAL.replace("linear 0 1", "cheb-sqrt x"), ["invert"]),
    "dt-zero": (UNIFORM1 + "dt = 0\n", ["uniform-invert"]),
    "tmax-negative": (UNIFORM1, ["uniform-invert", "--tmax", "-1"]),
    "tmax-beyond-inverse-map-range": (UNIFORM1, ["uniform-invert", "--tmax", "256"]),
}
MALFORMED_ERROR = {"tmax-beyond-inverse-map-range": "RangeExceededError"}


@pytest.mark.parametrize("case", MALFORMED)
def test_cli_malformed_input_exits_2(case, tmp_path, capsys):
    text, (command, *options) = MALFORMED[case]
    prob = tmp_path / "p.txt"
    prob.write_text(text)
    assert cli_main([command, "--problem", str(prob), *options]) == 2
    assert MALFORMED_ERROR.get(case, "SchemaError") in capsys.readouterr().err


def test_cli_writes_output(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(MINIMAL)
    outdir = tmp_path / "results"
    assert cli_main(["invert", "--problem", str(prob),
                     "--output", str(outdir), "--modes", "48"]) == 0
    assert (outdir / "diagnostics.json").is_file()
    assert (outdir / "phi.tsv").is_file()


def test_cli_command_overrides_file(tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text(MINIMAL)  # file says invert
    assert cli_main(["selftest", "--problem", str(prob)]) == 0
