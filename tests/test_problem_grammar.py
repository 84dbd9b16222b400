"""Property test of the problem-file grammar through the CLI.

For any problem file, in range or not, ``mifht <command>`` either prints a
result bundle and returns 0, or prints a typed error and returns the mapped
exit code (at least 2).  It never ends in a traceback.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mifht.cli import main as cli_main
from mifht.problems import COMMANDS

# (values a command can run with, values it must reject) per field; at most
# one field of a problem draws from its rejected values, so each is reached
# with the rest of the file valid, and examples shrink to a valid file
WIDTHS = ((1.0, 0.3, 2.0), (0.0, -0.5))
GAPS = ((1.0, 0.2, 0.05), (0.0, -0.5))
THETA_ENTRIES = (("0.5", "1", "-0.7", "2", "0"), ("1e999", "-1e999"))
COUNTS = (("4", "16", "1"), ("0", "-3"))
FLOATS = (("0.5", "2", "-1", "0"), ("nan", "inf", "x"))
BUMP_WIDTHS = (("0.5", "2"), ("0", "-1", "inf", "x"))
NYSTROM = ((16, 4, 32), (0, -1))
MODES = ((8, 32, 2), (1, -1))
TMAX = (("8", "32"), ("-1", "256"))
SEEDS = (("0", "7"), ("-1",))
TOLS = (("1e-6", "0.5"), ("nan", "inf", "0", "-1e-6"))
PRESETS = ("random-sqrt", "const", "linear", "cheb-sqrt", "gaussian-bump")
FIELDS = (None, "width", "gap", "theta", "rhs", "nystrom", "modes", "tmax", "seed",
          "tol")


@st.composite
def problem(draw):
    spoil = draw(st.sampled_from(FIELDS))

    def pick(name, choices):
        return draw(st.sampled_from(choices[name == spoil]))

    command = draw(st.sampled_from(COMMANDS))
    n = draw(st.integers(1, 3))
    left, iv = -2.0, []
    for _ in range(n):
        right = left + pick("width", WIDTHS)
        iv.append(f"({left:g},{right:g})")
        left = right + pick("gap", GAPS)

    # uniform-invert runs only with theta = uniform
    kind = "uniform" if command == "uniform-invert" else draw(
        st.sampled_from(("uniform", "identity", "matrix")))
    if spoil == "theta" and kind != "matrix":
        kind = "wrong-shape"
    if kind in ("uniform", "identity"):
        theta = kind
    else:
        size = n if kind == "matrix" else n + 1
        entries = [[pick("theta", THETA_ENTRIES) for _ in range(size)]
                   for _ in range(size)]
        if draw(st.booleans()):  # symmetric, so the SPD path is reached too
            entries = [[entries[min(i, j)][max(i, j)] for j in range(size)]
                       for i in range(size)]
        theta = "[" + ",".join("[" + ",".join(r) + "]" for r in entries) + "]"

    name = draw(st.sampled_from(PRESETS))
    kinds = {"cheb-sqrt": (COUNTS, FLOATS), "random-sqrt": (COUNTS, FLOATS)}.get(
        name, (FLOATS, FLOATS, FLOATS))
    if name == "gaussian-bump":
        kinds = (FLOATS, BUMP_WIDTHS, FLOATS)
    args = [pick("rhs", a) for a in kinds[: draw(st.integers(0, len(kinds)))]]
    rhs = ("forward-of " if draw(st.booleans()) else "") + " ".join([name] + args)

    lines = [f"command = {command}", f"intervals = {' '.join(iv)}",
             f"theta = {theta}", f"rhs = {rhs}",
             f"nystrom = {pick('nystrom', NYSTROM)}",
             f"modes = {pick('modes', MODES)}"]
    for key, values in (("tmax", TMAX), ("seed", SEEDS), ("tol", TOLS)):
        if spoil == key or draw(st.booleans()):
            lines.append(f"{key} = {pick(key, values)}")
    return command, "\n".join(lines) + "\n"


@settings(max_examples=50)
@given(case=problem())
def test_cli_returns_a_bundle_or_a_mapped_code(case, tmp_path_factory):
    command, text = case
    path = tmp_path_factory.getbasetemp() / "grammar_problem.txt"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([command, "--problem", str(path)])
    if code == 0:
        assert json.loads(out.getvalue())["command"] == command
    else:
        assert code >= 2 and err.getvalue().startswith("error ("), (code, text)
