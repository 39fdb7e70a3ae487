"""A fresh interpreter runs the Monte Carlo, ladder, SDO and FO commands on numpy alone.

scipy serves only K1 (symmetric beta_2) and the betainc oracle, and is
imported on first use.  These checks run the CLI in a new process, one at a
time: pytest itself imports scipy for its warning filters, so sys.modules here
says nothing about a cold start.
"""

import json
import os
import subprocess
import sys

import pytest

import smddc
from smddc.cli import main

SRC = os.path.dirname(os.path.dirname(os.path.abspath(smddc.__file__)))
COMMON = ["--gamma", "4", "--omega", "20", "--k", "3"]

# Runs main(argv) with its output swallowed, then prints its exit code and the scipy modules it loaded.
SCIPY_PROBE = (
    "import contextlib, io, json, sys; sys.path.insert(0, sys.argv[1]); import smddc.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
    "    code = smddc.cli.main(sys.argv[2:])\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))"
)
RUN_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import smddc.cli; sys.exit(smddc.cli.main(sys.argv[2:]))"


def _fresh(code, argv):
    return subprocess.run(
        [sys.executable, "-c", code, SRC, *argv], capture_output=True, text=True, timeout=120, check=True
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--policy", "oma"],
        ["simulate", "--policy", "sym", "--depth", "3"],
        ["simulate", "--policy", "sdo"],
        ["simulate", "--policy", "fo"],
        ["ladder", "--depth", "3"],
        ["analytic", "--policy", "oma"],
        ["analytic", "--policy", "oma", "--gamma", "1e-10", "--omega", "1e300"],  # alpha_0 = 0, no root to seek
        ["analytic", "--policy", "sdo"],
        ["analytic", "--policy", "fo"],
        ["analytic", "--policy", "sym", "--depth", "3"],
        ["sweep", "--policy", "sdo,fo", "--axis", "w_s", "--values", "50,55"],
    ],
)
def test_command_imports_no_scipy(argv):
    command, *flags = argv  # the flags come after COMMON, so that they can override it
    code, scipy_modules = json.loads(_fresh(SCIPY_PROBE, [command, *COMMON, *flags, "--trials", "1000"]).stdout)
    assert code == 0 and scipy_modules == []


@pytest.mark.parametrize(
    "policy",
    [["--policy", "sym", "--depth", "2"], ["--policy", "sdo"], ["--policy", "fo"], ["--policy", "oma"]],
)
def test_analytic_first_scipy_call_gives_the_same_bits(capsys, policy):
    # the fresh process reaches x_k1's deferred import of scipy.special for the
    # first time at sym depth 2, and no scipy at all for the others; this one
    # has it loaded
    argv = ["analytic", *COMMON, "--trials", "20000", *policy]
    fresh = _fresh(RUN_CLI, argv).stdout
    assert main(argv) == 0
    assert fresh == capsys.readouterr().out
