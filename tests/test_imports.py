"""The package loads numpy only for the matrix model."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import liefoliate

SRC = Path(liefoliate.__file__).resolve().parent.parent

# Runs the CLI as ``python -m liefoliate.cli`` does, then reports whether
# numpy was loaded.  A fresh interpreter is needed: other tests load numpy
# into this one.
PROBE = """\
import runpy, sys
sys.argv = ["liefoliate", *sys.argv[1:]]
try:
    runpy.run_module("liefoliate.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
print("numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", (
    ("parabolic", "--space", "SL5", "--phi", "1,3"),
    ("foliations", "enumerate", "--space", "so(5,2)"),
    ("rootsys", "show", "--family", "E6", "--rank", "6"),
    ("catalog", "list"),
))
def test_cli_commands_off_the_matrix_model_do_not_load_numpy(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == "False"


def test_every_public_name_resolves():
    for name in liefoliate.__all__:
        assert getattr(liefoliate, name) is not None
    namespace = {}
    exec("from liefoliate import *", namespace)
    assert set(liefoliate.__all__) <= set(namespace)
    with pytest.raises(AttributeError):
        liefoliate.no_such_name
