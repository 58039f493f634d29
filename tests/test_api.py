import os
import subprocess
import sys
from pathlib import Path

import ropsim


def test_every_export_resolves_once():
    missing = [name for name in ropsim.__all__ if not hasattr(ropsim, name)]
    assert missing == []
    assert len(set(ropsim.__all__)) == len(ropsim.__all__)


def test_commands_that_scan_no_trace_do_not_import_numpy():
    # Only the trace scanner needs numpy; `sweep`, `gen-*` and `interleave`
    # should not pay for importing it.
    code = "import sys, ropsim.cli, ropsim.harness; print('numpy' in sys.modules)"
    src = str(Path(ropsim.__file__).resolve().parent.parent)
    path = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"
