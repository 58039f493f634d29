import subprocess
import sys

import ropsim

from helpers import package_env


def test_every_export_resolves_once():
    missing = [name for name in ropsim.__all__ if not hasattr(ropsim, name)]
    assert missing == []
    assert len(set(ropsim.__all__)) == len(ropsim.__all__)


def test_commands_that_scan_no_trace_do_not_import_numpy():
    # Only the trace scanner needs numpy; `sweep`, `gen-*` and `interleave`
    # should not pay for importing it.
    code = "import sys, ropsim.cli, ropsim.harness; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=package_env(), check=True).stdout
    assert out.strip() == "False"
