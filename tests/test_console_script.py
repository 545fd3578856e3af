"""The console-script checks of `tests/console_script.sh`, which CI runs
with the installed `labelsplit`, run here with `labelsplit` defined as
`python -m labelsplit` on this interpreter and the package under `src/`."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "console_script.sh"


@pytest.mark.skipif(shutil.which("bash") is None, reason="the checks are a bash script")
def test_console_script_checks_pass(tmp_path):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    wrapper = bin_dir / "labelsplit"
    wrapper.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m labelsplit "$@"\n')
    wrapper.chmod(0o755)
    (bin_dir / "python").symlink_to(sys.executable)
    work = tmp_path / "work"
    work.mkdir()
    src = str(ROOT / "src")
    env = {
        **os.environ,
        "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "GITHUB_WORKSPACE": str(ROOT),
    }
    done = subprocess.run(["bash", "-x", str(SCRIPT)], cwd=work, env=env, capture_output=True, text=True)
    # under -x, the last traced line is the check that stopped the script
    assert done.returncode == 0, done.stderr[-3000:]
