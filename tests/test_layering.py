"""Each module of the package loads only the modules below it: the package
file imports nothing, so `import labelsplit.lts` does not pull in the search
or the command line."""

import subprocess
import sys

import pytest

BELOW = {
    "linalg": set(),
    "lts": {"linalg"},
    "regions": {"linalg", "lts"},
    "petri": {"linalg", "lts", "regions"},
    "splitting": {"linalg", "lts", "regions"},
    "reduction": {"linalg", "lts", "regions", "splitting"},
    "cli": {"linalg", "lts", "regions", "petri", "splitting", "reduction"},
}


@pytest.mark.parametrize("module", BELOW)
def test_import_loads_only_the_modules_below(module):
    code = (
        f"import sys, labelsplit.{module}\n"
        "print(' '.join(sorted(n for n in sys.modules if n.startswith('labelsplit.'))))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = {name.removeprefix("labelsplit.") for name in result.stdout.split()}
    assert loaded == BELOW[module] | {module}
