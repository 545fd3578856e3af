"""Record the output digest of every workload for seeds 0..9 in
`digests.json`, after checking every answer of one pass.

    python3 bench/record_digests.py

Run it only when a change to the program or the workloads is meant to
change the CLI output; `run.py` counts a digest that differs from the
recorded one as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run

SEEDS = range(10)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS

    run.OUT.mkdir(exist_ok=True)
    digests: dict[str, dict[str, str]] = {}
    home = os.getcwd()
    for workload in WORKLOADS:
        for seed in SEEDS:
            workdir = Path(tempfile.mkdtemp(prefix="digest-", dir=run.OUT))
            try:
                instances = run.set_up(workload, seed, workdir)
                os.chdir(workdir)
                one = run.Pass(instances)
            finally:
                os.chdir(home)
                shutil.rmtree(workdir)
            problems = [f"{i}: {p}" for i, ps in one.problems.items() for p in ps]
            if problems:
                print(f"{workload} seed {seed}:", *problems, sep="\n  ", file=sys.stderr)
                return 1
            digests.setdefault(workload, {})[str(seed)] = one.digest.hexdigest()
            print(workload, seed, digests[workload][str(seed)])
    with open(run.HERE / "digests.json", "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=2)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
