"""Smoke test of the benchmark itself: every workload once, untraced and
traced, with the shortest run. Checks that every metric named in
BENCHMARK.json is reported with its unit and that no instance failed.

    python3 bench/smoke.py [SEED]

Exits 0 when all checks hold; takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    seed = sys.argv[1] if len(sys.argv) > 1 else "0"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in wanted.items():
            argv = [*spec["command"], "--workload", workload, "--seed", seed]
            argv += ["--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                errors.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                errors.append(f"{label}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
            for metric in metrics:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    errors.append(f"{label}: metric {metric['name']} missing or in the wrong unit")
            extra = set(result["metrics"]) - {m["name"] for m in metrics}
            if extra:
                errors.append(f"{label}: unlisted metrics {sorted(extra)}")
            print(f"{label}: ok, {result['attempted']} instances")
    for error in errors:
        print(error, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
