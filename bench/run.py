"""Benchmark of the labelsplit CLI: four seeded workloads, one per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The program is imported from `src/`; the
benchmark drives its CLI verbs in-process through `labelsplit.cli.main`,
with input and output files in a scratch directory under `.bench_out/`.

One pass runs every instance of the workload once. After a short warm-up,
passes repeat for `--seconds`: a pass starts only if, taking as long as the
one before, it would end in time, and at least one pass runs. Every answer of every pass is
checked (see `workloads.py`) and all CLI output is hashed into one digest
per pass, which must repeat across passes and match `digests.json` where
that file records the seed.

Instance times count only the time inside CLI calls. All reported times
but per-layer self times are scaled to a nominal machine speed (see
REFERENCE_S). With `--trace 0` the last stdout line
reports the end-to-end metrics:
  wall_s           one pass of the instance list: the sum over instances of
                   each instance's median time across passes
  instance_s.p50   median over instances of those per-instance medians
  instance_s.p90   90th percentile of the same, linear interpolation
  setup_s          median of 9 set-ups: start an interpreter that imports
                   the package, generate the inputs, write the input files
  peak_rss_mib     peak resident memory of this process
With `--trace 1`, untraced and traced passes alternate, and the line
reports the per-layer metrics of one traced pass (counts repeat exactly;
self times, unscaled, are medians over traced passes) plus
`trace.overhead_s`, traced minus untraced `wall_s`. All spans of the first traced pass are written to
`.bench_out/trace-<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 9
WARMUP_S = 1.0
# Reported times are scaled to a machine on which `reference()` takes
# REFERENCE_S: each pass times `reference()` between CLI calls, at least
# every CALIBRATE_EVERY_S, and multiplies its times by REFERENCE_S over the
# median of those samples; set-up times are scaled by the median of the
# untraced passes' factors. On a shared 2-vCPU sandbox, repeated runs
# gave unscaled wall_s up to 46% apart, and scaling cut the quartile spread
# over seeds of wall_s, p50 and p90 from 11-24% to 1-6%.
REFERENCE_S = 0.002
CALIBRATE_EVERY_S = 0.1

PER_LAYER = [
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.rref.cells",
    "linalg.nullspace_basis.calls",
    "linalg.nullspace_basis.self_s",
    "lts.spanning_tree.calls",
    "lts.spanning_tree.self_s",
    "lts.cycle_base.calls",
    "lts.cycle_base.self_s",
    "lts.parse_lts.self_s",
    "lts.format_lts.self_s",
    "lts.validate.self_s",
    "regions.is_embeddable.calls",
    "regions.is_embeddable.self_s",
    "regions.effect_space.calls",
    "regions.effect_space.self_s",
    "regions.region_from_effect.calls",
    "regions.region_from_effect.self_s",
    "splitting.decide.calls",
    "splitting.decide.self_s",
    "splitting.nodes",
    "splitting.leaves",
    "splitting.leaf_yield",
    "splitting.set_partitions.yields",
    "splitting.from_partitions.self_s",
    "splitting.apply_splitting.self_s",
    "petri.reachability_graph.self_s",
    "petri.reachability_graph.edges",
    "petri.enabled.calls",
    "petri.fire.calls",
    "petri.synthesize.self_s",
    "petri.verify_embedding.self_s",
    "reduction.build_lts.self_s",
    "reduction.subset_sum_brute.self_s",
    "cli.main.calls",
    "cli.main.self_s",
]
# instance rows printed by a traced run on the small workloads
SHOWN_COUNTS = [
    "cli.main.calls",
    "lts.cycle_base.calls",
    "linalg.rref.calls",
    "splitting.nodes",
    "splitting.leaves",
    "petri.reachability_graph.edges",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("leaf_yield") else "count"


class Pass:
    """Run the instance list once, recording per-instance CLI time,
    problems, one digest of every output, and `scale`, the factor from this
    pass's times to the nominal machine speed."""

    def __init__(self, instances, tracer=None) -> None:
        from labelsplit import cli
        from workloads import CallResult

        self.cli = cli
        self.result_type = CallResult
        self.tracer = tracer
        self.times: dict[str, float] = {}
        self.problems: dict[str, list[str]] = {}
        self.digest = hashlib.sha256()
        self.references: list[float] = []
        self._since = perf_counter()
        for inst in instances:
            self._elapsed = 0.0
            if tracer is not None:
                tracer.instance = inst.id
            try:
                problems = inst.script(inst, self.call)
            except Exception:
                problems = ["benchmark check raised:\n" + traceback.format_exc()]
            self.times[inst.id] = self._elapsed
            self.problems[inst.id] = problems
        self.references.append(reference_time())
        self.scale = REFERENCE_S / statistics.median(self.references)

    def call(self, argv: list[str], outputs: tuple[str, ...] = ()):
        out, err = io.StringIO(), io.StringIO()
        tracer = self.tracer
        start = perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is not None:
                tracer.active = True
            try:
                code = self.cli.main(argv)
            except Exception:
                code = None
                err.write(traceback.format_exc())
            finally:
                if tracer is not None:
                    tracer.active = False
        end = perf_counter()
        self._elapsed += end - start
        if end - self._since >= CALIBRATE_EVERY_S:
            self.references.append(reference_time())
            self._since = perf_counter()
        files = {}
        for path in outputs:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as handle:
                    files[path] = handle.read()
        result = self.result_type(code, out.getvalue(), err.getvalue(), files)
        for part in (" ".join(argv), str(code), result.out, result.err, *files.values()):
            self.digest.update(part.encode() + b"\0")
        if code is None:
            print(f"{argv[0]} raised:\n{result.err}", file=sys.stderr)
        return result


def reference() -> Fraction:
    """Fixed pure-Python work, independent of the package: integer
    arithmetic and exact rationals, as in the workloads."""
    acc = 0
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
    total = Fraction(acc)
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i % 5 + 2)
    return total


def reference_time() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def set_up(workload: str, seed: int, workdir: Path):
    """Everything `setup_s` times: an interpreter importing the package,
    the inputs generated from the seed, and the input files written."""
    from workloads import WORKLOADS

    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, "-c", "import labelsplit.cli"], env=env, cwd=ROOT, check=True
    )
    instances = WORKLOADS[workload](random.Random(seed))
    for inst in instances:
        for name, text in inst.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
    return instances


def instance_stats(passes: list[Pass], scaled: bool = True) -> tuple[float, float, float]:
    """(wall_s, p50, p90) over per-instance medians across `passes`, of the
    times scaled by each pass's `scale` or, with `scaled` false, as measured."""
    medians = [
        statistics.median(p.times[inst] * (p.scale if scaled else 1) for p in passes)
        for inst in passes[0].times
    ]
    p90 = statistics.quantiles(medians, n=10, method="inclusive")[8]
    return sum(medians), statistics.median(medians), p90


def load_digests() -> dict:
    with open(HERE / "digests.json", encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "labelsplit" / "cli.py").is_file():
        print(f"no program to benchmark: {SRC / 'labelsplit'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    expected_digest = load_digests().get(args.workload, {}).get(str(args.seed))

    OUT.mkdir(exist_ok=True)
    setups = []
    for _ in range(SETUP_REPEATS):
        workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        start = perf_counter()
        instances = set_up(args.workload, args.seed, workdir)
        setups.append(perf_counter() - start)
        if len(setups) < SETUP_REPEATS:
            shutil.rmtree(workdir)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    home = os.getcwd()
    os.chdir(workdir)
    try:
        warm_start = perf_counter()
        for inst in instances:
            if perf_counter() - warm_start > WARMUP_S:
                break
            Pass([inst])

        untraced: list[Pass] = []
        traced: list[Pass] = []
        layer_runs: list = []
        first_spans = None
        start = perf_counter()
        while True:
            pass_start = perf_counter()
            if tracer is not None and len(untraced) > len(traced):
                tracer.reset()
                tracer.install()
                try:
                    traced.append(Pass(instances, tracer))
                finally:
                    tracer.uninstall()
                layer_runs.append((tracer.totals(), tracer.per_instance()))
                if first_spans is None:
                    first_spans = tracer.spans
            else:
                untraced.append(Pass(instances))
            now = perf_counter()
            # stop before a pass that would end after --seconds
            if now + (now - pass_start) - start > args.seconds and len(traced) >= (
                tracer is not None
            ):
                break
    finally:
        os.chdir(home)
        shutil.rmtree(workdir)

    failed = 0
    for p in untraced + traced:
        digest = p.digest.hexdigest()
        bad_digest = digest != untraced[0].digest.hexdigest() or (
            expected_digest is not None and digest != expected_digest
        )
        if bad_digest:
            print(f"output digest {digest} differs from the expected one", file=sys.stderr)
        for inst, problems in p.problems.items():
            for problem in problems:
                print(f"{inst}: {problem}", file=sys.stderr)
            failed += bool(problems) or bad_digest
    attempted = sum(len(p.times) for p in untraced + traced)
    wall, p50, p90 = instance_stats(untraced)
    print(
        f"{args.workload} seed {args.seed}: {len(untraced)} untraced and {len(traced)} "
        f"traced passes of {len(instances)} instances; digest {untraced[0].digest.hexdigest()}; "
        f"speed scales {' '.join(f'{p.scale:.3f}' for p in untraced)}; "
        f"unscaled wall_s {instance_stats(untraced, scaled=False)[0]:.4f}; "
        f"unscaled set-ups {' '.join(f'{t:.3f}' for t in setups)}"
    )

    if tracer is None:
        metrics = {
            "wall_s": (wall, "s"),
            "instance_s.p50": (p50, "s"),
            "instance_s.p90": (p90, "s"),
            "setup_s": (
                statistics.median(setups) * statistics.median(p.scale for p in untraced),
                "s",
            ),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        counts_differ = any(
            run[0][k] != layer_runs[0][0][k]
            for run in layer_runs
            for k in PER_LAYER
            if unit_of(k) == "count"
        )
        if counts_differ:
            print("per-layer counts differ between traced passes", file=sys.stderr)
            failed += 1
        metrics = {}
        for key in PER_LAYER:
            values = [run[0][key] for run in layer_runs]
            value = statistics.median(values) if unit_of(key) == "s" else values[0]
            metrics[key] = (value, unit_of(key))
        metrics["trace.overhead_s"] = (instance_stats(traced)[0] - wall, "s")
        rows = layer_runs[0][1]
        if len(rows) <= 10:
            for inst in instances:
                shown = " ".join(f"{k}={rows[inst.id][k]:g}" for k in SHOWN_COUNTS)
                print(f"  {inst.id}: {shown}")
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as handle:
            for name, begin, end, parent, inst in first_spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": begin, "end": end, "parent": parent, "instance": inst}
                    )
                    + "\n"
                )

    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
