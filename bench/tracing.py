"""Per-layer tracing from outside the package.

`Tracer.install` wraps the public functions of each layer and rebinds every
module attribute of the `labelsplit` package that refers to one of them, so
the wrapper is seen wherever the function is looked up: in its own module
(`splitting.decide`, called by `optimize`) and under every name another
module imported (`lts.rref`, `regions.cycle_base`, `petri.separating_regions`,
`cli.decide`). `uninstall` puts the originals back, so untraced passes run
the package as shipped.

Spans (name, start, end, parent, instance id) are kept in memory; a layer's
self time is its span time minus the time of its child spans. The token
game (`enabled`, `fire`) is called once per marking and transition, so it
gets counters only, and `set_partitions` is a generator, so it counts the
partitions it yields.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

from labelsplit import cli, linalg, lts, petri, reduction, regions, splitting

SPANNED = [
    linalg.rref,
    linalg.nullspace_basis,
    lts.spanning_tree,
    lts.cycle_base,
    lts.parse_lts,
    lts.format_lts,
    lts.validate,
    regions.is_embeddable,
    regions.effect_space,
    regions.region_from_effect,
    regions.separating_regions,
    petri.reachability_graph,
    petri.synthesize,
    petri.verify_embedding,
    petri.parse_net,
    petri.format_net,
    splitting.decide,
    splitting.optimize,
    splitting.from_partitions,
    splitting.apply_splitting,
    splitting.serialize_splitting,
    reduction.build_lts,
    reduction.subset_sum_brute,
    cli.main,
]
COUNTED = [petri.enabled, petri.fire]
YIELDING = [splitting.set_partitions]


def layer_name(fn) -> str:
    """`labelsplit.linalg.rref` -> `linalg.rref`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, instance]
        self.counts: Counter = Counter()  # (instance, key) -> count
        self.active = False  # true only inside a timed CLI call
        self.instance = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers = {}
        for fn in SPANNED:
            self._wrappers[fn] = self._span(fn)
        for fn in COUNTED:
            self._wrappers[fn] = self._counter(fn)
        for fn in YIELDING:
            self._wrappers[fn] = self._yields(fn)

    def reset(self) -> None:
        self.spans, self.counts, self._stack = [], Counter(), []

    # --- wrappers -----------------------------------------------------

    def _span(self, fn):
        name = layer_name(fn)
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = self._stack
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, fn):
        key = layer_name(fn) + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[self.instance, key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _yields(self, fn):
        key = layer_name(fn) + ".yields"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if self.active:
                    self.counts[self.instance, key] += 1
                yield item

        return wrapper

    def _after_linalg_rref(self, args, result) -> None:
        matrix = args[0]
        self.counts[self.instance, "linalg.rref.cells"] += matrix.rows * matrix.cols

    def _after_petri_reachability_graph(self, args, result) -> None:
        if isinstance(result, lts.Lts):
            self.counts[self.instance, "petri.reachability_graph.edges"] += len(result.edges)

    def _after_splitting_decide(self, args, result) -> None:
        # read off the returned outcome, not recounted
        self.counts[self.instance, "splitting.nodes"] += result.nodes
        self.counts[self.instance, "splitting.found"] += result.found

    # --- patching -----------------------------------------------------

    def install(self) -> None:
        """Rebind every package attribute that refers to a traced function."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "labelsplit"]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- summaries ----------------------------------------------------

    def per_instance(self) -> dict[str, Counter]:
        """Counts, self times and leaves for each instance id."""
        table: dict[str, Counter] = {}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, inst) in enumerate(self.spans):
            row = table.setdefault(inst, Counter())
            row[name + ".calls"] += 1
            row[name + ".self_s"] += end - start - child_time[i]
            if (
                name == "regions.is_embeddable"
                and parent >= 0
                and self.spans[parent][0] == "splitting.decide"
            ):
                row["splitting.leaves"] += 1
        for (inst, key), value in self.counts.items():
            table.setdefault(inst, Counter())[key] += value
        return table

    def totals(self) -> Counter:
        total: Counter = Counter()
        for row in self.per_instance().values():
            total.update(row)
        leaves = total["splitting.leaves"]
        total["splitting.leaf_yield"] = total["splitting.found"] / leaves if leaves else 0.0
        return total
