"""Seeded inputs and per-instance CLI scripts for the four workloads.

Every instance is a short script of `labelsplit` CLI calls plus the checks
on their answers. A script receives `call(argv, outputs)`, which runs one
CLI verb in-process and returns its exit code, stdout, stderr and the text
of the listed output files; only the time inside `call` is measured, so
the checks here cost nothing in the reported timings.

How the seed enters. The benchmark compares runs made with different
seeds, so a seed must change the inputs without changing how much work
they take:

* gadgets: the seed shuffles the instance order and the order of the
  values of each unsolvable instance, which changes the gadget's edges but
  not the size of its search tree, since every leaf is visited. The
  solvable instance keeps its order: its search stops at the first
  witness, and shuffled orders visited 128 to 443 nodes;
* ring nets: the seed names the places and transitions and picks the
  place that holds the tokens; the reachable markings are the same set;
* random LTSs: the shapes come from one fixed pool seed, and the seed
  renames states and labels and shuffles the instance order. Drawing the
  shapes from the seed instead made one pass swing between 1.0 s and
  3.0 s across seeds (a handful of heavy searches dominate the total),
  far wider than any useful regression bound.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field
from math import comb
from typing import Callable, NamedTuple

from labelsplit.lts import parse_lts
from labelsplit.reduction import SubsetSumInstance, extract_solution
from labelsplit.regions import is_embeddable
from labelsplit.splitting import apply_splitting, parse_splitting


class CallResult(NamedTuple):
    code: int | None  # None when the CLI raised
    out: str
    err: str
    files: dict[str, str]


Call = Callable[..., CallResult]


@dataclass
class Instance:
    """One unit of timed work: `files` are written during set-up, `script`
    runs the CLI calls and returns the problems it found (empty = pass)."""

    id: str
    script: Callable[["Instance", Call], list[str]]
    files: dict[str, str] = field(default_factory=dict)
    data: dict = field(default_factory=dict)


# --- gadget-decide ----------------------------------------------------------

# (target, values): three unsolvable all-even instances whose search tree
# doubles with n, one solvable instance and one unsolvable odd target.
GADGETS = [
    (1, (2, 4, 6, 8)),
    (1, (2, 4, 6, 8, 10)),
    (1, (2, 4, 6, 8, 10, 12)),
    (3, (1, 2, 4, 5, 6)),
    (9, (2, 4, 6, 8, 10)),
]


def subset_sum(target: int, values: tuple[int, ...]) -> bool:
    """Independent exhaustive answer, used to check `oracle` and `split`."""
    return any(
        sum(pick) == target
        for r in range(1, len(values) + 1)
        for pick in itertools.combinations(values, r)
    )


def gadget_instances(rng: random.Random) -> list[Instance]:
    result = []
    for target, values in GADGETS:
        shuffled = list(values)
        if not subset_sum(target, values):
            rng.shuffle(shuffled)
        result.append(
            Instance(
                f"gadget-b{target}-n{len(values)}",
                _gadget_script,
                data={"target": target, "values": tuple(shuffled)},
            )
        )
    rng.shuffle(result)
    return result


def _gadget_script(inst: Instance, call: Call) -> list[str]:
    target, values = inst.data["target"], inst.data["values"]
    args = ["--b", str(target), "--c", ",".join(str(v) for v in values)]
    path = f"{inst.id}.lts"
    red = call(["reduce", *args, "-o", path], outputs=(path,))
    match = re.fullmatch(r"k=(\d+) q=(\d+)\n", red.out)
    if red.code != 0 or match is None or path not in red.files:
        return [f"reduce: exit {red.code}, stdout {red.out!r}"]
    q = int(match.group(2))
    tight = call(["split", path, "--max-labels", str(q)])
    loose = call(["split", path, "--max-labels", str(q - 1)])
    orc = call(["oracle", *args])

    problems = []
    solvable = subset_sum(target, values)
    if orc.code != (0 if solvable else 1):
        problems.append(f"oracle: exit {orc.code}, expected solvable={solvable}")
    elif solvable and sum(values[int(i) - 1] for i in orc.out.split()) != target:
        problems.append(f"oracle: indices {orc.out.strip()} do not sum to {target}")
    if tight.code != orc.code:
        problems.append(f"split at q={q}: exit {tight.code}, oracle exit {orc.code}")
    if loose.code != 1 or loose.out != "not-found\n":
        problems.append(f"split at q-1={q - 1}: exit {loose.code}, stdout {loose.out!r}")
    if tight.code == 0:
        try:
            splitting = parse_splitting(parse_lts(red.files[path]), tight.out)
            extract_solution(SubsetSumInstance(target, values), splitting)
        except ValueError as exc:
            problems.append(f"split at q={q}: witness does not check: {exc}")
    return problems


# --- ring nets: ring-synth and net-explore -------------------------------

RING_SYNTH = [(4, 20), (6, 7)]
RING_EXPLORE = [(4, 40), (5, 18)]
RG_BOUND = 20000
UNBOUNDED_BOUND = 2000


def _names(rng: random.Random, count: int, prefix: str) -> list[str]:
    """`count` distinct names of one fixed length, so that text sizes do not
    depend on the seed."""
    pool = rng.sample(range(26**3), count)
    letters = "abcdefghijklmnopqrstuvwxyz"
    return [prefix + "".join(letters[v // 26**k % 26] for k in (2, 1, 0)) for v in pool]


def ring_net(rng: random.Random, places: int, tokens: int, feeder: bool = False) -> str:
    """A ring of `places` places where transition i moves one token from
    place i to place i+1. All tokens start in one seed-chosen place, so the
    reachable markings are every spread of `tokens` over the places:
    C(tokens + places - 1, places - 1) of them. With `feeder`, one more
    transition with no input adds tokens, and the net is unbounded."""
    p = _names(rng, places, "p")
    t = _names(rng, places + feeder, "t")
    start = rng.randrange(places)
    lines = ["net"]
    lines += [f"place {p[i]} {tokens if i == start else 0}" for i in range(places)]
    lines += [f"trans {name}" for name in t]
    for i in range(places):
        lines.append(f"arc {p[i]} {t[i]} 1")
        lines.append(f"arc {t[i]} {p[(i + 1) % places]} 1")
    if feeder:
        lines.append(f"arc {t[places]} {p[0]} 1")
    return "\n".join(lines) + "\n"


def count_states(lts_text: str) -> int:
    """States of an LTS text, counted without the package's parser."""
    states = set()
    for line in lts_text.splitlines():
        parts = line.split()
        if parts[:1] == ["initial"]:
            states.add(parts[1])
        elif parts[:1] == ["edge"]:
            states.update((parts[1], parts[3]))
    return len(states)


def ring_synth_instances(rng: random.Random) -> list[Instance]:
    return [
        Instance(
            f"ring-p{places}-t{tokens}",
            _ring_synth_script,
            files={f"ring-p{places}-t{tokens}.net": ring_net(rng, places, tokens)},
            data={"states": comb(tokens + places - 1, places - 1)},
        )
        for places, tokens in RING_SYNTH
    ]


def net_explore_instances(rng: random.Random) -> list[Instance]:
    result = [
        Instance(
            f"ring-p{places}-t{tokens}",
            _net_explore_script,
            files={f"ring-p{places}-t{tokens}.net": ring_net(rng, places, tokens)},
            data={"states": comb(tokens + places - 1, places - 1)},
        )
        for places, tokens in RING_EXPLORE
    ]
    result.append(
        Instance(
            "unbounded-p3",
            _unbounded_script,
            files={"unbounded-p3.net": ring_net(rng, 3, 1, feeder=True)},
        )
    )
    return result


def _reachability(inst: Instance, call: Call) -> tuple[str, str, list[str]]:
    net, lts = f"{inst.id}.net", f"{inst.id}.lts"
    rg = call(["rg", net, "--bound", str(RG_BOUND), "-o", lts], outputs=(lts,))
    if rg.code != 0 or lts not in rg.files:
        return net, lts, [f"rg: exit {rg.code}, stderr {rg.err!r}"]
    found = count_states(rg.files[lts])
    if found != inst.data["states"]:
        return net, lts, [f"rg: {found} states, expected {inst.data['states']}"]
    return net, lts, []


def _expect_embeds(result: CallResult, what: str) -> list[str]:
    if result.code != 0 or result.out != "embeds\n":
        return [f"{what}: exit {result.code}, stdout {result.out!r}"]
    return []


def _ring_synth_script(inst: Instance, call: Call) -> list[str]:
    _, lts, problems = _reachability(inst, call)
    if problems:
        return problems
    out = f"{inst.id}.synth.net"
    syn = call(["synth", lts, "-o", out], outputs=(out,))
    if syn.code != 0 or out not in syn.files:
        return [f"synth: exit {syn.code}, stdout {syn.out!r}"]
    return _expect_embeds(call(["verify", lts, out]), "verify against the synthesized net")


def _net_explore_script(inst: Instance, call: Call) -> list[str]:
    net, lts, problems = _reachability(inst, call)
    if problems:
        return problems
    return _expect_embeds(call(["verify", lts, net]), "verify against the source net")


def _unbounded_script(inst: Instance, call: Call) -> list[str]:
    rg = call(["rg", f"{inst.id}.net", "--bound", str(UNBOUNDED_BOUND)])
    if rg.code != 1 or rg.out != "bound-exceeded\n":
        return [f"rg on an unbounded net: exit {rg.code}, stdout {rg.out[:40]!r}"]
    return []


# --- random-optimize ------------------------------------------------------

RANDOM_COUNT = 400
RANDOM_POOL_SEED = 0


def random_shape(
    rng: random.Random, max_states: int = 8, max_labels: int = 4, extra_edges: int = 4
) -> list[tuple[int, int, int]]:
    """A random deterministic LTS in the acceptance suite's shape, as
    (source, label, target) index triples with state 0 initial.

    A random tree over the states makes every state reachable; up to
    `extra_edges` more edges then go wherever determinism allows. Keep the
    shape small: the search tail grows fast with it (at 10 states and 6
    extra edges, one instance in 200 has been seen to take 41 s).
    """
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_labels)
    used: set[tuple[int, int]] = set()
    edges: list[tuple[int, int, int]] = []
    for target in range(1, n):
        free = [(s, t) for s in range(target) for t in range(k) if (s, t) not in used]
        if not free:
            break
        source, label = rng.choice(free)
        used.add((source, label))
        edges.append((source, label, target))
    reached = sorted({0} | {e[2] for e in edges})
    for _ in range(rng.randint(0, extra_edges)):
        free = [(s, t) for s in reached for t in range(k) if (s, t) not in used]
        if not free:
            break
        source, label = rng.choice(free)
        used.add((source, label))
        edges.append((source, label, rng.choice(reached)))
    return edges


def random_instances(rng: random.Random) -> list[Instance]:
    pool = random.Random(RANDOM_POOL_SEED)
    result = []
    for i in range(RANDOM_COUNT):
        edges = random_shape(pool)
        states = _names(rng, 1 + max((max(e[0], e[2]) for e in edges), default=0), "s")
        labels = _names(rng, 1 + max((e[1] for e in edges), default=0), "l")
        lines = ["lts", f"initial {states[0]}"]
        lines += [f"edge {states[s]} {labels[t]} {states[d]}" for s, t, d in edges]
        name = f"random-{i:03d}"
        result.append(
            Instance(name, _random_script, files={f"{name}.lts": "\n".join(lines) + "\n"})
        )
    rng.shuffle(result)
    return result


def _random_script(inst: Instance, call: Call) -> list[str]:
    path = f"{inst.id}.lts"
    chk = call(["check", path])
    if chk.code == 0 and chk.out == "embeddable\n":
        net = f"{inst.id}.net"
        syn = call(["synth", path, "-o", net], outputs=(net,))
        if syn.code != 0 or net not in syn.files:
            return [f"synth of an embeddable LTS: exit {syn.code}, stdout {syn.out!r}"]
        return _expect_embeds(call(["verify", path, net]), "verify against the synthesized net")

    lts = parse_lts(inst.files[path])
    parts = chk.out.split()
    if chk.code != 1 or len(parts) != 3 or parts[0] != "not-embeddable":
        return [f"check: exit {chk.code}, stdout {chk.out!r}"]
    if parts[1] == parts[2] or not {parts[1], parts[2]} <= set(lts.states):
        return [f"check: witness pair {parts[1]} {parts[2]} is not two states of the LTS"]
    opt = call(["split", path, "--optimize"])
    if opt.code != 0:
        return [f"split --optimize: exit {opt.code}, stdout {opt.out!r}"]
    try:
        splitting = parse_splitting(lts, opt.out)
    except ValueError as exc:
        return [f"split --optimize: witness does not parse: {exc}"]
    if splitting.labels_used() <= len(lts.labels):
        return ["split --optimize: witness adds no label to a non-embeddable LTS"]
    if not is_embeddable(apply_splitting(lts, splitting)).embeddable:
        return ["split --optimize: the split LTS is not embeddable"]
    return []


WORKLOADS: dict[str, Callable[[random.Random], list[Instance]]] = {
    "gadget-decide": gadget_instances,
    "ring-synth": ring_synth_instances,
    "random-optimize": random_instances,
    "net-explore": net_explore_instances,
}
