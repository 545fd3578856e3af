"""Shared test utilities: fixture loading, seeded random LTS generation, and
an independent exhaustive splitting oracle."""

from __future__ import annotations

import random
import sys
from pathlib import Path

from labelsplit.lts import Lts, parse_lts
from labelsplit.petri import parse_net, reachability_graph
from labelsplit.regions import is_embeddable
from labelsplit.splitting import apply_splitting, from_partitions

FIXTURES = Path(__file__).parent / "fixtures"

# Python's int() refuses more than 4,300 digits by default; where it does, a
# token this long is one more non-integer in every text format
LONG_TOKEN = "9" * 5000
INT_LIMITED = 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < len(LONG_TOKEN)


# places with braces, which `str.format` reads, and a place `x`: `rg`
# names each state `place:count` per place, joined by commas, ids as written
BRACE_NET = "net\nplace {0} 1\nplace a}b 0\nplace x 0\ntrans t\ntrans u\n"
BRACE_NET += "arc {0} t 1\narc t a}b 1\narc a}b u 1\narc u x 1\n"
BRACE_RG = "lts\ninitial {0}:1,a}b:0,x:0\n"
BRACE_RG += "edge {0}:1,a}b:0,x:0 t {0}:0,a}b:1,x:0\nedge {0}:0,a}b:1,x:0 u {0}:0,a}b:0,x:1\n"
# a net with no places has one marking, which `rg` names "-"
PLACELESS_NET = "net\ntrans t\n"
PLACELESS_RG = "lts\ninitial -\nedge - t -\n"


def load_lts(name: str) -> Lts:
    return parse_lts((FIXTURES / name).read_text())


def load_net(name: str):
    return parse_net((FIXTURES / name).read_text())


def lts_from_names(states, labels, edges, initial: str) -> Lts:
    """An `Lts` from declared names and edges between them, in the declared
    order: raise ValueError on the first name declared twice or not
    declared (initial state, then each edge's source, target and label).
    The package builds from ids, or assigns them as it reads the edges."""
    dangling = "dangling reference: "
    state_ids = {s: i for i, s in enumerate(states)}
    label_ids = {t: i for i, t in enumerate(labels)}
    if len(state_ids) != len(states):
        raise ValueError(f"{dangling}duplicate state declaration")
    if len(label_ids) != len(labels):
        raise ValueError(f"{dangling}duplicate label declaration")
    if initial not in state_ids:
        raise ValueError(f"{dangling}initial state {initial} not declared")
    columns: tuple[list[int], list[int], list[int]] = ([], [], [])
    checks = ((0, "source", state_ids), (2, "target", state_ids), (1, "label", label_ids))
    for i, edge in enumerate(edges):
        for k, what, ids in checks:
            if edge[k] not in ids:
                raise ValueError(f"{dangling}edge {i} {what} {edge[k]} not declared")
            columns[k].append(ids[edge[k]])
    return Lts(tuple(states), tuple(labels), columns, initial)


def ring_net(places: int, tokens: int):
    """A ring of `places` places, the first holding `tokens` tokens; transition
    t_i moves one token from p_i to the next place."""
    lines = ["net"] + [f"place p{i} {tokens if i == 0 else 0}" for i in range(places)]
    lines += [f"trans t{i}" for i in range(places)]
    for i in range(places):
        lines += [f"arc p{i} t{i} 1", f"arc t{i} p{(i + 1) % places} 1"]
    return parse_net("\n".join(lines) + "\n")


def labelled_ring(places: int, tokens: int) -> Lts:
    """The reachability graph of `ring_net`, with the third label's edges
    given the first label: a labelled net's graph, which does not embed."""
    rg = reachability_graph(ring_net(places, tokens))
    first, third = rg.labels[0], rg.labels[2]
    edges = [(e.source, first if e.label == third else e.label, e.target) for e in rg.edges]
    return Lts.from_edges(rg.initial, edges)


def random_lts(
    rng: random.Random,
    max_states: int = 8,
    max_labels: int = 4,
    min_states: int = 1,
    extra_edges: int = 4,
) -> Lts:
    """A random valid LTS: deterministic and reachable by construction.

    Builds a random spanning tree over the states first (guaranteeing
    reachability), then sprinkles extra edges wherever determinism allows.
    """
    n = rng.randint(min_states, max_states)
    k = rng.randint(1, max_labels)
    labels = [chr(ord("a") + i) for i in range(k)]
    states = [f"s{i}" for i in range(n)]
    used: set[tuple[str, str]] = set()
    edges: list[tuple[str, str, str]] = []
    for i in range(1, n):
        candidates = [
            (states[p], t) for p in range(i) for t in labels if (states[p], t) not in used
        ]
        if not candidates:
            break
        source, label = rng.choice(candidates)
        used.add((source, label))
        edges.append((source, label, states[i]))
    reached = {"s0"} | {t for _, _, t in edges}
    pool = sorted(reached)
    for _ in range(rng.randint(0, extra_edges)):
        candidates = [
            (s, t) for s in pool for t in labels if (s, t) not in used
        ]
        if not candidates:
            break
        source, label = rng.choice(candidates)
        used.add((source, label))
        edges.append((source, label, rng.choice(pool)))
    return Lts.from_edges("s0", edges)


def tiny_random_lts(rng: random.Random) -> Lts:
    """Small instances for the search-vs-brute sweep: at least one edge,
    at most 8 edges and 3 labels."""
    while True:
        lts = random_lts(rng, max_states=5, max_labels=3, min_states=2, extra_edges=3)
        if 1 <= len(lts.edges) <= 8:
            return lts


def all_partitions(items: list[int]):
    """Every set partition of `items`, written independently of the package's
    generator (simple recursive insertion)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
        yield [[first]] + sub


def minimal_split_labels(lts: Lts) -> int:
    """Exhaustive oracle: the minimum label count over ALL canonical
    splittings with an embeddable result. No pruning rules, no search order
    tricks; plain product over per-label partitions."""
    per_label: dict[str, list[int]] = {t: [] for t in lts.labels}
    for i, e in enumerate(lts.edges):
        per_label[e.label].append(i)
    label_list = list(lts.labels)
    best = [None]

    def rec(pos: int, chosen: dict[str, list[list[int]]], count: int) -> None:
        if best[0] is not None and count >= best[0]:
            return
        if pos == len(label_list):
            candidate = from_partitions(lts, chosen)
            if is_embeddable(apply_splitting(lts, candidate)).embeddable:
                best[0] = count
            return
        t = label_list[pos]
        if not per_label[t]:
            rec(pos + 1, chosen, count)
            return
        for part in all_partitions(per_label[t]):
            chosen[t] = part
            rec(pos + 1, chosen, count + len(part) - 1)
        del chosen[t]

    rec(0, {}, len(label_list))
    assert best[0] is not None, "fully split LTS is always embeddable"
    return best[0]
