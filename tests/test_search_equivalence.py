"""The search against `oracles.decide_oracle`, which checks every leaf on the
split LTS itself: same outcomes, node and leaf counts, witnesses and
budget behaviour. And the leaf check against `is_embeddable` on the split
LTS, for arbitrary partitions."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, random_lts
from labelsplit.lts import Lts, parse_lts
from labelsplit.reduction import SubsetSumInstance, build_lts, params
from labelsplit.regions import is_embeddable
from labelsplit.splitting import _Search, apply_splitting, decide, from_partitions
from oracles import decide_oracle

# the subset-sum gadgets of the benchmark: three unsolvable all-even
# instances, one solvable instance and one unsolvable odd target
GADGETS = [
    (1, (2, 4, 6, 8)),
    (1, (2, 4, 6, 8, 10)),
    (1, (2, 4, 6, 8, 10, 12)),
    (3, (1, 2, 4, 5, 6)),
    (9, (2, 4, 6, 8, 10)),
]
NODE_BUDGETS = (None, 1, 5, 50)


def assert_same(lts: Lts, q: int, node_budget: int | None = None) -> bool:
    """Both searches agree on `lts` at budget `q`; returns `found`."""
    got = decide(lts, q, node_budget)
    want = decide_oracle(lts, q, node_budget)
    assert got == want, (lts, q, node_budget)
    return got.found


def sweep(lts: Lts) -> None:
    """Every budget from |labels| up to the optimum, at every node budget."""
    q = max(1, len(lts.labels))
    while True:
        for node_budget in NODE_BUDGETS[1:]:
            assert_same(lts, q, node_budget)
        if assert_same(lts, q):
            return
        q += 1


def test_gadgets_at_tight_budget_and_below():
    for target, values in GADGETS:
        instance = SubsetSumInstance(target, values)
        lts, q = build_lts(instance), params(instance).label_budget
        assert_same(lts, q)
        assert_same(lts, q - 1)


def test_fixtures():
    for path in sorted(FIXTURES.glob("*.lts")):
        sweep(parse_lts(path.read_text()))


def test_random_draws():
    rng = random.Random(53)
    for _ in range(200):
        sweep(random_lts(rng))


def test_leaves_counted_on_unsolvable_gadgets():
    # every leaf of the 2^n tree is checked; nodes are as before
    for values, leaves, nodes in [((2, 4, 6, 8), 16, 242), ((2, 4, 6, 8, 10, 12), 64, 963)]:
        instance = SubsetSumInstance(1, values)
        outcome = decide(build_lts(instance), params(instance).label_budget)
        assert not outcome.found and not outcome.exhausted
        assert (outcome.leaves, outcome.nodes) == (leaves, nodes)


def test_zero_edges():
    for lts in (Lts(("s0",), (), (), "s0"), Lts(("s0",), ("a",), (), "s0")):
        assert assert_same(lts, 1)


def test_self_loops():
    assert assert_same(Lts.from_edges("s0", [("s0", "a", "s0")]), 1)
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s1"), ("s1", "b", "s0")])
    sweep(lts)


def test_long_chain():
    edges = [(f"s{i}", "a", f"s{i + 1}") for i in range(1500)]
    assert assert_same(Lts.from_edges("s0", edges), 1)


def test_long_chain_with_chords_to_the_start():
    # a^499 b, a^999 b and a^1499 b close cycles; b needs three blocks, and
    # the fundamental cycles run the length of the chain
    edges = [(f"s{i}", "a", f"s{i + 1}") for i in range(1499)]
    edges += [(f"s{i}", "b", "s0") for i in (499, 999, 1499)]
    lts = Lts.from_edges("s0", edges)
    assert not assert_same(lts, 2)
    assert_same(lts, 3, node_budget=50)  # a alone has 2^1498 two-block partitions
    assert assert_same(lts, 4)
    assert decide(lts, 4).leaves == 5


@st.composite
def partitioned_lts(draw):
    lts = random_lts(random.Random(draw(st.integers(0, 2**32))))
    per_label: dict[str, list[int]] = {t: [] for t in lts.labels}
    for i, e in enumerate(lts.edges):
        per_label[e.label].append(i)
    chosen = {}
    for t, edges in per_label.items():
        if edges and draw(st.booleans()):
            blocks: list[list[int]] = []
            for i in edges:
                b = draw(st.integers(0, len(blocks)))
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
            chosen[t] = blocks
    return lts, chosen


@settings(derandomize=True, max_examples=300, deadline=None)
@given(partitioned_lts())
def test_leaf_check_matches_is_embeddable(case):
    lts, chosen = case
    split = apply_splitting(lts, from_partitions(lts, chosen))
    assert _Search(lts).embeddable(chosen) == is_embeddable(split).embeddable
