"""The search against `oracles.decide_oracle`, which checks every leaf on the
split LTS itself: same outcomes, node and leaf counts, witnesses and
budget behaviour, for `decide` at one budget and for `optimize` against
the oracle run round by round. And the leaf check against `is_embeddable`
on the split LTS, for arbitrary partitions."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, random_lts
from labelsplit.lts import Lts, parse_lts
from labelsplit.reduction import SubsetSumInstance, build_lts, params
from labelsplit.regions import is_embeddable
from labelsplit.splitting import (
    SplitOutcome,
    _Search,
    apply_splitting,
    decide,
    from_partitions,
    optimize,
)
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


def optimize_oracle(lts: Lts, node_budget: int | None) -> tuple[SplitOutcome, int]:
    """`optimize` by hand: `decide_oracle` at q = |labels|, |labels|+1, ...
    until a round finds a witness or runs out of nodes. Returns that round's
    outcome with nodes and leaves summed over every round, and the number of
    rounds run."""
    nodes = leaves = rounds = 0
    while True:
        last = decide_oracle(lts, len(lts.labels) + rounds, node_budget)
        rounds += 1
        nodes += last.nodes
        leaves += last.leaves
        if last.found or last.exhausted:
            return SplitOutcome(last.splitting, last.exhausted, nodes, leaves), rounds


def assert_optimize_same(lts: Lts) -> set[tuple[bool, bool]]:
    """`optimize` equals the oracle's rounds at every node budget; returns
    the (exhausted, more than one round) kinds seen."""
    kinds = set()
    for node_budget in NODE_BUDGETS:
        want, rounds = optimize_oracle(lts, node_budget)
        assert optimize(lts, node_budget) == want, (lts, node_budget)
        kinds.add((want.exhausted, rounds > 1))
    return kinds


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


def test_optimize_fixtures():
    for path in sorted(FIXTURES.glob("*.lts")):
        assert_optimize_same(parse_lts(path.read_text()))


def test_optimize_random_draws():
    rng = random.Random(53)
    kinds = set()
    for _ in range(200):
        kinds |= assert_optimize_same(random_lts(rng))
    # found and exhausted outcomes, each after one round and after several
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


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
        # the first round's only leaf is the unsplit LTS, even with no labels
        assert optimize(lts) == SplitOutcome(from_partitions(lts, {}), False, 1, 1)
        assert optimize(lts, node_budget=0) == SplitOutcome(None, True, 1, 0)


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
