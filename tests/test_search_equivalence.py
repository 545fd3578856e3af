"""The search against `oracles.decide_oracle`, which checks every leaf on the
split LTS itself: same outcomes, node and leaf counts, witnesses and
budget behaviour for `decide` at one budget; for `optimize` against the
oracle run round by round, the same witnesses with no more nodes, and
`exhausted` only where the oracle is. The separation prune against
`oracles.separation_cut_oracle` and brute force. And the leaf check
against `is_embeddable` on the split LTS and against the old block-column
leaf, for arbitrary partitions, with the invariants of the factored cycle
base it shares."""

import itertools
import math
import random
import tracemalloc
from typing import Iterator

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import labelled_ring, load_lts, lts_from_names, random_lts, tiny_random_lts
from labelsplit import splitting
from labelsplit.linalg import integer_echelon, rref
from labelsplit.lts import Lts, cycle_base, parse_lts, spanning_tree
from labelsplit.reduction import SubsetSumInstance, _gamma_edges, build_lts, params
from labelsplit.regions import is_embeddable
from labelsplit.splitting import (
    _TRACKED,
    SplitOutcome,
    _Search,
    _Separation,
    apply_splitting,
    decide,
    from_partitions,
    optimize,
    set_partitions,
)
from oracles import (
    block_leaf_oracle,
    conflict_pairs,
    decide_oracle,
    oracle_signatures,
    separation_cut_oracle,
    ssp_solvable,
)

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
# named, not globbed: an LTS fixture added for another test would join every
# exhaustive sweep below
SEARCH_FIXTURES = ("fig1-left.lts", "fig1-right.lts", "fig2-left.lts", "fig2-middle.lts")


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


def assert_optimize_contract(lts: Lts) -> set[tuple[bool, bool]]:
    """`optimize` against the oracle's rounds at every node budget: the same
    witness or not-found, no more nodes, and `exhausted` only where the
    oracle is exhausted too. Its rounds visit only exact label counts and
    prune, so where the oracle runs out it may answer, as the unbounded
    oracle does. Returns the oracle's (exhausted, more than one round) kinds
    seen."""
    kinds = set()
    unbounded, _ = optimize_oracle(lts, None)
    for node_budget in NODE_BUDGETS:
        want, rounds = optimize_oracle(lts, node_budget)
        got = optimize(lts, node_budget)
        assert got.nodes <= want.nodes, (lts, node_budget)
        assert want.exhausted or not got.exhausted, (lts, node_budget)
        if not got.exhausted:
            assert (got.found, got.splitting) == (unbounded.found, unbounded.splitting), (lts, node_budget)
        kinds.add((want.exhausted, rounds > 1))
    return kinds


def test_gadgets_at_tight_budget_and_below():
    for target, values in GADGETS:
        instance = SubsetSumInstance(target, values)
        lts, q = build_lts(instance), params(instance).label_budget
        assert_same(lts, q)
        assert_same(lts, q - 1)


def test_fixtures():
    for name in SEARCH_FIXTURES:
        sweep(load_lts(name))


def test_every_node_budget_below_the_count():
    # the budget runs out at each node in turn, leaves and partition
    # candidates alike: fig1-right at q = 3, the n = 4 gadget at q
    instance = SubsetSumInstance(*GADGETS[0])
    for lts, q, count in [
        (load_lts("fig1-right.lts"), 3, 7),
        (build_lts(instance), params(instance).label_budget, 242),
    ]:
        assert decide(lts, q).nodes == count
        for node_budget in range(count):
            assert_same(lts, q, node_budget)


def test_random_draws():
    rng = random.Random(53)
    for _ in range(200):
        sweep(random_lts(rng))


def test_optimize_fixtures():
    for name in SEARCH_FIXTURES:
        assert_optimize_contract(load_lts(name))


def test_optimize_random_draws():
    rng = random.Random(53)
    kinds = set()
    for _ in range(200):
        kinds |= assert_optimize_contract(random_lts(rng))
    # found and exhausted outcomes, each after one round and after several
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_optimize_counts_on_dense_draws():
    # the first 20 non-embeddable dense-shape draws with at most 12 edges:
    # among the first 20 without that limit, four searches take seconds each
    # and their oracle far longer. Counts do not depend on the machine.
    # Rounds over at most q labels without the separation prune took 1,555
    # nodes and 587 leaves.
    rng, sample = random.Random(7), []
    while len(sample) < 20:
        lts = random_lts(rng, max_states=10, max_labels=3, extra_edges=8)
        if len(lts.edges) <= 12 and not is_embeddable(lts).embeddable:
            sample.append(lts)
    outcomes = [optimize(lts) for lts in sample]
    assert [o.splitting for o in outcomes] == [optimize_oracle(lts, None)[0].splitting for lts in sample]
    assert (sum(o.nodes for o in outcomes), sum(o.leaves for o in outcomes)) == (739, 221)


def test_leaves_counted_on_unsolvable_gadgets():
    # every leaf of the 2^n tree is checked; nodes are as before
    for values, leaves, nodes in [((2, 4, 6, 8), 16, 242), ((2, 4, 6, 8, 10, 12), 64, 963)]:
        instance = SubsetSumInstance(1, values)
        outcome = decide(build_lts(instance), params(instance).label_budget)
        assert not outcome.found and not outcome.exhausted
        assert (outcome.leaves, outcome.nodes) == (leaves, nodes)


def test_full_rank_leaves_need_no_echelon(monkeypatch):
    # every leaf of the n=6 gadget at its tight budget has its fresh-block
    # sums at full rank, which the fraction-free test certifies alone
    calls = []

    def counted(*args):
        calls.append(args)
        return integer_echelon(*args)

    monkeypatch.setattr(splitting, "integer_echelon", counted)
    instance = SubsetSumInstance(1, (2, 4, 6, 8, 10, 12))
    assert params(instance).label_budget == 29
    outcome = decide(build_lts(instance), 29)
    assert (outcome.found, outcome.exhausted, outcome.nodes, outcome.leaves) == (False, False, 963, 64)
    assert calls == []


def test_zero_edges():
    for lts in (lts_from_names(("s0",), (), (), "s0"), lts_from_names(("s0",), ("a",), (), "s0")):
        assert assert_same(lts, 1)
        # the first round's only leaf is the unsplit LTS, even with no labels
        assert optimize(lts) == SplitOutcome(from_partitions(lts, {}), False, 1, 1)
        assert optimize(lts, node_budget=0) == SplitOutcome(None, True, 1, 0)


def test_self_loops():
    assert assert_same(Lts.from_edges("s0", [("s0", "a", "s0")]), 1)
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s1"), ("s1", "b", "s0")])
    sweep(lts)


def test_conflicts_equal_the_oracle():
    # the search finds two-cycle conflicts from id triples, as positions in
    # each label's edge list; the oracle compares every pair of edges by name
    rng = random.Random(41)
    cases = [load_lts(name) for name in SEARCH_FIXTURES]
    cases += [build_lts(SubsetSumInstance(b, c)) for b, c in GADGETS[:2]]
    cases += [random_lts(rng, max_states=4, max_labels=2, extra_edges=8) for _ in range(300)]
    with_conflicts = 0
    for lts in cases:
        search = _Search(lts)
        position = {i: k for edges in search.per_label.values() for k, i in enumerate(edges)}
        want = {t: [(position[i], position[j]) for i, j in pairs] for t, pairs in conflict_pairs(lts).items()}
        assert search.conflicts == want, lts
        with_conflicts += any(want.values())
    assert with_conflicts > 50


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


# the benchmark gadgets, built once for the partition draws below
GADGET_LTS = [build_lts(SubsetSumInstance(target, values)) for target, values in GADGETS]


def draw_partitions(draw, lts: Lts) -> dict[str, list[list[int]]]:
    """Random partitions of the edges of some labels; the rest stay whole."""
    chosen = {}
    for t, edges in _Search(lts).per_label.items():
        if edges and draw(st.booleans()):
            blocks: list[list[int]] = []
            for i in edges:
                b = draw(st.integers(0, len(blocks)))
                if b == len(blocks):
                    blocks.append([])
                blocks[b].append(i)
            chosen[t] = blocks
    return chosen


@st.composite
def partitioned_lts(draw):
    shape = draw(st.sampled_from(["small", "dense", "gadget"]))
    if shape != "gadget":
        rng = random.Random(draw(st.integers(0, 2**32)))
        dense = {"max_states": 10, "max_labels": 3, "extra_edges": 8} if shape == "dense" else {}
        lts = random_lts(rng, **dense)
        return lts, draw_partitions(draw, lts)
    k = draw(st.integers(0, len(GADGETS) - 1))
    lts = GADGET_LTS[k]
    chosen = draw_partitions(draw, lts)
    if draw(st.booleans()):
        # each g_i split as a tight-budget witness splits it, so that some
        # leaves embed
        triples = _gamma_edges(lts, len(GADGETS[k][1]))
        for i, (forward, reverse, slot) in enumerate(triples, start=1):
            joins_forward = draw(st.booleans())
            chosen[f"g{i}"] = [[forward, slot], [reverse]] if joins_forward else [[forward], [reverse, slot]]
    return lts, chosen


@settings(derandomize=True, max_examples=600, deadline=None)
@given(partitioned_lts())
def test_leaf_check_matches_is_embeddable(case):
    lts, chosen = case
    split = apply_splitting(lts, from_partitions(lts, chosen))
    got = _Search(lts).embeddable(chosen)
    assert got == is_embeddable(split).embeddable == block_leaf_oracle(lts, chosen)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(partitioned_lts())
def test_separation_prune_matches_its_oracle(case):
    # the drawn partitions taken label by label in search order: the prune
    # cuts where the oracle does (where it follows whole classes), and on
    # small systems no leaf below a cut embeds
    lts, drawn = case
    search = _Search(lts)
    separation = _Separation(search)
    whole = all(len(group) <= _TRACKED for group in search.factored[4])
    order, per_label = search.order, search.per_label
    partitions = {x: drawn.get(x, [per_label[x]]) for x in order}
    ids: list[int] | None = separation.start
    for depth, cut in enumerate(separation_cut_oracle(lts, order, partitions)):
        ids = separation.refine(ids, depth, partitions[order[depth]])
        assert (ids is None) == cut if whole else ids is not None or cut
        if ids is None:
            break
    if ids is None:
        assigned = {x: partitions[x] for x in order[: depth + 1]}
        rest = [
            [(x, partition) for _, partition in set_partitions(per_label[x])]
            for x in order[depth + 1 :]
        ]
        if math.prod(map(len, rest)) <= 200:
            for completion in itertools.product(*rest):
                split = apply_splitting(lts, from_partitions(lts, {**assigned, **dict(completion)}))
                assert not is_embeddable(split).embeddable


# --- the factorisation every leaf shares ---------------------------------


def every_leaf(lts: Lts) -> Iterator[dict[str, list[list[int]]]]:
    """Every combination of per-label partitions, for small systems."""
    per_label = _Search(lts).per_label
    options = [
        [(t, blocks) for _, blocks in set_partitions(edges)]
        for t, edges in per_label.items()
        if edges
    ]
    for combination in itertools.product(*options):
        yield dict(combination)


def chord_rows(lts: Lts) -> list[list[int]]:
    """Each chord's fundamental cycle over the labels, then every edge of a
    label with two or more edges (zero at the others), found by climbing
    the tree from both ends of the chord."""
    parent = {lts.states[d]: i for d, i in spanning_tree(lts).items()}
    idx, per_label = {t: k for k, t in enumerate(lts.labels)}, _Search(lts).per_label
    n = len(lts.labels)

    def row(*ends: tuple[str, int]) -> list[int]:
        v = [0] * (n + len(lts.edges))
        for state, sign in ends:
            while state != lts.initial:
                i = parent[state]
                v[idx[lts.edges[i].label]] += sign
                v[n + i] += sign
                state = lts.edges[i].source
        return v

    rows = []
    for i in sorted(set(range(len(lts.edges))) - set(parent.values())):
        e = lts.edges[i]
        v = row((e.source, 1), (e.target, -1))
        v[idx[e.label]] += 1
        v[n + i] += 1
        rows.append([x if k < n or len(per_label[lts.edges[k - n].label]) > 1 else 0 for k, x in enumerate(v)])
    return rows


def remainder_rows(search: _Search) -> list[dict[int, int]]:
    """The remainder rows of `_Search.factored`, rebuilt from the per-edge
    columns it holds them in; each (row, edge) entry must come once."""
    remainder, count = search.factored[:2]
    rows: list[dict[int, int]] = [{} for _ in range(count)]
    for i, column in enumerate(remainder):
        for r, x in column:
            assert i not in rows[r]
            rows[r][i] = x
    return rows


def assert_factorisation(lts: Lts) -> _Search:
    """The invariants of `_Search.factored`, and the
    leaf check at every leaf against `is_embeddable` and the old leaf."""
    search = _Search(lts)
    # the classes: the groups of equal unsplit signatures, and exactly the
    # pairs that no feasible effect separates
    groups: dict[tuple[int, ...], list[str]] = {}
    for s, sig in oracle_signatures(lts).items():
        groups.setdefault(sig, []).append(s)
    _, _, label_rows, scale, classes = search.factored
    remainder = remainder_rows(search)
    classes = [[lts.states[s] for s in group] for group in classes]  # ids to names
    assert classes == [g for g in groups.values() if len(g) > 1]
    inseparable = {
        frozenset(pair)
        for pair in itertools.combinations(lts.states, 2)
        if ssp_solvable(lts, *pair) is None
    }
    assert inseparable == {
        frozenset(pair) for group in classes for pair in itertools.combinations(group, 2)
    }
    # one label row per pivot of the cycle base, each zero at the other
    # pivots; remainder rows zero at every label; together they span the
    # chord rows and no more
    assert len(label_rows) == len(cycle_base(lts)[1])
    for k, row in label_rows.items():
        assert scale % row[~k] == 0
        assert not any(~other in row for other in label_rows if other != k)
    assert all(key >= 0 and x for row in remainder for key, x in row.items())
    n = len(lts.labels)
    factored = [
        [row.get(k - n if k >= n else ~k, 0) for k in range(n + len(lts.edges))]
        for row in [*label_rows.values(), *remainder]
    ]
    chords = chord_rows(lts)
    assert len(rref(factored + chords)[1]) == len(rref(chords)[1]) == len(factored)
    for chosen in every_leaf(lts):
        split = apply_splitting(lts, from_partitions(lts, chosen))
        got = search.embeddable(chosen)
        assert got == is_embeddable(split).embeddable == block_leaf_oracle(lts, chosen), chosen
    return search


def test_factorisation_without_cycles():
    # a tree: no chord rows, scale 1; s3 and s4 share a Parikh vector, and
    # splitting either label separates them
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "b", "s3"), ("s0", "b", "s2"), ("s2", "a", "s4")])
    search = assert_factorisation(lts)
    assert search.factored == ([[]] * 4, 0, {}, 1, [[lts.states.index("s3"), lts.states.index("s4")]])


def test_factorisation_without_splittable_labels():
    # every label has one edge: nothing to split, and nothing collides
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "b", "s2"), ("s2", "c", "s0")])
    search = assert_factorisation(lts)
    remainder, rows, label_rows, _, classes = search.factored
    assert classes == []
    assert rows == 0 and remainder == [[]] * 3
    assert all(key < 0 for row in label_rows.values() for key in row)


def test_factorisation_with_self_loops():
    for edges in (
        [("s0", "a", "s0")],
        [("s0", "a", "s1"), ("s1", "a", "s1"), ("s1", "b", "s0")],
        [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "b", "s2"), ("s0", "b", "s0"), ("s1", "c", "s0")],
    ):
        assert_factorisation(Lts.from_edges("s0", edges))


def test_factorisation_with_every_state_in_one_class():
    # a^2 b and a^3 b close cycles: every effect is zero, so all states
    # collide until a splits
    lts = Lts.from_edges(
        "s0", [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a", "s3"), ("s2", "b", "s0"), ("s3", "b", "s0")]
    )
    search = assert_factorisation(lts)
    assert search.factored[4] == [list(range(len(lts.states)))]
    assert assert_same(lts, 4)


def test_edge_columns_hold_the_remainder_nonzeros():
    # the remainder rows held by edge: each nonzero once, under its edge, in
    # the order the rows were kept, on splittable edges only, and no row empty
    search = _Search(labelled_ring(4, 8))
    assert len(search.lts.states) == 165
    remainder = search.factored[0]
    rows = remainder_rows(search)
    assert rows and all(rows)
    assert all(x for row in rows for x in row.values())
    assert all([r for r, _ in column] == sorted({r for r, _ in column}) for column in remainder)
    splittable = {i for edges in search.per_label.values() if len(edges) > 1 for i in edges}
    assert {i for row in rows for i in row} <= splittable


def test_labelled_ring_search_memory():
    # leaves on 4,389 remainder rows over 6,160 edges: the columns stay
    # sparse, so the search holds a few times the factorisation. It peaks
    # at about 9.35 MiB on Python 3.10 to 3.13; at 9.8 MiB when it made the
    # LTS's edges, and at 13.4 MiB when it held the factorisation twice
    lts = labelled_ring(4, 20)
    tracemalloc.start()
    try:
        outcome = decide(lts, 4, node_budget=40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.exhausted and outcome.nodes == 41
    assert "edges" not in vars(lts)
    assert peak < 9.6 * 2**20


def test_factorisation_on_fixtures_and_random_draws():
    for name in SEARCH_FIXTURES:
        assert_factorisation(load_lts(name))
    rng = random.Random(7)
    for _ in range(60):
        assert_factorisation(tiny_random_lts(rng))
