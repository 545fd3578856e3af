import itertools
import random
import re

import pytest

from helpers import (
    FIXTURES,
    INT_LIMITED,
    LONG_TOKEN,
    load_lts,
    lts_from_names,
    minimal_split_labels,
    random_lts,
    tiny_random_lts,
)
from labelsplit.lts import Edge, FormatError, Lts, validate
from labelsplit.regions import is_embeddable
from labelsplit.splitting import (
    LabelSplitting,
    _Search,
    apply_splitting,
    decide,
    from_partitions,
    optimize,
    parse_splitting,
    serialize_splitting,
    set_partitions,
)
from oracles import conflict_pairs, validate_splitting


def test_unsplit_partitions_are_identity():
    lts = load_lts("fig1-right.lts")
    sp = from_partitions(lts, {})
    assert sp.alphabet == lts.labels
    assert sp.edge_labels == tuple(e.label for e in lts.edges)
    assert sp.labels_used() == 2
    assert validate_splitting(lts, sp) == []
    assert apply_splitting(lts, sp) == lts


def test_from_partitions_canonical_names():
    lts = load_lts("fig1-right.lts")
    # a-edges are 0, 2, 4: the block with edge 0 keeps the name
    sp = from_partitions(lts, {"a": [[2, 4], [0]]})
    assert sp.alphabet == ("a", "b", "a#1")
    assert sp.edge_labels == ("a", "b", "a#1", "b", "a#1", "b")
    assert validate_splitting(lts, sp) == []


def test_from_partitions_rejects_bad_cover():
    lts = load_lts("fig1-right.lts")
    with pytest.raises(ValueError):
        from_partitions(lts, {"a": [[0]]})
    with pytest.raises(ValueError):
        from_partitions(lts, {"a": [[0, 1], [2, 4]]})
    with pytest.raises(ValueError, match="does not cover"):
        from_partitions(lts, {"zz": [[0]]})  # the LTS has no label zz
    with pytest.raises(ValueError, match="does not cover"):
        from_partitions(lts, {"a": [[0, 2, 4], []]})


def test_fresh_names_skip_colliding_originals():
    lts = Lts.from_edges(
        "s0", [("s0", "a", "s1"), ("s1", "a", "s2"), ("s2", "a#1", "s3")]
    )
    sp = from_partitions(lts, {"a": [[0], [1]]})
    assert sp.alphabet == ("a", "a#1", "a#2")
    assert sp.edge_labels == ("a", "a#2", "a#1")


def test_apply_splitting_preserves_shape():
    lts = load_lts("fig1-right.lts")
    sp = from_partitions(lts, {"b": [[1, 5], [3]]})
    new = apply_splitting(lts, sp)
    assert new.states == lts.states
    assert new.initial == lts.initial
    assert [e[::2] for e in new.edges] == [(e.source, e.target) for e in lts.edges]
    assert validate(new) == []
    assert is_embeddable(new).embeddable


def test_apply_splitting_keeps_declared_states():
    # the declared order, not the order of first use, and a declared state
    # that no edge touches
    edges = (Edge("s0", "a", "s1"), Edge("s1", "a", "s2"))
    lts = lts_from_names(("s0", "s2", "s1", "s3"), ("a",), edges, "s0")
    new = apply_splitting(lts, from_partitions(lts, {"a": [[0], [1]]}))
    assert new.states == ("s0", "s2", "s1", "s3")
    assert new.labels == ("a", "a#1")
    assert new.edges == (("s0", "a", "s1"), ("s1", "a#1", "s2"))


def test_apply_splitting_alphabet_must_cover():
    lts = Lts.from_edges("s0", [("s0", "a", "s1")])
    with pytest.raises(ValueError):
        apply_splitting(lts, LabelSplitting(("b",), ("a",)))
    # and one new label for every edge, no more and no fewer
    for edge_labels in ((), ("a", "a")):
        with pytest.raises(ValueError, match="edge count"):
            apply_splitting(lts, LabelSplitting(("a",), edge_labels))


def out_of_order(ordered):
    """The refusal of an alphabet that is not `ordered`, as a full match."""
    return "^" + re.escape(f"splitting alphabet is not {ordered}: the originals, then the new labels by first use") + "$"


def test_apply_splitting_refuses_a_repeated_label():
    # the split LTS is built from id columns, unchecked, so the alphabet is
    # checked here: a name declared twice would index two labels
    lts = Lts.from_edges("s0", [("s0", "a", "s1")])
    with pytest.raises(ValueError, match=out_of_order(("a",))):
        apply_splitting(lts, LabelSplitting(("a", "a#1", "a"), ("a",)))


def test_a_splitting_has_one_alphabet_order():
    # the originals, then the new labels by first use along the edges: any
    # other order is refused, so a witness reads back as the splitting it
    # was written from, whatever the order of its lines
    lts = load_lts("fig1-right.lts")
    edge_labels = ("a", "b", "a", "b#1", "a", "b#2")
    with pytest.raises(ValueError, match=out_of_order(("a", "b", "b#1", "b#2"))):
        apply_splitting(lts, LabelSplitting(("b#2", "a", "b", "b#1"), edge_labels))
    sp = LabelSplitting(("a", "b", "b#1", "b#2"), edge_labels)
    assert apply_splitting(lts, sp).labels == sp.alphabet
    text = serialize_splitting(lts, sp)
    assert text == "labels 4\nsplit 3 b#1\nsplit 5 b#2\n"
    assert parse_splitting(lts, text) == sp
    assert parse_splitting(lts, "labels 4\nsplit 5 b#2\nsplit 3 b#1\n") == sp


def test_apply_splitting_refuses_what_parse_splitting_refuses():
    # x relabels an a edge and a b edge: the split LTS would embed, but the
    # witness written for it does not parse back, so it is not a splitting
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s0"), ("s1", "b", "s2")])
    sp = LabelSplitting(("a", "b", "x"), ("x", "a", "x"))
    message = "edge 2 of b relabelled to x, which stands for a"
    with pytest.raises(ValueError, match=f"^{message}$"):
        apply_splitting(lts, sp)
    with pytest.raises(FormatError, match=f"^line 3: {message}$"):
        parse_splitting(lts, "labels 3\nsplit 0 x\nsplit 2 x\n")
    # an original name keeps only its own edges
    with pytest.raises(ValueError, match="^edge 2 of b relabelled to a, which stands for a$"):
        apply_splitting(lts, LabelSplitting(("a", "b"), ("a", "a", "a")))
    # the alphabet is the originals and the labels used, no more and no fewer
    with pytest.raises(ValueError, match=out_of_order(("a", "b"))):
        apply_splitting(lts, LabelSplitting(("a", "b", "y"), ("a", "a", "b")))
    with pytest.raises(ValueError, match=out_of_order(("a", "b", "b#1"))):
        apply_splitting(lts, LabelSplitting(("a", "b#1"), ("a", "a", "b#1")))
    good = LabelSplitting(("a", "b", "x"), ("x", "a", "b"))
    assert parse_splitting(lts, serialize_splitting(lts, good)) == good
    assert apply_splitting(lts, good).labels == ("a", "b", "x")


def random_splitting(rng, lts):
    """Each label's edges dealt into a random number of blocks."""
    partitions = {}
    for t in lts.labels:
        blocks = {}
        edges = [i for i, e in enumerate(lts.edges) if e.label == t]
        for i in edges:
            blocks.setdefault(rng.randrange(len(edges)), []).append(i)
        partitions[t] = list(blocks.values())
    return from_partitions(lts, partitions)


def test_apply_splitting_equals_the_lts_built_by_name():
    # relabelled from the id columns, making no edge, the split LTS is the
    # value `lts_from_names` builds, and checks, from the relabelled edges
    rng = random.Random(29)
    paths = sorted(FIXTURES.glob("**/*.lts"))
    fixtures = [load_lts(str(path.relative_to(FIXTURES))) for path in paths]
    cases = [(lts, random_splitting(rng, lts)) for lts in fixtures for _ in range(5)]
    cases += [(lts, from_partitions(lts, {})) for lts in fixtures]
    for _ in range(100):
        lts = random_lts(rng, max_states=8, max_labels=3, extra_edges=6)
        cases.append((lts, random_splitting(rng, lts)))
    for lts, sp in cases:
        new = apply_splitting(lts, sp)
        assert "edges" not in vars(new)
        edges = tuple(Edge(e.source, t, e.target) for e, t in zip(lts.edges, sp.edge_labels))
        by_name = lts_from_names(lts.states, sp.alphabet, edges, lts.initial)
        assert new.columns == by_name.columns
        assert new == by_name and hash(new) == hash(by_name)


def test_alternative_single_edge_split_makes_fig1_right_embeddable():
    lts = load_lts("fig1-right.lts")
    sp = from_partitions(lts, {"a": [[0], [2, 4]]})
    assert sp.labels_used() == 3
    assert is_embeddable(apply_splitting(lts, sp)).embeddable


def test_validate_splitting_catches_breakage():
    lts = load_lts("fig1-right.lts")
    sp = from_partitions(lts, {})
    problems = validate_splitting(lts, type(sp)(sp.alphabet, ("a",) * 6))
    assert any("nondeterministic" in p for p in problems)
    assert any("edge 1 relabelled b -> a" in p for p in problems)
    # a new label that relabels no edge stands for no original
    problems = validate_splitting(lts, type(sp)(sp.alphabet + ("x",), sp.edge_labels))
    assert problems == ["label x relabels no edge, so it stands for no original"]
    # a new label relabelling edges of two originals
    problems = validate_splitting(lts, type(sp)(("a", "b", "x"), ("x",) * 2 + sp.edge_labels[2:]))
    assert any("maps back to a" in p for p in problems)


def test_serialize_parse_round_trip():
    lts = load_lts("fig1-right.lts")
    sp = from_partitions(lts, {"a": [[0], [2, 4]], "b": [[1, 5], [3]]})
    text = serialize_splitting(lts, sp)
    assert text.splitlines()[0] == "labels 4"
    back = parse_splitting(lts, text)
    assert back == sp


def test_parse_splitting_errors():
    lts = load_lts("fig1-right.lts")
    with pytest.raises(FormatError):
        parse_splitting(lts, "")
    with pytest.raises(FormatError):
        parse_splitting(lts, "labels 2\nsplit 99 x\n")
    with pytest.raises(FormatError):
        parse_splitting(lts, "labels 3\nsplit 0 x\nsplit 0 y\n")
    with pytest.raises(FormatError):
        parse_splitting(lts, "labels 3\nsplit 0 b\n")  # crosses original labels
    with pytest.raises(FormatError):
        parse_splitting(lts, "labels 3\nsplit 0 x\nsplit 1 x\n")  # x spans a and b
    with pytest.raises(FormatError):
        parse_splitting(lts, "labels 7\nsplit 0 x\n")  # count mismatch
    for text, line, message in SPLITTING_DIAGNOSTICS:
        with pytest.raises(FormatError) as err:
            parse_splitting(lts, text)
        assert (err.value.line, err.value.message) == (line, message), text[:80]


SPLIT_ARITY = "expected 'split <edge-index> <new-label>'"

# (text, line, message) for every diagnostic of `parse_splitting` against
# fig1-right.lts: edges 0, 2, 4 carry a and edges 1, 3, 5 carry b
SPLITTING_DIAGNOSTICS = [
    ("", 1, "empty input, expected 'labels' header"),
    ("\n  \n", 1, "empty input, expected 'labels' header"),
    ("lbls 3\n", 1, "expected 'labels <count>'"),
    ("labels\n", 1, "expected 'labels <count>'"),
    ("\nlabels 3 4\n", 2, "expected 'labels <count>'"),
    ("\nlabels three\n", 2, "label count must be an integer, got 'three'"),
    ("labels 3\nsplit 0\n", 2, SPLIT_ARITY),
    ("labels 3\nsplit 0 x y\n", 2, SPLIT_ARITY),
    ("labels 3\nsplat 0 x\n", 2, SPLIT_ARITY),
    ("labels 3\nsplit zero x\n", 2, "edge index must be an integer, got 'zero'"),
    # ASCII digits after an optional minus sign, nothing else `int` takes
    ("labels \uff13\n", 1, "label count must be an integer, got '\uff13'"),
    ("labels +3\n", 1, "label count must be an integer, got '+3'"),
    ("labels 3\nsplit 0_0 x\n", 2, "edge index must be an integer, got '0_0'"),
    ("labels 3\nsplit \u0660 x\n", 2, "edge index must be an integer, got '\u0660'"),
    ("labels 3\nsplit 6 x\n", 2, "edge index out of range: 6"),
    ("labels 3\nsplit -1 x\n", 2, "edge index out of range: -1"),
    ("labels 3\nsplit 0 x\n\nsplit 0 y\n", 4, "edge 0 relabelled twice"),
    ("labels 3\nsplit 0 b\n", 2, "edge 0 of a relabelled to b, which stands for b"),
    ("labels 3\nsplit 0 x\nsplit 1 x\n", 3, "edge 1 of b relabelled to x, which stands for a"),
    ("labels 7\nsplit 0 x\n", 1, "declared 7 labels, witness uses 3"),
    ("\n\nlabels 4\nsplit 0 x\n", 3, "declared 4 labels, witness uses 3"),
    ("labels -3\n", 1, "declared -3 labels, witness uses 2"),
    # `#` is an ordinary character: b#1 is a new label, `# note` two tokens
    ("labels 2\nsplit 3 b#1\n", 1, "declared 2 labels, witness uses 3"),
    ("labels 3 # note\n", 1, "expected 'labels <count>'"),
    ("labels 3\nsplit 3 b#1 # note\n", 2, SPLIT_ARITY),
]
if INT_LIMITED:
    NOT_INT = f"must be an integer, got '{LONG_TOKEN}'"
    SPLITTING_DIAGNOSTICS += [
        (f"labels {LONG_TOKEN}\n", 1, f"label count {NOT_INT}"),
        (f"labels 3\nsplit {LONG_TOKEN} x\n", 2, f"edge index {NOT_INT}"),
    ]


def test_parse_splitting_alphabet_follows_edge_order():
    # new labels by first use along the edges, not by line
    lts = load_lts("fig1-right.lts")
    sp = parse_splitting(lts, "labels 4\nsplit 3 y\nsplit 2 x\n")
    assert sp.alphabet == ("a", "b", "x", "y")
    assert sp.edge_labels == ("a", "b", "x", "y", "a", "b")
    assert validate_splitting(lts, sp) == []


def test_set_partitions_counts():
    # Bell numbers 1, 1, 2, 5, 15, 52
    for count, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in set_partitions(range(count))) == bell


def test_set_partitions_single_block_first():
    parts = [blocks for _, blocks in set_partitions(range(3))]
    assert parts[0] == [[0, 1, 2]]
    assert parts[-1] == [[0], [1], [2]]


def test_set_partitions_max_blocks():
    parts = [blocks for _, blocks in set_partitions(range(4), max_blocks=2)]
    assert all(len(p) <= 2 for p in parts)
    assert sum(1 for _ in parts) == 1 + 7  # one 1-block + seven 2-block partitions


def test_set_partitions_restricted_growth_order():
    # independent oracle: every block-index string in lexicographic order,
    # kept when each index is at most one above the largest before it
    for count in range(7):
        for cap in (None, 1, 2, 3):
            expected = []
            for rgs in itertools.product(range(count), repeat=count):
                if count and rgs[0] != 0:
                    continue
                if any(b > max(rgs[:i]) + 1 for i, b in enumerate(rgs) if i):
                    continue
                if cap is not None and count and max(rgs) >= cap:
                    continue
                blocks = [[j for j, b in enumerate(rgs) if b == k] for k in range(max(rgs, default=-1) + 1)]
                expected.append(blocks)
            assert [blocks for _, blocks in set_partitions(range(count), cap)] == expected


def test_set_partitions_min_blocks_equals_filtered_enumeration():
    # the lower bound prunes prefixes; what is left keeps its order
    for count in range(8):
        for high in [None, *range(-1, count + 2)]:
            full = [blocks for _, blocks in set_partitions(range(count), high)]
            for low in range(-1, count + 3):
                want = [blocks for blocks in full if len(blocks) >= low]
                assert [blocks for _, blocks in set_partitions(range(count), high, low)] == want


def test_set_partitions_strings_match_blocks():
    # each restricted-growth string gives the block of every item, and a
    # later step leaves a string as it was yielded
    items = [7, 3, 11, 5, 2]
    for high, low in [(None, 0), (2, 0), (4, 3)]:
        for assign, blocks in list(set_partitions(items, high, low)):
            assert all(b <= max(assign[:j], default=-1) + 1 for j, b in enumerate(assign))
            assert blocks == [[x for x, b in zip(items, assign) if b == k] for k in range(max(assign) + 1)]
    assert list(set_partitions([])) == [([], [])]


def test_decide_long_single_label_chain():
    # a 1,500-edge chain under one label embeds as it stands; enumerating its
    # partitions must not recurse once per edge
    edges = [(f"s{i}", "a", f"s{i + 1}") for i in range(1500)]
    lts = Lts.from_edges("s0", edges)
    outcome = decide(lts, 1)
    assert outcome.found and outcome.splitting.labels_used() == 1
    assert outcome.splitting == from_partitions(lts, {})
    assert outcome.nodes == 2  # the one-block partition and its leaf


def test_decide_long_chain_of_distinct_labels():
    # one label per edge: the search keeps one frame per label, so 1,200
    # labels must not hit the recursion limit
    edges = [(f"s{i}", f"t{i}", f"s{i + 1}") for i in range(1200)]
    lts = Lts.from_edges("s0", edges)
    outcome = decide(lts, 1200)
    assert outcome.found and outcome.splitting.labels_used() == 1200
    assert outcome.splitting == from_partitions(lts, {})
    assert outcome.nodes == 1201  # one partition per label, then the leaf


def test_conflict_pairs():
    lts = Lts.from_edges(
        "s0",
        [
            ("s0", "g", "s1"),
            ("s1", "g", "s0"),
            ("s1", "a", "s1"),  # self loop is not a conflict
            ("s0", "a", "s2"),
        ],
    )
    assert conflict_pairs(lts) == {"g": [(0, 1)], "a": []}
    # the search's own rule, by id, as positions in each label's edge list
    assert _Search(lts).conflicts == {"g": [(0, 1)], "a": []}


def test_decide_fig1_right():
    lts = load_lts("fig1-right.lts")
    assert not decide(lts, 2).found
    outcome = decide(lts, 3)
    assert outcome.found
    assert outcome.splitting.labels_used() == 3
    assert not outcome.exhausted
    assert validate_splitting(lts, outcome.splitting) == []
    assert is_embeddable(apply_splitting(lts, outcome.splitting)).embeddable


def test_decide_embeddable_input_returns_identity():
    lts = load_lts("fig2-middle.lts")
    outcome = decide(lts, 3)
    assert outcome.found
    assert outcome.splitting == from_partitions(lts, {})
    assert outcome.splitting.labels_used() == 3


def test_decide_budget_below_label_count():
    lts = load_lts("fig2-middle.lts")
    outcome = decide(lts, 2)
    assert not outcome.found and not outcome.exhausted


def test_decide_rejects_nonpositive_budget():
    with pytest.raises(ValueError):
        decide(load_lts("fig1-right.lts"), 0)


def test_decide_node_budget_exhaustion():
    lts = load_lts("fig1-right.lts")
    outcome = decide(lts, 3, node_budget=1)
    assert outcome.exhausted
    assert not outcome.found
    assert outcome.nodes == 2  # the increment that tripped the budget is counted
    relaxed = decide(lts, 3, node_budget=10_000)
    assert relaxed.found


def test_negative_node_budget_rejected():
    lts = load_lts("fig1-right.lts")
    message = "^node budget must be at least 0, got -1$"
    with pytest.raises(ValueError, match=message):
        decide(lts, 3, node_budget=-1)
    with pytest.raises(ValueError, match=message):
        optimize(lts, node_budget=-1)
    # a budget of zero nodes is a budget: the first node exhausts it
    assert decide(lts, 3, node_budget=0).exhausted
    assert optimize(lts, node_budget=0).exhausted


def test_two_cycle_needs_two_blocks():
    lts = Lts.from_edges("s0", [("s0", "g", "s1"), ("s1", "g", "s0")])
    outcome = decide(lts, 1)
    assert not outcome.found and not outcome.exhausted
    assert outcome.nodes == 0  # lower bound prunes at the root
    outcome = decide(lts, 2)
    assert outcome.found
    assert outcome.splitting.labels_used() == 2
    labels = outcome.splitting.edge_labels
    assert labels[0] != labels[1]


def test_optimize_fig1_right():
    lts = load_lts("fig1-right.lts")
    outcome = optimize(lts)
    assert outcome.found and not outcome.exhausted
    assert outcome.splitting == decide(lts, 3).splitting
    assert outcome.splitting.labels_used() == 3
    assert is_embeddable(apply_splitting(lts, outcome.splitting)).embeddable


def test_optimize_embeddable_is_identity():
    lts = load_lts("fig2-left.lts")
    outcome = optimize(lts)
    assert outcome.splitting == from_partitions(lts, {})
    assert outcome.splitting.labels_used() == 3


def test_optimize_no_labels():
    lts = lts_from_names(("s0",), (), (), "s0")
    outcome = optimize(lts)
    assert outcome.found
    assert outcome.splitting.labels_used() == 0


def test_optimize_exhaustion():
    lts = load_lts("fig1-right.lts")
    outcome = optimize(lts, node_budget=1)
    assert outcome.exhausted and not outcome.found
    # round q=2 is the one that runs out; it counts the node that tripped it
    assert outcome.nodes == 2
    # the budget caps each round, not their sum: round q=3's own count
    # lets both rounds settle
    budget = decide(lts, 3).nodes
    capped = optimize(lts, node_budget=budget)
    assert capped.found and capped.nodes > budget


def test_decide_monotone_in_budget():
    rng = random.Random(41)
    for _ in range(15):
        lts = tiny_random_lts(rng)
        found_at = [
            q
            for q in range(max(1, len(lts.labels)), len(lts.edges) + len(lts.labels) + 1)
            if decide(lts, q).found
        ]
        # once found, found for every larger budget
        if found_at:
            lo = found_at[0]
            hi = len(lts.edges) + len(lts.labels)
            assert found_at == list(range(lo, hi + 1))


def test_decide_matches_exhaustive_oracle_small():
    # full 50-instance sweep lives in the acceptance suite
    rng = random.Random(43)
    for _ in range(12):
        lts = tiny_random_lts(rng)
        q_hat = minimal_split_labels(lts)
        for q in range(max(1, len(lts.labels)), len(lts.edges) + len(lts.labels) + 1):
            assert decide(lts, q).found == (q >= q_hat), (lts, q, q_hat)


def test_found_witnesses_are_canonical_and_verified():
    rng = random.Random(47)
    for _ in range(10):
        lts = tiny_random_lts(rng)
        outcome = decide(lts, len(lts.edges) + len(lts.labels))
        assert outcome.found
        sp = outcome.splitting
        assert validate_splitting(lts, sp) == []
        assert sp.labels_used() <= len(lts.edges) + len(lts.labels)
        assert is_embeddable(apply_splitting(lts, sp)).embeddable
        assert parse_splitting(lts, serialize_splitting(lts, sp)) == sp
