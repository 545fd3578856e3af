import pickle
import random
from dataclasses import fields, replace
from pathlib import Path

import pytest

import labelsplit.lts as lts_module
from helpers import FIXTURES, load_lts, load_net, lts_from_names, random_lts, ring_net
from labelsplit.linalg import integer_echelon
from labelsplit.lts import (
    Edge,
    FormatError,
    Lts,
    cycle_base,
    format_lts,
    parse_lts,
    spanning_tree,
    validate,
    walk,
)
from labelsplit.petri import parse_net, reachability_graph, verify_embedding
from labelsplit.regions import is_embeddable
from labelsplit.splitting import apply_splitting, from_partitions, parse_splitting
from oracles import edge_parikh, in_span, rref_rows, state_parikh, tuple_walk


def test_parse_canonical_order():
    lts = load_lts("fig1-right.lts")
    assert lts.initial == "s0"
    assert lts.states == ("s0", "s1", "s2", "s3", "s4", "s5", "s6")
    assert lts.labels == ("a", "b")
    assert len(lts.edges) == 6


def test_parse_comments_and_blanks():
    lts = parse_lts("# heading\n\nlts\ninitial x # trailing\n\nedge x go y\n")
    assert lts.initial == "x"
    assert lts.edges[0] == ("x", "go", "y")


def test_parse_errors_carry_line_numbers():
    with pytest.raises(FormatError) as err:
        parse_lts("nets\ninitial s0\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_lts("lts\ninitial\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        parse_lts("lts\ninitial s0\nedge s0 a\n")
    assert err.value.line == 3
    with pytest.raises(FormatError):
        parse_lts("")
    # only blank and comment lines follow the header: the header's line
    with pytest.raises(FormatError) as err:
        parse_lts("# heading\nlts\n\n# no initial state\n   \n")
    assert (err.value.line, err.value.message) == (2, "missing 'initial' line")
    for text, line, message in LTS_DIAGNOSTICS:
        with pytest.raises(FormatError) as err:
            parse_lts(text)
        assert (err.value.line, err.value.message) == (line, message), text


EDGE_ARITY = "expected 'edge <source> <label> <target>'"

# (text, line, message) for every diagnostic of `parse_lts`
LTS_DIAGNOSTICS = [
    ("", 1, "empty input, expected 'lts' header"),
    ("# heading\n\n   \n", 1, "empty input, expected 'lts' header"),
    ("nets\ninitial s0\n", 1, "expected 'lts' header"),
    ("\n# heading\nlts 7\n", 3, "expected 'lts' header"),
    ("# lts\n", 1, "empty input, expected 'lts' header"),
    ("lts\n", 1, "missing 'initial' line"),
    ("lts\ninitial\n", 2, "expected 'initial <state>'"),
    ("lts\ninitial s0 s1\n", 2, "expected 'initial <state>'"),
    ("lts\n\nedge s0 a s1\n", 3, "expected 'initial <state>'"),
    ("lts\ninitial s0\nedge s0 a\n", 3, EDGE_ARITY),
    ("lts\ninitial s0\nedge s0 a s1 s2\n", 3, EDGE_ARITY),
    ("lts\ninitial s0\nedge s0 a s1\nedges s1 a s0\n", 4, EDGE_ARITY),
    ("lts\ninitial s0\ninitial s1\n", 3, EDGE_ARITY),
    # `#` starts a comment, inside a token too
    ("lts # v1\ninitial s0 # start\nedge s0 a #s1\n", 3, EDGE_ARITY),
    ("lts\ninitial s0\nedge s0 b#1 s1\n", 3, EDGE_ARITY),
]


# characters `str.splitlines` would also break a line at
NOT_LINE_FEEDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", NOT_LINE_FEEDS, ids=lambda c: f"U+{ord(c):04X}")
def test_line_numbers_count_line_feeds_only(separator):
    with pytest.raises(FormatError) as err:
        parse_lts(f"lts\ninitial s0{separator}\nedge s0 a\n")
    assert err.value.line == 3
    lts = parse_lts(f"lts\ninitial s0\nedge s0{separator}a s1\n")
    assert lts.edges == (("s0", "a", "s1"),)
    with pytest.raises(FormatError) as err:
        parse_net(f"net{separator}\nplace p one\n")
    assert err.value.line == 2
    with pytest.raises(FormatError) as err:
        parse_splitting(load_lts("fig1-right.lts"), f"labels 3{separator}\nsplit x b#1\n")
    assert err.value.line == 2


def test_carriage_returns_are_whitespace():
    lts = parse_lts("lts\r\ninitial s0\r\nedge s0 a s1\r\n")
    assert lts == parse_lts("lts\ninitial s0\nedge s0 a s1\n")


def test_header_is_bare_lts_as_in_readme():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("LTS files", 1)[1].split("```", 2)[1]
    example = "".join(line + "\n" for line in block.splitlines() if line and line != "...")
    lts = parse_lts(example)
    assert lts.initial == "s0" and len(lts.edges) == 2
    with pytest.raises(FormatError) as err:
        parse_lts("lts 7\ninitial s0\n")
    assert err.value.line == 1


def test_format_round_trip():
    for name in ("fig1-right.lts", "fig1-left.lts", "fig2-left.lts", "fig2-middle.lts"):
        lts = load_lts(name)
        assert parse_lts(format_lts(lts)) == lts


def test_validate_clean_fixtures():
    for name in ("fig1-right.lts", "fig2-left.lts", "fig2-middle.lts"):
        assert validate(load_lts(name)) == []


def test_validate_single_state():
    assert validate(lts_from_names(("s0",), (), (), "s0")) == []


# (the four parts `lts_from_names` takes, messages) for every message on a
# malformed LTS, one value each: `lts_from_names` refuses a "dangling reference"
# with its text, and `validate` reports the rest
VALIDATE_MESSAGES = [
    ((("s0", "s0"), (), (), "s0"), ["dangling reference: duplicate state declaration"]),
    ((("s0",), ("a", "a"), (), "s0"), ["dangling reference: duplicate label declaration"]),
    ((("s0",), (), (), "x"), ["dangling reference: initial state x not declared"]),
    (
        (("s0",), ("a",), (Edge("ghost", "a", "s0"),), "s0"),
        ["dangling reference: edge 0 source ghost not declared"],
    ),
    (
        (("s0",), ("a",), (Edge("s0", "a", "ghost"),), "s0"),
        ["dangling reference: edge 0 target ghost not declared"],
    ),
    (
        (("s0", "s1"), ("a",), (Edge("s0", "b", "s1"),), "s0"),
        ["dangling reference: edge 0 label b not declared"],
    ),
    (
        (("s0", "s1", "s2"), ("a",), (Edge("s0", "a", "s1"), Edge("s0", "a", "s2")), "s0"),
        ["nondeterministic: two edges from s0 with label a"],
    ),
    ((("s0", "s1"), ("a",), (), "s0"), ["unreachable state: s1"]),
]


@pytest.mark.parametrize("lts,messages", VALIDATE_MESSAGES)
def test_validate_messages(lts, messages):
    if messages[0].startswith("dangling reference: "):
        with pytest.raises(ValueError) as refused:
            lts_from_names(*lts)
        assert str(refused.value) == messages[0]
    else:
        assert validate(lts_from_names(*lts)) == messages


def test_validate_nondeterminism():
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s0", "a", "s2")])
    assert validate(lts) == ["nondeterministic: two edges from s0 with label a"]


def test_validate_unreachable():
    lts = lts_from_names(("s0", "s1"), ("a",), (), "s0")
    assert validate(lts) == ["unreachable state: s1"]


def test_validate_dangling():
    with pytest.raises(ValueError, match="^dangling reference: edge 0 target ghost not declared$"):
        lts_from_names(("s0",), ("a",), (Edge("s0", "a", "ghost"),), "s0")


def test_validate_mixed_violations_exact():
    # edge 1 repeats (s0, a); edges 2 and 3 run through an undeclared state:
    # the build names the first bad name, edge by edge as source, target, label
    edges = [("s0", "a", "s1"), ("s0", "a", "s2"), ("s1", "b", "ghost"), ("ghost", "a", "s3")]
    with pytest.raises(ValueError, match="^dangling reference: edge 2 target ghost not declared$"):
        lts_from_names(("s0", "s1", "s2", "s3"), ("a",), tuple(Edge(*e) for e in edges), "s0")
    # without them, s3 is unreachable, and `validate` reports both in order
    lts = lts_from_names(("s0", "s1", "s2", "s3"), ("a",), tuple(Edge(*e) for e in edges[:2]), "s0")
    assert validate(lts) == [
        "nondeterministic: two edges from s0 with label a",
        "unreachable state: s3",
    ]


def test_undeclared_edge_name_is_a_value_error():
    # refused when built, so no analysis or verifier indexes by a missing id
    bad_label = (Edge("s0", "a", "s1"), Edge("s1", "b", "s1"))
    with pytest.raises(ValueError) as refused:
        lts_from_names(("s0", "s1"), ("a",), bad_label, "s0")
    assert str(refused.value) == "dangling reference: edge 1 label b not declared"
    with pytest.raises(ValueError, match="^dangling reference: edge 0 target s9 not declared$"):
        lts_from_names(("s0", "s1"), ("a",), (Edge("s0", "a", "s9"),), "s0")


def test_spanning_tree_tree_lts_uses_all_edges():
    lts = load_lts("fig1-left.lts")
    assert set(spanning_tree(lts).values()) == set(range(6))


def test_spanning_tree_fig2_middle_picks_first_use_edges():
    lts = load_lts("fig2-middle.lts")
    parent = spanning_tree(lts)
    # chords are the three c-edges and the duplicate route to s3
    assert set(parent.values()) == {0, 1, 2, 3, 4, 5, 9}
    # in the order the search discovers the states
    assert [(lts.states[d], i) for d, i in parent.items()] == [
        ("s1", 0), ("s2", 1), ("s3", 5), ("s4", 2), ("s6", 3), ("s5", 9), ("s7", 4)
    ]
    assert spanning_tree(load_lts("fig2-middle.lts")) == parent  # deterministic


def test_spanning_tree_rejects_unreachable():
    lts = lts_from_names(("s0", "s1"), ("a",), (), "s0")
    with pytest.raises(ValueError):
        spanning_tree(lts)


def test_spanning_tree_names_first_unreachable_state():
    lts = Lts.from_edges("s0", [("s1", "a", "s2")])
    for analyse in (spanning_tree, lambda lts: walk(lts, [1])):
        with pytest.raises(ValueError, match="^state not reachable from s0: s1$"):
            analyse(lts)


def test_undeclared_initial_state_is_a_value_error():
    # refused by name and by the id constructor, so also by `replace`; a
    # declared initial state need not be the first
    for build in (lts_from_names, lambda *parts: Lts(*parts[:2], ([], [], []), parts[3])):
        with pytest.raises(ValueError, match="^dangling reference: initial state x not declared$"):
            build(("s0",), (), (), "x")
        assert build(("s0", "s1"), (), (), "s1").initial == "s1"
    for lts in (lts_from_names(("s0",), (), (), "s0"), load_lts("fig2-middle.lts")):
        with pytest.raises(ValueError, match="^dangling reference: initial state x not declared$"):
            replace(lts, initial="x")


def test_duplicate_state_declaration_is_a_value_error():
    # every name is reached, but fewer states than are declared
    for states in (("s0", "s1", "s1"), ("s0", "s0")):
        edges = (Edge("s0", "a", "s1"),) * (len(set(states)) - 1)
        with pytest.raises(ValueError, match="^dangling reference: duplicate state declaration$"):
            lts_from_names(states, ("a",), edges, "s0")


def test_one_breadth_first_search_per_lts():
    # validate reads, and every spanning tree is, the same memoised parent
    # map; a parsed LTS has its columns from the parse
    lts = load_lts("fig2-middle.lts")
    columns = lts.columns
    assert validate(lts) == []
    parent = spanning_tree(lts)
    assert parent is lts._parents
    assert spanning_tree(lts) is parent
    assert validate(lts) == []
    assert spanning_tree(lts) is parent
    walk(lts, [1] * len(lts.labels))
    cycle_base(lts)
    assert is_embeddable(lts).embeddable
    assert verify_embedding(lts, load_net("fig2.net")).embeds
    assert spanning_tree(lts) is parent
    assert lts.columns is columns


def test_a_split_lts_shares_the_search_of_the_lts_it_splits():
    # a splitting keeps the graph, so the split LTS is handed the memoised
    # tree of the LTS it splits, the one a search of its own would find
    for name, partitions in (("fig1-right.lts", {"b": [[1], [3, 5]]}), ("fig2-middle.lts", {})):
        lts = load_lts(name)
        split = apply_splitting(lts, from_partitions(lts, partitions))
        assert split._parents is lts._parents
        assert Lts(split.states, split.labels, split.columns, split.initial)._parents == lts._parents
        assert is_embeddable(split).embeddable


def test_analysed_lts_equals_and_hashes_like_fresh_copy():
    for name in ("fig1-right.lts", "fig2-middle.lts"):
        analysed = load_lts(name)
        assert validate(analysed) == []
        cycle_base(analysed)
        fresh = load_lts(name)
        assert analysed == fresh
        assert hash(analysed) == hash(fresh)
        assert {analysed: 1}[fresh] == 1


def test_state_parikh_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    assert lts.labels == ("a", "b", "c")
    assert state_parikh(lts, "s0") == (0, 0, 0)
    assert state_parikh(lts, "s3") == (1, 1, 0)
    assert state_parikh(lts, "s7") == (1, 3, 0)
    assert state_parikh(lts, "s5") == (1, 2, 0)
    with pytest.raises(ValueError):
        state_parikh(lts, "nope")


def test_edge_parikh_zero_on_tree_edges():
    lts = load_lts("fig2-middle.lts")
    for i in sorted(spanning_tree(lts).values()):
        assert edge_parikh(lts, i) == (0, 0, 0)


def test_edge_parikh_chords_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    tree_edges = set(spanning_tree(lts).values())
    chords = {i: edge_parikh(lts, i) for i in range(len(lts.edges)) if i not in tree_edges}
    # the parallel route s2 -a-> s3 closes no labels; each c-edge closes a+b+c
    assert chords[8] == (0, 0, 0)
    assert chords[6] == (1, 1, 1)
    assert chords[7] == (1, 1, 1)
    assert chords[10] == (1, 1, 1)
    with pytest.raises(ValueError):
        edge_parikh(lts, 99)


def test_cycle_base_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    rows, pivots = cycle_base(lts)
    assert lts.labels == ("a", "b", "c")
    assert rows == ((1, 1, 1),)
    assert pivots == (0,)


def test_cycle_base_empty_for_trees():
    lts = load_lts("fig1-right.lts")
    rows, pivots = cycle_base(lts)
    assert rows == ()
    assert pivots == ()
    assert lts.labels == ("a", "b")


def test_cycle_base_fig2_left():
    rows, _ = cycle_base(load_lts("fig2-left.lts"))
    assert rows == ((1, 1, 1),)


def chord_rref_oracle(lts):
    """The cycle base as first written: `rref` over `Fraction`s of every raw
    chord vector, nonzero rows kept, each scaled to primitive integers."""
    tree_edges = set(spanning_tree(lts).values())
    chords = [edge_parikh(lts, i) for i in range(len(lts.edges)) if i not in tree_edges]
    rows, pivots = rref_rows(chords)
    return tuple(rows), pivots


def test_cycle_base_equals_rref_of_chords_random():
    rng = random.Random(41)
    for _ in range(150):
        lts = random_lts(rng, max_states=8, max_labels=5, extra_edges=8)
        assert cycle_base(lts) == chord_rref_oracle(lts)


@pytest.mark.parametrize("places,tokens", [(2, 5), (3, 4), (4, 3)])
def test_cycle_base_equals_rref_of_chords_ring(places, tokens):
    rg = reachability_graph(ring_net(places, tokens))
    rows, pivots = cycle_base(rg)
    assert (rows, pivots) == chord_rref_oracle(rg)
    assert rows == ((1,) * places,)  # every cycle of a ring fires each transition equally


RING_4_20 = reachability_graph(ring_net(4, 20))
LTS_FILES = sorted(FIXTURES.glob("**/*.lts"))


def echelon_counting_reads(vectors, cols):
    """`integer_echelon` on `vectors`, and how many of them it read."""
    read = 0

    def each():
        nonlocal read
        for v in vectors:
            read += 1
            yield v

    return integer_echelon(each(), cols), read


def count_cycle_base_reads(monkeypatch):
    """Wrap the `integer_echelon` that `cycle_base` calls: the returned list
    gets the number of vectors each call reads."""
    reads = []

    def counting(vectors, cols):
        result, read = echelon_counting_reads(vectors, cols)
        reads.append(read)
        return result

    monkeypatch.setattr(lts_module, "integer_echelon", counting)
    return reads


def test_cycle_base_reads_each_distinct_chord_once(monkeypatch):
    reads = count_cycle_base_reads(monkeypatch)
    assert len(RING_4_20.edges) - len(spanning_tree(RING_4_20)) == 4390
    assert cycle_base(RING_4_20) == (((1, 1, 1, 1),), (0,))
    assert reads == [2]  # the zero chord and (1, 1, 1, 1)


def test_cycle_base_reads_no_more_chords_than_before(monkeypatch):
    # before, every chord was read, repeats too, until the rank reached |labels|
    reads = count_cycle_base_reads(monkeypatch)
    rng = random.Random(43)
    early = fewer = 0
    for _ in range(150):
        lts = random_lts(rng, max_states=8, max_labels=3, extra_edges=10)
        tree_edges = set(spanning_tree(lts).values())
        chords = [edge_parikh(lts, i) for i in range(len(lts.edges)) if i not in tree_edges]
        result, before = echelon_counting_reads(chords, len(lts.labels))
        assert cycle_base(lts) == result
        assert reads[-1] <= before
        early += before < len(chords)
        fewer += reads[-1] < before
    assert early and fewer  # full rank early, and repeats skipped, both happen


@pytest.mark.parametrize(
    "text",
    [path.read_text() for path in LTS_FILES] + [format_lts(RING_4_20)],
    ids=[path.name for path in LTS_FILES] + ["ring-4-20-rg"],
)
def test_parsed_names_are_shared(text):
    lts = parse_lts(text)
    state = {s: s for s in lts.states}
    label = {t: t for t in lts.labels}
    assert lts.states[0] is lts.initial
    for e in lts.edges:
        assert e.source is state[e.source] and e.target is state[e.target]
        assert e.label is label[e.label]


def test_random_walk_parikh_consistency():
    # walking any edge takes parikh(source) + unit(label) - parikh(target)
    # to the edge's chord vector; on tree edges that is zero
    rng = random.Random(5)
    for _ in range(50):
        lts = random_lts(rng)
        tree_edges = set(spanning_tree(lts).values())
        idx = {t: k for k, t in enumerate(lts.labels)}
        n = len(lts.labels)
        units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        assert tuple_walk(lts, units) == [state_parikh(lts, s) for s in lts.states]
        for i, e in enumerate(lts.edges):
            v = list(state_parikh(lts, e.source))
            v[idx[e.label]] += 1
            diff = tuple(a - b for a, b in zip(v, state_parikh(lts, e.target)))
            assert diff == edge_parikh(lts, i)
            if i in tree_edges:
                assert diff == tuple(0 for _ in lts.labels)


def test_random_chords_in_cycle_base_span():
    rng = random.Random(6)
    for _ in range(50):
        lts = random_lts(rng)
        tree_edges = set(spanning_tree(lts).values())
        rows, _ = cycle_base(lts)
        for i in range(len(lts.edges)):
            if i in tree_edges:
                continue
            assert in_span(rows, edge_parikh(lts, i))


def test_random_walk_difference_in_cycle_span():
    # for any walk from s to s': parikh(s) + parikh(word) - parikh(s') is a
    # combination of base cycles
    rng = random.Random(9)
    for _ in range(40):
        lts = random_lts(rng)
        rows, _ = cycle_base(lts)
        idx = {t: k for k, t in enumerate(lts.labels)}
        out = {}
        for e in lts.edges:
            out.setdefault(e.source, []).append(e)
        for _ in range(6):
            start = rng.choice(lts.states)
            here = start
            counts = [0] * len(lts.labels)
            for _ in range(rng.randint(0, 10)):
                if here not in out:
                    break
                e = rng.choice(out[here])
                counts[idx[e.label]] += 1
                here = e.target
            diff = tuple(
                a + w - b
                for a, w, b in zip(
                    state_parikh(lts, start), counts, state_parikh(lts, here)
                )
            )
            assert in_span(rows, diff)


def test_an_lts_is_its_id_columns():
    # the fields are the names and the columns, so equality, hashing, repr
    # and pickling make no `Edge` of an Lts from `parse_lts`,
    # `reachability_graph` or `apply_splitting`, nor of one built by name
    assert [f.name for f in fields(Lts)] == ["states", "labels", "columns", "initial"]
    parsed = load_lts("fig1-right.lts")
    split = apply_splitting(parsed, from_partitions(parsed, {"b": [[1], [3, 5]]}))
    built = [parsed, reachability_graph(ring_net(4, 5)), split]
    edges = load_lts("fig1-right.lts").edges
    built.append(lts_from_names(parsed.states, parsed.labels, edges, parsed.initial))
    for lts in built:
        twin = replace(lts)
        back = pickle.loads(pickle.dumps(lts))
        assert lts == twin == back and hash(lts) == hash(twin) == hash(back)
        assert repr(lts) == repr(back) and f"columns={lts.columns!r}" in repr(lts)
        for read in (lts, twin, back):
            assert "edges" not in vars(read)
    assert built[0] == built[3] != split


def test_rg_to_verify_builds_no_edges():
    # the text path keeps a large LTS as id columns: writing a reachability
    # graph, and reading, validating and verifying it back, read no `edges`
    net = ring_net(4, 20)
    rg = reachability_graph(net)
    text = format_lts(rg)
    lts = parse_lts(text)
    assert validate(lts) == [] and verify_embedding(lts, net).embeds
    assert "edges" not in vars(rg) and "edges" not in vars(lts)
    # a first read makes them, as the names in the text give, and keeps them
    rows = [line.split()[1:] for line in text.splitlines()[2:]]
    for built in (lts, rg):
        edges = built.edges
        assert vars(built)["edges"] is edges is built.edges
        assert edges == Lts.from_edges(built.initial, rows).edges == tuple(map(tuple, rows))
        for e, s, t, d in zip(edges, *built.columns):
            assert type(e) is Edge
            assert e.source is built.states[s] and e.label is built.labels[t]
            assert e.target is built.states[d]


def test_lts_attribute_reads_stay_specialised():
    # `edges` made on first read is a descriptor on the class. A first form
    # of it was `Lts.__getattr__`, which stops Python 3.11 specialising any
    # attribute read on an `Lts`: every read was 1.6-1.8x slower, and
    # random-optimize `wall_s` rose by up to 11%
    import labelsplit.cli  # noqa: F401  (every module, with any subclass it defines)

    classes = [Lts]
    for cls in classes:
        classes += cls.__subclasses__()
        assert not hasattr(cls, "__getattr__")
        assert cls.__getattribute__ is object.__getattribute__
