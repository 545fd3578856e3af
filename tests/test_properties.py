"""Property tests of the text formats, the token game, packed vectors and
the command line: parsers return a value or raise `FormatError` on any text,
format then parse round-trips, the reachability graph, the embedding check,
the packed tree walk, the cycle base and `validate` agree with their
oracles, and fuzzed arguments or file contents never end in a traceback or
an undocumented exit."""

import io
import os
import pickle
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from itertools import chain
from operator import itemgetter

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from helpers import FIXTURES, labelled_ring, load_lts, load_net, lts_from_names, random_lts, ring_net
from labelsplit.cli import main
from labelsplit.lts import (
    Edge,
    FormatError,
    Lts,
    Packing,
    cycle_base,
    format_lts,
    parse_lts,
    spanning_tree,
    validate,
    walk,
)
from labelsplit.petri import (
    NotEnabled,
    PetriNet,
    enabled,
    fire,
    format_net,
    parse_net,
    reachability_graph,
    synthesize,
    verify_embedding,
)
from labelsplit.regions import NotEmbeddable, is_embeddable
from labelsplit.splitting import LabelSplitting, apply_splitting, parse_splitting, serialize_splitting
from oracles import (
    reachability_graph_oracle,
    regions_synthesize_oracle,
    tuple_cycle_base,
    tuple_verify_embedding,
    tuple_walk,
    validate_oracle,
    validate_splitting,
    verify_embedding_oracle,
)

FIG1_RIGHT = load_lts("fig1-right.lts")

# text made mostly of the formats' own words, so parses get past the header
WORDS = ["lts", "net", "initial", "edge", "place", "trans", "arc", "labels", "split"]
WORDS += ["s0", "s1", "a", "b", "a#1", "p", "t", "0", "1", "-1", "2", "99", "x", "#"]
tokens = st.one_of(st.sampled_from(WORDS), st.text(max_size=4))
lines = st.lists(tokens, max_size=5).map(" ".join)
texts = st.one_of(st.text(), st.lists(lines, max_size=8).map("\n".join))


def parses_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@settings(derandomize=True, max_examples=200, deadline=None)
@given(texts)
def test_parse_lts_total(text):
    parses_or_format_error(parse_lts, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(texts)
def test_parse_net_total(text):
    parses_or_format_error(parse_net, text)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(texts)
def test_parse_splitting_total(text):
    parses_or_format_error(lambda t: parse_splitting(FIG1_RIGHT, t), text)


@st.composite
def relabellings(draw):
    """A small LTS and a relabelling of its edges: each edge keeps its label,
    takes a fresh one of its own, takes `x` or another original. The
    alphabet is the originals and the labels used, in the order
    `parse_splitting` gives them, or that with a name dropped or added,
    and maybe shuffled."""
    lts = random_lts(random.Random(draw(st.integers(0, 2**32))), max_states=4, max_labels=3, extra_edges=3)
    edge_labels = tuple(
        draw(st.sampled_from([lts.labels[k], f"{lts.labels[k]}#1", "x", *lts.labels])) for k in lts.columns[1]
    )
    alphabet = tuple(dict.fromkeys([*lts.labels, *edge_labels]))
    alphabet = draw(st.sampled_from([alphabet, alphabet[:-1], (*alphabet, "y")]))
    if draw(st.booleans()):
        alphabet = tuple(draw(st.permutations(alphabet)))
    return lts, LabelSplitting(alphabet, edge_labels)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(relabellings())
@example((Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s0"), ("s1", "b", "s2")]), LabelSplitting(("a", "b", "x"), ("x", "a", "x"))))
def test_apply_splitting_accepts_what_parse_splitting_reads_back(drawn):
    # the writer and the reader of a witness agree with `apply_splitting`:
    # every splitting it accepts comes back from its text form, the same
    # edge labels under the same alphabet, and every one it refuses does
    # not: its text is refused, or reads back under another alphabet order
    lts, sp = drawn
    try:
        apply_splitting(lts, sp)
    except ValueError:
        try:
            back = parse_splitting(lts, serialize_splitting(lts, sp))
        except FormatError:
            return
        assert back.edge_labels == sp.edge_labels and back.alphabet != sp.alphabet
        assert sorted(back.alphabet) == sorted(sp.alphabet)
        return
    assert validate_splitting(lts, sp) == []
    assert parse_splitting(lts, serialize_splitting(lts, sp)) == sp


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
def test_lts_round_trip(seed):
    lts = random_lts(random.Random(seed))
    assert parse_lts(format_lts(lts)) == lts


@st.composite
def loose_lts(draw):
    """The initial state and edges of an LTS over a few names, valid or not:
    repeats, self-loops and edges the initial state does not reach allowed."""
    states = st.sampled_from(["s0", "s1", "s2", "s3"])
    labels = st.sampled_from(["a", "b", "c"])
    edges = draw(st.lists(st.builds(Edge, states, labels, states), max_size=8))
    return draw(states), tuple(edges)


def lts_text(initial, edges):
    """The LTS text of an initial state and edges, written by hand."""
    return "".join([f"lts\ninitial {initial}\n", *(f"edge {s} {t} {d}\n" for s, t, d in edges)])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(loose_lts())
@example(("s1", (Edge("s0", "a", "s2"), Edge("s2", "b", "s1"))))  # initial seen last
@example(("s0", (Edge("s0", "a", "s0"), Edge("s0", "b", "s1"))))  # a self-loop
@example(("s0", ()))  # no edges
def test_parse_lts_builds_like_from_edges(drawn):
    initial, edges = drawn
    text = lts_text(initial, edges)
    parsed = parse_lts(text)
    assert parsed == Lts.from_edges(initial, edges)
    ends = [s for e in edges for s in (e.source, e.target)]
    assert parsed.states == tuple(dict.fromkeys([initial, *ends]))
    assert parsed.labels == tuple(dict.fromkeys(e.label for e in edges))
    assert format_lts(parsed) == text
    assert parsed.edges == edges and all(type(e) is Edge for e in parsed.edges)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(loose_lts())
@example(("s0", (Edge("s1", "a", "s0"), Edge("s2", "b", "s1"))))
def test_from_edges_fills_the_columns_its_names_give(drawn):
    # from_edges fills the columns in its pass, and an Lts built directly
    # from the same names, in any declared order, computes the ids its
    # names give
    initial, edges = drawn

    def ids(states, labels):
        return (
            [states.index(e.source) for e in edges],
            [labels.index(e.label) for e in edges],
            [states.index(e.target) for e in edges],
        )

    built = Lts.from_edges(initial, edges)
    assert "columns" in vars(built)
    assert built.columns == ids(built.states, built.labels)
    for states, labels in ((built.states, built.labels), (built.states[::-1], built.labels[::-1])):
        assert lts_from_names(states, labels, edges, initial).columns == ids(states, labels)
    # and every edge holds the very strings its columns index
    for e, s, t, d in zip(built.edges, *built.columns):
        assert built.states[s] is e.source and built.labels[t] is e.label and built.states[d] is e.target


@st.composite
def sparse_nets(draw):
    """A net built from drawn arc maps keyed (place, transition), returned
    with the maps: (net, consume, produce)."""
    places = [f"p{i}" for i in range(draw(st.integers(0, 4)))]
    transitions = [f"t{i}" for i in range(draw(st.integers(0, 4)))]
    pairs = [(p, t) for p in places for t in transitions]
    weights = st.integers(1, 5)
    consume = draw(st.dictionaries(st.sampled_from(pairs), weights)) if pairs else {}
    produce = draw(st.dictionaries(st.sampled_from(pairs), weights)) if pairs else {}
    marking = tuple(draw(st.integers(0, 9)) for _ in places)
    pre = {t: tuple(consume.get((p, t), 0) for p in places) for t in transitions}
    post = {t: tuple(produce.get((p, t), 0) for p in places) for t in transitions}
    return PetriNet(tuple(places), tuple(transitions), pre, post, marking), consume, produce


def nets():
    return sparse_nets().map(itemgetter(0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(nets())
def test_net_round_trip(net):
    assert parse_net(format_net(net)) == net


NO_PLACES = PetriNet((), ("t0",), {"t0": ()}, {"t0": ()}, ())
# t1 has no arcs at all
IDLE_T1 = PetriNet(
    ("p0", "p1"), ("t0", "t1"), {"t0": (0, 3), "t1": (0, 0)}, {"t0": (1, 0), "t1": (0, 0)}, (0, 2)
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(sparse_nets())
@example((NO_PLACES, {}, {}))
@example((IDLE_T1, {("p1", "t0"): 3}, {("p0", "t0"): 1}))
def test_token_game_equals_per_place_oracle(drawn):
    # at the initial marking, each transition against the sparse arc maps
    # read one place at a time
    net, consume, produce = drawn
    marking = net.initial_marking
    for t in net.transitions:
        need = [consume.get((p, t), 0) for p in net.places]
        short = [p for p, have, w in zip(net.places, marking, need) if have < w]
        assert enabled(net, marking, t) == (not short)
        if short:
            with pytest.raises(NotEnabled) as err:
                fire(net, marking, t)
            assert err.value.place == short[0]
            assert str(err.value) == f"transition {t} not enabled: place {short[0]} short of tokens"
        else:
            after = [m - w + produce.get((p, t), 0) for p, m, w in zip(net.places, marking, need)]
            assert fire(net, marking, t) == tuple(after)
    with pytest.raises(ValueError, match="unknown transition: zz"):
        fire(net, marking, "zz")


@st.composite
def game_nets(draw):
    """A drawn net in which some transitions become self-loops: post equal
    to pre, so they test their input places and change nothing."""
    net = draw(nets())
    loops = draw(st.sets(st.sampled_from(net.transitions))) if net.transitions else set()
    return replace(net, post={t: net.pre[t] if t in loops else w for t, w in net.post.items()})


# t0 takes two tokens from p0 and needs p1 without using it up; t1 has no
# input arcs and puts a token on p0, so the net is unbounded
SIDE_CONDITION = PetriNet(
    ("p0", "p1"), ("t0", "t1"), {"t0": (2, 1), "t1": (0, 0)}, {"t0": (0, 1), "t1": (1, 0)}, (3, 1)
)
RG_CAP = 40


@st.composite
def few_token_nets(draw):
    """Up to three places holding 0 to 3 tokens each, weighted arcs, and
    transitions that may take from no place at all: small graphs, so the
    bounds below reach one past the whole state count."""
    places = tuple(f"p{i}" for i in range(draw(st.integers(0, 3))))
    transitions = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    weights = st.lists(st.integers(0, 2), min_size=len(places), max_size=len(places))
    pre = {t: tuple(draw(weights)) for t in transitions}
    post = {t: tuple(draw(weights)) for t in transitions}
    marking = tuple(draw(st.integers(0, 3)) for _ in places)
    return PetriNet(places, transitions, pre, post, marking)


@st.composite
def ring_and_chain_nets(draw):
    """Two to four places in a ring or a chain, transition t_i moving a token
    from place i to the next, up to three extra arcs of weight 1 or 2, each
    a side condition (as much in as out) or a heavier take, and the tokens
    t0 takes plus up to three more anywhere (four on fewer places): graphs
    of a few to a few dozen markings, where `game_nets` and
    `few_token_nets` mostly draw a net that cannot fire."""
    count = draw(st.integers(2, 4))
    places = tuple(f"p{i}" for i in range(count))
    transitions = tuple(f"t{i}" for i in range(count if draw(st.booleans()) else count - 1))
    pre = {t: [0] * count for t in transitions}
    post = {t: [0] * count for t in transitions}
    for i, t in enumerate(transitions):
        pre[t][i] += 1
        post[t][(i + 1) % count] += 1
    for _ in range(draw(st.integers(0, 3))):
        t, p, w = draw(st.sampled_from(transitions)), draw(st.integers(0, count - 1)), draw(st.integers(1, 2))
        pre[t][p] += w
        post[t][p] += w if draw(st.booleans()) else 0  # a side condition, or a heavier take
    marking = list(pre["t0"])  # t0 can fire
    for _ in range(draw(st.integers(0, 3 if count == 4 else 4))):
        marking[draw(st.integers(0, count - 1))] += 1
    return PetriNet(
        places,
        transitions,
        {t: tuple(w) for t, w in pre.items()},
        {t: tuple(w) for t, w in post.items()},
        tuple(marking),
    )


def graph_nets():
    """The nets the token-game tests draw: `game_nets` and `few_token_nets`,
    most of which cannot fire, and three times as often
    `ring_and_chain_nets`, so that most graphs have 2 to RG_CAP states."""
    return st.one_of(*(ring_and_chain_nets() for _ in range(3)), game_nets(), few_token_nets())


def test_graph_nets_mostly_draw_two_to_forty_states():
    # most of 300 derandomized draws have a graph of 2 to 40 states, where
    # draws of `game_nets` and `few_token_nets` alone mostly have one state
    sizes = []

    @settings(derandomize=True, max_examples=300, deadline=None, database=None, phases=[Phase.generate])
    @given(graph_nets())
    def draw(net):
        full = reachability_graph_oracle(net, RG_CAP)
        sizes.append(RG_CAP + 1 if full is None else len(full.states))

    draw()
    assert len(sizes) == 300
    assert sum(2 <= n <= RG_CAP for n in sizes) > 150  # 182 with hypothesis 6.155


def assert_same_graph(got, want):
    # the same fields in the same order, or None from both
    if want is None:
        assert got is None
    else:
        assert isinstance(got, Lts)
        assert got.states == want.states
        assert got.labels == want.labels
        assert got.edges == want.edges
        assert got.initial == want.initial
        assert all(type(e) is Edge for e in got.edges)
        assert format_lts(got) == format_lts(want)


@settings(derandomize=True, max_examples=250, deadline=None)
@given(graph_nets())
@example(NO_PLACES)
@example(IDLE_T1)
@example(SIDE_CONDITION)
@example(PetriNet(("p",), ("t",), {"t": (3,)}, {"t": (3,)}, (5,)))
def test_reachability_graph_equals_oracle(net):
    # at every bound up to one past the state count (up to RG_CAP when the
    # graph is larger)
    full = reachability_graph_oracle(net, RG_CAP)
    top = RG_CAP if full is None else len(full.states) + 1
    for bound in range(1, top + 1):
        assert_same_graph(reachability_graph(net, bound), reachability_graph_oracle(net, bound))


# 2^k - 1, 2^k and 2^k + 1 where the fields of a small bound end (k = 14 to
# 17) and where machine words do (31 to 33, 63 to 65)
NEAR_POWERS = [2**k + d for k in (14, 15, 16, 17, 31, 32, 33, 63, 64, 65) for d in (-1, 0, 1)]


@st.composite
def wide_nets(draw):
    """Up to three places and transitions whose counts and arc weights are
    0, 1 or one of up to three values next to a power of two, shared by the
    whole net so that weights often meet counts exactly: few states, each
    count near the top of its field."""
    pool = draw(st.lists(st.sampled_from(NEAR_POWERS), min_size=1, max_size=3))
    places = tuple(f"p{i}" for i in range(draw(st.integers(0, 3))))
    transitions = tuple(f"t{i}" for i in range(draw(st.integers(1, 3))))
    values = st.lists(st.sampled_from([0, 1, *pool]), min_size=len(places), max_size=len(places))
    pre = {t: tuple(draw(values)) for t in transitions}
    post = {t: tuple(draw(values)) for t in transitions}
    return PetriNet(places, transitions, pre, post, tuple(draw(values)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(wide_nets())
# t takes the largest count there is
@example(PetriNet(("p",), ("t",), {"t": (2**16,)}, {"t": (0,)}, (2**16,)))
# t takes more than any count, and is never enabled
@example(PetriNet(("p",), ("t",), {"t": (2**33,)}, {"t": (0,)}, (5,)))
@example(NO_PLACES)
# t needs 2^40 tokens on p and leaves them there; u moves half of them on
@example(
    PetriNet(
        ("p", "q"),
        ("t", "u"),
        {"t": (2**40, 0), "u": (2**39, 0)},
        {"t": (2**40, 0), "u": (0, 2**39)},
        (2**40, 0),
    )
)
def test_reachability_graph_with_wide_counts_equals_oracle(net):
    # at every bound up to one past the state count, and at bounds that
    # widen every field far past the counts; up to RG_CAP when the graph is
    # larger
    full = reachability_graph_oracle(net, RG_CAP)
    if full is None:
        bounds = range(1, RG_CAP + 1)
    else:
        bounds = [*range(1, len(full.states) + 2), 10**6, 10**30]
    for bound in bounds:
        assert_same_graph(reachability_graph(net, bound), reachability_graph_oracle(net, bound))


@st.composite
def embeddings(draw):
    """A random embeddable LTS with its synthesized net, or with a copy of
    that net in which one arc is dropped, one to three weights are changed,
    tokens are moved in or out of the initial marking, or some places
    become side conditions of one transition: the same weight added to its
    input and its output arc there. Several violations can then hold at
    once, and the reason must name the first."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lts = random_lts(rng, max_states=6)
    while not is_embeddable(lts).embeddable:
        lts = random_lts(rng, max_states=6)
    net = synthesize(lts)
    kind = draw(st.sampled_from(["none", "drop", "reweigh", "side-condition", "initial"]))
    places = range(len(net.places))
    if kind == "initial":
        shift = [draw(st.integers(-2, 2)) for _ in places]
        marking = tuple(max(m + d, 0) for m, d in zip(net.initial_marking, shift))
        return lts, replace(net, initial_marking=marking)
    arcs = [(rows, t, i) for rows in ("pre", "post") for t in net.transitions for i in places]
    if kind == "drop":
        arcs = [(rows, t, i) for rows, t, i in arcs if getattr(net, rows)[t][i]]
    if kind == "none" or not arcs:
        return lts, net
    pre, post = dict(net.pre), dict(net.post)
    if kind == "side-condition":
        t = draw(st.sampled_from(net.transitions))
        chosen = draw(st.sets(st.sampled_from(places), min_size=1))
        extra = {i: draw(st.integers(1, 3)) for i in chosen}
        pre[t] = tuple(w + extra.get(i, 0) for i, w in enumerate(pre[t]))
        post[t] = tuple(w + extra.get(i, 0) for i, w in enumerate(post[t]))
    else:
        count = 1 if kind == "drop" else draw(st.integers(1, 3))
        for rows, t, i in draw(st.lists(st.sampled_from(arcs), min_size=count, max_size=count)):
            weights = pre if rows == "pre" else post
            row = list(weights[t])
            row[i] = 0 if kind == "drop" else draw(st.integers(0, 4).filter(lambda w: w != row[i]))
            weights[t] = tuple(row)
    return lts, replace(net, pre=pre, post=post)


# two places short at once: the reason names the first
TWO_SHORT = (
    Lts.from_edges("s0", [("s0", "a", "s1")]),
    PetriNet(("p1", "p2"), ("a",), {"a": (1, 1)}, {"a": (2, 2)}, (0, 0)),
)
# s2 is reached before s1 but declared after it; both go negative, and
# the reason names the first declared
NEGATIVE_TWICE = (
    lts_from_names(
        ("s0", "s1", "s2"),
        ("a", "b"),
        (Edge("s0", "b", "s2"), Edge("s2", "a", "s1"), Edge("s0", "a", "s1")),
        "s0",
    ),
    PetriNet(("p",), ("a", "b"), {"a": (1,), "b": (1,)}, {"a": (0,), "b": (0,)}, (0,)),
)
# no places: every state has the empty marking, and the first collision is named
ALL_EQUAL = (
    Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s2")]),
    PetriNet((), ("a",), {"a": ()}, {"a": ()}, ()),
)
# markings 0 and 1, both edges enabled, but the second fires to 2, not 0
EDGE_MISMATCH = (
    Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s0")]),
    PetriNet(("p",), ("a",), {"a": (0,)}, {"a": (1,)}, (0,)),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(embeddings())
@example(TWO_SHORT)
@example(NEGATIVE_TWICE)
@example(ALL_EQUAL)
@example(EDGE_MISMATCH)
def test_verify_embedding_equals_oracle(drawn):
    lts, net = drawn
    assert verify_embedding(lts, net) == verify_embedding_oracle(lts, net)
    # and its parsed twin, which verify replays from the id columns alone
    twin = parse_lts(format_lts(lts))
    assert verify_embedding(twin, net) == verify_embedding_oracle(twin, net)


def assert_verify_agrees(lts, net):
    """`verify_embedding` gives the verdict and reason, byte for byte, of the
    tuple replay it had before packing markings and of the independent
    oracle; also on the parsed twin, which it replays from the columns."""
    twin = parse_lts(format_lts(lts))
    assert verify_embedding(twin, net) == tuple_verify_embedding(twin, net) == verify_embedding_oracle(twin, net)
    got = verify_embedding(lts, net)
    assert got == tuple_verify_embedding(lts, net) == verify_embedding_oracle(lts, net)
    return got


@st.composite
def scaled_rings(draw):
    """A ring of two to four places whose transition i moves a token from
    place i to the next, one to four tokens on the first place, and every
    count and weight scaled by 1 or by a factor past 2^64."""
    size, tokens = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    scale = draw(st.sampled_from([1, 2**64 + 1, 2**65]))
    places, transitions = tuple(f"p{i}" for i in range(size)), tuple(f"t{i}" for i in range(size))
    pre = {t: tuple(scale * (j == i) for j in range(size)) for i, t in enumerate(transitions)}
    post = {t: tuple(scale * (j == (i + 1) % size) for j in range(size)) for i, t in enumerate(transitions)}
    return PetriNet(places, transitions, pre, post, tuple(tokens * scale * (j == 0) for j in range(size)))


@st.composite
def tampered_graphs(draw):
    """A net's full reachability graph with the net, or either tampered: the
    initial marking or some arc weights of the net changed, a chord of the
    graph sent to another state, or an edge of it relabelled. Counts and
    weights reach past 2^64 in the scaled rings and the wide nets."""
    net = draw(st.one_of(scaled_rings(), game_nets(), few_token_nets(), wide_nets()))
    lts = reachability_graph(net, RG_CAP)
    assume(lts is not None)
    kind = draw(st.sampled_from(["none", "initial", "reweigh", "retarget", "relabel"]))
    src, lab, dst = (list(column) for column in lts.columns)
    places = range(len(net.places))
    if kind == "initial" and net.places:
        marking = tuple(max(0, m + draw(st.sampled_from([-2, -1, 1, 2**64]))) for m in net.initial_marking)
        net = replace(net, initial_marking=marking)
    elif kind == "reweigh" and net.places and src:
        rows = draw(st.sampled_from(["pre", "post"]))
        t, i = net.transitions[draw(st.sampled_from(lab))], draw(st.sampled_from(places))  # a label in use
        weights = dict(getattr(net, rows))
        row = list(weights[t])
        row[i] = draw(st.sampled_from([0, 1, 2, row[i] + 1, 2**65]))
        weights[t] = tuple(row)
        net = replace(net, **{rows: weights})
    elif kind == "retarget":
        tree = set(spanning_tree(lts).values())
        chords = [i for i in range(len(src)) if i not in tree]
        if chords and len(lts.states) > 1:
            i = draw(st.sampled_from(chords))
            dst[i] = (dst[i] + draw(st.integers(1, len(lts.states) - 1))) % len(lts.states)
    elif kind == "relabel" and src and len(lts.labels) > 1:
        i = draw(st.integers(0, len(src) - 1))
        lab[i] = (lab[i] + draw(st.integers(1, len(lts.labels) - 1))) % len(lts.labels)
    return Lts(lts.states, lts.labels, (src, lab, dst), lts.initial), net


def big_case(edges, places, pre, post, initial):
    """An LTS on one label `a` and a net whose counts pass 2^64."""
    return Lts.from_edges("s0", edges), PetriNet(places, ("a",), {"a": pre}, {"a": post}, initial)


BIG = 2**64
# one case per reason, and a graph that embeds, all with counts past 2^64
BIG_CASES = {
    "negative-marking s1": big_case([("s0", "a", "s1")], ("p",), (BIG + 1,), (0,), (BIG,)),
    "not-injective s0 s1": big_case([("s0", "a", "s1")], ("p",), (2**70,), (2**70,), (2**70,)),
    "not-enabled s0 a p": big_case([("s0", "a", "s1")], ("p", "q"), (BIG + 1, 0), (BIG + 1, 1), (BIG, 0)),
    "edge-mismatch s1 a s0": big_case([("s0", "a", "s1"), ("s1", "a", "s0")], ("p",), (0,), (BIG,), (0,)),
    None: big_case([("s0", "a", "s1"), ("s1", "a", "s2")], ("p",), (BIG,), (0,), (2 * BIG,)),
}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tampered_graphs())
@example(TWO_SHORT)
@example(NEGATIVE_TWICE)
@example(ALL_EQUAL)
@example(EDGE_MISMATCH)
@example((reachability_graph(NO_PLACES), NO_PLACES))
def test_verify_embedding_of_graphs_equals_oracles(drawn):
    assert_verify_agrees(*drawn)


@pytest.mark.parametrize("reason", list(BIG_CASES), ids=str)
def test_verify_embedding_reasons_past_two_to_the_64(reason):
    assert assert_verify_agrees(*BIG_CASES[reason]).reason == reason


# --- packed vectors -------------------------------------------------------

# entries next to powers of two where fields and machine words end, both signs
ENTRIES = sorted({x * sign for x in [0, 1, 2, 3, *NEAR_POWERS] for sign in (1, -1)})


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 4), st.sampled_from([0, 1, 2, 3, *NEAR_POWERS]), st.data())
def test_packing_holds_every_entry_within_its_fields(fields, bound, data):
    # the bound itself and the top of a field, half its range less one, fit
    packing = Packing(fields, bound)
    half = 1 << packing.width - 1
    assert bound < half <= max(1, 2 * bound)
    entries = st.sampled_from([x for x in [*ENTRIES, bound, -bound, half - 1, -half] if -half <= x < half])
    a, b = (tuple(data.draw(entries) for _ in range(fields)) for _ in range(2))
    # the last field, at the top of the int, holds any value
    c = (*a[:-1], data.draw(st.sampled_from([*ENTRIES, 2**100, -(2**100)]))) if fields else a
    packed_a, packed_b, packed_c = packing.pack([a, b, c])
    assert packing.unpack([packed_a, packed_b, packed_c]) == [a, b, c]
    assert (packed_a == packed_b) == (a == b) and (packed_a == packed_c) == (a == c)
    # a field's top bit, after adding `top`, is set exactly where it is >= 0
    biased = packed_a + packing.top
    assert [biased >> k + packing.width - 1 & 1 for k in packing.shifts] == [int(x >= 0) for x in a]


@st.composite
def walk_cases(draw):
    """An LTS, maybe of one state or without labels, a step vector per label
    and a start, entries from ENTRIES."""
    lts = draw(
        st.one_of(
            st.just(Lts.from_edges("s0", [])),
            st.just(Lts.from_edges("s0", [("s0", "a", "s0")])),
            st.integers(0, 2**32).map(lambda seed: random_lts(random.Random(seed), max_states=7, extra_edges=6)),
        )
    )
    fields = draw(st.integers(0, 3))
    vectors = st.tuples(*[st.sampled_from(ENTRIES)] * fields)
    return lts, [draw(vectors) for _ in lts.labels], draw(vectors)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(walk_cases())
def test_packed_walk_sums_like_the_tuple_walk(drawn):
    lts, steps, start = drawn
    packing = Packing.summing(steps, len(lts.states))
    sums = walk(lts, packing.pack(steps))
    want = tuple_walk(lts, steps)
    assert packing.unpack(sums) == want
    assert len(set(sums)) == len(set(want))  # equal ints iff equal vectors
    # from a start, the bound grows by its largest entry
    bound = max(map(abs, chain(*steps)), default=0) * len(lts.states) + max(map(abs, start), default=0)
    packing = Packing(len(start), bound)
    *packed, packed_start = packing.pack([*steps, start])
    sums = walk(lts, packed, start=packed_start)
    assert packing.unpack(sums) == tuple_walk(lts, steps, start=start)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_cycle_base_equals_the_tuple_routine(seed):
    rng = random.Random(seed)
    lts = random_lts(rng, max_states=rng.choice([1, 4, 10]), max_labels=rng.randint(1, 5), extra_edges=12)
    assert cycle_base(lts) == tuple_cycle_base(lts)


@pytest.mark.parametrize("places, tokens", [(4, 8), (6, 7)])
def test_cycle_base_of_rings_equals_the_tuple_routine(places, tokens):
    for lts in (reachability_graph(ring_net(places, tokens)), labelled_ring(places, tokens)):
        assert cycle_base(lts) == tuple_cycle_base(lts)


@st.composite
def place_named_labels(draw):
    """A random embeddable LTS whose labels are renamed from a pool that
    mixes the names synthesis gives places with ordinary ones."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    lts = random_lts(rng, max_states=6)
    while not is_embeddable(lts).embeddable:
        lts = random_lts(rng, max_states=6)
    names = draw(st.permutations(["p1", "p2", "p3", "p4", "a", "b", "c", "d"]))
    return Lts(lts.states, tuple(names[: len(lts.labels)]), lts.columns, lts.initial)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(place_named_labels())
@example(Lts.from_edges("s0", [("s0", "p1", "s1")]))
def test_synthesized_net_reads_back(lts):
    net = synthesize(lts)
    back = parse_net(format_net(net))
    assert back == net
    assert not set(net.places) & set(net.transitions)
    assert verify_embedding(lts, back).embeds


def synthesized_or_witness(synth, lts):
    try:
        return synth(lts)
    except NotEmbeddable as exc:
        return exc.witness


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(0, 2**32).map(lambda seed: random_lts(random.Random(seed), max_states=8, extra_edges=6)),
        place_named_labels(),
    )
)
@example(Lts.from_edges("s0", []))
@example(Lts.from_edges("s0", [("s0", "a", "s0")]))
def test_synthesize_equals_the_regions_oracle(lts):
    # built straight from the effect basis, the net is the one that the
    # separating regions give, place by place, or both name one witness
    assert synthesized_or_witness(synthesize, lts) == synthesized_or_witness(regions_synthesize_oracle, lts)


@pytest.mark.parametrize(
    "name", ["fig1-left.lts", "fig1-right.lts", "fig2-left.lts", "fig2-middle.lts", "fig2.net", "ring3.net", "weighted.net"]
)
def test_synthesize_on_fixtures_equals_the_regions_oracle(name):
    lts = load_lts(name) if name.endswith(".lts") else reachability_graph(load_net(name))
    assert synthesized_or_witness(synthesize, lts) == synthesized_or_witness(regions_synthesize_oracle, lts)


# --- an Lts built from its id columns --------------------------------------


@st.composite
def column_builds(draw):
    """A way to build an `Lts` from its id columns, as a function that makes
    a fresh one at each call, with the edges it must hold: `Lts.from_edges`
    or `parse_lts` on a drawn LTS, or a full reachability graph."""
    kind = draw(st.sampled_from(["from_edges", "parse_lts", "reachability_graph"]))
    if kind == "reachability_graph":
        net = draw(graph_nets())
        want = reachability_graph_oracle(net, RG_CAP)
        assume(want is not None)
        return (lambda: reachability_graph(net, RG_CAP)), want.edges
    initial, edges = draw(loose_lts())
    if kind == "from_edges":
        return (lambda: Lts.from_edges(initial, edges)), edges
    text = lts_text(initial, edges)
    return (lambda: parse_lts(text)), edges


def unpickled(lts):
    back = pickle.loads(pickle.dumps(lts))
    assert all(type(e) is Edge for e in back.edges)
    return back


def refused(build):
    """Whether `build()` raises ValueError."""
    try:
        build()
    except ValueError:
        return True
    return False


# each read of an Lts, as a test that it gives what it gives on the Lts
# built by name; `replace` builds through the id constructor, so it refuses
# an undeclared initial state on both alike
READS = {
    "==": lambda lts, eager: lts == eager and eager == lts,
    "hash": lambda lts, eager: hash(lts) == hash(eager),
    "repr": lambda lts, eager: repr(lts) == repr(eager),
    "pickle": lambda lts, eager: unpickled(lts) == eager,
    "replace": lambda lts, eager: (
        replace(lts) == eager
        and refused(lambda: replace(lts, initial="x"))
        and refused(lambda: replace(eager, initial="x"))
    ),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(column_builds())
def test_lts_from_columns_is_the_value_built_directly(drawn):
    # under every read, before and after its edges are first read; no read
    # but `edges` makes them
    build, edges = drawn
    first = build()
    eager = lts_from_names(first.states, first.labels, edges, first.initial)
    for name, same in READS.items():
        lazy = build()
        assert "edges" not in vars(lazy)
        assert same(lazy, eager), name
        assert "edges" not in vars(lazy) and "edges" not in vars(eager), name
        lazy = build()
        assert lazy.edges == edges and "edges" in vars(lazy)
        assert same(lazy, eager), name


# --- validation -----------------------------------------------------------


@st.composite
def damaged_lts(draw):
    """The four parts (states, labels, edges, initial) of a random valid LTS
    after up to five edits: an edge end or label replaced by an undeclared
    one, an edge repeating the (source, label) pair of another, an edge, a
    state or a label declaration dropped, or a state or label declared
    twice."""
    lts = random_lts(random.Random(draw(st.integers(0, 2**32))))
    states, labels, edges = list(lts.states), list(lts.labels), list(lts.edges)
    # half the draws only edit edges between declared names, so they build
    # and reach `validate`
    kinds = ["repeat", "drop-edge"]
    if draw(st.booleans()):
        kinds += ["source", "label", "target", "drop-state", "drop-label", "redeclare", "redeclare-label"]
    for n in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(kinds))
        if kind == "drop-state" and states:
            del states[draw(st.integers(0, len(states) - 1))]
        elif kind == "drop-label" and labels:
            del labels[draw(st.integers(0, len(labels) - 1))]
        elif kind == "redeclare" and states:
            states.insert(draw(st.integers(0, len(states))), draw(st.sampled_from(states)))
        elif kind == "redeclare-label" and labels:
            labels.insert(draw(st.integers(0, len(labels))), draw(st.sampled_from(labels)))
        elif kind == "drop-edge" and edges:
            del edges[draw(st.integers(0, len(edges) - 1))]
        elif kind in ("source", "label", "target", "repeat") and edges:
            i = draw(st.integers(0, len(edges) - 1))
            source, label, target = edges[i]
            if kind == "source":
                edges[i] = Edge(f"ghost{n}", label, target)
            elif kind == "label":
                edges[i] = Edge(source, f"zz{n}", target)
            elif kind == "target":
                edges[i] = Edge(source, label, f"ghost{n}")
            else:
                again = Edge(source, label, draw(st.sampled_from(lts.states)))
                edges.insert(draw(st.integers(0, len(edges))), again)
    return tuple(states), tuple(labels), tuple(edges), lts.initial


@settings(derandomize=True, max_examples=300, deadline=None)
@given(damaged_lts())
def test_validate_equals_oracle(parts):
    # a dangling reference is refused by the build, with the oracle's first
    # message; any other value builds, and `validate` lists the rest
    problems = validate_oracle(parts)
    if problems and problems[0].startswith("dangling reference: "):
        with pytest.raises(ValueError) as refused_with:
            lts_from_names(*parts)
        assert str(refused_with.value) == problems[0]
    else:
        assert validate(lts_from_names(*parts)) == problems


# --- command line ---------------------------------------------------------

LTS_FILES = [str(FIXTURES / name) for name in ("fig1-right.lts", "fig2-middle.lts")]
NET_FILES = [str(FIXTURES / name) for name in ("fig2.net", "ring3.net")]
files = st.sampled_from([*LTS_FILES, *NET_FILES, "missing.lts", "out.file"])
small_ints = st.integers(-2, 20).map(str)
values = st.lists(st.integers(-1, 9), min_size=1, max_size=4).map(lambda c: ",".join(map(str, c)))
noise = st.one_of(
    files,
    small_ints,
    values,
    st.sampled_from(["--max-labels", "--optimize", "--node-budget", "--bound", "-o", "--help"]),
    st.text(max_size=6),
)


@st.composite
def argvs(draw):
    """A well-formed call of a random verb, or one with a token replaced,
    dropped or added."""
    lts, net = st.sampled_from(LTS_FILES), st.sampled_from(NET_FILES)
    verb = draw(st.sampled_from(["check", "synth", "rg", "verify", "split", "reduce", "oracle"]))
    argv = {
        "check": lambda: [draw(lts)],
        "synth": lambda: [draw(lts), "-o", "out.net"],
        "rg": lambda: [draw(net), "--bound", draw(small_ints), "-o", "out.lts"],
        "verify": lambda: [draw(lts), draw(net)],
        "split": lambda: [
            draw(lts),
            *draw(st.sampled_from([["--optimize"], ["--max-labels", draw(small_ints)]])),
            "--node-budget",
            draw(small_ints),
        ],
        "reduce": lambda: ["--b", draw(small_ints), "--c", draw(values), "-o", "out.lts"],
        "oracle": lambda: ["--b", draw(small_ints), "--c", draw(values)],
    }[verb]()
    argv = [verb, *argv]
    edit = draw(st.sampled_from(["none", "replace", "drop", "add"]))
    if edit != "none":
        k = draw(st.integers(0, len(argv) - (edit != "add")))
        if edit == "replace":
            argv[k] = draw(noise)
        elif edit == "drop":
            del argv[k]
        else:
            argv.insert(k, draw(noise))
    return argv


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(out):
        code = main(argv)
    return code, out.getvalue()


@settings(derandomize=True, max_examples=300, deadline=None)
@given(argvs())
def test_cli_fuzz_never_crashes(tmp_path_factory, argv):
    # run inside a scratch directory: `-o` may take any token as its path
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli"))
    try:
        code, text = run(argv)
        after = run(["oracle", "--b", "2", "--c", "2"])
    finally:
        os.chdir(home)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in text, argv
    # a failed parse leaves the cached parser usable
    assert after == (0, "1\n")


# every verb that reads a file, once per file it reads: the format of that
# file, and a well-formed call with its path in the first argument
FILE_READERS = {
    "check": ("lts", lambda f: ["check", f]),
    "synth": ("lts", lambda f: ["synth", f, "-o", "out.net"]),
    "rg": ("net", lambda f: ["rg", f, "--bound", "50", "-o", "out.lts"]),
    "verify-lts": ("lts", lambda f: ["verify", f, NET_FILES[0]]),
    "verify-net": ("net", lambda f: ["verify", LTS_FILES[1], f]),
    "split-decide": ("lts", lambda f: ["split", f, "--max-labels", "3", "--node-budget", "50"]),
    "split-optimize": ("lts", lambda f: ["split", f, "--optimize", "--node-budget", "50"]),
}
states = st.sampled_from(["s0", "s1", "s2"])
# `{0}` and `a}b` carry braces, which `rg` must write as they are into state names
ids = st.sampled_from(["a", "b", "c", "p", "{0}", "a}b"])
counts = st.sampled_from(["0", "1", "2", "3"])


@st.composite
def declared_nets(draw) -> str:
    """A net whose every line reads: distinct ids split into places and
    transitions, and arcs of positive weight between them, each pair and
    direction once. Random lines alone seldom parse, so few reach `rg`."""
    names = draw(st.lists(ids, unique=True, min_size=1, max_size=4))
    k = draw(st.integers(0, len(names)))
    places, transitions = names[:k], names[k:]
    lines = [f"place {p} {draw(counts)}" for p in places] + [f"trans {t}" for t in transitions]
    if places and transitions:
        arcs = st.tuples(st.sampled_from(places), st.sampled_from(transitions), st.booleans())
        for p, t, into in draw(st.lists(arcs, unique=True, max_size=4)):
            ends = (t, p) if into else (p, t)
            lines.append(f"arc {ends[0]} {ends[1]} {draw(st.sampled_from(['1', '2', '3']))}")
    return "\n".join(["net", *lines])


# a format's header and its own lines, so that some files parse and reach
# the analysis, or else text of the formats' words
documents = {
    "lts": st.one_of(
        texts,
        st.lists(st.builds("edge {} {} {}".format, states, ids, states), max_size=8).map(
            lambda ls: "\n".join(["lts", "initial s0", *ls])
        ),
    ),
    "net": st.one_of(
        texts,
        st.lists(
            st.one_of(
                st.builds("place {} {}".format, ids, counts),
                st.builds("trans {}".format, ids),
                st.builds("arc {} {} {}".format, ids, ids, counts),
            ),
            max_size=8,
        ).map(lambda ls: "\n".join(["net", *ls])),
        declared_nets(),
    ),
}


def contents(document: st.SearchStrategy[str]) -> st.SearchStrategy[bytes]:
    """Raw bytes, and documents as UTF-8 with or without raw bytes after them."""
    return st.one_of(
        st.binary(max_size=64),
        document.map(str.encode),
        st.tuples(document, st.binary(min_size=1, max_size=4)).map(
            lambda db: db[0].encode() + db[1]
        ),
    )


@pytest.mark.parametrize("reader", sorted(FILE_READERS))
@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_cli_file_fuzz_never_crashes(tmp_path_factory, reader, data):
    kind, argv = FILE_READERS[reader]
    raw = data.draw(contents(documents[kind]))
    home = os.getcwd()
    os.chdir(tmp_path_factory.mktemp("cli"))
    try:
        with open("input.file", "wb") as handle:
            handle.write(raw)
        code, text = run(argv("input.file"))
    finally:
        os.chdir(home)
    assert code in (0, 1, 2, 3), raw
    assert "Traceback" not in text, raw
