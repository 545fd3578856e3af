import random
import time

import pytest

from helpers import (
    BRACE_NET,
    BRACE_RG,
    INT_LIMITED,
    LONG_TOKEN,
    PLACELESS_NET,
    PLACELESS_RG,
    load_lts,
    load_net,
    lts_from_names,
    random_lts,
    ring_net,
)
from labelsplit.lts import FormatError, Lts, format_lts, validate
from labelsplit.petri import (
    NotEnabled,
    PetriNet,
    enabled,
    fire,
    format_net,
    parse_net,
    reachability_graph,
    Verification,
    synthesize,
    verify_embedding,
)
from labelsplit.regions import NotEmbeddable, is_embeddable
from oracles import marking_map, state_name, verify_embedding_oracle


def test_parse_fig2_net():
    net = load_net("fig2.net")
    assert net.places == ("p1", "p2", "p3", "p4")
    assert net.transitions == ("a", "b", "c")
    assert net.initial_marking == (5, 1, 0, 0)
    assert net.pre["a"][0] == 2
    assert net.post["c"][0] == 3
    assert net.pre["a"][2] == 0
    assert net.pre["a"] == (2, 1, 0, 0)
    assert net.post["a"] == (0, 0, 1, 0)


def test_net_round_trip():
    net = load_net("fig2.net")
    assert parse_net(format_net(net)) == net


def test_parse_net_errors():
    with pytest.raises(FormatError) as err:
        parse_net("place p 1\n")
    assert err.value.line == 1
    with pytest.raises(FormatError) as err:
        parse_net("net\nplace p one\n")
    assert err.value.line == 2
    with pytest.raises(FormatError):
        parse_net("net\nplace p 1\nplace p 2\n")
    with pytest.raises(FormatError):
        parse_net("net\nplace p 1\ntrans p\n")
    with pytest.raises(FormatError):
        parse_net("net\nplace p 1\ntrans t\narc p t 0\n")
    with pytest.raises(FormatError) as err:
        parse_net("net\nplace p 1\ntrans t\narc p p 1\n")
    assert err.value.line == 4
    for text, line, message in NET_DIAGNOSTICS:
        with pytest.raises(FormatError) as err:
            parse_net(text)
        assert (err.value.line, err.value.message) == (line, message), text[:80]


PT = "net\nplace p 1\ntrans t\n"
ARC_ENDS = "arc must join one declared place and one declared transition"

# (text, line, message) for every diagnostic of `parse_net`
NET_DIAGNOSTICS = [
    ("", 1, "empty input, expected 'net' header"),
    ("# heading\n\n", 1, "empty input, expected 'net' header"),
    ("place p 1\n", 1, "expected 'net' header"),
    ("\n# heading\nnet 2\n", 3, "expected 'net' header"),
    ("net\nplace p\n", 2, "expected 'place <id> <tokens>'"),
    ("net\nplace p 1 2\n", 2, "expected 'place <id> <tokens>'"),
    ("net\ntrans\n", 2, "expected 'trans <id>'"),
    ("net\ntrans t u\n", 2, "expected 'trans <id>'"),
    (PT + "arc p t\n", 4, "expected 'arc <x> <y> <weight>'"),
    (PT + "arc p t 1 2\n", 4, "expected 'arc <x> <y> <weight>'"),
    ("net\nplace p one\n", 2, "token count must be an integer, got 'one'"),
    ("net\nplace p 1.5\n", 2, "token count must be an integer, got '1.5'"),
    ("net\nplace p -1\n", 2, "token count must be nonnegative, got -1"),
    # ASCII digits after an optional minus sign, nothing else `int` takes
    ("net\nplace p \u0663\n", 2, "token count must be an integer, got '\u0663'"),
    ("net\nplace q 1_000\n", 2, "token count must be an integer, got '1_000'"),
    ("net\nplace r +2\n", 2, "token count must be an integer, got '+2'"),
    (PT + "arc p t \uff12\n", 4, "arc weight must be an integer, got '\uff12'"),
    (PT + "arc p t x\n", 4, "arc weight must be an integer, got 'x'"),
    (PT + "arc t p -2\n", 4, "arc weight must be nonnegative, got -2"),
    (PT + "arc p t 0\n", 4, "arc weight must be positive"),
    ("net\nplace p 1\nplace p 2\n", 3, "duplicate id: p"),
    ("net\nplace p 1\ntrans p\n", 3, "duplicate id: p"),
    ("net\ntrans t\nplace t 0\n", 3, "duplicate id: t"),
    ("net\ntrans t\ntrans t\n", 3, "duplicate id: t"),
    (PT + "arc p t 1\narc p t 2\n", 5, "duplicate arc: p t"),
    (PT + "arc t p 1\n\narc t p 1\n", 6, "duplicate arc: t p"),
    (PT + "arc p p 1\n", 4, f"{ARC_ENDS}: p p"),
    (PT + "arc t t 1\n", 4, f"{ARC_ENDS}: t t"),
    (PT + "arc p u 1\n", 4, f"{ARC_ENDS}: p u"),
    ("net\narc p t 1\nplace p 1\ntrans t\n", 2, f"{ARC_ENDS}: p t"),
    ("net\nmarking p 1\n", 2, "unknown directive: marking"),
    # `#` starts a comment, inside a token too
    ("net # v1\nplace p #1\n", 2, "expected 'place <id> <tokens>'"),
    ("net\nplace p#2 1\n", 2, "expected 'place <id> <tokens>'"),
]
if INT_LIMITED:
    NOT_INT = f"must be an integer, got '{LONG_TOKEN}'"
    NET_DIAGNOSTICS += [
        (f"net\nplace p {LONG_TOKEN}\n", 2, f"token count {NOT_INT}"),
        (f"{PT}arc p t {LONG_TOKEN}\n", 4, f"arc weight {NOT_INT}"),
    ]


def test_parse_net_is_linear_in_transitions():
    # each id lookup is O(1), so 4x the transitions take about 4x the time
    # (5x measured); a lookup in a list makes it 14-18x
    def net_text(count):
        lines = ["net", "place p 1"]
        for i in range(count):
            lines += [f"trans t{i}", f"arc p t{i} 1"]
        return "\n".join(lines) + "\n"

    def best_time(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            parse_net(text)
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = net_text(5_000), net_text(20_000)
    assert best_time(large) < 10 * best_time(small)
    net = parse_net(large)
    assert len(net.transitions) == 20_000
    assert net.pre["t19999"] == (1,)


def test_enabled_and_fire_fig2():
    net = load_net("fig2.net")
    m0 = net.initial_marking
    assert enabled(net, m0, "a")
    assert enabled(net, m0, "b")
    assert not enabled(net, m0, "c")
    assert fire(net, m0, "a") == (3, 0, 1, 0)
    assert fire(net, m0, "b") == (4, 1, 0, 1)
    with pytest.raises(NotEnabled) as err:
        fire(net, m0, "c")
    assert err.value.place == "p3"
    with pytest.raises(ValueError, match="unknown transition: zz"):
        enabled(net, m0, "zz")
    with pytest.raises(ValueError, match="unknown transition: zz"):
        fire(net, m0, "zz")


@pytest.mark.parametrize(
    "pre,post",
    [
        ({"t": (0,)}, {"t": (0,), "u": (0,)}),  # pre misses a transition
        ({"t": (0,), "u": (0,), "v": (0,)}, {"t": (0,), "u": (0,)}),  # an extra one
        ({"u": (0,), "t": (0,)}, {"t": (0,), "u": (0,)}),  # not in declared order
        ({"t": (0,), "u": ()}, {"t": (0,), "u": (0,)}),  # a row too short
        ({"t": (0,), "u": (0,)}, {"t": (0, 1), "u": (0,)}),  # a row too long
    ],
)
def test_petri_net_rejects_wrong_arc_shape(pre, post):
    with pytest.raises(ValueError, match="one weight per place"):
        PetriNet(("p",), ("t", "u"), pre, post, (0,))
    with pytest.raises(ValueError, match="one weight per place"):
        PetriNet(("p",), ("t", "u"), post, pre, (0,))


def test_petri_net_rejects_wrong_marking_length():
    with pytest.raises(ValueError, match="initial marking length"):
        PetriNet(("p",), ("t",), {"t": (0,)}, {"t": (0,)}, ())


def test_petri_net_rejects_negative_counts_and_weights():
    # the packed search of `reachability_graph` and the enabling test of
    # `enabled` and `fire` assume no count is negative: a marking of -1 made
    # `rg` report the bound exceeded, and a weight of -1 made `fire` fire a
    # transition `rg` found never enabled
    with pytest.raises(ValueError, match="^place p has a negative token count: -1$"):
        PetriNet(("p", "q"), ("t",), {"t": (1, 0)}, {"t": (0, 1)}, (-1, 0))
    with pytest.raises(ValueError, match="^arc between place p and transition t has a negative weight: -1$"):
        PetriNet(("p",), ("t",), {"t": (-1,)}, {"t": (0,)}, (0,))
    with pytest.raises(ValueError, match="^arc between place q and transition u has a negative weight: -2$"):
        PetriNet(("p", "q"), ("t", "u"), {"t": (1, 0), "u": (0, 0)}, {"t": (0, 1), "u": (0, -2)}, (1, 0))
    # the same nets with those counts at zero build, and agree with the token game
    net = PetriNet(("p", "q"), ("t",), {"t": (1, 0)}, {"t": (0, 1)}, (0, 0))
    assert not enabled(net, (0, 0), "t") and len(reachability_graph(net).states) == 1
    net = PetriNet(("p",), ("t",), {"t": (0,)}, {"t": (0,)}, (0,))
    assert enabled(net, (0,), "t") and reachability_graph(net).columns == ([0], [0], [0])


def test_transition_without_inputs_always_enabled():
    net = PetriNet(("p",), ("t",), {"t": (0,)}, {"t": (1,)}, (0,))
    assert enabled(net, (0,), "t")
    assert fire(net, (0,), "t") == (1,)


def test_marking_name():
    # the names `rg` gives markings, against the rule as the tests spell it
    for text, expected in ((BRACE_NET, BRACE_RG), (PLACELESS_NET, PLACELESS_RG)):
        net = parse_net(text)
        rg = reachability_graph(net)
        assert format_lts(rg) == expected
        assert all(state_name(net, m) == s for s, m in marking_map(rg, net).items())


def test_reachability_graph_fig2():
    net = load_net("fig2.net")
    rg = reachability_graph(net, max_states=100)
    assert isinstance(rg, Lts)
    assert len(rg.states) == 8
    assert len(rg.edges) == 11
    assert rg.labels == ("a", "b", "c")
    assert validate(rg) == []
    assert rg.initial == "p1:5,p2:1,p3:0,p4:0"
    # replay: each RG edge is a legal firing
    back = {state_name(net, m): m for m in _all_markings(net, rg)}
    for e in rg.edges:
        assert fire(net, back[e.source], e.label) == back[e.target]


def _all_markings(net, rg):
    if not net.places:
        return [()]
    out = []
    for s in rg.states:
        parts = s.split(",")
        out.append(tuple(int(p.split(":")[1]) for p in parts))
    return out


def test_reachability_graph_isomorphic_to_fig2_middle():
    # deterministic systems have at most one isomorphism fixing the initial
    # states; chase it by BFS and compare the full edge relations
    net = load_net("fig2.net")
    rg = reachability_graph(net, max_states=100)
    fig = load_lts("fig2-middle.lts")
    out_rg = {(e.source, e.label): e.target for e in rg.edges}
    out_fig = {(e.source, e.label): e.target for e in fig.edges}
    rename = {rg.initial: fig.initial}
    queue = [rg.initial]
    while queue:
        s = queue.pop()
        for t in rg.labels:
            if (s, t) in out_rg:
                assert (rename[s], t) in out_fig
                target = out_rg[(s, t)]
                image = out_fig[(rename[s], t)]
                if target in rename:
                    assert rename[target] == image
                else:
                    rename[target] = image
                    queue.append(target)
    assert len(rename) == len(fig.states) == len(rg.states)
    mapped = sorted((rename[e.source], e.label, rename[e.target]) for e in rg.edges)
    assert mapped == sorted(tuple(e) for e in fig.edges)


def test_reachability_graph_no_places():
    net = PetriNet((), ("t",), {"t": ()}, {"t": ()}, ())
    rg = reachability_graph(net)
    assert isinstance(rg, Lts)
    assert rg.states == ("-",)
    assert rg.edges == (("-", "t", "-"),)


def test_reachability_graph_bound():
    # t keeps producing: unbounded, any cap is exceeded
    net = PetriNet(("p",), ("t",), {"t": (0,)}, {"t": (1,)}, (0,))
    assert reachability_graph(net, max_states=3) is None
    assert reachability_graph(net, max_states=50) is None


def test_reachability_graph_bound_is_inclusive():
    # a net with exactly 2 reachable markings fits in max_states=2
    net = PetriNet(("p",), ("t",), {"t": (1,)}, {"t": (0,)}, (1,))
    rg = reachability_graph(net, max_states=2)
    assert isinstance(rg, Lts)
    assert len(rg.states) == 2


def test_reachability_graph_rejects_bound_below_one():
    net = PetriNet(("p",), ("t",), {"t": (1,)}, {"t": (0,)}, (1,))
    for bound in (0, -1):
        with pytest.raises(ValueError, match=f"^state bound must be at least 1, got {bound}$"):
            reachability_graph(net, max_states=bound)


def test_synthesize_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    net = synthesize(lts)
    assert len(net.places) == 2
    assert net.transitions == ("a", "b", "c")
    outcome = verify_embedding(lts, net)
    assert outcome.embeds


def test_synthesize_not_embeddable():
    with pytest.raises(NotEmbeddable) as err:
        synthesize(load_lts("fig1-right.lts"))
    assert err.value.witness == ("s2", "s5")


def test_synthesize_single_state():
    lts = lts_from_names(("s0",), (), (), "s0")
    net = synthesize(lts)
    assert net.places == ()
    assert verify_embedding(lts, net).embeds


def test_verify_embedding_fig2_fixtures():
    net = load_net("fig2.net")
    assert verify_embedding(load_lts("fig2-middle.lts"), net).embeds
    assert verify_embedding(load_lts("fig2-left.lts"), net).embeds


def test_verify_embedding_not_injective():
    lts = Lts.from_edges("s0", [("s0", "t", "s1")])
    net = PetriNet((), ("t",), {"t": ()}, {"t": ()}, ())
    outcome = verify_embedding(lts, net)
    assert not outcome.embeds
    assert outcome.reason == "not-injective s0 s1"


def test_verify_embedding_not_enabled_names_first_short_place():
    # the marking map is nonnegative and injective, but t needs more tokens
    # than s0's marking holds
    lts = Lts.from_edges("s0", [("s0", "t", "s1")])
    net = PetriNet(("p", "q"), ("t",), {"t": (0, 1)}, {"t": (1, 2)}, (0, 0))
    assert verify_embedding(lts, net).reason == "not-enabled s0 t q"
    net = PetriNet(("p", "q"), ("t",), {"t": (1, 1)}, {"t": (2, 2)}, (0, 0))
    assert verify_embedding(lts, net).reason == "not-enabled s0 t p"


def test_verify_embedding_edge_mismatch():
    # s0 and s1 get markings 0 and 1, and a is enabled at both, but firing
    # a at s1 gives 2, not s0's marking
    lts = Lts.from_edges("s0", [("s0", "a", "s1"), ("s1", "a", "s0")])
    net = parse_net("net\nplace p 0\ntrans a\narc a p 1\n")
    outcome = verify_embedding(lts, net)
    assert outcome == Verification(False, "edge-mismatch s1 a s0")
    assert outcome == verify_embedding_oracle(lts, net)


def test_verify_embedding_no_labels_maps_to_initial_marking():
    lts = lts_from_names(("s0",), (), (), "s0")
    net = load_net("fig2.net")
    assert verify_embedding(lts, net) == verify_embedding_oracle(lts, net) == Verification(True, None)
    assert marking_map(lts, net) == {"s0": (5, 1, 0, 0)}


@pytest.mark.parametrize("places,tokens", [(2, 5), (3, 4), (4, 3)])
def test_verify_embedding_equals_oracle_ring(places, tokens):
    # the graph embeds in its own net, each state at the marking it names
    net = ring_net(places, tokens)
    rg = reachability_graph(net)
    assert verify_embedding(rg, net) == verify_embedding_oracle(rg, net) == Verification(True, None)
    assert all(state_name(net, m) == s for s, m in marking_map(rg, net).items())


def test_verify_embedding_equals_oracle_random():
    # synthesized nets, and random nets over the same labels that mostly do
    # not embed the LTS: the same verdict and reason
    rng = random.Random(67)
    reasons = set()
    for _ in range(100):
        lts = random_lts(rng)
        if is_embeddable(lts).embeddable:
            net = synthesize(lts)
            assert verify_embedding(lts, net) == verify_embedding_oracle(lts, net) == Verification(True, None)
        places = tuple(f"p{i}" for i in range(rng.randint(0, 3)))

        def arcs():
            return {t: tuple(rng.choice((0, 0, 1, 2)) for _ in places) for t in lts.labels}

        net = PetriNet(places, lts.labels, arcs(), arcs(), tuple(rng.randint(0, 3) for _ in places))
        outcome = verify_embedding(lts, net)
        assert outcome == verify_embedding_oracle(lts, net)
        reasons.add(outcome.reason and outcome.reason.split()[0])
    assert reasons == {None, "negative-marking", "not-injective", "not-enabled", "edge-mismatch"}


def test_verify_embedding_unknown_label():
    lts = Lts.from_edges("s0", [("s0", "x", "s1")])
    net = load_net("fig2.net")
    with pytest.raises(ValueError):
        verify_embedding(lts, net)


def test_verify_embedding_rejects_wrong_net():
    # fig1-right cannot embed anywhere, so in particular not into fig2.net
    outcome = verify_embedding(load_lts("fig1-right.lts"), load_net("fig2.net"))
    assert not outcome.embeds


def test_random_rg_edges_replay_through_fire():
    # whenever the reachability graph is returned in full, it validates and
    # every edge replays through the token game
    rng = random.Random(53)
    done = 0
    while done < 15:
        lts = random_lts(rng, max_states=5)
        if not is_embeddable(lts).embeddable:
            continue
        net = synthesize(lts)
        rg = reachability_graph(net, max_states=200)
        if rg is None:
            done += 1
            continue
        assert validate(rg) == []
        back = {state_name(net, m): m for m in _all_markings(net, rg)}
        for e in rg.edges:
            assert fire(net, back[e.source], e.label) == back[e.target]
        done += 1


def test_random_round_trip_synthesis():
    # the acceptance suite runs the full 200; keep a quick slice here
    rng = random.Random(31)
    done = 0
    while done < 30:
        lts = random_lts(rng)
        if not is_embeddable(lts).embeddable:
            continue
        net = synthesize(lts)
        assert verify_embedding(lts, net).embeds
        assert parse_net(format_net(net)) == net
        done += 1
