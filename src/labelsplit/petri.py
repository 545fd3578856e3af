"""Place/transition Petri nets: token game, reachability graphs, synthesis.

Weighted arcs, integer markings, no count or weight negative (a `PetriNet`
refuses one). Markings are tuples in declared place order, and so are a
transition's arc weights: firing t takes `pre[t]` and puts back `post[t]`,
the token game of `enabled` and `fire`. `reachability_graph` and
`verify_embedding` each hold a marking as one int, a field per place, so
one subtraction tests enabling and one addition fires, but they share no
code: the verifier stays an independent check of `rg`. `reachability_graph`
guards each field with a bit no count within the state bound reaches;
`verify_embedding` walks `lts.Packing` ints as wide as its own bound from
the tree depth, each field biased by half its range, and unpacks a marking
only to name a short place. Synthesis makes one place per effect-space
basis vector: `pre[t]` and `post[t]` hold label t's consume and produce.
The reachability graph is itself an `Lts`, each state named by its marking
as `place:count` joined by commas (`-` in a net with no places), which lets
the region machinery and the token game meet in `verify_embedding`.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import reduce
from itertools import chain, islice
from operator import and_, sub

from .lts import FormatError, Lts, Packing, _content_lines, _expect_header, _fresh_names, _int_token, walk
from .regions import separating_basis

Marking = tuple[int, ...]


@dataclass(frozen=True)
class PetriNet:
    """`pre[t]` and `post[t]` hold transition t's input and output arc
    weights, one per place in declared order (0 where there is no arc).
    No count or weight is negative, as every enabling test assumes."""

    places: tuple[str, ...]
    transitions: tuple[str, ...]
    pre: dict[str, tuple[int, ...]]
    post: dict[str, tuple[int, ...]]
    initial_marking: Marking

    def __post_init__(self) -> None:
        if len(self.initial_marking) != len(self.places):
            raise ValueError("initial marking length does not match place count")
        for arcs in (self.pre, self.post):
            if list(arcs) != list(self.transitions) or any(
                len(w) != len(self.places) for w in arcs.values()
            ):
                raise ValueError("pre and post need one weight per place for each transition")
        for p, c in zip(self.places, self.initial_marking):
            if c < 0:
                raise ValueError(f"place {p} has a negative token count: {c}")
        for t, p, w in ((t, p, w) for arcs in (self.pre, self.post) for t in arcs for p, w in zip(self.places, arcs[t])):
            if w < 0:
                raise ValueError(f"arc between place {p} and transition {t} has a negative weight: {w}")


class NotEnabled(ValueError):
    def __init__(self, transition: str, place: str) -> None:
        super().__init__(f"transition {transition} not enabled: place {place} short of tokens")
        self.place = place


def _arcs(net: PetriNet, transition: str) -> tuple[Marking, Marking]:
    try:
        return net.pre[transition], net.post[transition]
    except KeyError:
        raise ValueError(f"unknown transition: {transition}") from None


def enabled(net: PetriNet, marking: Marking, transition: str) -> bool:
    """True when every input place holds at least the arc's weight.
    Transitions with no input arcs are always enabled."""
    return all(m >= w for m, w in zip(marking, _arcs(net, transition)[0]) if w)


def fire(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """Successor marking; raises NotEnabled (naming the first short place)
    otherwise. Only input places are tested: markings are nonnegative."""
    pre, post = _arcs(net, transition)
    for p, m, w in zip(net.places, marking, pre):
        if w and m < w:
            raise NotEnabled(transition, p)
    return tuple(m - w + v for m, w, v in zip(marking, pre, post))


def reachability_graph(net: PetriNet, max_states: int = 10000) -> Lts | None:
    """BFS over the token game from the initial marking.

    Returns the full reachability graph as an Lts (labels are ALL transitions,
    enabled anywhere or not) when it has at most `max_states` states, else
    None. A state is named by its marking, "p1:5,p2:1,..." in declared place
    order, or "-" in a net with no places (no token of the LTS format is empty).
    """
    if max_states < 1:
        raise ValueError(f"state bound must be at least 1, got {max_states}")
    # Place i's count sits in bits [i*width, (i+1)*width) of one int. A state
    # within the bound lies at most max_states - 1 firings deep and its
    # successors one deeper, so no marking the search makes holds more than
    # M0 + max_states * P tokens on a place (M0 the largest initial count, P
    # the largest output weight). With every input weight no larger either,
    # one bit more keeps each field's top bit, its guard, clear in every
    # marking and every `take`.
    most_put = max(chain.from_iterable(net.post.values()), default=0)
    most_taken = max(chain.from_iterable(net.pre.values()), default=0)
    most = max(max(net.initial_marking, default=0) + max_states * most_put, most_taken)
    width = most.bit_length() + 1
    shifts = range(0, width * len(net.places), width)

    def pack(counts: Marking) -> int:
        return sum(c << k for c, k in zip(counts, shifts))

    guard = pack((1 << width - 1,) * len(net.places))
    takes = [pack(net.pre[t]) for t in net.transitions]
    rules = [(i, k, pack(net.post[t]) - k) for i, (t, k) in enumerate(zip(net.transitions, takes))]
    order = [pack(net.initial_marking)]  # the BFS queue: read on while it grows
    ids = {order[0]: 0}
    sources: list[int] = []
    labels: list[int] = []
    targets: list[int] = []
    for source, m in enumerate(order):
        guarded = m | guard
        for t, take, effect in rules:
            # no field borrows from the next: a guard stays set iff its place holds enough
            if (guarded - take) & guard == guard:
                succ = m + effect
                target = ids.get(succ)
                if target is None:
                    if len(order) == max_states:
                        return None
                    target = ids[succ] = len(order)
                    order.append(succ)
                sources.append(source)
                labels.append(t)
                targets.append(target)
    mask = (1 << width) - 1
    columns = [[m >> k & mask for m in order] for k in shifts]  # one per place
    # one `str.format` per marking: "p1:{},p2:{},...", braces in ids doubled
    template = ",".join(p.replace("{", "{{").replace("}", "}}") + ":{}" for p in net.places)
    try:  # a net with no places has one marking
        names = list(map(template.format, *columns)) if columns else ["-"]
    except ValueError:  # `str` writes no int of more digits than Python's limit
        digits = sys.get_int_max_str_digits()
        too_long = 10**digits
        place = next(p for m in zip(*columns) for p, k in zip(net.places, m) if k >= too_long)
        message = f"place {place} reaches a token count of more than {digits} digits"
        raise ValueError(f"{message}, too long to write in a state name") from None
    return Lts(tuple(names), net.transitions, (sources, labels, targets), names[0])


# --- synthesis and verification -----------------------------------------


def synthesize(lts: Lts) -> PetriNet:
    """A net whose reachability graph the LTS embeds into, one place per
    effect basis vector (places p1, p2, ... in basis order, skipping every
    label's name, since place and transition ids are disjoint): label t
    consumes the negative part of its effect, and a place starts with the
    least count that keeps every state's nonnegative. Raises NotEmbeddable
    with a witness pair when no such net exists. One state gives no places."""
    basis, lows = separating_basis(lts)
    places = tuple(islice(_fresh_names("p", set(lts.labels)), len(basis)))
    pre = {t: tuple(max(0, -e[i]) for e in basis) for i, t in enumerate(lts.labels)}
    post = {t: tuple(w + e[i] for w, e in zip(pre[t], basis)) for i, t in enumerate(lts.labels)}
    return PetriNet(places, lts.labels, pre, post, tuple(max(0, -low) for low in lows))


def verify_embedding(lts: Lts, net: PetriNet) -> str | None:
    """Check that the canonical marking map embeds the LTS into the net's
    reachability graph.

    The map sends a state to the initial marking plus the effects
    post[t] - pre[t] of the labels on the state's tree path. Checked in
    order: all markings nonnegative, the map is injective, and every LTS edge
    is enabled at its source marking (naming the first short place) and
    fires to its target marking. Every LTS label must be a transition of the
    net (ValueError otherwise). Returns the first violation, as a reason
    such as `not-enabled s0 t p`, or None when the map embeds."""
    missing = [t for t in lts.labels if t not in net.pre]
    if missing:
        raise ValueError(f"label is not a transition of the net: {missing[0]}")
    # Its own bound from tree depth: no count of a marking, or of one firing
    # on, exceeds M0 + len(states) * W (M0 the largest initial count, W the
    # largest label weight). With fields biased by `top`, a count is negative
    # iff its top bit is clear, and no take (at most W) borrows from the next.
    weights = chain.from_iterable(net.pre[t] + net.post[t] for t in lts.labels)
    packing = Packing(len(net.places), max(net.initial_marking, default=0) + len(lts.states) * max(weights, default=0))
    top = packing.top
    takes = packing.pack([net.pre[t] for t in lts.labels])  # by label id
    effects = list(map(sub, packing.pack([net.post[t] for t in lts.labels]), takes))
    (start,) = packing.pack([net.initial_marking])
    markings = walk(lts, effects, start=start + top)  # by state id
    # all markings at once; the ordered loops only name the first violation
    if reduce(and_, markings) & top != top:
        s = next(s for s, m in zip(lts.states, markings) if m & top != top)
        return f"negative-marking {s}"
    if len(set(markings)) != len(markings):
        seen: dict[int, str] = {}
        first, then = next((seen[m], s) for s, m in zip(lts.states, markings) if seen.setdefault(m, s) != s)
        return f"not-injective {first} {then}"
    # each edge replayed by label id, and named through the columns
    states, labels = lts.states, lts.labels
    for s, t, d in zip(*lts.columns):
        m = markings[s]
        if (m - takes[t]) & top != top:  # some place short of tokens: name the first
            (counts,) = packing.unpack([m - top])
            p = next(p for p, (c, w) in enumerate(zip(counts, net.pre[labels[t]])) if c < w)
            return f"not-enabled {states[s]} {labels[t]} {net.places[p]}"
        if m + effects[t] != markings[d]:
            return f"edge-mismatch {states[s]} {labels[t]} {states[d]}"
    return None


# --- text format --------------------------------------------------------


def parse_net(text: str) -> PetriNet:
    """Parse the net text format:

        net
        place <id> <tokens>
        trans <id>
        arc <x> <y> <weight>

    Place and transition ids must be disjoint; an arc's direction is inferred
    from which end is the place. `#` comments and blank lines are ignored.
    """
    lines = _content_lines(text, "#")
    _expect_header(lines, "net")
    tokens: dict[str, int] = {}  # by place, in declaration order
    transitions: dict[str, None] = {}  # a dict for its order and its fast `in`
    consume: dict[tuple[str, str], int] = {}
    produce: dict[tuple[str, str], int] = {}
    for n, parts in lines:
        kind = parts[0]
        if kind == "place":
            if len(parts) != 3:
                raise FormatError(n, "expected 'place <id> <tokens>'")
            pid, raw = parts[1], parts[2]
            if pid in tokens or pid in transitions:
                raise FormatError(n, f"duplicate id: {pid}")
            tokens[pid] = _nonneg_int(raw, n, "token count")
        elif kind == "trans":
            if len(parts) != 2:
                raise FormatError(n, "expected 'trans <id>'")
            tid = parts[1]
            if tid in tokens or tid in transitions:
                raise FormatError(n, f"duplicate id: {tid}")
            transitions[tid] = None
        elif kind == "arc":
            if len(parts) != 4:
                raise FormatError(n, "expected 'arc <x> <y> <weight>'")
            a, b, raw = parts[1], parts[2], parts[3]
            w = _nonneg_int(raw, n, "arc weight")
            if w == 0:
                raise FormatError(n, "arc weight must be positive")
            if a in tokens and b in transitions:
                key, store = (a, b), consume
            elif a in transitions and b in tokens:
                key, store = (b, a), produce
            else:
                raise FormatError(
                    n, f"arc must join one declared place and one declared transition: {a} {b}"
                )
            if key in store:
                raise FormatError(n, f"duplicate arc: {a} {b}")
            store[key] = w
        else:
            raise FormatError(n, f"unknown directive: {kind}")
    pre = {t: tuple(consume.get((p, t), 0) for p in tokens) for t in transitions}
    post = {t: tuple(produce.get((p, t), 0) for p in tokens) for t in transitions}
    return PetriNet(tuple(tokens), tuple(transitions), pre, post, tuple(tokens.values()))


def _nonneg_int(raw: str, line: int, what: str) -> int:
    value = _int_token(raw, line, what)
    if value < 0:
        raise FormatError(line, f"{what} must be nonnegative, got {value}")
    return value


def format_net(net: PetriNet) -> str:
    """Canonical text form: places, transitions, then the input arcs and the
    output arcs, each walked place by place and, within a place, transition
    by transition in declared order."""
    out = ["net"]
    out += [f"place {p} {m}" for p, m in zip(net.places, net.initial_marking)]
    out += [f"trans {t}" for t in net.transitions]
    for arcs, arc in ((net.pre, "arc {p} {t} {w}"), (net.post, "arc {t} {p} {w}")):
        for i, p in enumerate(net.places):
            out += [arc.format(p=p, t=t, w=arcs[t][i]) for t in net.transitions if arcs[t][i]]
    return "\n".join(out) + "\n"
