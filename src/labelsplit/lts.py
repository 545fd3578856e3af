"""Deterministic labelled transition systems.

An LTS here is finite, deterministic (at most one edge per state/label pair)
and reachable from its initial state. States and labels are strings; edges
keep a canonical order (order of first appearance), and everything downstream
(spanning trees, Parikh vectors, splitting witnesses) is indexed against that
order, so two structurally equal systems behave identically.

An `Lts` is its declared states and labels, each once, its initial state,
and its edges as integer columns, `Lts.columns`: each edge's source, label
and target as indices into `states` and `labels`, one string per name;
the constructor takes the ids, and `Lts.from_edges` and `parse_lts` assign
them in one pass over edges by name. Its `edges` are a view for library
users, made on first read: the package reads the columns.
The breadth-first search from the initial state runs once per `Lts` (the
memoised `Lts._parents`, which a split LTS shares), and it is the one
spanning tree of the LTS: a map from each state id to its incoming tree
edge. `validate` reads it, `spanning_tree` returns it, and `walk` sums int
steps down it. A vector is one int by one rule, `Packing`, a signed field
per entry, each as wide as a bound the caller proves on every entry, so a
tree step, a chord or an equality test is one int operation. `cycle_base`
returns the integer echelon `(rows, pivots)` of the distinct chords. The
reading rules of all three text formats live here, next to `FormatError`;
`lts_chunks` writes the LTS format a chunk at a time.
`_fresh_names` names a splitting's new labels and a synthesized net's places.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, islice
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from .linalg import IntRows, integer_echelon


class Edge(NamedTuple):
    source: str
    label: str
    target: str


@dataclass(frozen=True)
class Lts:
    """A labelled transition system with canonical state/label/edge order.
    `columns` holds ids into distinct `states` and `labels`, unchecked and
    never mutated; only an undeclared initial state is refused."""

    states: tuple[str, ...]
    labels: tuple[str, ...]
    columns: tuple[list[int], list[int], list[int]] = field(hash=False)
    initial: str

    def __post_init__(self) -> None:  # one comparison when `initial` is declared first
        if self.states[:1] != (self.initial,) and self.initial not in self.states:
            raise ValueError(f"dangling reference: initial state {self.initial} not declared")

    @classmethod
    def from_edges(cls, initial: str, edges: Iterable[Sequence[str]]) -> "Lts":
        """Build in one pass, with first-use ordering: initial state first, then
        states and labels in order of first appearance along the edges. Each
        name is kept as one string; the pass fills `columns`."""
        state_ids = {initial: 0}
        label_ids: dict[str, int] = {}
        state, label = state_ids.setdefault, label_ids.setdefault
        src, lab, dst = columns = ([], [], [])
        for s, t, d in edges:
            src.append(state(s, len(state_ids)))
            lab.append(label(t, len(label_ids)))
            dst.append(state(d, len(state_ids)))
        return cls(tuple(state_ids), tuple(label_ids), columns, initial)

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        """The edges by name, for library users: made on first read, then kept."""
        states, labels = self.states, self.labels
        return tuple([Edge(states[s], labels[t], states[d]) for s, t, d in zip(*self.columns)])

    @cached_property
    def _parents(self) -> dict[int, int]:
        """Breadth-first search from the initial state over `columns`, taking
        each state's edges in canonical order: per state id, the index of the
        edge that first reached it, in discovery order. Run once per LTS, and
        no field: `validate` reads it and `spanning_tree` returns it."""
        root = self.states.index(self.initial)
        src, _, dst = self.columns
        out: list[list[int]] = [[] for _ in self.states]
        for i, s in enumerate(src):
            out[s].append(i)
        parent: dict[int, int] = {}
        reached = [False] * len(self.states)
        reached[root] = True
        frontier = [root]  # the queue: read on while it grows
        for s in frontier:
            for i in out[s]:
                d = dst[i]
                if not reached[d]:
                    reached[d] = True
                    parent[d] = i
                    frontier.append(d)
        return parent


# --- validation ---------------------------------------------------------


def validate(lts: Lts) -> list[str]:
    """A message for each pair of edges from one state with one label and for
    each state the initial one does not reach; an empty list means well formed."""
    problems: list[str] = []
    src, lab, _ = lts.columns
    # one integer key per (source, label) pair
    n = len(lts.labels)
    keys = [s * n + t for s, t in zip(src, lab)]
    if len(set(keys)) != len(keys):
        seen: set = set()
        for key, s, t in zip(keys, src, lab):
            if key in seen:
                problems.append(f"nondeterministic: two edges from {lts.states[s]} with label {lts.labels[t]}")
            seen.add(key)
    parent = lts._parents
    if len(parent) + 1 != len(lts.states):
        unreached = [s for d, s in enumerate(lts.states) if s != lts.initial and d not in parent]
        problems += [f"unreachable state: {s}" for s in unreached]
    return problems


# --- spanning tree and Parikh vectors -----------------------------------


def spanning_tree(lts: Lts) -> dict[int, int]:
    """Deterministic BFS tree: per state id but the initial one's, the index
    of the tree edge into it, in the order BFS discovered the states. States
    are discovered in canonical edge order, so every call returns the same
    memoised map, `Lts._parents`, which must not be mutated; edge i is a
    tree edge iff `parent.get(dst[i]) == i`. Raises ValueError naming the
    first declared state the search does not reach."""
    parent = lts._parents
    if len(parent) + 1 != len(lts.states):
        missing = next(s for d, s in enumerate(lts.states) if s != lts.initial and d not in parent)
        raise ValueError(f"state not reachable from {lts.initial}: {missing}")
    return parent


class Packing:
    """Vectors of `fields` ints as one int: entry j is a signed field at bit
    j * width, one bit wider than a proven bound on |entry| needs. Packing
    is linear, so a walk over packed steps sums vectors, and equal ints are
    equal vectors while every entry lies within the bound. `top` has each
    field's top bit; adding it sets that bit where an entry within the bound
    is >= 0."""

    def __init__(self, fields: int, bound: int) -> None:
        self.width = width = bound.bit_length() + 1
        self.shifts = range(0, width * fields, width)
        self.top = (1 << width - 1) * ((1 << width * fields) - 1) // ((1 << width) - 1)

    @classmethod
    def summing(cls, vectors: Sequence[Sequence[int]], terms: int) -> Packing:
        """Holds every signed sum of `terms` of `vectors` (a walk sums fewer than its states)."""
        return cls(len(vectors[0]) if vectors else 0, terms * max(map(abs, chain.from_iterable(vectors)), default=0))

    def pack(self, vectors: Sequence[Sequence[int]]) -> list[int]:
        """Each vector as one int, by Horner's rule from the top field down."""
        fields = list(zip(*vectors)) or [[0] * len(vectors)]
        packed = list(fields.pop())
        for field in reversed(fields):
            packed = [(v << self.width) + x for v, x in zip(packed, field)]
        return packed

    def unpack(self, values: Sequence[int]) -> list[tuple[int, ...]]:
        """The vectors of packed `values`, a field of all of them per pass."""
        mask, half = (1 << self.width) - 1, 1 << self.width - 1
        biased = [v + self.top for v in values]
        fields = [[(v >> k & mask) - half for v in biased] for k in self.shifts]
        return list(zip(*fields)) if fields else [()] * len(values)


def walk(lts: Lts, steps: Sequence[int], columns: Sequence[int] | None = None, start: int = 0) -> list[int]:
    """Sum one int step per tree edge along every state's tree path in one
    pass down the tree: value(child) = value(parent) + steps[columns[i]]
    for the tree edge i into the child, and `start` at the initial state,
    listed in state order. `columns` maps each edge index to a step; by
    default an edge takes the step of its label (`Lts.columns[1]`)."""
    parent = spanning_tree(lts)
    src, lab, _ = lts.columns
    if columns is None:
        columns = lab
    values = [start] * len(lts.states)  # every state but the initial one is set below
    for d, i in parent.items():  # parents are discovered first
        values[d] = values[src[i]] + steps[columns[i]]
    return values


def cycle_base(lts: Lts) -> tuple[IntRows, tuple[int, ...]]:
    """Chord Parikh vectors in one pass, eliminated in integers: the
    `(rows, pivots)` of `linalg.integer_echelon`. The chord of an edge
    s -t-> s' off the tree is parikh(s) + unit(t) - parikh(s'), where
    parikh counts the labels on a state's tree path; each is one packed
    sum, and only the distinct ones are unpacked, in order of first use.
    The rows span the cycle space of the graph, whatever tree they close."""
    n = len(lts.labels)
    packing = Packing(n, len(lts.states))  # Parikh entries below it, chord entries within it
    units = [1 << k for k in packing.shifts]
    parikh = walk(lts, units)
    parent = spanning_tree(lts)
    chords = dict.fromkeys(
        parikh[s] + units[t] - parikh[d] for i, (s, t, d) in enumerate(zip(*lts.columns)) if parent.get(d) != i
    )
    return integer_echelon(packing.unpack(list(chords)), n)


# --- text format --------------------------------------------------------


class FormatError(ValueError):
    """Malformed text input; `line` is 1-based."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def parse_lts(text: str) -> Lts:
    """Parse the LTS text format:

        lts
        initial <state>
        edge <source> <label> <target>
        ...

    `#` starts a comment; blank lines are ignored. Raises FormatError with a
    line number on malformed input. The parsed system is not validated here;
    run `validate` for the structural contract. One loop assigns ids as
    `Lts.from_edges` does, and no edge is built.
    """
    lines = _content_lines(text, "#")
    n = _expect_header(lines, "lts")
    n, parts = next(lines, (n, None))
    if parts is None:
        raise FormatError(n, "missing 'initial' line")
    if len(parts) != 2 or parts[0] != "initial":
        raise FormatError(n, "expected 'initial <state>'")
    initial = parts[1]
    state_ids = {initial: 0}
    label_ids: dict[str, int] = {}
    state, label = state_ids.setdefault, label_ids.setdefault
    src, lab, dst = columns = ([], [], [])
    for n, parts in lines:
        if parts[0] != "edge" or len(parts) != 4:
            raise FormatError(n, "expected 'edge <source> <label> <target>'")
        src.append(state(parts[1], len(state_ids)))
        lab.append(label(parts[2], len(label_ids)))
        dst.append(state(parts[3], len(state_ids)))
    return Lts(tuple(state_ids), tuple(label_ids), columns, initial)


def format_lts(lts: Lts) -> str:
    """Canonical text form, `lts_chunks` joined. Labels no edge uses are
    dropped on a round trip, and tokens containing `#` (e.g. labels of a
    split LTS) collide with the comment syntax and cannot round-trip."""
    return "".join(lts_chunks(lts))


CHUNK_EDGES = 4096  # edge lines per chunk of `lts_chunks`


def lts_chunks(lts: Lts) -> Iterator[str]:
    """The header, then CHUNK_EDGES edge lines at a time: a writer holds one chunk."""
    states, labels = lts.states, lts.labels
    yield f"lts\ninitial {lts.initial}\n"
    edges = zip(*lts.columns)
    while chunk := [f"edge {states[s]} {labels[t]} {states[d]}\n" for s, t, d in islice(edges, CHUNK_EDGES)]:
        yield "".join(chunk)


def _fresh_names(stem: str, taken: Container[str]) -> Iterator[str]:
    """`<stem>1`, `<stem>2`, ... skipping every name in `taken`: the rule for
    the new labels of a splitting and the places of a synthesized net."""
    return (name for k in count(1) if (name := f"{stem}{k}") not in taken)


def _content_lines(text: str, comment: str | None) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) for each line with a token, the reading rule of
    every text format. Lines end at line feeds alone, as `grep -n` counts them
    (not `str.splitlines`); `comment`, the format's comment character if it
    has one, hides the rest of its line."""
    lines: Iterable[str] = text.split("\n")
    if comment and comment in text:
        lines = (raw.partition(comment)[0] for raw in lines)
    for i, raw in enumerate(lines, start=1):
        parts = raw.split()
        if parts:
            yield i, parts


def _expect_header(lines: Iterator[tuple[int, list[str]]], word: str) -> int:
    """Read the first content line, which must be the bare word `word`;
    return its line number."""
    n, parts = next(lines, (1, None))
    if parts is None:
        raise FormatError(1, f"empty input, expected '{word}' header")
    if parts != [word]:
        raise FormatError(n, f"expected '{word}' header")
    return n


_INTEGER = re.compile("-?[0-9]+")


def _int_token(raw: str, line: int, what: str) -> int:
    """`raw` as an integer: ASCII digits after an optional minus sign (`int`
    alone also takes other scripts' digits, `_` and `+`). `int` refuses a
    token of more digits than Python converts (4,300 by default), which is
    reported the same way."""
    if _INTEGER.fullmatch(raw):
        try:
            return int(raw)
        except ValueError:
            pass
    raise FormatError(line, f"{what} must be an integer, got {raw!r}")
