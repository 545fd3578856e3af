"""Subset-sum stress instances for the splitting search.

`build_lts` turns a subset-sum instance (target b, values c_1..c_n) into an
LTS that is never embeddable as given, and whose minimum splitting budget
answers the instance: with the tight label budget from `params`, a witness
exists exactly when some index set I has sum(c_i for i in I) = b, and the
witness's block structure spells out I. This gives the pipeline a supply of
hard, self-checking inputs: the search result can be validated against a
direct subset-sum solver.

Layout: six strands hang off a shared initial state s0, each entered by its
own one-shot label h1..h6.

- h1 calibrates the unit labels u0..uk against each other: a ladder whose
  cycles force effect(u_i) = 2^i * effect(u0).
- Unit words: u(x) spells a number as its set bits, highest first, so a path
  labelled u(x) carries effect x * effect(u0).
- h2 calibrates o against u(big_x) (big_x = 1 + 2b + 2*sum(c), always odd)
  and closes a cycle of n+1 o-edges with one O-edge, so effect(O) =
  -(n+1)*effect(o).
- h3 calibrates alpha = sum(c) units, h4 calibrates beta = 2b units.
- h5 runs n segments; segment i is a path u(c_i) with a forward and a
  reverse g_i edge across it. The two g_i edges form a two-state cycle, so
  every embeddable splitting must separate them; the surviving g_i-block
  label has effect +c_i or -c_i units depending on orientation.
- h6 is a path o alpha (o g_1) ... (o g_n) O with a beta chord across it.
  Each g_i slot joins either the forward block (contributing +c_i) or the
  reverse block (-c_i); the chord forces the slot contributions to add up to
  2b units, which is possible exactly when the instance is solvable.

The g_i edges are the only forced splits, so the tight budget is
|alphabet| + n = 2n + k + 11.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lts import Lts
from .splitting import LabelSplitting, apply_splitting


@dataclass(frozen=True)
class SubsetSumInstance:
    """Does some subset of `values` sum to `target`? All entries positive."""

    target: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.target, int) or self.target < 1:
            raise ValueError(f"target must be a positive integer, got {self.target}")
        if not self.values:
            raise ValueError("need at least one value")
        for c in self.values:
            if not isinstance(c, int) or c < 1:
                raise ValueError(f"values must be positive integers, got {c}")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ReductionParams:
    """Derived gadget constants: `big_step` is the value the o label carries
    (1 + 2*target + 2*sum(values)), `max_bit` the highest unit index k with
    2^k <= big_step, `label_budget` the tight splitting budget, and
    `alphabet_size` the unsplit label count."""

    big_step: int
    max_bit: int
    label_budget: int
    alphabet_size: int


def params(instance: SubsetSumInstance) -> ReductionParams:
    big_step = 1 + 2 * instance.target + 2 * sum(instance.values)
    max_bit = big_step.bit_length() - 1
    n = instance.n
    return ReductionParams(
        big_step=big_step,
        max_bit=max_bit,
        label_budget=2 * n + max_bit + 11,
        alphabet_size=n + max_bit + 11,
    )


def unit_word(value: int, max_bit: int) -> list[str]:
    """`value` spelled in unit labels, highest set bit first: 25 with
    max_bit 4 is [u4, u3, u0]. Zero gives the empty word."""
    if value < 0:
        raise ValueError(f"unit words encode nonnegative values, got {value}")
    if value >= 1 << (max_bit + 1):
        raise ValueError(f"value {value} does not fit in units up to u{max_bit}")
    return [f"u{i}" for i in range(max_bit, -1, -1) if value >> i & 1]


def build_lts(instance: SubsetSumInstance) -> Lts:
    """The gadget LTS. States are named h<strand>.<j>, plus the shared
    initial state s0."""
    p = params(instance)
    k = p.max_bit
    n = instance.n
    edges: list[tuple[str, str, str]] = []

    # strand 1: unit ladder, states h1.1 .. h1.{2k+1}
    edges.append(("s0", "h1", "h1.1"))
    for i in range(1, k + 1):
        lo, mid, hi = f"h1.{2 * i - 1}", f"h1.{2 * i}", f"h1.{2 * i + 1}"
        edges.append((lo, f"u{i - 1}", mid))
        edges.append((mid, f"u{i - 1}", hi))
        edges.append((lo, f"u{i}", hi))

    def path(strand: str, start_index: int, word: list[str]) -> int:
        """Append a word as a path h<strand>.<start> ... and return the index
        of the final state."""
        at = start_index
        for t in word:
            edges.append((f"{strand}.{at}", t, f"{strand}.{at + 1}"))
            at += 1
        return at

    # strand 2: o vs u(big_step), then the o-cycle closed by O
    edges.append(("s0", "h2", "h2.1"))
    anchor = path("h2", 1, unit_word(p.big_step, k))
    edges.append(("h2.1", "o", f"h2.{anchor}"))
    at = anchor
    for _ in range(n + 1):
        edges.append((f"h2.{at}", "o", f"h2.{at + 1}"))
        at += 1
    edges.append((f"h2.{at}", "O", f"h2.{anchor}"))

    # strand 3: alpha vs u(sum c)
    edges.append(("s0", "h3", "h3.1"))
    end = path("h3", 1, unit_word(sum(instance.values), k))
    edges.append(("h3.1", "alpha", f"h3.{end}"))

    # strand 4: beta vs u(2b)
    edges.append(("s0", "h4", "h4.1"))
    end = path("h4", 1, unit_word(2 * instance.target, k))
    edges.append(("h4.1", "beta", f"h4.{end}"))

    # strand 5: per-value segments with forward/reverse g_i edges
    edges.append(("s0", "h5", "h5.1"))
    seg_start = 1
    for i, c in enumerate(instance.values, start=1):
        seg_end = path("h5", seg_start, unit_word(c, k))
        edges.append((f"h5.{seg_start}", f"g{i}", f"h5.{seg_end}"))
        edges.append((f"h5.{seg_end}", f"g{i}", f"h5.{seg_start}"))
        seg_start = seg_end

    # strand 6: the balance path with its beta chord
    word = ["o", "alpha"]
    for i in range(1, n + 1):
        word += ["o", f"g{i}"]
    word.append("O")
    edges.append(("s0", "h6", "h6.1"))
    end = path("h6", 1, word)
    edges.append(("h6.1", "beta", f"h6.{end}"))

    lts = Lts.from_edges("s0", edges)
    assert len(lts.labels) == p.alphabet_size
    return lts


def _gamma_edges(lts: Lts, n: int) -> list[tuple[int, int, int]]:
    """(forward, reverse, balance-slot) edge indices for g1..gn, relying on
    the build order: both h5 edges come before the h6 slot, forward first."""
    src, label, dst = lts.columns
    triples = []
    for i in range(1, n + 1):
        g = lts.labels.index(f"g{i}")
        fwd, rev, slot = [j for j, k in enumerate(label) if k == g]
        assert src[fwd] == dst[rev] and dst[fwd] == src[rev]
        assert lts.states[src[slot]].startswith("h6.")
        triples.append((fwd, rev, slot))
    return triples


def extract_solution(
    instance: SubsetSumInstance, splitting: LabelSplitting
) -> tuple[int, ...]:
    """Read the index set off a tight-budget witness and check it solves the
    instance; 1-based indices, ascending. Raises ValueError when the witness
    is not a splitting of the gadget (`apply_splitting`'s check), does not
    have the expected shape or its index set misses the target.
    At the tight budget each g_i needs one of the n new labels to keep its
    forward and reverse edges apart, so no other label can be split."""
    lts = build_lts(instance)
    p = params(instance)
    try:
        apply_splitting(lts, splitting)
    except ValueError as err:
        raise ValueError(f"not a splitting of the gadget: {err}") from None
    if splitting.labels_used() != p.label_budget:
        raise ValueError(
            f"witness uses {splitting.labels_used()} labels, tight budget is {p.label_budget}"
        )
    chosen: list[int] = []
    for i, (fwd, rev, slot) in enumerate(_gamma_edges(lts, instance.n), start=1):
        fwd_label = splitting.edge_labels[fwd]
        rev_label = splitting.edge_labels[rev]
        if fwd_label == rev_label:
            raise ValueError(f"g{i} keeps its two-state cycle in one block")
        if splitting.edge_labels[slot] == fwd_label:
            chosen.append(i)
    if sum(instance.values[i - 1] for i in chosen) != instance.target:
        raise ValueError(f"witness index set {chosen} does not sum to {instance.target}")
    return tuple(chosen)


BRUTE_MAX_N = 30


def subset_sum_brute(instance: SubsetSumInstance) -> tuple[int, ...] | None:
    """Direct exponential solver used as an oracle; returns the
    lexicographically smallest solving index set (1-based, ascending) or
    None. Guarded to n <= BRUTE_MAX_N. Depth first over an explicit stack,
    taking each value before leaving it out, so the first hit is smallest."""
    if instance.n > BRUTE_MAX_N:
        raise ValueError(f"brute-force solver capped at n={BRUTE_MAX_N}, got n={instance.n}")
    values = instance.values
    suffix = [sum(values[i:]) for i in range(len(values) + 1)]  # what values[i:] can add
    stack = [(0, instance.target, ())]
    while stack:
        i, remaining, taken = stack.pop()
        if remaining == 0:
            return taken
        if suffix[i] < remaining:
            continue
        stack.append((i + 1, remaining, taken))
        if values[i] <= remaining:
            stack.append((i + 1, remaining - values[i], (*taken, i + 1)))
    return None
