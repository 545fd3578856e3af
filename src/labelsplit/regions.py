"""Regions: the bridge between an LTS and Petri net markings.

A region assigns every state a token count and every label a consume/produce
pair so that each edge s -t-> s' satisfies value(s) >= consume(t) and
value(s') = value(s) - consume(t) + produce(t). Each region is exactly one
place of a net whose reachability graph the LTS maps into; the marking of a
state under that place is the region's value.

Whether an injective such map into SOME net exists is a pure linear-algebra
question: take the cycle base of the LTS, its nullspace (the space of
feasible label effects), and ask whether effect vectors can tell every pair
of states apart. All of it runs in integers: the cycle base is an integer
echelon form, the effect basis is read off it with denominators already
cleared, and every state's signature (its value under each basis vector)
is one packed int from one `walk` down the spanning tree, so the collision
test is a set of ints. Every function takes only the LTS; its spanning tree
and cycle base rest on the one breadth-first search each `Lts` runs. The
tests check this decision against two independent ones: span membership of
Parikh differences, and a separating effect per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Sequence

from .linalg import nullspace_basis
from .lts import Lts, Packing, cycle_base, walk

EffectVector = tuple[int, ...]


@dataclass(frozen=True)
class Region:
    """One place worth of token bookkeeping over an LTS."""

    state_value: dict[str, int]
    consume: dict[str, int]
    produce: dict[str, int]


@dataclass(frozen=True)
class EmbeddabilityReport:
    embeddable: bool
    signatures: dict[str, tuple[int, ...]]
    witness: tuple[str, str] | None


class NotEmbeddable(ValueError):
    """Raised by operations that require an embeddable LTS."""

    def __init__(self, witness: tuple[str, str]) -> None:
        super().__init__(f"no region separates states {witness[0]} and {witness[1]}")
        self.witness = witness


def effect_space(lts: Lts) -> list[EffectVector]:
    """Integer basis of the feasible label-effect space.

    Feasible means orthogonal to every cycle of the LTS (walking a cycle must
    return a place to its starting token count). Basis vectors are the
    nullspace of the cycle base, one per free column, each the primitive
    integer multiple of the rational solution that is 1 there. The list is
    empty exactly when the cycle base has full rank |labels|.
    """
    return nullspace_basis(*cycle_base(lts), len(lts.labels))


def is_embeddable(lts: Lts) -> EmbeddabilityReport:
    """Does the LTS embed injectively into some Petri net reachability graph?

    Computes every state's signature, the values of one fixed effect-space
    basis summed along its tree path; embeddable iff the signatures are
    pairwise distinct. The witness on failure is the first colliding pair in
    canonical state order.
    """
    return _report(lts, effect_space(lts))


def _report(lts: Lts, basis: list[EffectVector]) -> EmbeddabilityReport:
    """Signatures under `basis` and the first collision in state order,
    found on packed signatures, which are unpacked for the report."""
    steps = list(zip(*basis)) or [()] * len(lts.labels)  # per label
    packing = Packing.summing(steps, len(lts.states))
    sums = walk(lts, packing.pack(steps)) if basis else [0] * len(lts.states)
    witness = None
    if len(set(sums)) != len(sums):
        owner: dict[int, str] = {}
        witness = next((owner[m], s) for s, m in zip(lts.states, sums) if owner.setdefault(m, s) != s)
    return EmbeddabilityReport(witness is None, dict(zip(lts.states, packing.unpack(sums))), witness)


def region_from_effect(lts: Lts, effect: Sequence[int]) -> Region:
    """The canonical region realizing a feasible effect vector.

    The value of a state is a common offset plus the effect of its tree walk;
    the offset is the smallest one keeping all values nonnegative. Consume is
    the negative part of the label effect, produce the positive remainder
    (so consume(t) is minimal for the given effect).
    """
    effect = tuple(effect)
    if len(effect) != len(lts.labels):
        raise ValueError("effect vector length does not match label count")
    rows, _ = cycle_base(lts)
    for row in rows:
        if sum(map(mul, row, effect)):
            raise ValueError("effect vector has nonzero work around a cycle of the LTS")
    return _region(lts, effect, dict(zip(lts.states, walk(lts, effect))))


def _region(lts: Lts, effect: EffectVector, sums: dict[str, int]) -> Region:
    offset = max(0, max(-w for w in sums.values()))
    values = {s: offset + sums[s] for s in lts.states}
    consume = {t: max(0, -effect[i]) for i, t in enumerate(lts.labels)}
    produce = {t: effect[i] + consume[t] for i, t in enumerate(lts.labels)}
    return Region(values, consume, produce)


def separating_regions(lts: Lts) -> list[Region]:
    """One region per effect-space basis vector; together they distinguish
    every pair of states. Raises NotEmbeddable (with a witness pair) when no
    region set can. One analysis is shared by the check and every region:
    region k's state values are column k of the signatures."""
    basis = effect_space(lts)
    report = _report(lts, basis)
    if not report.embeddable:
        assert report.witness is not None
        raise NotEmbeddable(report.witness)
    return [
        _region(lts, e, {s: sig[k] for s, sig in report.signatures.items()})
        for k, e in enumerate(basis)
    ]
