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
test is a set of ints, never unpacked. Synthesis reads only the basis and
each vector's least state value, and builds no `Region`. The tests check
this decision against two independent ones: span membership of Parikh
differences, and a separating effect per pair.
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
    witness = _collision(lts, effect_space(lts))
    return EmbeddabilityReport(witness is None, witness)


def _collision(lts: Lts, basis: list[EffectVector]) -> tuple[str, str] | None:
    """The first two states, in state order, of equal signature under `basis`."""
    steps = list(zip(*basis)) or [()] * len(lts.labels)  # per label
    sums = walk(lts, Packing.summing(steps, len(lts.states)).pack(steps))
    if len(set(sums)) == len(sums):
        return None
    owner: dict[int, str] = {}
    return next((owner[m], s) for s, m in zip(lts.states, sums) if owner.setdefault(m, s) != s)


def separating_basis(lts: Lts) -> tuple[list[EffectVector], list[int]]:
    """The effect basis, each vector with its least sum along a state's tree
    path: one separating region each. Raises NotEmbeddable with a witness."""
    basis = effect_space(lts)
    if (witness := _collision(lts, basis)) is not None:
        raise NotEmbeddable(witness)
    return basis, [min(walk(lts, effect)) for effect in basis]


def region_from_effect(lts: Lts, effect: Sequence[int]) -> Region:
    """The canonical region realizing a feasible effect vector, for library
    users and the tests: the value of a state is the smallest common offset
    keeping all values nonnegative plus the effect of its tree walk; consume
    is the negative part of the label effect, produce the positive remainder.
    """
    effect = tuple(effect)
    if len(effect) != len(lts.labels):
        raise ValueError("effect vector length does not match label count")
    rows, _ = cycle_base(lts)
    for row in rows:
        if sum(map(mul, row, effect)):
            raise ValueError("effect vector has nonzero work around a cycle of the LTS")
    sums = walk(lts, effect)
    offset = max(0, -min(sums))
    consume = {t: max(0, -e) for t, e in zip(lts.labels, effect)}
    produce = {t: e + consume[t] for t, e in zip(lts.labels, effect)}
    return Region({s: offset + w for s, w in zip(lts.states, sums)}, consume, produce)


def separating_regions(lts: Lts) -> list[Region]:
    """One region per effect-space basis vector; together they distinguish
    every pair of states. Raises NotEmbeddable (with a witness pair) when no
    region set can."""
    basis, _ = separating_basis(lts)
    return [region_from_effect(lts, e) for e in basis]
