"""Independent computations the tests check the package against.

Everything here is written the slow, obvious way: `Fraction` row reduction
through `linalg.rref`, Parikh vectors found by climbing the spanning tree,
and dot products per state or per pair. None of it runs in the package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from labelsplit.linalg import rref
from labelsplit.lts import Lts, SpanningTree, spanning_tree
from labelsplit.regions import effect_space


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError(f"dot of vectors with different lengths ({len(a)} vs {len(b)})")
    return sum(x * y for x, y in zip(a, b))


def scaled_to_integers(values: Sequence) -> tuple[int, ...]:
    """Clear denominators: the smallest positive multiple with integer entries."""
    lcm = 1
    for e in values:
        d = Fraction(e).denominator
        lcm = lcm * d // gcd(lcm, d)
    return tuple(int(e * lcm) for e in values)


def rref_rows(rows: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """The nonzero rows of `rref`, each scaled to primitive integers. A
    reduced row has a 1 at its pivot, so its scaled row has gcd 1 and a
    positive pivot; the map is a bijection on such rows."""
    reduced, pivots = rref(rows)
    return [scaled_to_integers(r) for r in reduced[: len(pivots)]], pivots


def rref_nullspace(rows: Sequence[Sequence], cols: int) -> list[list[Fraction]]:
    """Basis of {v : row . v = 0 for every row}: one vector per free column,
    ascending, with a 1 there and 0 at the other free columns."""
    reduced, pivots = rref(rows)
    basis = []
    for free in range(cols):
        if free in pivots:
            continue
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -reduced[r][free]
        basis.append(v)
    return basis


def in_span(rows: Sequence[Sequence], vector: Sequence) -> bool:
    """Is `vector` a rational combination of `rows`?"""
    if any(len(r) != len(vector) for r in rows):
        raise ValueError(f"length-{len(vector)} vector vs rows of another length")
    return len(rref(rows)[1]) == len(rref([*rows, vector])[1])


def state_parikh(tree: SpanningTree, state: str) -> tuple[int, ...]:
    """Label counts along the tree path from the initial state to `state`,
    found by climbing parent edges."""
    lts = tree.lts
    if state not in lts.states:
        raise ValueError(f"unknown state: {state}")
    idx = lts.label_index()
    counts = [0] * len(lts.labels)
    while state != lts.initial:
        e = lts.edges[tree.parent_edge[state]]
        counts[idx[e.label]] += 1
        state = e.source
    return tuple(counts)


def edge_parikh(tree: SpanningTree, edge_index: int) -> tuple[int, ...]:
    """Parikh vector of an edge s -t-> s' relative to the tree:
    parikh(s) + unit(t) - parikh(s'). Zero exactly on tree edges."""
    lts = tree.lts
    if not 0 <= edge_index < len(lts.edges):
        raise ValueError(f"unknown edge index: {edge_index}")
    e = lts.edges[edge_index]
    v = [a - b for a, b in zip(state_parikh(tree, e.source), state_parikh(tree, e.target))]
    v[lts.labels.index(e.label)] += 1
    return tuple(v)


def state_signature(lts: Lts, basis: Sequence[Sequence], state: str) -> tuple:
    """Dot products of the state's tree Parikh vector with each basis vector.

    Two states get the same signature for a basis of the effect space exactly
    when no region can tell them apart.
    """
    for b in basis:
        if len(b) != len(lts.labels):
            raise ValueError("basis vector length does not match label count")
    p = state_parikh(spanning_tree(lts), state)
    return tuple(dot(b, p) for b in basis)


def ssp_solvable(lts: Lts, s: str, t: str) -> tuple[int, ...] | None:
    """A feasible effect vector distinguishing states s and t, or None.

    None happens exactly when the difference of the two tree Parikh vectors
    lies in the row span of the cycle base; then every region values s and t
    equally and the pair is inseparable.
    """
    if s == t:
        raise ValueError(f"state separation needs two distinct states, got {s} twice")
    tree = spanning_tree(lts)
    diff = tuple(a - b for a, b in zip(state_parikh(tree, s), state_parikh(tree, t)))
    for e in effect_space(lts):
        if dot(e, diff) != 0:
            return e
    return None
