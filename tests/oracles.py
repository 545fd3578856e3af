"""Independent computations the tests check the package against.

Everything here is written the slow, obvious way: `Fraction` row reduction
through `linalg.rref`, Parikh vectors found by climbing the spanning tree,
dot products per state or per pair, two-cycle conflicts found by comparing
every pair of edges by name, a splitting search that builds and checks
every leaf's split LTS, a leaf check that eliminates every leaf's
block columns anew, a search prune that re-tests every pair of states of
every collision class from full vectors, region validity checked edge by
edge, markings from Parikh vectors times transition effects, a token game
that compares every place against the dense `pre`/`post` rows, a `validate`
that walks the edges once per kind of violation, subset sums by listing
every index set, and the splitting contract checked clause by clause. The
tree walk, the cycle base and the embedding check also run here on tuples,
as the package ran them before it packed each vector into one int, and
the embeddability verdict and synthesis run here on per-state signatures
and `Region`s, as the package ran them before it stopped building both.
The command line parses argv here with one top-level `parse_args`, as
`cli.main` did before it handed argv straight to the verb's own parser.
None of it runs in the package.
"""

from __future__ import annotations

import itertools
from itertools import islice
from collections import deque
from fractions import Fraction
from math import gcd
from operator import add, ge, sub
from typing import Iterator, Sequence

from labelsplit import cli
from labelsplit.linalg import integer_echelon, nullspace_basis, rref
from labelsplit.lts import Edge, Lts, _fresh_names, spanning_tree
from labelsplit.petri import (
    Marking,
    NotEnabled,
    PetriNet,
    Verification,
    marking_name,
)
from labelsplit.reduction import SubsetSumInstance, _gamma_edges
from labelsplit.regions import EmbeddabilityReport, Region, effect_space, is_embeddable, separating_regions
from labelsplit.splitting import (
    LabelSplitting,
    SplitOutcome,
    _Search,
    apply_splitting,
    from_partitions,
    set_partitions,
)


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


def tuple_walk(
    lts: Lts,
    steps: Sequence[tuple[int, ...]],
    columns: Sequence[int] | None = None,
    start: tuple[int, ...] | None = None,
) -> list[tuple[int, ...]]:
    """The tree walk on tuples, as the package ran it before it packed
    vectors into ints: value(child) = value(parent) + steps[columns[i]]
    entry by entry, for the tree edge i into the child, `start` (zeros by
    default) at the initial state, listed in state order."""
    parent = spanning_tree(lts)
    src, lab, _ = lts.columns
    if columns is None:
        columns = lab
    if start is None:
        start = (0,) * (len(steps[0]) if steps else 0)
    values = [start] * len(lts.states)
    for d, i in parent.items():
        values[d] = tuple(map(add, values[src[i]], steps[columns[i]]))
    return values


def tuple_cycle_base(lts: Lts) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """`cycle_base` on tuples, as the package ran it before it packed
    vectors: each distinct chord parikh(s) + unit(t) - parikh(s'), in edge
    order, read by `integer_echelon`."""
    n = len(lts.labels)
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    parikh = tuple_walk(lts, units)
    parent = spanning_tree(lts)
    chords = dict.fromkeys(
        tuple(map(sub, map(add, parikh[s], units[t]), parikh[d]))
        for i, (s, t, d) in enumerate(zip(*lts.columns))
        if parent.get(d) != i
    )
    return integer_echelon(chords, n)


def state_parikh(lts: Lts, state: str) -> tuple[int, ...]:
    """Label counts along the tree path from the initial state to `state`,
    found by climbing parent edges."""
    if state not in lts.states:
        raise ValueError(f"unknown state: {state}")
    parent = {lts.states[d]: i for d, i in spanning_tree(lts).items()}
    idx = {t: k for k, t in enumerate(lts.labels)}
    counts = [0] * len(lts.labels)
    while state != lts.initial:
        e = lts.edges[parent[state]]
        counts[idx[e.label]] += 1
        state = e.source
    return tuple(counts)


def edge_parikh(lts: Lts, edge_index: int) -> tuple[int, ...]:
    """Parikh vector of an edge s -t-> s' relative to the tree:
    parikh(s) + unit(t) - parikh(s'). Zero exactly on tree edges."""
    if not 0 <= edge_index < len(lts.edges):
        raise ValueError(f"unknown edge index: {edge_index}")
    e = lts.edges[edge_index]
    v = [a - b for a, b in zip(state_parikh(lts, e.source), state_parikh(lts, e.target))]
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
    p = state_parikh(lts, state)
    return tuple(dot(b, p) for b in basis)


def oracle_signatures(lts: Lts) -> dict[str, tuple[int, ...]]:
    """Every state's `state_signature` under the effect basis, by name: the
    signatures the embeddability report listed before it kept only its
    verdict and witness."""
    basis = effect_space(lts)
    return {s: state_signature(lts, basis, s) for s in lts.states}


def embeddability_oracle(lts: Lts) -> EmbeddabilityReport:
    """The report read off `oracle_signatures`: embeddable iff they are
    pairwise distinct, and otherwise the first two states in state order
    that share one."""
    owner: dict[tuple[int, ...], str] = {}
    for s, signature in oracle_signatures(lts).items():
        if owner.setdefault(signature, s) != s:
            return EmbeddabilityReport(False, (owner[signature], s))
    return EmbeddabilityReport(True, None)


def regions_synthesize_oracle(lts: Lts) -> PetriNet:
    """`synthesize` as the package ran it before it built the net straight
    from the effect basis: one `separating_regions` region per place, the
    label weights read off each region's consume and produce maps and the
    initial marking off its value at the initial state."""
    regions = separating_regions(lts)
    places = tuple(islice(_fresh_names("p", set(lts.labels)), len(regions)))
    pre = {t: tuple(reg.consume[t] for reg in regions) for t in lts.labels}
    post = {t: tuple(reg.produce[t] for reg in regions) for t in lts.labels}
    initial = tuple(reg.state_value[lts.initial] for reg in regions)
    return PetriNet(places, tuple(lts.labels), pre, post, initial)


def ssp_solvable(lts: Lts, s: str, t: str) -> tuple[int, ...] | None:
    """A feasible effect vector distinguishing states s and t, or None.

    None happens exactly when the difference of the two tree Parikh vectors
    lies in the row span of the cycle base; then every region values s and t
    equally and the pair is inseparable.
    """
    if s == t:
        raise ValueError(f"state separation needs two distinct states, got {s} twice")
    diff = tuple(a - b for a, b in zip(state_parikh(lts, s), state_parikh(lts, t)))
    for e in effect_space(lts):
        if dot(e, diff) != 0:
            return e
    return None


def conflict_pairs(lts: Lts) -> dict[str, list[tuple[int, int]]]:
    """Per label, the pairs (i, j), i < j, of edge indices that form a
    two-state cycle under that label, s -t-> s' and s' -t-> s, found by name.
    Such a pair can never share a block in an embeddable splitting."""
    result: dict[str, list[tuple[int, int]]] = {t: [] for t in lts.labels}
    for i, e in enumerate(lts.edges):
        for j in range(i + 1, len(lts.edges)):
            f = lts.edges[j]
            if e.label == f.label and e.source != e.target and (f.source, f.target) == (e.target, e.source):
                result[e.label].append((i, j))
    return result


def decide_oracle(lts: Lts, max_labels: int, node_budget: int | None = None) -> SplitOutcome:
    """`splitting.decide` as it was before leaves reused the graph analysis:
    every leaf builds its canonical splitting, applies it, and runs
    `is_embeddable` on the split LTS. Same search order, node counting and
    budget rules; `leaves` counts the `is_embeddable` calls. It takes any
    budget, like one round of `splitting.optimize`, which runs q = 0 on an
    LTS without labels; `decide` itself rejects a budget below 1."""
    per_label = {t: [] for t in lts.labels}
    for i, e in enumerate(lts.edges):
        per_label[e.label].append(i)
    conflicts = conflict_pairs(lts)
    # most edges first; a label without edges has nothing to split
    order = [t for t in sorted(lts.labels, key=lambda t: -len(per_label[t])) if per_label[t]]
    extra_budget = max_labels - len(lts.labels)
    suffix = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + (1 if conflicts[order[i]] else 0)
    if extra_budget < 0 or suffix[0] > extra_budget:
        return SplitOutcome(None, False, 0, 0)
    nodes = leaves = 0
    chosen: dict[str, list[list[int]]] = {}
    # one frame per label with a chosen partition: (extra labels used by the
    # labels before it, the rest of its partitions)
    stack: list[tuple[int, Iterator[list[list[int]]]]] = []
    extra_used = 0
    while True:
        depth = len(stack)
        if depth < len(order):
            allowed = extra_budget - extra_used - suffix[depth + 1]
            positions = range(len(per_label[order[depth]]))
            parts = (blocks for _, blocks in set_partitions(positions, max_blocks=1 + allowed))
            stack.append((extra_used, parts))
        else:
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return SplitOutcome(None, True, nodes, leaves)
            leaves += 1
            candidate = from_partitions(lts, chosen)
            if is_embeddable(apply_splitting(lts, candidate)).embeddable:
                return SplitOutcome(candidate, False, nodes, leaves)
        # move the deepest frame to its next admissible partition, popping
        # the frames that have none left (a popped label's entry in `chosen`
        # is overwritten before the next leaf)
        while stack:
            base_used, parts = stack[-1]
            blocks = next(parts, None)
            if blocks is None:
                stack.pop()
                continue
            t = order[len(stack) - 1]
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return SplitOutcome(None, True, nodes, leaves)
            idxs = per_label[t]
            block_of = {idxs[k]: b for b, blk in enumerate(blocks) for k in blk}
            if any(block_of[a] == block_of[b] for a, b in conflicts[t]):
                continue
            chosen[t] = [[idxs[k] for k in blk] for blk in blocks]
            extra_used = base_used + len(blocks) - 1
            break
        else:
            return SplitOutcome(None, False, nodes, leaves)


def block_leaf_oracle(lts: Lts, chosen: dict[str, list[list[int]]]) -> bool:
    """The leaf check the search ran before it factored the cycle base once
    per search: does `lts`, split by the per-label partitions `chosen`,
    embed? Without building the split LTS: one column per block (a label's
    first block keeps the label's column, each further block gets its own),
    block-column Parikh vectors of the chords eliminated in integers, their
    effect basis, and pairwise distinct signatures along the tree."""
    idx = {t: k for k, t in enumerate(lts.labels)}
    columns = [idx[e.label] for e in lts.edges]
    cols = len(lts.labels)
    for blocks in chosen.values():
        for block in blocks[1:]:
            for i in block:
                columns[i] = cols
            cols += 1
    units = [tuple(int(c == j) for j in range(cols)) for c in range(cols)]
    parikh = dict(zip(lts.states, tuple_walk(lts, units, columns)))
    tree_edges = set(spanning_tree(lts).values())
    chords = []
    for i, e in enumerate(lts.edges):
        if i not in tree_edges:
            chord = [a - b for a, b in zip(parikh[e.source], parikh[e.target])]
            chord[columns[i]] += 1
            chords.append(chord)
    basis = nullspace_basis(*integer_echelon(chords, cols), cols)
    signatures = {tuple(dot(b, parikh[s]) for b in basis) for s in lts.states}
    return len(signatures) == len(lts.states)


def separation_cut_oracle(
    lts: Lts, order: Sequence[str], partitions: dict[str, list[list[int]]]
) -> list[bool]:
    """The collision-class prune decided from scratch at each node of one
    search path: the labels of `order` take their `partitions` one by one,
    and entry d says whether the node with order[: d + 1] assigned is cut:
    whether some pair of states of one unsplit collision class is separated
    by no fresh block assigned so far (every block sums d = u_s - u_s' to
    zero) and can be separated by no label still unassigned (d is zero on
    every edge of it but its lowest). Every pair of
    every class is tested at every node, from full u vectors:
    u_s = scale * (edges on the tree path to s) - sum over the pivot labels
    k of parikh(s)[k] * scale / a_k * row_k, over every edge."""
    search = _Search(lts)
    _, _, label_rows, scale, classes = search.factored
    parent = {lts.states[d]: i for d, i in spanning_tree(lts).items()}

    def u(state: str) -> list[int]:
        parikh, vector = state_parikh(lts, state), [0] * len(lts.edges)
        while state != lts.initial:
            vector[parent[state]] = scale
            state = lts.edges[parent[state]].source
        for k, row in label_rows.items():
            for i, x in row.items():
                if i >= 0:
                    vector[i] -= parikh[k] * (scale // row[~k]) * x
        return vector

    us = {s: u(lts.states[s]) for group in classes for s in group}
    differences = [
        [a - b for a, b in zip(us[s], us[t])] for group in classes for s, t in itertools.combinations(group, 2)
    ]
    cuts = []
    for depth in range(len(order)):
        fresh = [block for x in order[: depth + 1] for block in partitions[x][1:]]
        unassigned = order[depth + 1 :]
        cuts.append(
            any(
                not any(sum(d[i] for i in block) for block in fresh)
                and not any(d[i] for x in unassigned for i in search.per_label[x][1:])
                for d in differences
            )
        )
    return cuts


def separates(region: Region, s: str, t: str) -> bool:
    return region.state_value[s] != region.state_value[t]


def region_violations(region: Region, lts: Lts) -> list[str]:
    """Why `region` is not a valid region of `lts`; empty list means valid."""
    problems: list[str] = []
    for s in lts.states:
        if s not in region.state_value:
            problems.append(f"no value for state {s}")
        elif region.state_value[s] < 0:
            problems.append(f"negative value at state {s}")
    for t in lts.labels:
        if region.consume.get(t, 0) < 0 or region.produce.get(t, 0) < 0:
            problems.append(f"negative consume/produce at label {t}")
        if t not in region.consume or t not in region.produce:
            problems.append(f"no consume/produce for label {t}")
    if problems:
        return problems
    for e in lts.edges:
        have = region.state_value[e.source]
        need = region.consume[e.label]
        if have < need:
            problems.append(
                f"edge {e.source} -{e.label}-> {e.target}: value {have} below consume {need}"
            )
            continue
        after = have - need + region.produce[e.label]
        if after != region.state_value[e.target]:
            problems.append(
                f"edge {e.source} -{e.label}-> {e.target}: "
                f"expected value {after}, declared {region.state_value[e.target]}"
            )
    return problems


def validate_splitting(lts: Lts, splitting: LabelSplitting) -> list[str]:
    """The splitting contract; empty list means well formed (and the result
    stays deterministic). Each original stands for itself; a new label
    stands for the original of the first edge it relabels, and must stand
    for that one on every edge it relabels."""
    problems: list[str] = []
    if len(set(splitting.alphabet)) != len(splitting.alphabet):
        problems.append("alphabet has duplicate labels")
    for t in lts.labels:
        if t not in splitting.alphabet:
            problems.append(f"original label {t} missing from alphabet")
    if len(splitting.edge_labels) != len(lts.edges):
        problems.append("edge relabelling length differs from edge count")
        return problems
    parent = {t: t for t in lts.labels}
    for i, e in enumerate(lts.edges):
        new = splitting.edge_labels[i]
        if new not in splitting.alphabet:
            problems.append(f"edge {i} assigned unknown label {new}")
        elif parent.setdefault(new, e.label) != e.label:
            problems.append(
                f"edge {i} relabelled {e.label} -> {new}, which maps back to {parent[new]}"
            )
    for t in splitting.alphabet:
        if t not in parent:
            problems.append(f"label {t} relabels no edge, so it stands for no original")
    seen: set[tuple[str, str]] = set()
    for i, e in enumerate(lts.edges):
        key = (e.source, splitting.edge_labels[i])
        if key in seen:
            problems.append(f"result nondeterministic at {key[0]} with label {key[1]}")
        seen.add(key)
    return problems


def index_set_splitting(
    instance: SubsetSumInstance, lts: Lts, index_set: set[int] | frozenset[int]
) -> LabelSplitting:
    """The canonical tight-budget splitting of a subset-sum gadget encoding an
    index set: each g_i splits in two with the balance slot joining the
    forward block when i is in the set, the reverse block otherwise."""
    for i in index_set:
        if not 1 <= i <= instance.n:
            raise ValueError(f"index {i} out of range 1..{instance.n}")
    partitions: dict[str, list[list[int]]] = {}
    for i, (fwd, rev, slot) in enumerate(_gamma_edges(lts, instance.n), start=1):
        if i in index_set:
            partitions[f"g{i}"] = [[fwd, slot], [rev]]
        else:
            partitions[f"g{i}"] = [[fwd], [rev, slot]]
    return from_partitions(lts, partitions)


def subset_sum_oracle(instance: SubsetSumInstance) -> tuple[int, ...] | None:
    """`reduction.subset_sum_brute` by `itertools.combinations`: of every
    ascending index set (1-based) whose values sum to the target, the
    lexicographically smallest, or None."""
    hits = [
        chosen
        for r in range(1, instance.n + 1)
        for chosen in itertools.combinations(range(1, instance.n + 1), r)
        if sum(instance.values[i - 1] for i in chosen) == instance.target
    ]
    return min(hits, default=None)


def marking_map(lts: Lts, net: PetriNet) -> dict[str, Marking]:
    """Every state's marking: the initial marking plus, for each label, the
    state's tree Parikh count times the transition's effect post - pre,
    place by place."""
    mapping = {}
    for s in lts.states:
        m = list(net.initial_marking)
        for count, t in zip(state_parikh(lts, s), lts.labels):
            for j in range(len(m)):
                m[j] += count * (net.post[t][j] - net.pre[t][j])
        mapping[s] = tuple(m)
    return mapping


# --- token game on the dense arc rows -----------------------------------


def fire_oracle(net: PetriNet, marking: Marking, transition: str) -> Marking:
    """One firing, comparing the marking with the whole `pre` row place by
    place: raises NotEnabled naming the first short place, ValueError for
    an unknown transition."""
    try:
        pre = net.pre[transition]
    except KeyError:
        raise ValueError(f"unknown transition: {transition}") from None
    if not all(map(ge, marking, pre)):
        short = next(p for p, m, w in zip(net.places, marking, pre) if m < w)
        raise NotEnabled(transition, short)
    return tuple(map(add, map(sub, marking, pre), net.post[transition]))


def reachability_graph_oracle(net: PetriNet, max_states: int = 10000) -> Lts | None:
    """Breadth-first search over `fire_oracle` with a separate queue, every
    transition tried at every marking and a disabled one caught as
    NotEnabled; None past `max_states` states."""
    start = net.initial_marking
    names: dict[Marking, str] = {start: marking_name(net, start)}
    order: list[Marking] = [start]
    edges: list[Edge] = []
    frontier = deque([start])
    while frontier:
        m = frontier.popleft()
        for t in net.transitions:
            try:
                succ = fire_oracle(net, m, t)
            except NotEnabled:
                continue
            if succ not in names:
                if len(names) == max_states:
                    return None
                names[succ] = marking_name(net, succ)
                order.append(succ)
                frontier.append(succ)
            edges.append(Edge(names[m], t, names[succ]))
    return Lts.from_names(
        states=tuple(names[m] for m in order),
        labels=net.transitions,
        edges=tuple(edges),
        initial=names[start],
    )


def verify_embedding_oracle(lts: Lts, net: PetriNet) -> Verification:
    """The embedding check with markings from `marking_map` and every LTS
    edge replayed through `fire_oracle`, in the order negative markings,
    injectivity, then edges."""
    missing = [t for t in lts.labels if t not in net.pre]
    if missing:
        raise ValueError(f"label is not a transition of the net: {missing[0]}")
    mapping = marking_map(lts, net)
    for s in lts.states:
        if any(v < 0 for v in mapping[s]):
            return Verification(False, f"negative-marking {s}")
    seen: dict[Marking, str] = {}
    for s in lts.states:
        m = mapping[s]
        if m in seen:
            return Verification(False, f"not-injective {seen[m]} {s}")
        seen[m] = s
    for e in lts.edges:
        try:
            fired = fire_oracle(net, mapping[e.source], e.label)
        except NotEnabled as short:
            return Verification(
                False, f"not-enabled {e.source} {e.label} {short.place}"
            )
        if fired != mapping[e.target]:
            return Verification(
                False, f"edge-mismatch {e.source} {e.label} {e.target}"
            )
    return Verification(True, None)


def tuple_verify_embedding(lts: Lts, net: PetriNet) -> Verification:
    """`verify_embedding` on tuple markings, as the package ran it before
    it packed them: markings from `tuple_walk` over the transition
    effects, and each edge replayed by label id, testing its input places
    in place order."""
    missing = [t for t in lts.labels if t not in net.pre]
    if missing:
        raise ValueError(f"label is not a transition of the net: {missing[0]}")
    # per label id: input arcs in place order, and the effect post - pre
    moves = [
        (tuple((p, w) for p, w in enumerate(net.pre[t]) if w), tuple(map(sub, net.post[t], net.pre[t])))
        for t in lts.labels
    ]
    markings = tuple_walk(lts, [effect for _, effect in moves], start=net.initial_marking)
    for s, m in zip(lts.states, markings):
        if min(m, default=0) < 0:
            return Verification(False, f"negative-marking {s}")
    seen: dict[Marking, str] = {}
    for s, m in zip(lts.states, markings):
        if seen.setdefault(m, s) != s:
            return Verification(False, f"not-injective {seen[m]} {s}")
    states, labels = lts.states, lts.labels
    for s, t, d in zip(*lts.columns):
        m = markings[s]
        inputs, effect = moves[t]
        for p, w in inputs:
            if m[p] < w:
                return Verification(False, f"not-enabled {states[s]} {labels[t]} {net.places[p]}")
        if tuple(map(add, m, effect)) != markings[d]:
            return Verification(False, f"edge-mismatch {states[s]} {labels[t]} {states[d]}")
    return Verification(True, None)


def validate_oracle(parts: tuple) -> list[str]:
    """What `Lts.from_names(*parts)` refuses and `validate` reports, on its
    four parts (states, labels, edges, initial): one pass over
    the edges for undeclared ends and labels, one for repeated (source,
    label) pairs, and a reachability search of its own over the declared
    states. The build raises the first "dangling reference"; `validate`
    gives the rest."""
    states, labels, edges, initial = parts
    problems: list[str] = []
    state_set = set(states)
    label_set = set(labels)
    if len(state_set) != len(states):
        problems.append("dangling reference: duplicate state declaration")
    if len(label_set) != len(labels):
        problems.append("dangling reference: duplicate label declaration")
    if initial not in state_set:
        problems.append(f"dangling reference: initial state {initial} not declared")
    for i, e in enumerate(edges):
        if e.source not in state_set:
            problems.append(f"dangling reference: edge {i} source {e.source} not declared")
        if e.target not in state_set:
            problems.append(f"dangling reference: edge {i} target {e.target} not declared")
        if e.label not in label_set:
            problems.append(f"dangling reference: edge {i} label {e.label} not declared")
    seen_pairs: set[tuple[str, str]] = set()
    for e in edges:
        key = (e.source, e.label)
        if key in seen_pairs:
            problems.append(f"nondeterministic: two edges from {e.source} with label {e.label}")
        seen_pairs.add(key)
    if initial in state_set:
        reached = {initial}
        grew = True
        while grew:
            grew = False
            for e in edges:
                if e.source in reached and e.target in state_set and e.target not in reached:
                    reached.add(e.target)
                    grew = True
        problems += [f"unreachable state: {s}" for s in states if s not in reached]
    return problems


def parse_args_main(argv: list[str]) -> int:
    """`cli.main` with argv parsed by a freshly built top-level parser, which
    hands what follows the verb to the verb's subparser."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except cli._Fail as fail:
        return fail.code
