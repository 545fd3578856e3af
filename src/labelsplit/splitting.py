"""Label splittings: relabelling edges to make an LTS embeddable.

A splitting refines the alphabet: every original label keeps its name, each
label's edge set may be partitioned into blocks, and every extra block gets a
fresh label that stands for the original. A split LTS is the same states,
graph and spanning tree with a new label column and the alphabet as labels.

Canonical form: per label, the block containing the lowest-numbered edge
keeps the original name; the remaining blocks are named `<label>#1`,
`<label>#2`, ... in order of their lowest edge index, skipping names that
are labels already. Every splitting is equivalent to exactly one canonical
splitting, so searches enumerate only those.

`decide` is a complete branch-and-bound over canonical splittings within a
label budget, on an explicit stack of one frame per label plus one for the
leaf. A node is a partition candidate or a leaf, counted in one place. Labels
with a two-edge cycle (s -t-> s' and s' -t-> s) can never keep both edges in
one block: any region would need the block label's effect x to satisfy 2x = 0,
forcing equal values on s and s', so such pairs are inseparable. That rule
gives a sound per-label lower bound of two blocks and a partition filter; both
prunings preserve completeness.

A leaf of the search never builds its split LTS. With one column per label,
the sum of its blocks, and one per fresh block, every leaf's cycle base has
the same label columns, so a search eliminates them from the chord rows once.
The chords and their fundamental cycles come from the LTS's one spanning
tree, `spanning_tree(lts)`, keyed by state id: edge i is a chord unless
`parent.get(dst[i]) == i`, and a cycle climbs that map from both ends of
its chord, by the depths of one `walk` down the tree.
Only states that collide unsplit can collide at a leaf, since splitting
refines the alphabet. A leaf sums the remaining rows, kept only by edge as
sparse columns, over each fresh block. If those sums have full rank, which one
fraction-free forward pass certifies, no effect is left to separate a class
and the leaf fails; otherwise it takes the effect basis of those few columns
and compares each collision class under it, as `lts.Packing` ints. A leaf
that passes becomes a `LabelSplitting`, confirmed with `is_embeddable` on
the split LTS before it is returned.

`optimize` tries one label count after another, each only once every
smaller count has failed, so a round visits only the splittings with exactly
its count. Later rounds also cut a node below which two states of a
collision class can no longer be separated (`_Separation`): region theory's
state separation problem, restricted to the pairs that collide unsplit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterator, Sequence

from .linalg import independent, integer_echelon, nullspace_basis
from .lts import FormatError, Lts, Packing, _content_lines, _fresh_names, _int_token, spanning_tree, walk
from .regions import is_embeddable


@dataclass(frozen=True)
class LabelSplitting:
    """`edge_labels` gives the new label of every edge in canonical edge
    order; a label that is not an original stands for the original of the
    edges it relabels. `alphabet` is the refined label set in one order: the
    originals, then the new labels by first use along the edges."""

    alphabet: tuple[str, ...]
    edge_labels: tuple[str, ...]

    def labels_used(self) -> int:
        return len(self.alphabet)


def from_partitions(
    lts: Lts, partitions: dict[str, Sequence[Sequence[int]]]
) -> LabelSplitting:
    """Canonical splitting from per-label partitions of edge indices.

    `partitions` maps a label to a partition of that label's edges, given as
    edge indices (positions in `lts.columns`), into nonempty blocks; labels
    not in the dict stay unsplit.
    """
    edge_labels = [lts.labels[k] for k in lts.columns[1]]
    per_label: dict[str, list[int]] = {t: [] for t in lts.labels}
    for i, t in enumerate(edge_labels):
        per_label[t].append(i)
    for t, partition in partitions.items():
        # disjoint nonempty blocks sort by their lowest edge
        blocks = sorted(sorted(int(i) for i in blk) for blk in partition)
        flat = sorted(i for blk in blocks for i in blk)
        if t not in per_label or not all(blocks) or flat != per_label[t]:
            raise ValueError(f"partition for {t} does not cover its edge set exactly")
        for blk, name in zip(blocks[1:], _fresh_names(f"{t}#", per_label)):
            for i in blk:
                edge_labels[i] = name
    return LabelSplitting(_alphabet(lts, edge_labels), tuple(edge_labels))


def _alphabet(lts: Lts, edge_labels: Sequence[str]) -> tuple[str, ...]:
    """A splitting's one alphabet order: the originals, then the new labels
    by first use along the edges."""
    return tuple(dict.fromkeys((*lts.labels, *edge_labels)))


def apply_splitting(lts: Lts, splitting: LabelSplitting) -> Lts:
    """Relabel the edges; states, initial state, graph shape and the memoised
    search of `lts` are kept, and the labels are the splitting's alphabet.
    Raises ValueError unless `splitting` is a splitting of `lts`, by
    `parse_splitting`'s rule: one label per edge; the alphabet in
    `LabelSplitting`'s one order; and every label standing for one original,
    an original for itself and a new label for the original of the edges
    it relabels."""
    src, old, dst = lts.columns
    if len(splitting.edge_labels) != len(old):
        raise ValueError("splitting does not match the LTS edge count")
    alphabet = splitting.alphabet
    if alphabet != (ordered := _alphabet(lts, splitting.edge_labels)):
        raise ValueError(f"splitting alphabet is not {ordered}: the originals, then the new labels by first use")
    label_ids = {t: i for i, t in enumerate(alphabet)}
    lab = [label_ids[t] for t in splitting.edge_labels]
    # by label id: the original each label of the alphabet stands for
    stands_for = {label_ids[t]: k for k, t in enumerate(lts.labels)}
    for i, (new, k) in enumerate(zip(lab, old)):
        if stands_for.setdefault(new, k) != k:
            original, other = lts.labels[k], lts.labels[stands_for[new]]
            raise ValueError(f"edge {i} of {original} relabelled to {alphabet[new]}, which stands for {other}")
    split = Lts(lts.states, alphabet, (src, lab, dst), lts.initial)
    vars(split)["_parents"] = lts._parents
    return split


# --- witness text form --------------------------------------------------


def serialize_splitting(lts: Lts, splitting: LabelSplitting) -> str:
    """Sparse text form: a `labels <count>` line, then one
    `split <edge-index> <new-label>` line per edge whose label changed."""
    out = [f"labels {splitting.labels_used()}"]
    pairs = enumerate(zip(lts.columns[1], splitting.edge_labels, strict=True))
    out += [f"split {i} {new}" for i, (k, new) in pairs if new != lts.labels[k]]
    return "\n".join(out) + "\n"


def parse_splitting(lts: Lts, text: str) -> LabelSplitting:
    """Parse a witness against the LTS it splits. New labels are taken as
    written; each relabels edges of a single original label, and an original
    name may only keep its own edges. `labels N` counts the originals plus
    the new labels, which enter the alphabet by first use along the edges.

    Unlike the LTS/net formats this one has no comment syntax: canonical
    fresh labels contain `#`, so `#` stays an ordinary character here."""
    lines = _content_lines(text, None)
    header, parts = next(lines, (1, None))
    if parts is None:
        raise FormatError(1, "empty input, expected 'labels' header")
    if len(parts) != 2 or parts[0] != "labels":
        raise FormatError(header, "expected 'labels <count>'")
    declared = _int_token(parts[1], header, "label count")
    edge_labels = [lts.labels[k] for k in lts.columns[1]]
    relabelled: set[int] = set()
    # the original each label stands for
    stands_for = {t: t for t in lts.labels}
    for n, parts in lines:
        if len(parts) != 3 or parts[0] != "split":
            raise FormatError(n, "expected 'split <edge-index> <new-label>'")
        i = _int_token(parts[1], n, "edge index")
        if not 0 <= i < len(edge_labels):
            raise FormatError(n, f"edge index out of range: {i}")
        if i in relabelled:
            raise FormatError(n, f"edge {i} relabelled twice")
        relabelled.add(i)
        new, original = parts[2], edge_labels[i]  # not relabelled yet
        if stands_for.setdefault(new, original) != original:
            raise FormatError(
                n, f"edge {i} of {original} relabelled to {new}, which stands for {stands_for[new]}"
            )
        edge_labels[i] = new
    if declared != len(stands_for):
        raise FormatError(header, f"declared {declared} labels, witness uses {len(stands_for)}")
    return LabelSplitting(_alphabet(lts, edge_labels), tuple(edge_labels))


# --- search -------------------------------------------------------------


def set_partitions(
    items: Sequence[int], max_blocks: int | None = None, min_blocks: int = 0
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """All set partitions of `items`, `min_blocks` to `max_blocks` blocks,
    each with its restricted-growth string: the block of every position.

    Restricted-growth-string order, so the single-block partition comes
    first. Blocks are listed by their first item, items in their order. Each
    string is a fresh list. Iterative, so a label with thousands of edges
    needs no deep recursion.
    """
    count = len(items)
    cap = count if max_blocks is None else min(max_blocks, count)
    if count == 0 and min_blocks <= 0:
        yield [], []
    if cap < 1 or cap < min_blocks:
        return
    assign = [0] * count
    used = [1] * count  # used[i]: blocks among assign[: i + 1]
    i = 0
    while True:
        if min_blocks > used[i]:  # the tail after i ends in the blocks still needed
            for j in range(count - min_blocks + used[i], count):
                assign[j], used[j] = used[j - 1], used[j - 1] + 1
        blocks: list[list[int]] = [[] for _ in range(used[-1])]
        for x, b in zip(items, assign):
            blocks[b].append(x)
        yield assign, blocks
        # advance the last position that can still grow (closing no block), reset the rest
        i = count - 1
        while i > 0 and assign[i] + 1 >= min(used[i - 1] + 1, cap):
            i -= 1
        if i == 0:
            return
        assign = [*assign[:i], assign[i] + 1, *[0] * (count - i - 1)]  # the yielded list stays as it was
        used[i] = max(used[i - 1], assign[i] + 1)
        used[i + 1 :] = [used[i]] * (count - i - 1)


@dataclass(frozen=True)
class SplitOutcome:
    """A witness `splitting`, a definitive not-found (None), or `exhausted`
    when the node budget ran out first. `nodes` counts search nodes, `leaves`
    the leaf checks run: embeddability tests of complete candidates."""

    splitting: LabelSplitting | None
    exhausted: bool
    nodes: int
    leaves: int

    @property
    def found(self) -> bool:
        return self.splitting is not None


class _Search:
    """What a search needs that no label budget changes: each label's edge
    indices, its two-cycle conflicts as pairs of positions in them and the
    order labels are split in, and for the leaf check the factored cycle
    base of the unsplit LTS. A splitting changes edge labels, never the
    graph, so it holds at every leaf. It is built at the first leaf;
    `optimize` shares one `_Search` across its budget rounds."""

    def __init__(self, lts: Lts) -> None:
        self.lts = lts
        src, self.label_columns, dst = lts.columns
        self.per_label: dict[str, list[int]] = {t: [] for t in lts.labels}
        edges_of = list(self.per_label.values())
        for i, k in enumerate(self.label_columns):
            edges_of[k].append(i)
        position = {i: k for edges in edges_of for k, i in enumerate(edges)}
        # two-cycle conflicts: edges s -t-> s' and s' -t-> s, s != s'
        triples = list(zip(src, self.label_columns, dst))
        edge_of = {triple: i for i, triple in enumerate(triples)}
        self.conflicts: dict[str, list[tuple[int, int]]] = {t: [] for t in lts.labels}
        for i, (s, k, d) in enumerate(triples):
            j = edge_of.get((d, k, s), -1)
            if i < j and s != d:
                self.conflicts[lts.labels[k]].append((position[i], position[j]))
        # most edges first; a label without edges has nothing to split
        self.order = sorted((t for t in lts.labels if self.per_label[t]), key=lambda t: -len(self.per_label[t]))
        # suffix[d]: labels from order[d] on that need a second block;
        # capacity[d]: the extra labels they add with every edge in a block
        self.suffix = [0] * (len(self.order) + 1)
        self.capacity = [0] * (len(self.order) + 1)
        for d in range(len(self.order) - 1, -1, -1):
            self.suffix[d] = self.suffix[d + 1] + (1 if self.conflicts[self.order[d]] else 0)
            self.capacity[d] = self.capacity[d + 1] + len(self.per_label[self.order[d]]) - 1

    @cached_property
    def depth(self) -> list[int]:
        """Per state id, its depth in the spanning tree."""
        return walk(self.lts, [1] * len(self.lts.labels))

    def path(self, s: int, t: int) -> dict[int, int]:
        """The tree edges below the common ancestor of states s and t (ids):
        +1 to s, -1 to t."""
        src, parent, depth = self.lts.columns[0], self.lts._parents, self.depth
        path = {}
        while s != t:
            if depth[s] >= depth[t]:
                path[parent[s]] = 1
                s = src[parent[s]]
            else:
                path[parent[t]] = -1
                t = src[parent[t]]
        return path

    @cached_property
    def factored(
        self,
    ) -> tuple[list[list[tuple[int, int]]], int, dict[int, dict[int, int]], int, list[list[int]]]:
        """Sparse chord rows over labels (key ~label) and splittable edges
        (those of labels with two or more edges), label columns eliminated:
        the remainder rows, held only by edge (per edge index, its (row
        index, entry) pairs, exactly the rows' nonzeros), and their count;
        the label rows by pivot label p_k, pivot a_k; scale = lcm(a_k); and
        the classes, two or more states (ids) with equal unsplit signatures.
        u_s = scale * (splittable edges on the path to s)
        - sum over k of parikh(s)[p_k] * scale / a_k * row_k."""
        lts = self.lts
        src, label, dst = lts.columns
        splittable = {i for edges in self.per_label.values() if len(edges) > 1 for i in edges}
        parent = spanning_tree(lts)
        label_rows: dict[int, dict[int, int]] = {}
        remainder: list[list[tuple[int, int]]] = [[] for _ in label]
        rows = 0
        for i in range(len(label)):
            if parent.get(dst[i]) == i:
                continue
            # the fundamental cycle: the chord s -> t and the tree path from
            # s up to the common ancestor count +1, the path from t -1
            cycle = {i: 1, **self.path(src[i], dst[i])}
            row = {j: sign for j, sign in cycle.items() if j in splittable}
            for j, sign in cycle.items():
                row[~label[j]] = row.get(~label[j], 0) + sign
            row = {k: x for k, x in row.items() if x}
            for key, pivot_row in label_rows.items():
                if key in row:
                    row = _combine(row, pivot_row, key)
            lead = next((k for k in row if k < 0), None)
            if lead is None:
                if row:
                    for j, x in row.items():
                        remainder[j].append((rows, x))
                    rows += 1
                continue
            for key, pivot_row in label_rows.items():
                if lead in pivot_row:
                    label_rows[key] = _combine(pivot_row, row, lead)
            label_rows[lead] = row
        scale = lcm(*(row[key] for key, row in label_rows.items()))
        label_rows = {~key: row for key, row in label_rows.items()}
        # unsplit signatures, packed: parikh(s) less the label rows, at the free labels
        free = [j for j in range(len(lts.labels)) if j not in label_rows]
        steps = [tuple(scale * (j == k) for j in free) for k in range(len(lts.labels))]
        for k, row in label_rows.items():
            steps[k] = tuple(-(scale // row[~k]) * row.get(~j, 0) for j in free)
        groups: dict[int, list[int]] = {}
        for s, signature in enumerate(walk(lts, Packing.summing(steps, len(lts.states)).pack(steps))):
            groups.setdefault(signature, []).append(s)
        classes = [g for g in groups.values() if len(g) > 1]
        return remainder, rows, label_rows, scale, classes

    def embeddable(self, chosen: dict[str, list[list[int]]]) -> bool:
        """Leaf check: does the LTS split by `chosen` embed? Iff the states of
        each class differ in their fresh-block sums w_s of u_s under Y, the
        effect basis of the remainder rows summed over each fresh block. A
        leaf whose block sums have full rank has no Y and fails at once."""
        fresh = [block for blocks in chosen.values() for block in blocks[1:]]
        remainder, rows, label_rows, scale, classes = self.factored
        if not fresh or not classes:
            return not classes
        vectors = []  # per fresh block, its column sum
        for block in fresh:
            vector = [0] * rows
            for i in block:
                for r, x in remainder[i]:
                    vector[r] += x
            vectors.append(vector)
        if len(fresh) <= rows and independent(vectors):
            return False
        # rank below len(fresh): Y is not empty
        ys = nullspace_basis(*integer_echelon(zip(*vectors), len(fresh)), len(fresh))
        # w_s . y, in one walk: an edge steps by its label row's block sums
        # times -scale / a_k, plus scale on its fresh block, projected on Y
        steps = [(0,) * len(ys)] * len(self.lts.labels)
        for k, row in label_rows.items():
            block_sums = [sum(row.get(i, 0) for i in block) for block in fresh]
            steps[k] = tuple(-(scale // row[~k]) * sum(map(mul, block_sums, y)) for y in ys)
        columns = list(self.label_columns)
        for b, block in enumerate(fresh):
            for i in block:
                steps.append(tuple(x + scale * y[b] for x, y in zip(steps[columns[i]], ys)))
                columns[i] = len(steps) - 1
        sums = walk(self.lts, Packing.summing(steps, len(self.lts.states)).pack(steps), columns)
        return all(len({sums[s] for s in group}) == len(group) for group in classes)


def _combine(v: dict[int, int], row: dict[int, int], key: int) -> dict[int, int]:
    """`linalg._eliminate` on sparse rows: zero at `key`, entries of gcd 1."""
    g = gcd(row[key], v[key])
    a, b = row[key] // g, v[key] // g
    w = {k: x for k in v.keys() | row.keys() if (x := a * v.get(k, 0) - b * row.get(k, 0))}
    g = gcd(*w.values())
    return {k: x // g for k, x in w.items()} if g > 1 else w


# states of a collision class the separation prune follows; any subset keeps
# it sound, and each costs two tree paths to build and a block sum per node
_TRACKED = 8


class _Separation:
    """The collision-class prune of `optimize`. States s, s' of a class collide
    at a leaf whose fresh blocks all sum d = u_s - u_s' to zero (`factored`),
    and a fresh block never holds its label's lowest edge. So once s and s'
    agree on the sums over the fresh blocks so far and on d at every other
    edge of the unassigned labels, no leaf below separates them. A tracked
    state keeps d_s = u_s - u_rep (rep: its class's first state) sparse over
    those edges, and per node an id, equal where the sums so far are."""

    def __init__(self, search: _Search) -> None:
        _, _, label_rows, scale, classes = search.factored
        label, order, per_label = search.label_columns, search.order, search.per_label
        holdable = {i for t in order for i in per_label[t][1:]}
        tracked: list[dict[int, int]] = []
        ids: list[int] = []  # per tracked state, its class
        for c, group in enumerate(classes):
            for s in group[:_TRACKED]:
                path = search.path(s, group[0])
                d = {i: scale * sign for i, sign in path.items() if i in holdable}
                pivots: dict[int, int] = {}  # parikh(s) - parikh(rep)
                for i, sign in path.items():
                    pivots[label[i]] = pivots.get(label[i], 0) + sign
                for k, row in label_rows.items():
                    factor = pivots.get(k, 0) * (scale // row[~k])
                    for j in holdable.intersection(row) if factor else ():
                        d[j] = d.get(j, 0) - factor * row[j]
                tracked.append({i: x for i, x in d.items() if x})
                ids.append(c)
        # columns[depth][i]: d_s at edge i of order[depth], per tracked state
        self.columns = [{i: tuple([d.get(i, 0) for d in tracked]) for i in per_label[t][1:]} for t in order]
        # groups[depth]: the tracked states of a class that agree on d over
        # every label after order[depth] (equal ids), where two or more do
        self.groups: list[list[list[int]]] = []
        for columns in [{}, *reversed(self.columns[1:])]:
            keys: dict[tuple, int] = {}
            ids = [keys.setdefault(key, len(keys)) for key in zip(ids, *columns.values())]
            by_id: dict[int, list[int]] = {}
            for j, x in enumerate(ids):
                by_id.setdefault(x, []).append(j)
            self.groups.insert(0, [g for g in by_id.values() if len(g) > 1])
        self.start = [0] * len(tracked)

    def refine(self, ids: list[int], depth: int, blocks: list[list[int]]) -> list[int] | None:
        """The ids once order[depth] takes `blocks`, or None when two tracked
        states of a class can no longer be separated."""
        if len(blocks) > 1:
            # per fresh block, its sum of d_s for every tracked state
            sums = [map(sum, zip(*(self.columns[depth][i] for i in block))) for block in blocks[1:]]
            keys: dict[tuple, int] = {}
            ids = [keys.setdefault(key, len(keys)) for key in zip(ids, *sums)]
        for group in self.groups[depth]:
            if len({ids[j] for j in group}) < len(group):
                return None
        return ids


def decide(lts: Lts, max_labels: int, node_budget: int | None = None) -> SplitOutcome:
    """Is there a splitting with at most `max_labels` labels whose result is
    embeddable? Complete search over canonical splittings; the first witness
    found (identity first, then increasingly split) is returned verified.

    `node_budget` caps the search nodes, partition candidates and leaves,
    each counted in one place; hitting it yields an `exhausted` outcome,
    weaker than a definitive not-found. An explicit stack keeps one frame per
    label plus one for the leaf, so no number of labels needs deep recursion.
    """
    if max_labels < 1:
        raise ValueError(f"label budget must be at least 1, got {max_labels}")
    return _decide(_Search(lts), max_labels, node_budget)


def _decide(
    search: _Search, max_labels: int, node_budget: int | None, exact: bool = False, separation: _Separation | None = None
) -> SplitOutcome:
    """`decide` on a shared `_Search`, over exactly `max_labels` labels if `exact`."""
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be at least 0, got {node_budget}")
    lts, order, suffix, capacity = search.lts, search.order, search.suffix, search.capacity
    extra_budget = max_labels - len(lts.labels)
    if extra_budget < 0 or suffix[0] > extra_budget:
        return SplitOutcome(None, False, 0, 0)
    least = extra_budget if exact else 0
    nodes = leaves = 0
    chosen: dict[str, list[list[int]]] = {}
    # one frame per label and one for the leaf: (extra labels used by the
    # labels before it, their separation ids, the rest of its candidates)
    stack: list[tuple[int, list[int] | None, Iterator[tuple[list[int], list[list[int]]]]]] = []
    extra_used = 0
    ids = separation.start if separation else None
    while True:
        depth = len(stack)
        if depth == len(order):
            parts: Iterator[tuple[list[int], list[list[int]]]] = iter((([], []),))  # the leaf: one candidate
        else:
            allowed = extra_budget - extra_used - suffix[depth + 1]
            need = least - extra_used - capacity[depth + 1]  # extra blocks it must add
            parts = set_partitions(search.per_label[order[depth]], 1 + allowed, 1 + need)
        stack.append((extra_used, ids, parts))
        # a popped label's entry in `chosen` is overwritten before the next leaf
        while stack:
            extra_used, ids, parts = stack[-1]
            part = next(parts, None)
            if part is None:
                stack.pop()
                continue
            nodes += 1
            if node_budget is not None and nodes > node_budget:
                return SplitOutcome(None, True, nodes, leaves)
            depth = len(stack) - 1
            if depth == len(order):
                leaves += 1
                if search.embeddable(chosen):
                    # built once, and confirmed on the split LTS itself
                    candidate = from_partitions(lts, chosen)
                    if not is_embeddable(apply_splitting(lts, candidate)).embeddable:
                        raise AssertionError("leaf check accepted a splitting that does not embed")
                    return SplitOutcome(candidate, False, nodes, leaves)
                continue
            t = order[depth]
            assign, blocks = part
            if any(assign[a] == assign[b] for a, b in search.conflicts[t]):
                continue
            chosen[t] = blocks
            if separation:
                ids = separation.refine(ids, depth, blocks)
                if ids is None:
                    continue
            extra_used += len(blocks) - 1
            break
        else:
            return SplitOutcome(None, False, nodes, leaves)


def optimize(lts: Lts, node_budget: int | None = None) -> SplitOutcome:
    """A splitting with the fewest labels whose result is embeddable.

    Tries budgets |labels|, |labels|+1, ... upward; the fully split LTS (all
    edge labels distinct) is always embeddable, so the loop ends by
    |labels| + |edges|. The analysis of the graph is shared by every round.
    Round q visits only splittings with exactly q labels, as every smaller
    budget has failed; once a round fails after more than one leaf (round
    |labels| has one), the later rounds also run the `_Separation` prune.
    `node_budget` caps each round on its own; a round that runs out ends the
    search `exhausted`. `nodes` and `leaves` sum over the rounds run."""
    search = _Search(lts)
    separation = None
    nodes = leaves = 0
    for q in range(len(lts.labels), len(lts.labels) + len(lts.columns[1]) + 1):
        outcome = _decide(search, q, node_budget, exact=True, separation=separation)
        nodes += outcome.nodes
        leaves += outcome.leaves
        if outcome.found or outcome.exhausted:
            return replace(outcome, nodes=nodes, leaves=leaves)
        if separation is None and outcome.leaves > 1:
            separation = _Separation(search)
    raise AssertionError("fully split LTS must be embeddable")
