import random
from dataclasses import replace

import pytest

from labelsplit.lts import spanning_tree, validate
from labelsplit.reduction import (
    ReductionParams,
    SubsetSumInstance,
    build_lts,
    extract_solution,
    params,
    subset_sum_brute,
    unit_word,
)
from labelsplit.regions import Region, effect_space, is_embeddable
from labelsplit.splitting import (
    _Search,
    apply_splitting,
    decide,
    parse_splitting,
    serialize_splitting,
)
from oracles import (
    conflict_pairs,
    in_span,
    index_set_splitting,
    region_violations,
    separates,
    ssp_solvable,
    subset_sum_oracle,
    validate_splitting,
)


def test_instance_validation():
    SubsetSumInstance(3, (1, 2))
    with pytest.raises(ValueError):
        SubsetSumInstance(0, (1,))
    with pytest.raises(ValueError):
        SubsetSumInstance(1, ())
    with pytest.raises(ValueError):
        SubsetSumInstance(1, (0,))


def test_params_examples():
    assert params(SubsetSumInstance(2, (2,))) == ReductionParams(9, 3, 16, 15)
    assert params(SubsetSumInstance(1, (1,))) == ReductionParams(5, 2, 15, 14)
    assert params(SubsetSumInstance(3, (1, 2))) == ReductionParams(13, 3, 18, 16)


def test_big_step_is_odd():
    for b in range(1, 9):
        for c in [(1,), (2, 5), (3, 3, 6)]:
            assert params(SubsetSumInstance(b, c)).big_step % 2 == 1


def test_unit_word():
    assert unit_word(25, 4) == ["u4", "u3", "u0"]
    assert unit_word(9, 3) == ["u3", "u0"]
    assert unit_word(1, 3) == ["u0"]
    assert unit_word(0, 3) == []
    with pytest.raises(ValueError):
        unit_word(16, 3)
    with pytest.raises(ValueError):
        unit_word(-1, 3)


def test_build_lts_well_formed():
    for inst in [
        SubsetSumInstance(2, (2,)),
        SubsetSumInstance(1, (1,)),
        SubsetSumInstance(3, (1, 2)),
        SubsetSumInstance(5, (2, 3, 4)),
    ]:
        lts = build_lts(inst)
        assert validate(lts) == []
        p = params(inst)
        assert len(lts.labels) == p.alphabet_size


def test_build_lts_label_set():
    lts = build_lts(SubsetSumInstance(2, (2,)))
    assert len(lts.labels) == 15
    assert set(lts.labels) == {
        "h1", "h2", "h3", "h4", "h5", "h6",
        "u0", "u1", "u2", "u3",
        "o", "O", "alpha", "beta", "g1",
    }


def test_strand1_state_count():
    # unit ladder has 2k+1 states
    lts = build_lts(SubsetSumInstance(1, (1,)))
    k = params(SubsetSumInstance(1, (1,))).max_bit
    assert k == 2
    h1_states = [s for s in lts.states if s.startswith("h1.")]
    assert len(h1_states) == 2 * k + 1


def test_gadget_never_embeddable_unsplit():
    for inst in [SubsetSumInstance(2, (2,)), SubsetSumInstance(3, (1, 2))]:
        assert not is_embeddable(build_lts(inst)).embeddable


def test_gadget_two_cycle_pair_is_inseparable():
    # the g1 edges form a two-state cycle; unsplit, that pair of states
    # cannot be distinguished by any region
    inst = SubsetSumInstance(2, (2,))
    lts = build_lts(inst)
    fwd = next(e for e in lts.edges if e.label == "g1" and e.source.startswith("h5."))
    assert ssp_solvable(lts, fwd.source, fwd.target) is None


def test_gadget_conflicts_are_exactly_the_gammas():
    inst = SubsetSumInstance(5, (2, 3, 4))
    lts = build_lts(inst)
    for conflicts in (conflict_pairs(lts), _Search(lts).conflicts):
        assert {t for t, pairs in conflicts.items() if pairs} == {"g1", "g2", "g3"}
        assert all(len(pairs) == 1 for t, pairs in conflicts.items() if pairs)


def test_effect_space_collapse_unsplit():
    # without splitting, cycles force every unit and gamma effect to zero:
    # only the six strand-entry labels stay free
    inst = SubsetSumInstance(2, (2,))
    lts = build_lts(inst)
    basis = effect_space(lts)
    assert len(basis) == 6
    idx = {t: k for k, t in enumerate(lts.labels)}
    free = {"h1", "h2", "h3", "h4", "h5", "h6"}
    for vec in basis:
        for t, i in idx.items():
            if t not in free:
                assert vec[i] == 0


def test_strand_constant_region():
    # produce i on the strand-i entry label: a valid region separating every
    # inter-strand pair of states, before and after a valid split
    inst = SubsetSumInstance(3, (1, 2))
    unsplit = build_lts(inst)
    split = apply_splitting(
        unsplit, index_set_splitting(inst, unsplit, {1, 2})
    )

    def strand(state):
        return 0 if state == "s0" else int(state[1])

    entries = {"h1", "h2", "h3", "h4", "h5", "h6"}
    for lts in (unsplit, split):
        region = Region(
            {s: strand(s) for s in lts.states},
            {t: 0 for t in lts.labels},
            {t: (int(t[1]) if t in entries else 0) for t in lts.labels},
        )
        assert region_violations(region, lts) == []
        for s in lts.states:
            for t in lts.states:
                if s != t and strand(s) != strand(t):
                    assert separates(region, s, t)


def test_full_calibration_vector_in_effect_space():
    # after splitting per a known solution, the effect space contains the
    # fully calibrated vector: unit i carries 2^i, o the big step, O closes
    # its cycle, alpha/beta the two sums, each gamma block +-c_i, strand
    # entries zero
    for inst, index_set in [
        (SubsetSumInstance(2, (2,)), {1}),
        (SubsetSumInstance(3, (1, 2)), {1, 2}),
        (SubsetSumInstance(2, (2, 3)), {1}),
    ]:
        lts = build_lts(inst)
        sp = index_set_splitting(inst, lts, index_set)
        split = apply_splitting(lts, sp)
        p = params(inst)
        expected: dict[str, int] = {f"h{j}": 0 for j in range(1, 7)}
        for i in range(p.max_bit + 1):
            expected[f"u{i}"] = 1 << i
        expected["o"] = p.big_step
        expected["O"] = -(inst.n + 1) * p.big_step
        expected["alpha"] = sum(inst.values)
        expected["beta"] = 2 * inst.target
        # the named block always holds the forward edge (+c_i); membership
        # shows up in which of the two labels the h6 slot carries, not here
        for i, c in enumerate(inst.values, start=1):
            expected[f"g{i}"] = c
            expected[f"g{i}#1"] = -c
        assert in_span(effect_space(split), [expected[t] for t in split.labels])


def test_subset_sum_brute_examples():
    assert subset_sum_brute(SubsetSumInstance(1, (1,))) == (1,)
    assert subset_sum_brute(SubsetSumInstance(2, (1,))) is None
    assert subset_sum_brute(SubsetSumInstance(3, (1, 2, 4))) == (1, 2)
    assert subset_sum_brute(SubsetSumInstance(6, (1, 2, 4))) == (2, 3)
    assert subset_sum_brute(SubsetSumInstance(8, (1, 2, 4))) is None
    # and against every index set listed, small values so that many instances
    # have several solutions and many have none
    rng = random.Random(18)
    for _ in range(400):
        values = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 10)))
        instance = SubsetSumInstance(rng.randint(1, sum(values) + 2), values)
        assert subset_sum_brute(instance) == subset_sum_oracle(instance), instance


def test_subset_sum_brute_prefers_lexicographic():
    assert subset_sum_brute(SubsetSumInstance(3, (3, 1, 2))) == (1,)
    assert subset_sum_brute(SubsetSumInstance(3, (1, 2, 3))) == (1, 2)


def test_subset_sum_brute_size_guard():
    with pytest.raises(ValueError):
        subset_sum_brute(SubsetSumInstance(1, (1,) * 31))


def test_index_set_splitting_round_trip():
    inst = SubsetSumInstance(3, (1, 2))
    lts = build_lts(inst)
    sp = index_set_splitting(inst, lts, {1, 2})
    assert validate_splitting(lts, sp) == []
    assert sp.labels_used() == params(inst).label_budget
    assert is_embeddable(apply_splitting(lts, sp)).embeddable
    assert extract_solution(inst, sp) == (1, 2)


def test_index_set_splitting_wrong_set_not_embeddable():
    inst = SubsetSumInstance(3, (1, 2))
    lts = build_lts(inst)
    for wrong in [set(), {1}, {2}]:
        sp = index_set_splitting(inst, lts, wrong)
        assert not is_embeddable(apply_splitting(lts, sp)).embeddable


def test_index_set_splitting_range_check():
    inst = SubsetSumInstance(3, (1, 2))
    lts = build_lts(inst)
    with pytest.raises(ValueError):
        index_set_splitting(inst, lts, {3})


def test_decide_tight_budget_solvable():
    inst = SubsetSumInstance(2, (2,))
    lts = build_lts(inst)
    p = params(inst)
    outcome = decide(lts, p.label_budget)
    assert outcome.found
    assert outcome.splitting.labels_used() == p.label_budget
    assert validate_splitting(lts, outcome.splitting) == []
    assert extract_solution(inst, outcome.splitting) == (1,)
    below = decide(lts, p.label_budget - 1)
    assert not below.found and not below.exhausted


def test_decide_tight_budget_unsolvable():
    inst = SubsetSumInstance(1, (2,))
    lts = build_lts(inst)
    p = params(inst)
    outcome = decide(lts, p.label_budget)
    assert not outcome.found and not outcome.exhausted


def test_decide_two_values():
    inst = SubsetSumInstance(3, (1, 2))
    lts = build_lts(inst)
    outcome = decide(lts, params(inst).label_budget)
    assert outcome.found
    assert validate_splitting(lts, outcome.splitting) == []
    assert extract_solution(inst, outcome.splitting) == (1, 2)


def test_extract_solution_rejects_malformed():
    inst = SubsetSumInstance(2, (2,))
    lts = build_lts(inst)
    p = params(inst)
    # identity: wrong label count
    from labelsplit.splitting import from_partitions

    with pytest.raises(ValueError):
        extract_solution(inst, from_partitions(lts, {}))
    # right count, but splits a non-gamma label instead of encoding an index set
    alpha_edge = next(i for i, e in enumerate(lts.edges) if e.label == "alpha")
    o_edges = [i for i, e in enumerate(lts.edges) if e.label == "o"]
    sp = from_partitions(
        lts, {"o": [[o_edges[0]], o_edges[1:]]}
    )
    assert sp.labels_used() == p.alphabet_size + 1
    with pytest.raises(ValueError):
        extract_solution(inst, sp)


def test_extract_solution_rejects_tight_witnesses_of_the_wrong_shape():
    # b=3, c=(1, 2): 16 labels, tight budget 18; g1 is on edges 29 (forward)
    # and 30 (reverse), g2 on 32 and 33, o on 14
    inst = SubsetSumInstance(3, (1, 2))
    lts = build_lts(inst)
    assert params(inst).label_budget == 18
    for text in [
        "labels 18\nsplit 29 x\nsplit 30 y\n",  # both g1 edges move, g2 unsplit
        "labels 18\nsplit 14 o#1\nsplit 30 g1#1\n",  # o and g1 split, g2 unsplit
    ]:
        sp = parse_splitting(lts, text)
        assert validate_splitting(lts, sp) == []
        with pytest.raises(ValueError, match="g2 keeps its two-state cycle"):
            extract_solution(inst, sp)
    # tight witnesses of other gadgets: one edge fewer, then the same edge
    # count with the values swapped
    for other_inst, index_set, match in [
        (SubsetSumInstance(1, (1, 4)), {1}, "edge count"),
        (SubsetSumInstance(3, (2, 1)), {1, 2}, "not a splitting of the gadget"),
    ]:
        other = build_lts(other_inst)
        assert params(other_inst).label_budget == 18
        sp = parse_splitting(
            other, serialize_splitting(other, index_set_splitting(other_inst, other, index_set))
        )
        assert sp.labels_used() == 18
        with pytest.raises(ValueError, match=match):
            extract_solution(inst, sp)
    assert len(build_lts(SubsetSumInstance(3, (2, 1))).edges) == len(lts.edges)
    # the right relabelling under an alphabet that names a label no edge uses
    good = index_set_splitting(inst, lts, {1, 2})
    assert extract_solution(inst, good) == (1, 2)
    renamed = replace(good, alphabet=good.alphabet[:-1] + ("zz",))
    with pytest.raises(ValueError, match="splitting alphabet is not "):
        extract_solution(inst, renamed)


def test_extract_solution_rejects_wrong_sum():
    # structurally fine witness whose index set misses the target
    inst = SubsetSumInstance(2, (2, 2))
    lts = build_lts(inst)
    good = index_set_splitting(inst, lts, {1})
    assert extract_solution(inst, good) == (1,)
    bad = index_set_splitting(inst, lts, {1, 2})
    with pytest.raises(ValueError):
        extract_solution(inst, bad)


def test_gadget_growth_is_moderate():
    # size grows with n and the bit length of the calibration constant
    for inst in [
        SubsetSumInstance(2, (2,)),
        SubsetSumInstance(8, (6,)),
        SubsetSumInstance(8, (6, 6)),
        SubsetSumInstance(8, (6, 6, 6)),
    ]:
        lts = build_lts(inst)
        p = params(inst)
        scale = inst.n + p.big_step.bit_length()
        assert len(lts.states) <= 8 * scale + 12
        assert len(lts.edges) <= 8 * scale + 12


def test_gadget_tree_reaches_everything():
    lts = build_lts(SubsetSumInstance(3, (1, 2)))
    assert {lts.initial, *(lts.states[d] for d in spanning_tree(lts))} == set(lts.states)
