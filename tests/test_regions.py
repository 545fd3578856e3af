import random

import pytest

from helpers import load_lts, load_net, lts_from_names, random_lts
from labelsplit.lts import Lts, Packing, cycle_base, walk
from labelsplit.petri import reachability_graph
from labelsplit.regions import (
    NotEmbeddable,
    effect_space,
    is_embeddable,
    region_from_effect,
    separating_regions,
)
from oracles import (
    embeddability_oracle,
    in_span,
    oracle_signatures,
    region_violations,
    separates,
    ssp_solvable,
    state_parikh,
    state_signature,
)


def test_effect_space_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    basis = effect_space(lts)
    expected = [(-1, 1, 0), (-1, 0, 1)]
    assert len(basis) == 2
    for r in range(2):
        assert in_span(expected, basis[r])
        assert in_span(basis, expected[r])


def test_effect_space_tree_is_everything():
    lts = load_lts("fig1-right.lts")
    assert effect_space(lts) == [(1, 0), (0, 1)]


def test_effect_space_collapses_under_forced_cycles():
    # one label with a two-state cycle plus a parallel pair: both effects
    # are forced to zero, so the space has fewer vectors than labels
    lts = Lts.from_edges(
        "s0",
        [("s0", "u", "s1"), ("s0", "g", "s1"), ("s1", "g", "s0")],
    )
    assert effect_space(lts) == []


def test_state_signature_explicit_basis():
    lts = load_lts("fig2-middle.lts")
    basis = [(1, -1, 0), (0, 1, -1)]
    assert state_signature(lts, basis, "s4") == (-2, 2)
    assert state_signature(lts, basis, "s0") == (0, 0)


def test_state_signature_collision_fig1_right():
    lts = load_lts("fig1-right.lts")
    basis = effect_space(lts)
    assert state_signature(lts, basis, "s2") == state_signature(lts, basis, "s5")
    assert state_signature(lts, basis, "s1") != state_signature(lts, basis, "s4")


def test_state_signature_rejects_bad_basis():
    lts = load_lts("fig1-right.lts")
    with pytest.raises(ValueError):
        state_signature(lts, [(1, 0, 0)], "s0")


def test_ssp_solvable_fig2_middle_pair():
    lts = load_lts("fig2-middle.lts")
    e = ssp_solvable(lts, "s3", "s7")
    assert e is not None
    # distinguishes the pair and vanishes on the cycle a+b+c
    diff = tuple(
        x - y for x, y in zip(state_parikh(lts, "s3"), state_parikh(lts, "s7"))
    )
    assert sum(a * d for a, d in zip(e, diff)) != 0
    assert sum(e) == 0


def test_ssp_unsolvable_fig1_right_pair():
    lts = load_lts("fig1-right.lts")
    assert ssp_solvable(lts, "s2", "s5") is None


def test_ssp_same_state_rejected():
    lts = load_lts("fig1-right.lts")
    with pytest.raises(ValueError):
        ssp_solvable(lts, "s2", "s2")


def test_is_embeddable_witness_fig1_right():
    report = is_embeddable(load_lts("fig1-right.lts"))
    assert not report.embeddable
    assert report.witness == ("s2", "s5")


def test_is_embeddable_fixtures():
    assert is_embeddable(load_lts("fig1-left.lts")).embeddable
    assert is_embeddable(load_lts("fig2-left.lts")).embeddable
    assert is_embeddable(load_lts("fig2-middle.lts")).embeddable


def test_is_embeddable_single_state():
    lts = lts_from_names(("s0",), (), (), "s0")
    report = is_embeddable(lts)
    assert report.embeddable and report.witness is None
    assert oracle_signatures(lts) == {"s0": ()}


def test_signatures_equal_oracle_signatures():
    # one packed walk down the spanning tree gives every state's dot
    # products with the effect basis, as the per-state oracle computes
    # them, and the verdict and witness are the ones those signatures give
    rng = random.Random(43)
    systems = [random_lts(rng, max_states=8, max_labels=5, extra_edges=8) for _ in range(150)]
    systems.append(reachability_graph(load_net("ring3.net")))
    for lts in systems:
        basis = effect_space(lts)
        expected = {s: state_signature(lts, basis, s) for s in lts.states}
        steps = list(zip(*basis)) or [()] * len(lts.labels)
        packing = Packing.summing(steps, len(lts.states))
        assert dict(zip(lts.states, packing.unpack(walk(lts, packing.pack(steps))))) == expected
        assert is_embeddable(lts) == embeddability_oracle(lts)


def test_region_from_zero_effect():
    lts = load_lts("fig2-middle.lts")
    region = region_from_effect(lts, (0, 0, 0))
    assert set(region.state_value.values()) == {0}
    assert all(v == 0 for v in region.consume.values())
    assert all(v == 0 for v in region.produce.values())


def test_region_from_effect_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    region = region_from_effect(lts, (1, 1, -2))
    assert region_violations(region, lts) == []
    assert region.state_value["s0"] == 0
    assert region.state_value["s3"] == 2
    assert region.state_value["s7"] == 4
    assert region.consume == {"a": 0, "b": 0, "c": 2}
    assert region.produce == {"a": 1, "b": 1, "c": 0}
    assert separates(region, "s3", "s7")


def test_region_from_effect_shifts_to_nonnegative():
    lts = load_lts("fig2-middle.lts")
    region = region_from_effect(lts, (-1, -1, 2))
    assert region_violations(region, lts) == []
    assert region.state_value["s0"] == 4
    assert min(region.state_value.values()) == 0


def test_region_from_effect_rejects_cycle_work():
    lts = load_lts("fig2-middle.lts")
    with pytest.raises(ValueError, match="nonzero work around a cycle"):
        region_from_effect(lts, (1, 0, 0))


def test_region_from_effect_rejects_bad_length():
    lts = load_lts("fig2-middle.lts")
    with pytest.raises(ValueError):
        region_from_effect(lts, (1, 0))


def test_separating_regions_fig2_middle():
    lts = load_lts("fig2-middle.lts")
    regions = separating_regions(lts)
    assert len(regions) == 2
    for region in regions:
        assert region_violations(region, lts) == []
    for i, s in enumerate(lts.states):
        for t in lts.states[i + 1 :]:
            assert any(separates(r, s, t) for r in regions)


def test_separating_regions_raises_with_witness():
    with pytest.raises(NotEmbeddable) as err:
        separating_regions(load_lts("fig1-right.lts"))
    assert err.value.witness == ("s2", "s5")


def test_separating_regions_single_state():
    assert separating_regions(lts_from_names(("s0",), (), (), "s0")) == []


def test_random_regions_are_valid():
    # any integer combination of effect-space basis vectors yields a region
    rng = random.Random(17)
    for _ in range(60):
        lts = random_lts(rng)
        basis = effect_space(lts)
        effect = [0] * len(lts.labels)
        for b in basis:
            c = rng.randint(-3, 3)
            effect = [x + c * y for x, y in zip(effect, b)]
        region = region_from_effect(lts, effect)
        assert region_violations(region, lts) == []


def test_ssp_witness_yields_separating_region():
    # whenever a pair is solvable, the returned effect's region really does
    # value the two states differently
    rng = random.Random(37)
    checked = 0
    for _ in range(40):
        lts = random_lts(rng, max_states=6)
        for i, s in enumerate(lts.states):
            for t in lts.states[i + 1 :]:
                e = ssp_solvable(lts, s, t)
                if e is None:
                    continue
                region = region_from_effect(lts, e)
                assert region_violations(region, lts) == []
                assert separates(region, s, t)
                checked += 1
    assert checked > 50


def test_region_value_shift_preserves_separation():
    rng = random.Random(19)
    for _ in range(20):
        lts = random_lts(rng)
        basis = effect_space(lts)
        if not basis:
            continue
        region = region_from_effect(lts, basis[0])
        from labelsplit.regions import Region

        shifted = Region(
            {s: v + 5 for s, v in region.state_value.items()},
            dict(region.consume),
            dict(region.produce),
        )
        assert region_violations(shifted, lts) == []
        pairs = lambda r: {
            (s, t)
            for i, s in enumerate(lts.states)
            for t in lts.states[i + 1 :]
            if separates(r, s, t)
        }
        assert pairs(region) == pairs(shifted)


def test_three_code_paths_agree_small_sweep():
    # full sweep lives in the acceptance suite; spot-check here
    rng = random.Random(29)
    for _ in range(25):
        lts = random_lts(rng, max_states=6)
        basis = effect_space(lts)
        base_rows, _ = cycle_base(lts)
        for i, s in enumerate(lts.states):
            for t in lts.states[i + 1 :]:
                sig_differ = state_signature(lts, basis, s) != state_signature(lts, basis, t)
                diff = tuple(
                    x - y
                    for x, y in zip(state_parikh(lts, s), state_parikh(lts, t))
                )
                span_says_equal = in_span(base_rows, diff)
                ssp = ssp_solvable(lts, s, t)
                assert sig_differ == (not span_says_equal) == (ssp is not None)
