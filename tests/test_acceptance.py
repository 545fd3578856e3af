"""Acceptance suite: one test per acceptance criterion, each printing a
single PASS/FAIL line with its runtime (visible with `pytest -v -s` or in the
captured output). Every criterion enforces its own runtime budget."""

import random
import time
from contextlib import contextmanager

from helpers import load_lts, load_net, minimal_split_labels, random_lts, tiny_random_lts
from labelsplit.lts import cycle_base, validate
from labelsplit.petri import reachability_graph, synthesize, verify_embedding
from labelsplit.reduction import (
    SubsetSumInstance,
    build_lts,
    extract_solution,
    params,
    subset_sum_brute,
)
from labelsplit.regions import effect_space, is_embeddable
from labelsplit.splitting import apply_splitting, decide, optimize
from oracles import (
    in_span,
    index_set_splitting,
    ssp_solvable,
    state_parikh,
    state_signature,
    validate_splitting,
)


@contextmanager
def criterion(name: str, limit_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    ok = elapsed <= limit_seconds
    verdict = "PASS" if ok else "FAIL (over time budget)"
    print(f"\nACCEPTANCE {name}: {verdict} ({elapsed:.2f}s, limit {limit_seconds:.0f}s)")
    assert ok, f"{name}: {elapsed:.2f}s exceeded the {limit_seconds:.0f}s budget"


def test_criterion_1_figure_fixtures():
    with criterion("1 figure fixtures", 1.0):
        right = load_lts("fig1-right.lts")
        report = is_embeddable(right)
        assert not report.embeddable
        assert report.witness == ("s2", "s5")

        left = load_lts("fig2-left.lts")
        middle = load_lts("fig2-middle.lts")
        assert is_embeddable(left).embeddable
        assert is_embeddable(middle).embeddable

        assert cycle_base(middle)[0] == ((1, 1, 1),)

        net = load_net("fig2.net")
        rg = reachability_graph(net, max_states=1000)
        assert len(rg.states) == 8

        assert verify_embedding(left, net) is None
        assert verify_embedding(middle, net) is None


def test_criterion_2_optimal_splitting_golden():
    with criterion("2 optimal splitting golden", 1.0):
        lts = load_lts("fig1-right.lts")
        witness = optimize(lts).splitting
        assert witness.labels_used() == 3
        assert is_embeddable(apply_splitting(lts, witness)).embeddable
        assert not decide(lts, 2).found


def test_criterion_3_round_trip_synthesis():
    with criterion("3 round-trip synthesis x200", 30.0):
        rng = random.Random(1003)
        done = 0
        while done < 200:
            lts = random_lts(rng, max_states=8, max_labels=4)
            if not is_embeddable(lts).embeddable:
                continue
            net = synthesize(lts)
            reason = verify_embedding(lts, net)
            assert reason is None, (lts, net, reason)
            done += 1


def test_criterion_4_three_code_paths_agree():
    with criterion("4 criterion cross-validation x200", 60.0):
        rng = random.Random(1004)
        for _ in range(200):
            lts = random_lts(rng, max_states=8)
            rows, _ = cycle_base(lts)
            basis = effect_space(lts)
            for i, s in enumerate(lts.states):
                sig_s = state_signature(lts, basis, s)
                for t in lts.states[i + 1 :]:
                    sig_differs = sig_s != state_signature(lts, basis, t)
                    diff = tuple(
                        a - b
                        for a, b in zip(state_parikh(lts, s), state_parikh(lts, t))
                    )
                    in_base_span = in_span(rows, diff)
                    solvable = ssp_solvable(lts, s, t) is not None
                    assert sig_differs == (not in_base_span) == solvable, (lts, s, t)


def test_criterion_5_search_matches_brute_force():
    with criterion("5 search vs brute force x50", 300.0):
        rng = random.Random(1005)
        for _ in range(50):
            lts = tiny_random_lts(rng)
            q_hat = minimal_split_labels(lts)
            for q in range(len(lts.labels), len(lts.edges) + 1):
                outcome = decide(lts, q)
                assert not outcome.exhausted
                assert outcome.found == (q >= q_hat), (lts, q, q_hat)


SWEEP = (
    [(b, (c,)) for b in range(1, 9) for c in range(1, 7)]
    + [
        (b, c)
        for b in (2, 4, 7)
        for c in ((1, 1), (1, 3), (2, 2), (2, 5), (3, 4), (6, 6))
    ]
    + [
        (b, c)
        for b in (3, 6, 8)
        for c in ((1, 2, 3), (2, 2, 2), (1, 1, 6), (4, 5, 6))
    ]
)


def test_criterion_6_subset_sum_equivalence():
    with criterion(f"6 subset-sum equivalence x{len(SWEEP)}", 900.0):
        assert len(SWEEP) >= 40
        exhausted = []
        for b, values in SWEEP:
            inst = SubsetSumInstance(b, values)
            gadget = build_lts(inst)
            assert validate(gadget) == []
            q = params(inst).label_budget
            at_q = decide(gadget, q, node_budget=500_000)
            below = decide(gadget, q - 1, node_budget=500_000)
            if at_q.exhausted or below.exhausted:
                exhausted.append((b, values))
                continue
            solvable = subset_sum_brute(inst) is not None
            assert at_q.found == solvable, (b, values)
            assert not below.found, (b, values)
            if at_q.found:
                assert validate_splitting(gadget, at_q.splitting) == [], (b, values)
                solution = extract_solution(inst, at_q.splitting)
                assert sum(values[i - 1] for i in solution) == b
        if exhausted:
            print(f"\n  instances over node budget: {exhausted}")
        # the n <= 2 sub-sweep must always complete; by construction the
        # pruned search is ~2^n leaves, so n = 3 must complete too
        assert not [e for e in exhausted if len(e[1]) <= 2]
        assert not exhausted


def test_criterion_7_gadget_calibration():
    with criterion("7 gadget calibration (1,2,[2])", 1.0):
        inst = SubsetSumInstance(2, (2,))
        gadget = build_lts(inst)
        solution = subset_sum_brute(inst)
        assert solution == (1,)
        split = apply_splitting(
            gadget, index_set_splitting(inst, gadget, set(solution))
        )
        basis = effect_space(split)
        idx = {t: i for i, t in enumerate(split.labels)}
        wanted = {"u0": 1, "o": 9, "O": -18, "alpha": 2, "beta": 4, "g1": 2}
        coords = list(wanted)
        # solvability of the coordinate-constrained system: some combination
        # of basis vectors hits exactly these six values
        columns = [[b[idx[t]] for t in coords] for b in basis]
        assert in_span(columns, [wanted[t] for t in coords])
