"""Synthesized nets compared byte for byte against committed golden files.

The golden files were written by the `Fraction` Gauss-Jordan implementation
of the cycle base. Any other elimination must reproduce them exactly: the
reduced row echelon form is unique for a row space, so place order, arc
weights and initial markings may not move.
"""

import random

import pytest

from helpers import FIXTURES, load_lts, load_net, random_lts
from labelsplit.petri import format_net, reachability_graph, synthesize
from labelsplit.regions import is_embeddable


@pytest.mark.parametrize("name", ["fig1-left", "fig2-left", "fig2-middle"])
def test_synth_fixture_matches_golden(name):
    expected = (FIXTURES / f"{name}.synth.net").read_text()
    assert format_net(synthesize(load_lts(f"{name}.lts"))) == expected


def test_synth_ring_reachability_graph_matches_golden():
    rg = reachability_graph(load_net("ring3.net"))
    assert len(rg.states) == 15
    expected = (FIXTURES / "ring3.synth.net").read_text()
    assert format_net(synthesize(rg)) == expected


def test_synth_random_embeddable_matches_golden():
    rng = random.Random(2718)
    chunks = []
    for i in range(80):
        lts = random_lts(rng, max_states=8, max_labels=4)
        if is_embeddable(lts).embeddable:
            chunks.append(f"# random_lts draw {i}\n" + format_net(synthesize(lts)))
    assert "\n".join(chunks) == (FIXTURES / "random.synth.txt").read_text()
