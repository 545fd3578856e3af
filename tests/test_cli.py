import errno
import gc
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import BRACE_NET, BRACE_RG, FIXTURES, PLACELESS_NET, PLACELESS_RG, load_lts, ring_net
from labelsplit import cli
from labelsplit.cli import main
from labelsplit import lts as lts_module
from labelsplit.lts import CHUNK_EDGES, Lts, format_lts, parse_lts
from labelsplit.petri import format_net, parse_net, reachability_graph, verify_embedding
from labelsplit.reduction import SubsetSumInstance, extract_solution
from labelsplit.regions import is_embeddable
from labelsplit.splitting import apply_splitting, parse_splitting
from oracles import parse_args_main

FIG1_RIGHT = str(FIXTURES / "fig1-right.lts")
FIG2_LEFT = str(FIXTURES / "fig2-left.lts")
FIG2_MIDDLE = str(FIXTURES / "fig2-middle.lts")
FIG2_NET = str(FIXTURES / "fig2.net")


class _NoEdges:
    """`Lts.edges` that fails when it is read."""

    def __get__(self, lts, owner=None):
        if lts is None:
            return self
        raise AssertionError("an Lts made its edges")


def test_verbs_make_no_edges(tmp_path, monkeypatch, capsys):
    # names appear only where text is read or written: no verb, and no
    # witness decoding, makes an `Edge` of a parsed or generated LTS
    monkeypatch.setattr(Lts, "edges", _NoEdges())
    ring = str(FIXTURES / "ring3.net")
    graph, net, gadget = (str(tmp_path / name) for name in ("r.lts", "s.net", "g.lts"))
    assert main(["rg", ring, "-o", graph]) == 0
    assert main(["check", graph]) == 0
    assert main(["synth", graph, "-o", net]) == 0
    assert main(["verify", graph, net]) == 0
    assert main(["verify", graph, ring]) == 0
    assert main(["check", FIG1_RIGHT]) == 1
    capsys.readouterr()
    assert main(["split", graph, "--max-labels", "3"]) == 0
    assert capsys.readouterr().out == "labels 3\n"
    for mode in (["--max-labels", "3"], ["--optimize"]):
        assert main(["split", FIG1_RIGHT, *mode]) == 0
        assert capsys.readouterr().out == "labels 3\nsplit 3 b#1\n"
    assert main(["reduce", "--b", "3", "--c", "1,2", "-o", gadget]) == 0
    capsys.readouterr()
    assert main(["split", gadget, "--max-labels", "18"]) == 0
    with open(gadget, encoding="utf-8") as f:
        witness = parse_splitting(parse_lts(f.read()), capsys.readouterr().out)
    assert extract_solution(SubsetSumInstance(3, (1, 2)), witness) == (1, 2)


def test_check_not_embeddable(capsys):
    assert main(["check", FIG1_RIGHT]) == 1
    assert capsys.readouterr().out == "not-embeddable s2 s5\n"


def test_check_embeddable(capsys):
    assert main(["check", FIG2_MIDDLE]) == 0
    assert capsys.readouterr().out == "embeddable\n"


def test_check_missing_file(capsys):
    assert main(["check", "/no/such/file.lts"]) == 2
    assert capsys.readouterr().err != ""


def test_check_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.lts"
    bad.write_text("lts\ninitial s0\nedge oops\n")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:3:" in err


def test_diagnostic_line_matches_grep_after_form_feed(tmp_path, capsys):
    bad = tmp_path / "ff.lts"
    bad.write_bytes(b"lts\ninitial s0\x0c\nedge s0 a\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:3: expected 'edge <source> <label> <target>'\n"


# a carriage return alone ends no line: the reading rule counts line feeds,
# as `grep -n` does, and `str.split` reads the return as a space
CR_INSIDE = {
    "lts": (b"lts\ninitial a\nedge a x b\rjunk\nedge b x a\n", "3: expected 'edge <source> <label> <target>'"),
    "net": (b"net\nplace p 1\rjunk\ntrans t\n", "2: expected 'place <id> <tokens>'"),
}
CR_ONLY = {
    "lts": (b"lts\rinitial a\redge a x b\redge b x a\r", "1: expected 'lts' header"),
    "net": (b"net\rplace p 1\rtrans t\r", "1: expected 'net' header"),
}


@pytest.mark.parametrize("files", [CR_INSIDE, CR_ONLY], ids=["cr-inside", "cr-only"])
@pytest.mark.parametrize(
    "verb",
    [
        ("lts", lambda bad: ["check", bad]),
        ("lts", lambda bad: ["verify", bad, FIG2_NET]),
        ("net", lambda bad: ["verify", FIG2_MIDDLE, bad]),
        ("net", lambda bad: ["rg", bad]),
    ],
    ids=["check", "verify-lts", "verify-net", "rg"],
)
def test_lone_carriage_return_ends_no_line(files, verb, tmp_path, capsys):
    kind, argv = verb
    text, message = files[kind]
    bad = tmp_path / f"cr.{kind}"
    bad.write_bytes(text)
    assert main(argv(str(bad))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{bad}:{message}\n"


def test_crlf_files_still_parse(tmp_path, capsys):
    lts, net = tmp_path / "crlf.lts", tmp_path / "crlf.net"
    lts.write_bytes((FIXTURES / "fig2-middle.lts").read_bytes().replace(b"\n", b"\r\n"))
    net.write_bytes((FIXTURES / "fig2.net").read_bytes().replace(b"\n", b"\r\n"))
    assert main(["check", str(lts)]) == 0
    assert main(["verify", str(lts), str(FIXTURES / "fig2-middle.synth.net")]) == 0
    assert capsys.readouterr().out == "embeddable\nembeds\n"
    assert main(["rg", str(net)]) == 0
    assert capsys.readouterr().out == (FIXTURES / "rg" / "fig2.rg.lts").read_text()
    bad = tmp_path / "bad.lts"
    bad.write_bytes(b"lts\r\ninitial s0\r\nedge oops\r\n")
    assert main(["check", str(bad)]) == 2
    assert capsys.readouterr().err == f"{bad}:3: expected 'edge <source> <label> <target>'\n"


NOT_UTF8 = b"lts\ninitial s\xff\n"


@pytest.mark.parametrize(
    "verb",
    [
        lambda bad, out: ["check", bad],
        lambda bad, out: ["synth", bad, "-o", out],
        lambda bad, out: ["rg", bad, "-o", out],
        lambda bad, out: ["verify", bad, FIG2_NET],
        lambda bad, out: ["verify", FIG2_MIDDLE, bad],
        lambda bad, out: ["split", bad, "--optimize"],
    ],
    ids=["check", "synth", "rg", "verify-lts", "verify-net", "split"],
)
def test_non_utf8_file_is_input_error(verb, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(NOT_UTF8)
    out = tmp_path / "out.txt"
    assert main(verb(str(bad), str(out))) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{bad}: not valid UTF-8 text\n"
    assert not out.exists()


def test_check_contract_violation(tmp_path, capsys):
    bad = tmp_path / "nondet.lts"
    bad.write_text("lts\ninitial s0\nedge s0 a s1\nedge s0 a s2\n")
    assert main(["check", str(bad)]) == 2
    assert "nondeterministic" in capsys.readouterr().err


def test_check_contract_violations_exact(tmp_path, capsys):
    # every violation is reported, one line each, in `validate`'s order
    bad = tmp_path / "bad.lts"
    bad.write_text("lts\ninitial s0\nedge s0 a s1\nedge s0 a s2\nedge s3 b s0\n")
    assert main(["check", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{bad}: nondeterministic: two edges from s0 with label a\n"
        f"{bad}: unreachable state: s3\n"
    )


def test_synth_writes_parseable_net(tmp_path, capsys):
    out = tmp_path / "out.net"
    assert main(["synth", FIG2_MIDDLE, "-o", str(out)]) == 0
    net = parse_net(out.read_text())
    assert verify_embedding(load_lts("fig2-middle.lts"), net).embeds


def test_synth_place_names_skip_the_labels(tmp_path, capsys):
    # a label named like a place: the net must still read back
    lts, out = tmp_path / "p1.lts", tmp_path / "p1.net"
    lts.write_text("lts\ninitial s0\nedge s0 p1 s1\n")
    assert main(["synth", str(lts), "-o", str(out)]) == 0
    assert out.read_text() == "net\nplace p2 0\ntrans p1\narc p1 p2 1\n"
    assert main(["verify", str(lts), str(out)]) == 0
    assert capsys.readouterr().out == "embeds\n"
    # p1 fires from no place, so the net is unbounded: rg reads it and says so
    assert main(["rg", str(out)]) == 1
    assert capsys.readouterr() == ("bound-exceeded\n", "")


def test_synth_not_embeddable(tmp_path, capsys):
    out = tmp_path / "out.net"
    assert main(["synth", FIG1_RIGHT, "-o", str(out)]) == 1
    assert capsys.readouterr().out == "not-embeddable s2 s5\n"
    assert not out.exists()


def test_rg_stdout_round_trip(capsys):
    assert main(["rg", FIG2_NET, "--bound", "100"]) == 0
    text = capsys.readouterr().out
    rg = parse_lts(text)
    assert len(rg.states) == 8


@pytest.mark.parametrize(
    "text,expected", [(BRACE_NET, BRACE_RG), (PLACELESS_NET, PLACELESS_RG)], ids=["braces", "no-places"]
)
def test_rg_state_names(text, expected, tmp_path, capsys):
    # `place:count` per place, joined by commas, ids as written; "-" with no places
    net = tmp_path / "in.net"
    net.write_text(text)
    assert main(["rg", str(net)]) == 0
    assert capsys.readouterr() == (expected, "")


def test_rg_bound_exceeded(tmp_path, capsys):
    grower = tmp_path / "grower.net"
    grower.write_text("net\nplace p 0\ntrans t\narc t p 1\n")
    assert main(["rg", str(grower), "--bound", "5"]) == 1
    assert capsys.readouterr().out == "bound-exceeded\n"


# for tests of Python's limit on the digits `str` writes of an int
INT_STR_LIMITED = pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this Python writes integers of any length",
)


@INT_STR_LIMITED
def test_rg_marking_too_long_to_name_is_input_error(tmp_path, capsys):
    # a bounded net whose token count fits the reading rule, but whose
    # second marking has one digit more than Python writes as a string
    net = tmp_path / "long.net"
    nines = "9" * sys.get_int_max_str_digits()
    net.write_text(f"net\nplace q 1\nplace p {nines}\ntrans t\narc q t 1\narc t p 1\n")
    out = tmp_path / "rg.lts"
    assert main(["rg", str(net), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{net}: place p reaches a token count of more than {len(nines)} digits,"
        " too long to write in a state name\n"
    )
    assert not out.exists()


@INT_STR_LIMITED
def test_rg_marking_too_long_names_the_first_marking_first_place(tmp_path, capsys):
    # q passes the limit in the second marking, p (declared before q) only in
    # the fourth: the message names a place of the first marking that passes
    # it, the first such place in declared order
    net = tmp_path / "long.net"
    nines = "9" * sys.get_int_max_str_digits()
    net.write_text(
        f"net\nplace p 0\nplace q {nines}\nplace r 1\nplace s 0\ntrans t1\ntrans t2\n"
        f"arc r t1 1\narc q t1 1\narc t1 q 2\narc t1 s 2\narc s t2 1\narc t2 p {nines}\n"
    )
    assert main(["rg", str(net)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"{net}: place q reaches a token count of more than {len(nines)} digits,"
        " too long to write in a state name\n"
    )


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_rg_bound_below_one_is_input_error(bound, capsys):
    # a bounded net: a bound that is silently ignored gives exit 0, not a hang
    assert main(["rg", FIG2_NET, "--bound", bound]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--bound must be at least 1, got {bound}\n"


def test_rg_output_file(tmp_path, capsys):
    out = tmp_path / "rg.lts"
    assert main(["rg", FIG2_NET, "--bound", "100", "-o", str(out)]) == 0
    assert parse_lts(out.read_text()).initial == "p1:5,p2:1,p3:0,p4:0"


@pytest.mark.parametrize("name", ["fig2", "ring3", "weighted"])
def test_rg_output_matches_golden_bytes(name, tmp_path, capsys):
    # other tools read the graph text, so its bytes are pinned, in the file
    # and on stdout
    golden = (FIXTURES / "rg" / f"{name}.rg.lts").read_bytes()
    out = tmp_path / "rg.lts"
    assert main(["rg", str(FIXTURES / f"{name}.net"), "-o", str(out)]) == 0
    assert out.read_bytes() == golden
    assert main(["rg", str(FIXTURES / f"{name}.net")]) == 0
    assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize("chunk", [1, 2, 3, CHUNK_EDGES])
def test_rg_output_in_chunks_matches_golden_bytes(chunk, tmp_path, monkeypatch, capsys):
    # chunk boundaries anywhere in the edge list leave the bytes as they are
    monkeypatch.setattr(lts_module, "CHUNK_EDGES", chunk)
    for name in ("fig2", "ring3", "weighted"):
        golden = (FIXTURES / "rg" / f"{name}.rg.lts").read_bytes()
        out = tmp_path / f"{name}.lts"
        assert main(["rg", str(FIXTURES / f"{name}.net"), "-o", str(out)]) == 0
        assert out.read_bytes() == golden
        assert main(["rg", str(FIXTURES / f"{name}.net")]) == 0
        assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize("edges", [0, 1, CHUNK_EDGES - 1, CHUNK_EDGES, CHUNK_EDGES + 1, 2 * CHUNK_EDGES])
def test_rg_writes_a_chunk_at_a_time(edges, tmp_path, monkeypatch):
    # a chain of `edges` firings: stdout and `-o` get the bytes of
    # `format_lts` and of the text written line by line, in writes of at
    # most CHUNK_EDGES edge lines each
    net = tmp_path / "chain.net"
    net.write_text(f"net\nplace p {edges}\ntrans t\narc p t 1\n")
    want = f"lts\ninitial p:{edges}\n" + "".join(f"edge p:{k} t p:{k - 1}\n" for k in range(edges, 0, -1))
    assert format_lts(reachability_graph(parse_net(net.read_text()), edges + 1)) == want
    writes: list[str] = []

    class Recorder(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    stdout = Recorder()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["rg", str(net), "--bound", str(edges + 1)]) == 0
    assert stdout.getvalue() == want
    assert len(writes) == 1 + -(-edges // CHUNK_EDGES)
    assert all(text.count("\n") <= CHUNK_EDGES for text in writes[1:])
    out = tmp_path / "chain.lts"
    assert main(["rg", str(net), "--bound", str(edges + 1), "-o", str(out)]) == 0
    assert out.read_bytes() == want.encode()


def test_verify_embeds(capsys):
    assert main(["verify", FIG2_LEFT, FIG2_NET]) == 0
    assert capsys.readouterr().out == "embeds\n"


def test_verify_does_not_embed(tmp_path, capsys):
    lts_file = tmp_path / "two.lts"
    lts_file.write_text("lts\ninitial s0\nedge s0 a s1\nedge s1 a s0\n")
    net_file = tmp_path / "loop.net"
    net_file.write_text("net\ntrans a\n")
    assert main(["verify", str(lts_file), str(net_file)]) == 1
    assert capsys.readouterr().out == "does-not-embed not-injective s0 s1\n"


def test_verify_label_mismatch_is_input_error(tmp_path, capsys):
    lts_file = tmp_path / "x.lts"
    lts_file.write_text("lts\ninitial s0\nedge s0 zz s1\n")
    assert main(["verify", str(lts_file), FIG2_NET]) == 2
    assert "zz" in capsys.readouterr().err


def test_split_max_labels_witness(capsys):
    assert main(["split", FIG1_RIGHT, "--max-labels", "3"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("labels 3\n")
    lts = load_lts("fig1-right.lts")
    witness = parse_splitting(lts, text)
    assert is_embeddable(apply_splitting(lts, witness)).embeddable


def test_split_not_found(capsys):
    assert main(["split", FIG1_RIGHT, "--max-labels", "2"]) == 1
    assert capsys.readouterr().out == "not-found\n"


def test_split_budget_exhausted(capsys):
    assert main(["split", FIG1_RIGHT, "--max-labels", "3", "--node-budget", "1"]) == 3
    assert capsys.readouterr().out == "budget-exhausted\n"


def test_split_max_labels_zero_is_input_error(capsys):
    assert main(["split", FIG1_RIGHT, "--max-labels", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--max-labels must be at least 1, got 0\n"


@pytest.mark.parametrize("mode", [["--max-labels", "3"], ["--optimize"]])
def test_split_negative_node_budget_is_input_error(mode, capsys):
    assert main(["split", FIG1_RIGHT, *mode, "--node-budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--node-budget must be at least 0, got -1\n"


def test_split_optimize(capsys):
    assert main(["split", FIG1_RIGHT, "--optimize"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("labels 3\n")


def test_split_optimize_exhausted(capsys):
    assert main(["split", FIG1_RIGHT, "--optimize", "--node-budget", "1"]) == 3
    assert capsys.readouterr().out == "budget-exhausted\n"


def test_split_optimize_smallest_node_budget(capsys):
    # round 3 visits only splittings with exactly 3 labels, so a per-round
    # budget of 5 nodes answers (rounds over at most q labels needed 7)
    assert main(["split", FIG1_RIGHT, "--optimize", "--node-budget", "5"]) == 0
    assert capsys.readouterr().out == "labels 3\nsplit 3 b#1\n"
    assert main(["split", FIG1_RIGHT, "--optimize", "--node-budget", "4"]) == 3
    assert capsys.readouterr().out == "budget-exhausted\n"


def test_split_optimize_long_chain(tmp_path, capsys):
    # 1,200 labels, one per edge: embeddable as it stands, no recursion limit
    path = tmp_path / "chain.lts"
    edges = [f"edge s{i} t{i} s{i + 1}" for i in range(1200)]
    path.write_text("\n".join(["lts", "initial s0", *edges]) + "\n")
    assert main(["split", str(path), "--optimize"]) == 0
    assert capsys.readouterr().out == "labels 1200\n"


def test_split_no_edges_both_modes(tmp_path, capsys):
    # no labels at all: the first round's only leaf is the unsplit LTS, and
    # a budget of 0 nodes stops either mode before it
    path = tmp_path / "single.lts"
    path.write_text("lts\ninitial s0\n")
    for mode in (["--optimize"], ["--max-labels", "1"]):
        assert main(["split", str(path), *mode]) == 0
        assert capsys.readouterr().out == "labels 0\n"
        assert main(["split", str(path), *mode, "--node-budget", "0"]) == 3
        assert capsys.readouterr().out == "budget-exhausted\n"


def test_split_requires_exactly_one_mode(capsys):
    assert main(["split", FIG1_RIGHT]) == 2
    assert main(["split", FIG1_RIGHT, "--max-labels", "3", "--optimize"]) == 2


def test_reduce_writes_gadget(tmp_path, capsys):
    out = tmp_path / "gadget.lts"
    assert main(["reduce", "--b", "2", "--c", "2", "-o", str(out)]) == 0
    assert capsys.readouterr().out == "k=3 q=16\n"
    gadget = parse_lts(out.read_text())
    assert len(gadget.labels) == 15
    assert not is_embeddable(gadget).embeddable


def test_reduce_bad_instance(capsys):
    assert main(["reduce", "--b", "0", "--c", "2", "-o", "/tmp/x.lts"]) == 2
    assert main(["reduce", "--b", "2", "--c", "2,x", "-o", "/tmp/x.lts"]) == 2


def test_oracle_solvable(capsys):
    assert main(["oracle", "--b", "3", "--c", "1,2,4"]) == 0
    assert capsys.readouterr().out == "1 2\n"


def test_oracle_unsolvable(capsys):
    assert main(["oracle", "--b", "8", "--c", "1,2,4"]) == 1
    assert capsys.readouterr().out == "none\n"


def test_oracle_too_many_values_is_input_error(capsys):
    assert main(["oracle", "--b", "1", "--c", ",".join(["1"] * 31)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "--c: the oracle takes at most 30 values, got 31\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rg", FIG2_NET, "--bound", "1_0"], "argument --bound: invalid int value: '1_0'"),
        (
            ["split", FIG1_RIGHT, "--max-labels", "+3"],
            "argument --max-labels: invalid int value: '+3'",
        ),
        (
            ["split", FIG1_RIGHT, "--optimize", "--node-budget", "٣"],
            "argument --node-budget: invalid int value: '٣'",
        ),
        (["oracle", "--b", "٣", "--c", "1,2"], "argument --b: invalid int value: '٣'"),
        (
            ["oracle", "--b", "3", "--c", "1_0,2"],
            "argument --c: expected comma-separated integers, got '1_0,2'",
        ),
    ],
)
def test_integer_arguments_follow_the_file_format_rule(argv, message, capsys):
    # int() also takes `_`, `+` and other scripts' digits; the file formats do not
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: {message}\n")


def test_unknown_verb(capsys):
    assert main(["frobnicate"]) == 2


def test_pipeline_reduce_split_oracle(tmp_path, capsys):
    # end to end through the CLI: emit a gadget, search at tight budget,
    # compare with the direct solver
    out = tmp_path / "g.lts"
    assert main(["reduce", "--b", "3", "--c", "1,2", "-o", str(out)]) == 0
    banner = capsys.readouterr().out.strip()
    q = int(banner.split("q=")[1])
    assert main(["split", str(out), "--max-labels", str(q)]) == 0
    capsys.readouterr()
    assert main(["split", str(out), "--max-labels", str(q - 1)]) == 1
    capsys.readouterr()
    assert main(["oracle", "--b", "3", "--c", "1,2"]) == 0


# the verbs that write `-o` files, each a call writing to `out`
WRITERS = {
    "synth": lambda out: ["synth", FIG2_MIDDLE, "-o", out],
    "rg": lambda out: ["rg", FIG2_NET, "-o", out],
    "reduce": lambda out: ["reduce", "--b", "3", "--c", "1,2", "-o", out],
}


def fresh_output(verb: str, tmp_path) -> bytes:
    out = tmp_path / "fresh.out"
    assert main(WRITERS[verb](str(out))) == 0
    return out.read_bytes()


@pytest.mark.parametrize("verb", sorted(WRITERS))
@pytest.mark.parametrize("old_size", [5, 100_000], ids=["shorter", "longer"])
def test_o_replaces_the_old_bytes(verb, old_size, tmp_path, capsys):
    # exactly the new bytes, whatever the old file held; the file keeps
    # its inode and mode
    want = fresh_output(verb, tmp_path)
    out = tmp_path / "old.out"
    out.write_bytes(b"x" * old_size)
    out.chmod(0o600)
    before = out.stat()
    assert main(WRITERS[verb](str(out))) == 0
    after = out.stat()
    assert out.read_bytes() == want
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    capsys.readouterr()


@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_new_file_mode_follows_umask(verb, tmp_path, capsys):
    umask = os.umask(0o027)
    try:
        out = tmp_path / "new.out"
        assert main(WRITERS[verb](str(out))) == 0
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o666 & ~0o027
    assert out.read_bytes() == fresh_output(verb, tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_writes_through_a_symlink(verb, tmp_path, capsys):
    target, link = tmp_path / "target.out", tmp_path / "link.out"
    target.write_bytes(b"y" * 100_000)
    link.symlink_to(target)
    assert main(WRITERS[verb](str(link))) == 0
    assert link.is_symlink()
    assert target.read_bytes() == fresh_output(verb, tmp_path)
    capsys.readouterr()


@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_null_device(verb, capsys):
    assert main(WRITERS[verb](os.devnull)) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_named_pipe(verb, tmp_path, capsys):
    # written like a stream; each output fits the pipe
    want = fresh_output(verb, tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert main(WRITERS[verb](str(fifo))) == 0
        assert os.read(reader, 1 << 20) == want
    finally:
        os.close(reader)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_directory_is_input_error(verb, tmp_path, capsys):
    assert main(WRITERS[verb](str(tmp_path))) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{tmp_path}: {os.strerror(errno.EISDIR)}\n"
    assert "k=" not in captured.out


@pytest.mark.parametrize("verb", ["rg", "reduce"])
def test_o_failed_write_leaves_no_old_byte(verb, tmp_path, monkeypatch, capsys):
    # the chunks stop with ENOSPC after the first: exit 2, and the file holds
    # that chunk and nothing of the longer file it replaced
    written = []

    def first_then_full(lts):
        written.append(next(lts_module.lts_chunks(lts)))
        yield written[0]
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "lts_chunks", first_then_full)
    out = tmp_path / "old.out"
    out.write_bytes(b"z" * 100_000)
    assert main(WRITERS[verb](str(out))) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{out}: {os.strerror(errno.ENOSPC)}\n"
    assert "k=" not in captured.out
    assert out.read_bytes() == written[0].encode()


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_FSIZE"), reason="no file size limit here")
@pytest.mark.parametrize("verb", sorted(WRITERS))
def test_o_write_past_the_size_limit_leaves_no_old_byte(verb, tmp_path, capsys):
    # the system refuses bytes past 10 (EFBIG; Python ignores SIGXFSZ): exit
    # 2, and the file holds the new bytes that fit
    want = fresh_output(verb, tmp_path)
    out = tmp_path / "old.out"
    out.write_bytes(b"z" * 1000)
    limits = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (10, limits[1]))
    try:
        code = main(WRITERS[verb](str(out)))
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, limits)
    assert code == 2
    assert capsys.readouterr().err == f"{out}: {os.strerror(errno.EFBIG)}\n"
    assert out.read_bytes() == want[:10]


def test_closed_stdout_exits_141_without_a_word(tmp_path):
    # rg's graph fills the pipe after its reader has gone: exit 141, as a
    # shell reports SIGPIPE, and nothing on stderr
    net = tmp_path / "ring.net"
    net.write_text(format_net(ring_net(4, 20)))
    done = subprocess.Popen(
        [sys.executable, "-m", "labelsplit", "rg", str(net)], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert done.stdout.readline() == b"lts\n"
    done.stdout.close()
    assert done.wait(timeout=60) == 141
    assert done.stderr.read() == b""
    done.stderr.close()


def test_closed_stdout_at_the_final_flush_exits_141(monkeypatch, capsys):
    # a short answer waits in stdout's buffer: `main` flushes it, and the
    # buffer that is left goes to the null device, so closing cannot fail
    read, write = os.pipe()
    os.close(read)
    stdout = open(write, "w")
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        assert main(["check", FIG1_RIGHT]) == 141
    finally:
        stdout.close()
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [["--help"], ["rg", "-h"]], ids=["top", "verb"])
def test_closed_stdout_after_help_exits_141(argv):
    # help waits in stdout's buffer while argparse exits; its flush meets
    # a pipe with no reader. (With PYTHONUNBUFFERED the write itself fails,
    # and argparse ignores that and exits 0, as it always did.)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "labelsplit", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


# each verb's whole call
CALLS = {
    "check": [FIG1_RIGHT],
    "synth": [FIG2_MIDDLE, "-o", "out.net"],
    "rg": [FIG2_NET, "--bound", "50", "-o", "out.lts"],
    "verify": [FIG2_MIDDLE, FIG2_NET],
    "split": [FIG1_RIGHT, "--node-budget", "20"],
    "reduce": ["--b", "3", "--c", "1,2", "-o", "out.lts"],
    "oracle": ["--b", "3", "--c", "1,2"],
}
SPLIT_MODES = [["--max-labels", "3"], ["--optimize"], ["--max-labels", "3", "--optimize"], []]
# every verb, flag and kind of value, `--`, help, unknown verbs and abbreviations
TOKENS = st.sampled_from(
    [*CALLS, "frobnicate", "", "chec", "--opt", "--max", "--no", "--bo", "-x", "--max-labels=3"]
    + ["-o", "--bound", "--max-labels", "--optimize", "--node-budget", "--b", "--c", "-h", "--help", "--"]
    + [FIG1_RIGHT, FIG2_MIDDLE, FIG2_NET, "missing.lts", "out.net", "out.lts"]
    + ["3", "2", "0", "-1", "1_0", "x", "1,2", "3,1,2", "2,x"]
)


@st.composite
def dispatch_argvs(draw):
    """A verb's whole call (`split` in one mode, both or neither) with
    tokens dropped (missing options) or added, or a run of tokens that
    starts with a verb or help half the time."""
    if draw(st.booleans()):
        verb = draw(st.sampled_from(sorted(CALLS)))
        argv = [verb, *CALLS[verb], *(draw(st.sampled_from(SPLIT_MODES)) if verb == "split" else [])]
        for _ in range(min(len(argv) - 1, draw(st.sampled_from([0, 0, 0, 1, 2])))):
            del argv[draw(st.integers(1, len(argv) - 1))]
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            argv.insert(draw(st.integers(1, len(argv))), draw(TOKENS))
        return argv
    argv = draw(st.lists(TOKENS, max_size=7))
    if argv and draw(st.booleans()):
        argv[0] = draw(st.sampled_from([*CALLS, "-h", "--help"]))
    return argv


def recording(func, seen: list):
    """`func`, first noting the namespace it is called with."""

    def run(args):
        seen.append(dict(vars(args)))
        return func(args)

    return run


@settings(derandomize=True, max_examples=400, deadline=None)
@given(dispatch_argvs())
def test_main_answers_like_one_top_level_parse(tmp_path_factory, argv):
    # exit code, stdout, stderr, the files written and the namespace each
    # verb sees equal those of the top-level `parse_args` that `main` ran
    # before it went straight to the verb's parser
    home = os.getcwd()
    sides = []
    seen: list[dict] = []
    with pytest.MonkeyPatch.context() as patch:
        for name in [n for n in vars(cli) if n.startswith("_cmd_")]:
            patch.setattr(cli, name, recording(getattr(cli, name), seen))
        cli._parser.cache_clear()
        try:
            for run in (main, parse_args_main):
                os.chdir(tmp_path_factory.mktemp("dispatch"))
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = run(list(argv))
                files = {path.name: path.read_bytes() for path in sorted(Path().iterdir())}
                sides.append((code, out.getvalue(), err.getvalue(), files, seen[:]))
                seen.clear()
        finally:
            os.chdir(home)
            cli._parser.cache_clear()
    assert sides[0] == sides[1], argv


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "labelsplit", "check", FIG1_RIGHT],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert result.stdout == "not-embeddable s2 s5\n"


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_parser_built_at_first_call_not_at_import():
    code = "import labelsplit.cli as c; print(c._parser.cache_info().currsize)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.stdout == "0\n"
    # one parser pair is kept; the builder under the cache makes a new one
    assert cli._parser() is cli._parser()
    assert cli._parser.__wrapped__()[0] is not cli._parser()[0]


def test_cached_parser_answers_like_a_fresh_one(tmp_path, capsys):
    # every verb, argparse errors followed by valid calls, and help texts
    calls = [
        ["check", FIG1_RIGHT],
        ["synth", FIG2_MIDDLE, "-o", str(tmp_path / "m.net")],
        ["rg", FIG2_NET, "--bound", "100"],
        ["verify", FIG2_LEFT, FIG2_NET],
        ["split", FIG1_RIGHT],
        ["split", FIG1_RIGHT, "--max-labels", "3"],
        ["split", FIG1_RIGHT, "--max-labels", "x"],
        ["split", FIG1_RIGHT, "--optimize", "--node-budget", "1"],
        ["reduce", "--b", "2", "--c", "2", "-o", str(tmp_path / "g.lts")],
        ["oracle", "--b", "2", "--c", "2,x"],
        ["oracle", "--b", "3", "--c", "1,2,4"],
        ["frobnicate"],
        ["check", FIG2_MIDDLE],
        ["split", "--help"],
        ["--help"],
    ]

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    cached = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [1, 0, 0, 0, 2, 0, 2, 3, 0, 2, 0, 2, 0, 0, 0]


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_restores_the_collector(enabled, monkeypatch, capsys):
    # each verb runs with the collector paused; `main` hands it back as it
    # found it, whatever the exit or exception
    seen = []

    def unexpected(lts):
        seen.append(gc.isenabled())
        raise RuntimeError("unexpected")

    calls = [
        (["check", FIG2_MIDDLE], 0),
        (["check", FIG1_RIGHT], 1),
        (["check", "/no/such/file.lts"], 2),
        (["rg", FIG2_NET, "--bound", "0"], 2),
        (["frobnicate"], 2),
    ]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in calls:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "is_embeddable", unexpected)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["check", FIG2_MIDDLE])
        assert gc.isenabled() is enabled
        assert seen == [False]
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_verbs_leave_no_cyclic_garbage(tmp_path, capsys):
    # pausing the collector costs no memory only while the verbs build no
    # reference cycles: each call must leave nothing for `gc.collect` to free
    bad = tmp_path / "bad.lts"
    bad.write_text("lts\ninitial s0\nedge oops\n")
    not_utf8 = tmp_path / "bad.txt"
    not_utf8.write_bytes(NOT_UTF8)
    nondet = tmp_path / "nondet.lts"
    nondet.write_text("lts\ninitial s0\nedge s0 a s1\nedge s0 a s2\nedge s3 b s0\n")
    grower = tmp_path / "grower.net"
    grower.write_text("net\nplace p 0\ntrans t\narc t p 1\n")
    two = tmp_path / "two.lts"
    two.write_text("lts\ninitial s0\nedge s0 a s1\nedge s1 a s0\n")
    loop = tmp_path / "loop.net"
    loop.write_text("net\ntrans a\n")
    unknown_label = tmp_path / "zz.lts"
    unknown_label.write_text("lts\ninitial s0\nedge s0 zz s1\n")
    gadget = str(tmp_path / "g.lts")
    calls = [
        (["check", FIG2_MIDDLE], 0),
        (["check", FIG1_RIGHT], 1),
        (["check", "/no/such/file.lts"], 2),
        (["check", str(bad)], 2),
        (["check", str(not_utf8)], 2),
        (["check", str(nondet)], 2),
        (["synth", FIG2_MIDDLE, "-o", str(tmp_path / "m.net")], 0),
        (["synth", FIG1_RIGHT, "-o", str(tmp_path / "r.net")], 1),
        (["synth", FIG2_MIDDLE, "-o", str(tmp_path / "no" / "dir.net")], 2),
        (["rg", FIG2_NET], 0),
        (["rg", FIG2_NET, "-o", str(tmp_path / "rg.lts")], 0),
        (["rg", str(grower), "--bound", "5"], 1),
        (["rg", FIG2_NET, "--bound", "0"], 2),
        (["verify", FIG2_LEFT, FIG2_NET], 0),
        (["verify", str(two), str(loop)], 1),
        (["verify", str(unknown_label), FIG2_NET], 2),
        (["verify", FIG2_MIDDLE, str(not_utf8)], 2),
        (["split", FIG1_RIGHT, "--max-labels", "3"], 0),
        (["split", FIG1_RIGHT, "--max-labels", "2"], 1),
        (["split", FIG1_RIGHT, "--max-labels", "3", "--node-budget", "1"], 3),
        (["split", FIG1_RIGHT, "--max-labels", "0"], 2),
        (["split", FIG1_RIGHT, "--optimize"], 0),
        (["split", FIG1_RIGHT, "--optimize", "--node-budget", "1"], 3),
        (["reduce", "--b", "3", "--c", "1,2", "-o", gadget], 0),
        (["reduce", "--b", "0", "--c", "2", "-o", gadget], 2),
        (["split", gadget, "--optimize"], 0),
        (["oracle", "--b", "3", "--c", "1,2,4"], 0),
        (["oracle", "--b", "8", "--c", "1,2,4"], 1),
        (["oracle", "--b", "1", "--c", ",".join(["1"] * 31)], 2),
    ]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        main(calls[0][0])  # builds the cached parser, which leaves garbage once
        left = []
        for argv, _ in calls:
            gc.collect()
            code = main(argv)
            left.append((argv, code, gc.collect()))
    finally:
        if was_enabled:
            gc.enable()
    assert left == [(argv, code, 0) for argv, code in calls]
