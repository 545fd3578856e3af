"""Command line front end.

Decisions are exit codes so the tool scripts cleanly: 0 affirmative,
1 negative, 2 malformed input or arguments, 3 search budget exhausted,
141 (SIGPIPE's, as a shell reports it) if stdout's or stderr's reader left.
Data goes to stdout or `-o` files, diagnostics to stderr. A malformed input
or argument raises `_Fail(message)`; only `main` prints it on stderr, one
line per problem, and exits 2 (argparse prints and exits 2 on its own).

Each verb runs with the cyclic garbage collector paused, and `main`
restores it as it found it. The verbs build no reference cycles, so the
collector's passes find nothing and only re-scan what reference counting
frees anyway; `tests/test_cli.py` pins that each verb leaves no garbage.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from functools import cache
from typing import Callable, Iterable, TypeVar

from .lts import FormatError, Lts, _int_token, lts_chunks, parse_lts, validate
from .petri import format_net, parse_net, reachability_graph, synthesize, verify_embedding
from .reduction import BRUTE_MAX_N, SubsetSumInstance, build_lts, params, subset_sum_brute
from .regions import NotEmbeddable, is_embeddable
from .splitting import decide, optimize, serialize_splitting


class _Fail(Exception):
    """A malformed input or argument; the message is the diagnostic, one line per problem."""


def _write(path: str, chunks: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise _Fail(f"{path}: {exc.strerror or exc}") from None


T = TypeVar("T")


def _parse_file(path: str, parser: Callable[[str], T]) -> T:
    """The file's bytes decoded, then parsed: a line ends at a line feed alone, as the formats read it."""
    try:
        with open(path, "rb", buffering=0) as handle:
            return parser(handle.read().decode("utf-8"))
    except OSError as exc:
        raise _Fail(f"{path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        raise _Fail(f"{path}: not valid UTF-8 text") from None
    except FormatError as exc:
        raise _Fail(f"{path}:{exc.line}: {exc.message}") from None


def _load_lts(path: str) -> Lts:
    lts = _parse_file(path, parse_lts)
    if problems := validate(lts):
        raise _Fail("\n".join(f"{path}: {p}" for p in problems))
    return lts


def _values_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(_int_token(v, 0, "value") for v in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {raw!r}")


def _at_least(flag: str, value: int | None, low: int) -> None:
    if value is not None and value < low:
        raise _Fail(f"{flag} must be at least {low}, got {value}")


def _instance(args: argparse.Namespace) -> SubsetSumInstance:
    try:
        return SubsetSumInstance(args.b, args.c)
    except ValueError as exc:
        raise _Fail(f"bad instance: {exc}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    report = is_embeddable(_load_lts(args.lts_file))
    if report.embeddable:
        print("embeddable")
        return 0
    assert report.witness is not None
    print(f"not-embeddable {report.witness[0]} {report.witness[1]}")
    return 1


def _cmd_synth(args: argparse.Namespace) -> int:
    lts = _load_lts(args.lts_file)
    try:
        net = synthesize(lts)
    except NotEmbeddable as exc:
        print(f"not-embeddable {exc.witness[0]} {exc.witness[1]}")
        return 1
    _write(args.output, [format_net(net)])
    return 0


def _cmd_rg(args: argparse.Namespace) -> int:
    _at_least("--bound", args.bound, 1)
    net = _parse_file(args.net_file, parse_net)
    try:
        result = reachability_graph(net, max_states=args.bound)
    except ValueError as exc:  # a marking too long to write as a state name
        raise _Fail(f"{args.net_file}: {exc}") from None
    if result is None:
        print("bound-exceeded")
        return 1
    if args.output:
        _write(args.output, lts_chunks(result))
    else:
        sys.stdout.writelines(lts_chunks(result))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    lts = _load_lts(args.lts_file)
    net = _parse_file(args.net_file, parse_net)
    try:
        reason = verify_embedding(lts, net)
    except ValueError as exc:
        raise _Fail(f"{args.lts_file} vs {args.net_file}: {exc}") from None
    if reason is None:
        print("embeds")
        return 0
    print(f"does-not-embed {reason}")
    return 1


def _cmd_split(args: argparse.Namespace) -> int:
    _at_least("--max-labels", args.max_labels, 1)
    _at_least("--node-budget", args.node_budget, 0)
    lts = _load_lts(args.lts_file)
    if args.optimize:
        outcome = optimize(lts, node_budget=args.node_budget)
    else:
        outcome = decide(lts, args.max_labels, node_budget=args.node_budget)
    if outcome.splitting is not None:
        sys.stdout.write(serialize_splitting(lts, outcome.splitting))
        return 0
    if outcome.exhausted:
        print("budget-exhausted")
        return 3
    print("not-found")
    return 1


def _cmd_reduce(args: argparse.Namespace) -> int:
    instance = _instance(args)
    _write(args.output, lts_chunks(build_lts(instance)))
    p = params(instance)
    print(f"k={p.max_bit} q={p.label_budget}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    instance = _instance(args)
    if instance.n > BRUTE_MAX_N:
        raise _Fail(f"--c: the oracle takes at most {BRUTE_MAX_N} values, got {instance.n}")
    solution = subset_sum_brute(instance)
    if solution is None:
        print("none")
        return 1
    print(" ".join(str(i) for i in solution))
    return 0


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's, built at `main`'s first call and
    kept: building them costs about 25 times as much as a top-level parse."""
    parser = argparse.ArgumentParser(
        prog="labelsplit",
        description="Petri net embeddability, label splitting and subset-sum gadgets "
        "for labelled transition systems",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("check", help="is the LTS embeddable into some net's reachability graph")
    p.add_argument("lts_file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("synth", help="synthesize a witnessing net")
    p.add_argument("lts_file")
    p.add_argument("-o", dest="output", required=True, metavar="NET_FILE")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("rg", help="reachability graph of a net, in LTS format")
    p.add_argument("net_file")
    p.add_argument("--bound", type=int, default=10000, metavar="N")
    p.add_argument("-o", dest="output", default=None, metavar="LTS_FILE")
    p.set_defaults(func=_cmd_rg)

    p = sub.add_parser("verify", help="check the canonical embedding of an LTS into a net")
    p.add_argument("lts_file")
    p.add_argument("net_file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("split", help="search for a label splitting making the LTS embeddable")
    p.add_argument("lts_file")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--max-labels", type=int, metavar="Q")
    mode.add_argument("--optimize", action="store_true")
    p.add_argument("--node-budget", type=int, default=None, metavar="N")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("reduce", help="build the gadget LTS of a subset-sum instance")
    p.add_argument("--b", type=int, required=True, metavar="TARGET")
    p.add_argument("--c", type=_values_list, required=True, metavar="C1,C2,...")
    p.add_argument("-o", dest="output", required=True, metavar="LTS_FILE")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("oracle", help="solve a subset-sum instance directly")
    p.add_argument("--b", type=int, required=True, metavar="TARGET")
    p.add_argument("--c", type=_values_list, required=True, metavar="C1,C2,...")
    p.set_defaults(func=_cmd_oracle)

    for p in sub.choices.values():
        # `type=int` reads the file formats' integers; diagnostics still say "invalid int value"
        p.register("type", int, lambda raw: _int_token(raw, 0, "argument"))
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser, verbs = _parser()
    verb = verbs.get(argv[0]) if argv else None
    was_enabled = gc.isenabled()
    try:
        try:  # the top-level parser only if argv names no verb or leaves some over
            args, extra = verb.parse_known_args(argv[1:], argparse.Namespace(verb=argv[0])) if verb else (None, True)
            if extra:
                args = parser.parse_args(argv)
            gc.disable()
            code = args.func(args)
        except SystemExit as exc:
            # argparse prints its own diagnostics; errors exit 2, --help exits 0
            code = exc.code if isinstance(exc.code, int) else 2
        except _Fail as fail:  # inside the outer try: a closed stderr exits 141 as stdout does
            print(fail, file=sys.stderr)
            code = 2
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # a reader left; what its stream still holds goes to the null device at exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except BrokenPipeError:
                os.dup2(devnull, stream.fileno())
        os.close(devnull)
        return 141
    finally:
        if was_enabled:
            gc.enable()
