#!/usr/bin/env bash
# The console-script checks: `labelsplit` verbs run as a user runs them, each
# with its pinned output and exit code. Run from an empty directory, which
# the checks fill with their files:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/tests/console_script.sh
#
# `labelsplit` and `python` are taken from PATH: CI runs the installed
# console script, and tests/test_console_script.py a `python -m labelsplit`
# wrapper. GITHUB_WORKSPACE, the repository root, defaults to this file's
# parent directory. As a workflow step, it stops at the first failing line.
set -eo pipefail
GITHUB_WORKSPACE="${GITHUB_WORKSPACE:-$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)}"

test "$(labelsplit reduce --b 2 --c 2 -o gadget.lts)" = "k=3 q=16"
labelsplit split gadget.lts --max-labels 16
test "$(labelsplit oracle --b 2 --c 2)" = "1"
test "$(labelsplit oracle --b 3 --c 3,1,2)" = "1"
test "$(labelsplit oracle --b 3 --c 1,2,3)" = "1 2"
code=0
oracle="$(labelsplit oracle --b 8 --c 1,2,4)" || code=$?
test "$code" = 1
test "$oracle" = none
test "$(labelsplit reduce --b 1 --c 2,4,6,8,10,12 -o g6.lts)" = "k=6 q=29"
code=0
split="$(labelsplit split g6.lts --max-labels 29)" || code=$?
test "$code" = 1
test "$split" = not-found
code=0
split="$(labelsplit split g6.lts --max-labels 29 --node-budget 963)" || code=$?
test "$code" = 1
test "$split" = not-found
code=0
split="$(labelsplit split g6.lts --max-labels 29 --node-budget 962)" || code=$?
test "$code" = 3
test "$split" = budget-exhausted
test "$(labelsplit reduce --b 3 --c 1,2,4,5,6 -o g5.lts)" = "k=5 q=26"
labelsplit split g5.lts --max-labels 26 > g5.split
test "$(head -n 1 g5.split)" = "labels 26"
labelsplit rg "$GITHUB_WORKSPACE/tests/fixtures/fig2.net" -o fig2.lts
cmp fig2.lts "$GITHUB_WORKSPACE/tests/fixtures/rg/fig2.rg.lts"
labelsplit synth fig2.lts -o s.net
test "$(labelsplit verify fig2.lts s.net)" = embeds
ring="$GITHUB_WORKSPACE/tests/fixtures/ring3.net"
labelsplit rg "$ring" -o r.lts
cmp r.lts "$GITHUB_WORKSPACE/tests/fixtures/rg/ring3.rg.lts"
test "$(labelsplit verify r.lts "$ring")" = embeds
test "$(labelsplit split r.lts --max-labels 3)" = "labels 3"
labelsplit rg "$ring" --bound 1000000000000000000000000000000 -o r30.lts
cmp r30.lts "$GITHUB_WORKSPACE/tests/fixtures/rg/ring3.rg.lts"
labelsplit rg "$GITHUB_WORKSPACE/tests/fixtures/weighted.net" -o w.lts
cmp w.lts "$GITHUB_WORKSPACE/tests/fixtures/rg/weighted.rg.lts"
test "$(labelsplit verify w.lts "$GITHUB_WORKSPACE/tests/fixtures/weighted.net")" = embeds
python -c "print('net', *(f'place p{i} {20 * (i == 0)}' for i in range(4)), *(f'trans t{i}' for i in range(4)), *(f'arc p{i} t{i} 1\narc t{i} p{(i + 1) % 4} 1' for i in range(4)), sep='\n')" > ring20.net
labelsplit rg ring20.net -o ring20.lts
test "$(wc -l < ring20.lts)" = 6162
test "$(labelsplit verify ring20.lts ring20.net)" = embeds
sed 's/^place p0 20$/place p0 19/' ring20.net > ring19.net
test "$(sed -n 2p ring19.net)" = "place p0 19"
code=0
verify="$(labelsplit verify ring20.lts ring19.net)" || code=$?
test "$code" = 1
test "$verify" = "does-not-embed negative-marking p0:0,p1:20,p2:0,p3:0"
test "$(labelsplit check ring20.lts)" = embeddable
labelsplit synth ring20.lts -o ring20.synth.net
test "$(labelsplit verify ring20.lts ring20.synth.net)" = embeds
printf 'lts\ninitial s0\nedge s0 p1 s1\n' > p1.lts
labelsplit synth p1.lts -o p1.net
test "$(labelsplit verify p1.lts p1.net)" = embeds
code=0
rg="$(labelsplit rg p1.net)" || code=$?
test "$code" = 1
test "$rg" = bound-exceeded
code=0
rg="$(labelsplit rg "$ring" --bound 1)" || code=$?
test "$code" = 1
test "$rg" = bound-exceeded
code=0
rg="$(labelsplit rg "$ring" --bound 1_0)" || code=$?
test "$code" = 2
test -z "$rg"
python -c "import labelsplit.lts, sys; assert 'labelsplit.splitting' not in sys.modules"
test "$(labelsplit split "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts" --optimize)" = "$(printf 'labels 3\nsplit 3 b#1')"
test "$(labelsplit split "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts" --max-labels 3)" = "$(printf 'labels 3\nsplit 3 b#1')"
split="$(labelsplit split "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts" --optimize --node-budget 5)"
test "$split" = "$(printf 'labels 3\nsplit 3 b#1')"
code=0
split="$(labelsplit split "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts" --optimize --node-budget 1)" || code=$?
test "$code" = 3
test "$split" = budget-exhausted
code=0
check="$(labelsplit check "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts")" || code=$?
test "$code" = 1
test "$check" = "not-embeddable s2 s5"
printf 'lts\ninitial s\xff\n' > bad.lts
code=0
labelsplit check bad.lts 2> err.txt || code=$?
test "$code" = 2
test "$(wc -l < err.txt)" = 1
test "$(cat err.txt)" = "bad.lts: not valid UTF-8 text"
printf 'lts\ninitial s0\x0c\nedge s0 a\n' > ff.lts
code=0
labelsplit check ff.lts 2> err.txt || code=$?
test "$code" = 2
test "$(cat err.txt)" = "ff.lts:3: expected 'edge <source> <label> <target>'"
printf 'lts\ninitial s0\n# a comment\nedge s0 a s1 s2\n' > five.lts
code=0
labelsplit check five.lts 2> err.txt || code=$?
test "$code" = 2
test "$(cat err.txt)" = "five.lts:4: expected 'edge <source> <label> <target>'"
code=0
synth="$(labelsplit synth "$GITHUB_WORKSPACE/tests/fixtures/fig1-right.lts" -o s1.net)" || code=$?
test "$code" = 1
test "$synth" = "not-embeddable s2 s5"
test ! -e s1.net
printf 'net\nplace p one\n' > bad.net
code=0
labelsplit rg bad.net 2> err.txt || code=$?
test "$code" = 2
test "$(wc -l < err.txt)" = 1
test "$(cat err.txt)" = "bad.net:2: token count must be an integer, got 'one'"
printf 'net\nplace p 1_000\n' > under.net
code=0
labelsplit rg under.net 2> err.txt || code=$?
test "$code" = 2
test "$(wc -l < err.txt)" = 1
test "$(cat err.txt)" = "under.net:2: token count must be an integer, got '1_000'"
python -c "import sys; open('long.net', 'w').write('net\nplace q 1\nplace p ' + '9' * sys.get_int_max_str_digits() + '\ntrans t\narc q t 1\narc t p 1\n')"
code=0
rg="$(labelsplit rg long.net 2> err.txt)" || code=$?
test "$code" = 2
test -z "$rg"
test "$(wc -l < err.txt)" = 1
if grep -q set_int_max_str_digits err.txt; then exit 1; fi
printf 'lts\ninitial s0\nedge s0 a s1\nedge s0 a s2\nedge s3 b s0\n' > nondet.lts
code=0
labelsplit check nondet.lts 2> err.txt || code=$?
test "$code" = 2
test "$(cat err.txt)" = "$(printf 'nondet.lts: nondeterministic: two edges from s0 with label a\nnondet.lts: unreachable state: s3')"
