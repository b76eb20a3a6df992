#!/bin/sh
# Exit-status contract of bench_diff on a committed BENCH report:
# identical reports and directories pass; one metric halved, turned
# null, zeroed or dropped fails, and so does a baseline report missing
# from the current directory; a foreign or future-version report, or a
# file paired with a directory, is a usage error.
#
#   sh tests/bench_diff_test.sh path/to/bench_diff path/to/BENCH_x.json
#
# The edited copies change MR.combined.speedup, so the report must be
# bench/baselines/BENCH_overall_MR.json or hold that metric too. The
# directory cases compare the report's directory with copies of every
# BENCH_*.json in it.

diff_bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
base=$(cd "$(dirname "$2")" && pwd)/$(basename "$2")
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failed=0

# expect STATUS ARGS...: run bench_diff, compare its exit status.
expect() {
    want=$1
    shift
    "$diff_bin" "$@" >out.txt 2>err.txt
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: bench_diff $* exited $got, want $want"
        sed 's/^/  out: /' out.txt | tail -3
        sed 's/^/  err: /' err.txt | head -3
        failed=1
    fi
}

# derive NAME SED-SCRIPT: directory NAME with a copy of every report
# next to the given one, which is edited by SED-SCRIPT; fails the test
# when the edit changed nothing.
derive() {
    mkdir -p "$1"
    cp "$(dirname "$base")"/BENCH_*.json "$1"/
    sed "$2" "$base" >"$1/$(basename "$base")"
    if cmp -s "$base" "$1/$(basename "$base")"; then
        echo "FAIL: edit '$2' left the report unchanged"
        failed=1
    fi
}

key='"MR.combined.speedup":'
value=$(grep -o "$key[^,}]*" "$base" | cut -d: -f2)
half=$(awk -v v="$value" 'BEGIN { printf "%.17g", v / 2 }')

mkdir same && cp "$(dirname "$base")"/BENCH_*.json same/
derive halved "s/$key$value/$key$half/"
derive nulled "s/$key$value/${key}null/"
derive zeroed "s/$key$value/${key}0/"
derive dropped "s/$key$value,//"
mkdir partial && cp "$base" partial/
derive foreign 's/"schema":"mflstm.bench"/"schema":"mflstm.other"/'
derive future 's/"version":1,/"version":2,/'

expect 0 "$base" "$base"
expect 0 "$(dirname "$base")" same
expect 1 "$base" "halved/$(basename "$base")"
expect 1 "$(dirname "$base")" halved
expect 1 "$base" "nulled/$(basename "$base")"
expect 1 "$base" "zeroed/$(basename "$base")"
expect 1 "$base" "dropped/$(basename "$base")"
expect 1 "$(dirname "$base")" partial
expect 2 "$base" "foreign/$(basename "$base")"
expect 2 "$base" "future/$(basename "$base")"
expect 2 "$base" same
expect 2 same "$base"

if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "bench_diff contract: ok"
