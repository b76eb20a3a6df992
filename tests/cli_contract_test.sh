#!/bin/sh
# Command-line contract of mflstm_cli: usage, exit status 2 for every
# bad command line, and the commands that need no trained model.
#
#   sh tests/cli_contract_test.sh path/to/mflstm_cli
#
# Bad values ride on `fsck` over an empty directory, which trains no
# model and exits 0 once its arguments parse, so a value the parser
# wrongly accepts shows up as exit 0 instead of 2.

cli=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d) || exit 1
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1
failed=0

# expect STATUS ARGS...: run the CLI, compare its exit status.
expect() {
    want=$1
    shift
    "$cli" "$@" >out.txt 2>err.txt
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: mflstm_cli $* exited $got, want $want"
        sed 's/^/  stderr: /' err.txt | head -3
        failed=1
    fi
}

expect 0 --help
expect 0 help
expect 0 run -h
usage_line=$("$cli" --help | head -n 1)
for cmd in list backends run sweep mts profile tune serve fleet fsck help; do
    case "$usage_line" in
    *"<$cmd|"* | *"|$cmd|"* | *"|$cmd>"*) ;;
    *)
        echo "FAIL: usage line does not name $cmd: $usage_line"
        failed=1
        ;;
    esac
done

expect 0 list
expect 0 backends

expect 2
expect 2 frobnicate
expect 2 list --frobnicate
expect 2 run --app
expect 2 run --app NOSUCH
expect 2 run --backend nosuch
expect 2 run --plan tuned
expect 2 run --plan nosuch
expect 2 run --quant int3
expect 2 serve --admission nosuch
expect 2 fleet --policy nosuch
expect 2 run --metrics-format xml

empty="$work/empty"
expect 0 fsck --cache-dir "$empty" --workers 3 --retries 7 --deadline-ms 1.5 \
    --admission block-with-timeout --policy least-loaded
expect 0 fsck --cache-dir "$empty" --admission reject --admission block
for bad in "--workers -1" "--workers x" "--workers 0" "--workers 3x" \
    "--workers +3" "--requests 0" "--set -1" \
    "--set 99999999999999999999999" "--chaos-seed -5" \
    "--retries 2147483648" "--retries -1" "--ticks 0" "--replicas 0" \
    "--queue-capacity -2" "--arrival-us 1e3" "--deadline-ms nan" \
    "--deadline-ms -1" "--tolerance-pct inf" "--fault-rate -0.5" \
    "--admit-timeout-ms 1e999" "--admit-timeout-ms x"; do
    # shellcheck disable=SC2086 # each case is a flag and its value
    expect 2 fsck --cache-dir "$empty" $bad
done

if [ "$failed" -ne 0 ]; then
    exit 1
fi
echo "mflstm_cli contract: ok"
