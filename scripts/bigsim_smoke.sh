#!/bin/sh
# bigsim_smoke.sh — streaming-pipeline smoke across validator shard counts.
#
# Runs `uninet bigsim` at n=10⁵ twice: with the sequential validator
# (-shards 1) and with the two-shard barrier validator (-shards 2). Both
# pin their shard count, because the default takes GOMAXPROCS minus one
# shard and so differs between a 2-core and a 4-core runner. Every run must
#
#   1. pass the peak-bytes assertion (the stream must never materialize), and
#   2. report the same stream fingerprint, host steps and op counts — the
#      builder's stream does not depend on how the validator is sharded,
#      so any divergence is a bug, not noise.
#
# Agreement between runs cannot catch a schedule change that both share,
# so the sequential run must also print the pinned fingerprint below, the
# queued builder's stream at these flags. Change the pin only with a
# change that is meant to change the schedule.
#
# GOMEMLIMIT makes an accidental full materialization fail loudly instead of
# silently paging. Used by `make bigsim-smoke` and CI.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

$GO build -o "$BIN/uninet" ./cmd/uninet

PINNED_FP='stream fingerprint: 77a7ccec037bea7f steps=32652'

run_bigsim() {
	GOMEMLIMIT=512MiB "$BIN/uninet" bigsim -n 100000 -deg 3 -hostdim 5 -steps 2 \
		-chunk-kb 256 -budget-kb 4096 -assert-peak-bytes 8388608 -seed 1 "$@"
}

# counts prints the host steps line without its wall-clock suffix.
counts() {
	echo "$1" | grep "^host steps T'=" | sed 's/ ([0-9.]*s)$//'
}

echo "== bigsim -shards 1 =="
OUT1=$(run_bigsim -shards 1)
echo "$OUT1"
FP1=$(echo "$OUT1" | grep '^stream fingerprint:')
[ -n "$FP1" ] || { echo "bigsim_smoke: no fingerprint in the sequential run" >&2; exit 1; }
STEPS1=$(counts "$OUT1")
[ -n "$STEPS1" ] || { echo "bigsim_smoke: no host steps line in the sequential run" >&2; exit 1; }
if [ "$FP1" != "$PINNED_FP" ]; then
	echo "bigsim_smoke: the stream differs from the pinned one:" >&2
	echo "  got:    $FP1" >&2
	echo "  pinned: $PINNED_FP" >&2
	exit 1
fi
echo "bigsim_smoke: fingerprint matches the pin: OK"

echo "== bigsim -shards 2 =="
OUT2=$(run_bigsim -shards 2)
echo "$OUT2"
echo "$OUT2" | grep -q '^streaming run: .*, shards=2,' || {
	echo "bigsim_smoke: the -shards 2 run did not validate with two shards" >&2
	exit 1
}
FP2=$(echo "$OUT2" | grep '^stream fingerprint:')
STEPS2=$(counts "$OUT2")
if [ "$FP1" != "$FP2" ] || [ "$STEPS1" != "$STEPS2" ]; then
	echo "bigsim_smoke: two-shard validation diverged from the sequential run:" >&2
	echo "  one shard:  $STEPS1 / $FP1" >&2
	echo "  two shards: $STEPS2 / $FP2" >&2
	exit 1
fi
echo "bigsim_smoke: two-shard validation matches the sequential run: OK"
