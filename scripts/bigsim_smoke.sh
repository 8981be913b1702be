#!/bin/sh
# bigsim_smoke.sh — streaming-pipeline smoke across the build-shards matrix.
#
# Runs `uninet bigsim` at n=10⁵ three times: serial build (-build-shards 1),
# parallel build (-build-shards = nproc), and serial build with a two-shard
# validator (-shards 2). The first two leave the validator auto-sized,
# which on a 2-core runner is one shard, so the third run is what keeps the
# barrier validator under test. Every run must
#
#   1. pass the peak-bytes assertion (the stream must never materialize), and
#   2. report byte-identical stream fingerprints — the deterministic merge
#      makes the sharded build indistinguishable from the serial one at the
#      encoded-bytes level, so any divergence is a bug, not noise.
#
# The two-shard run must also report the serial run's host steps and op
# counts. Agreement between runs cannot catch a schedule change that all
# three share, so the serial run must also print the pinned fingerprint
# below, the queued builder's stream at these flags. Change the pin only
# with a change that is meant to change the schedule.
#
# GOMEMLIMIT makes an accidental full materialization fail loudly instead of
# silently paging. Used by `make bigsim-smoke` and CI.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

$GO build -o "$BIN/uninet" ./cmd/uninet

PROCS=$(nproc 2>/dev/null || echo 2)
[ "$PROCS" -ge 1 ] || PROCS=1

PINNED_FP='stream fingerprint: 77a7ccec037bea7f steps=32652'

run_bigsim() {
	GOMEMLIMIT=512MiB "$BIN/uninet" bigsim -n 100000 -deg 3 -hostdim 5 -steps 2 \
		-chunk-kb 256 -budget-kb 4096 -assert-peak-bytes 8388608 -seed 1 "$@"
}

# counts prints the host steps line without its wall-clock suffix.
counts() {
	echo "$1" | grep "^host steps T'=" | sed 's/ ([0-9.]*s)$//'
}

echo "== bigsim -build-shards 1 =="
OUT1=$(run_bigsim -build-shards 1)
echo "$OUT1"
FP1=$(echo "$OUT1" | grep '^stream fingerprint:')
[ -n "$FP1" ] || { echo "bigsim_smoke: no fingerprint in serial run" >&2; exit 1; }
STEPS1=$(counts "$OUT1")
[ -n "$STEPS1" ] || { echo "bigsim_smoke: no host steps line in serial run" >&2; exit 1; }
if [ "$FP1" != "$PINNED_FP" ]; then
	echo "bigsim_smoke: serial stream differs from the pinned one:" >&2
	echo "  got:    $FP1" >&2
	echo "  pinned: $PINNED_FP" >&2
	exit 1
fi
echo "bigsim_smoke: serial fingerprint matches the pin: OK"

echo "== bigsim -build-shards $PROCS =="
OUT2=$(run_bigsim -build-shards "$PROCS")
echo "$OUT2"
FP2=$(echo "$OUT2" | grep '^stream fingerprint:')

if [ "$FP1" != "$FP2" ]; then
	echo "bigsim_smoke: fingerprint mismatch between build-shards 1 and $PROCS:" >&2
	echo "  serial:  $FP1" >&2
	echo "  sharded: $FP2" >&2
	exit 1
fi
echo "bigsim_smoke: fingerprints identical across build-shards {1, $PROCS}: OK"

echo "== bigsim -build-shards 1 -shards 2 =="
OUT3=$(run_bigsim -build-shards 1 -shards 2)
echo "$OUT3"
echo "$OUT3" | grep -q '^streaming run: .*, shards=2,' || {
	echo "bigsim_smoke: the -shards 2 run did not validate with two shards" >&2
	exit 1
}
FP3=$(echo "$OUT3" | grep '^stream fingerprint:')
STEPS3=$(counts "$OUT3")
if [ "$FP1" != "$FP3" ] || [ "$STEPS1" != "$STEPS3" ]; then
	echo "bigsim_smoke: two-shard validation diverged from the serial run:" >&2
	echo "  serial:     $STEPS1 / $FP1" >&2
	echo "  two shards: $STEPS3 / $FP3" >&2
	exit 1
fi
echo "bigsim_smoke: two-shard validation matches the serial run: OK"
