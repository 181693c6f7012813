#!/bin/sh
# loadtest.sh — short deterministic open-loop load gate (`make loadtest`).
#
# Two sweeps through the one open-loop measurement in internal/host
# (host.RunOpenLoop: seeded Poisson arrivals, no external tools; one
# fresh stack per rate point), both gated by host.CheckBaseline against
# a checked-in host.SweepReport:
#
#   1. Single-host: hfiserve -mode sweep at three offered rates —
#      comfortably below, around, and far past two-worker capacity. It
#      sweeps exactly the -workers list (here 2 workers).
#   2. Cluster: hfirouter -selfdrive drives the same generator through the
#      consistent-hash router over 3 real shard subprocesses, with exact
#      fleet-wide outcome conservation (Σ shard delivered == router
#      admitted) checked at every point.
#
# Every point must account each offered request to exactly one outcome.
# Either gate fails if any point's p99 exceeds its baseline by more than
# the tolerance, if any rate serves zero successes, or if the baseline has
# no entry for a point (points are keyed scale@rate: workers or shards,
# and the offered rate).
#
# The tolerance is a multiplier (default 4x single-host, 3x cluster), not
# a percentage: wall-clock latency on shared CI hardware is noisy, and a
# real regression — an accidental lock across dispatch, a lost fast
# path — shows up as a multiple. PolicyShed keeps p99 bounded at the
# overloaded point, so the gate stays meaningful past the knee.
#
# Regenerate the baselines after an intentional perf change by running
# each leg without its gate:
#   go run ./cmd/hfiserve -mode sweep -workers 2 -rates 300,900,2500 \
#       -requests 120 -policy shed -queue 16 -dispatch 300us -seed 1 \
#       -json > scripts/loadtest_baseline.json
#   go run ./cmd/hfirouter -selfdrive -shards 3 -rates 300,900 \
#       -requests 120 -seed 1 -json > scripts/cluster_baseline.json
#
# Usage: scripts/loadtest.sh [extra hfiserve flags for the single-host leg]
set -eu
cd "$(dirname "$0")/.."

go run ./cmd/hfiserve -mode sweep \
	-workers 2 \
	-rates 300,900,2500 \
	-requests 120 \
	-policy shed -queue 16 -dispatch 300us -seed 1 \
	-check scripts/loadtest_baseline.json \
	"$@"

exec go run ./cmd/hfirouter -selfdrive \
	-shards 3 \
	-rates 300,900 \
	-requests 120 \
	-seed 1 \
	-check scripts/cluster_baseline.json
