#!/usr/bin/env bash
# Which internal/ functions does no shipped binary execute?
#
# Builds every cmd/* and the benchmark with coverage counters, runs each
# with small arguments (defaults first, then what is one flag, one env
# var or one request field away), runs every Example of internal/ with
# the same counters (an Example is a program `go test` runs and pins),
# merges the counters and lists the internal/ functions at 0%. The list is a gate by name,
# not by count: it must equal scripts/traffic-audit.allow, where every
# survivor is written down with the reason it stays. A function that is
# unexecuted and not listed fails the audit; so does a listed function
# that now executes or no longer exists.
#
# Run from anywhere: bash scripts/traffic-audit.sh. Leaves audit/ behind
# (gitignored). Needs curl and a free 127.0.0.1:8080.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/traffic-audit.allow
addr=127.0.0.1:8080
q='{"machine":"laptop","topology":{"nodes":4,"ppn":4},"collective":"allgather","sizes":[1024]}'

rm -rf audit
mkdir -p audit/cmd audit/cov audit/cov-flags

# The pattern must be repro/... : -coverpkg=./internal/... or
# repro/internal/... leaves package main uninstrumented and, on go1.24,
# the binaries then write no counter files at all.
cover="-cover -covermode=atomic -coverpkg=repro/..."
go build $cover -o audit/cmd/ ./cmd/...
go build $cover -o audit/benchmark ./benchmark

# serverd writes its counters at exit, so every session ends with a
# graceful stop; the trap covers a request that fails in between.
pid=
trap '[ -z "$pid" ] || kill "$pid" 2>/dev/null || true' EXIT
serverd_start() {
	audit/cmd/serverd -addr "$addr" "$@" 2>>audit/serverd.log &
	pid=$!
	for _ in $(seq 1 50); do
		curl -sf "http://$addr/healthz" >/dev/null && return
		sleep 0.2
	done
	echo "traffic-audit: serverd did not come up on $addr (see audit/serverd.log)" >&2
	exit 1
}
serverd_stop() {
	kill -TERM "$pid"
	wait "$pid"
	pid=
}
post() { curl -sf -o /dev/null "http://$addr$1" -d "$2"; }

# --- defaults ---------------------------------------------------------
export GOCOVERDIR=audit/cov
audit/cmd/perf -sweep all -scalemax 4096 -out audit/sweeps.json >/dev/null
audit/cmd/ablations >/dev/null
audit/cmd/mpibench >/dev/null
audit/cmd/summa -cores 4 -block 4 -verify >/dev/null
audit/cmd/bpmf -cores 16 -real >/dev/null
audit/cmd/linkcheck >/dev/null
audit/cmd/experiments 2>/dev/null >/dev/null
# Each test binary runs in its package directory, hence the absolute
# counter directory.
go test -count=1 -run '^Example' $cover ./internal/... -args -test.gocoverdir="$PWD/audit/cov" >/dev/null
for w in fig-micro fig-apps serve-cold serve-warm; do
	audit/benchmark -workload $w -seed 1 -seconds 2 -trace 0 >/dev/null
done
serverd_start
post /v1/run "$q"
post /v1/price "$q"
post /v1/canon "$q"
curl -sf -o /dev/null "http://$addr/metrics"
serverd_stop

# --- one flag away ----------------------------------------------------
# Code the default runs never take but a user reaches without writing
# Go: mpibench's point under both pairwise sync flavors with the
# tracer on; the full figure grid; the cost policy installed from the environment (the commands, not the
# Examples, read REPRO_COLL_TUNING), which prices the neighborhood
# shapes the table never asks about; serverd's per-tenant limiter and its /metrics
# series, a malformed request,
# an explicit engine+fold, a forced algorithm (the one registry entry no
# policy picks by itself) and a barrier under the cost policy.
export GOCOVERDIR=audit/cov-flags
audit/cmd/mpibench -nodes 2 -ppn 4 -elems 64 -sync p2p -trace >/dev/null
audit/cmd/mpibench -nodes 2 -ppn 4 -sync sharedflags >/dev/null
audit/cmd/experiments -fine 2>/dev/null >/dev/null
REPRO_COLL_TUNING=policy=cost audit/cmd/perf -sweep stencil -scalemax 4096 >/dev/null
serverd_start -tenant-qps 1000
curl -sf -o /dev/null -H 'X-Tenant: audit' "http://$addr/v1/run" -d "$q"
curl -sf -o /dev/null "http://$addr/metrics"
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$addr/v1/run" -d '{"machine":')
[ "$code" = 400 ]
post /v1/run '{"machine":"laptop","topology":{"nodes":4,"ppn":4},"collective":"allgather","sizes":[1024],"engine":"event","fold":"4"}'
post /v1/run '{"machine":"laptop","topology":{"nodes":4,"ppn":4},"collective":"scan","sizes":[1024],"tuning":{"force":{"scan":"linear"}}}'
post /v1/run '{"machine":"laptop","topology":{"nodes":4,"ppn":4},"collective":"barrier","sizes":[0],"tuning":{"policy":"cost"}}'
serverd_stop
unset GOCOVERDIR

# --- merge and compare with the allow list ----------------------------
# One line per function: "internal/pkg/file.go: Func" (go tool cover
# prints methods without their receiver; two same-named methods of one
# file are two identical lines, and comm compares them as a multiset).
unexecuted() {
	go tool covdata textfmt -i="$1" -o=audit/merged.txt
	go tool cover -func=audit/merged.txt >audit/functions.txt
	awk '$1 ~ /^repro\/internal\// && $NF == "0.0%" {
		sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ": " $2 }' audit/functions.txt | sort
}
unexecuted audit/cov >audit/unexecuted-defaults.txt
unexecuted audit/cov,audit/cov-flags | tee audit/unexecuted.txt
echo "$(wc -l <audit/unexecuted-defaults.txt) internal/ functions executed by no binary run with default flags"
echo "$(wc -l <audit/unexecuted.txt) once the flag-gated runs are counted"

sed -n 's/ — .*//p' "$allow" | sort >audit/allowed.txt
if [ "$(wc -l <audit/allowed.txt)" -ne "$(wc -l <"$allow")" ]; then
	echo "traffic-audit: every line of $allow must read 'internal/pkg/file.go: Func — reason'" >&2
	exit 1
fi
awk '$1 ~ /^repro\/internal\// { sub(/^repro\//, "", $1); sub(/:[0-9]+:$/, "", $1); print $1 ": " $2 }' \
	audit/functions.txt | sort -u >audit/existing.txt
unlisted=$(comm -23 audit/unexecuted.txt audit/allowed.txt)
stale=$(comm -13 audit/unexecuted.txt audit/allowed.txt)
status=0
if [ -n "$unlisted" ]; then
	echo "traffic-audit: executed by no binary and not in $allow (delete it, run it, or list it with a reason):" >&2
	echo "$unlisted" | sed 's/^/  /' >&2
	status=1
fi
if [ -n "$stale" ]; then
	echo "traffic-audit: listed in $allow but no longer unexecuted (drop the line):" >&2
	echo "$stale" | while IFS= read -r f; do
		if grep -qxF "$f" audit/existing.txt; then echo "  $f (now executes)"; else echo "  $f (no longer exists)"; fi
	done >&2
	status=1
fi
exit $status
