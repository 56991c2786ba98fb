#!/bin/sh
# The repo's full verification gate: vet, build, race-enabled tests and
# a short pass over the benchmark suite (compile + one iteration) so the
# benchmarks cannot rot. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..." >&2
go vet ./...

echo "==> go build ./..." >&2
go build ./...

# The full-flow suite under -race runs close to go test's 10-minute
# default per-package timeout; an explicit budget keeps the gate from
# flaking on loaded boxes without masking a real hang.
echo "==> go test -race ./..." >&2
go test -race -timeout 30m ./...

# Shuffled pass: the suite must not depend on test execution order.
# A fixed seed keeps failures reproducible; bump it when hunting.
echo "==> go test -shuffle=on (order independence)" >&2
go test -shuffle="${CI_SHUFFLE_SEED:-1}" ./...

# Fuzz smoke: each native fuzz target runs briefly from its seed corpus
# (~30s total). This is a regression tripwire, not a bug hunt — longer
# campaigns run with: go test -fuzz <Target> -fuzztime 10m <pkg>.
echo "==> fuzz smoke (4 targets x ${CI_FUZZTIME:-10s})" >&2
go test -run '^$' -fuzz '^FuzzTextRoundTrip$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/netlist/
go test -run '^$' -fuzz '^FuzzElaborate$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/synth/
go test -run '^$' -fuzz '^FuzzEstimatorRoundTrip$' -fuzztime "${CI_FUZZTIME:-10s}" .
go test -run '^$' -fuzz '^FuzzPartitionAssign$' -fuzztime "${CI_FUZZTIME:-10s}" ./internal/partition/

# Coverage gate: the differential-verification core (oracle, pblock,
# stitch, partition) must not silently lose test coverage. The floor is
# recorded in scripts/coverage_floor.txt; raise it when coverage
# genuinely improves.
echo "==> coverage gate (internal/oracle, internal/pblock, internal/stitch, internal/partition)" >&2
cover_out="$(mktemp)"
go test -coverprofile="${cover_out}" ./internal/oracle/ ./internal/pblock/ ./internal/stitch/ ./internal/partition/ >/dev/null
total="$(go tool cover -func="${cover_out}" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')"
rm -f "${cover_out}"
floor="$(cat scripts/coverage_floor.txt)"
echo "coverage gate: total ${total}% (floor ${floor}%)" >&2
awk -v t="${total}" -v f="${floor}" 'BEGIN {
	if (t + 0 < f + 0) { print "coverage gate: below floor" > "/dev/stderr"; exit 1 }
}'

# The multi-chain stitcher promises bit-identical results regardless of
# core count; re-run its determinism suite under the race detector at a
# parallelism the default run may not have exercised. The analytic
# backend's goroutine-tiled gradient descent, the evolutionary placer's
# parallel fitness evaluation, the portfolio race, the sharded stitcher's
# goroutine-per-shard fan-out and the partitioner's parallel offspring
# evaluation all carry the same promise, so their determinism tests run
# in the same configuration.
echo "==> stitch determinism under -race, GOMAXPROCS=4" >&2
GOMAXPROCS=4 go test -race -run 'TestChains|TestSingleChainMatchesSerial|TestFinalCostAlwaysInTrace|TestAnalyticDeterministic|TestAnnealBackendIsDefault|TestEvoDeterministic|TestPortfolioDeterministic|TestPortfolioEntrantsMatchSolo|TestShardedDeterministic|TestShardedGOMAXPROCSInvariant' ./internal/stitch/
GOMAXPROCS=4 go test -race -run 'TestAssignDeterministic|TestAssignGOMAXPROCSInvariant' ./internal/partition/
GOMAXPROCS=4 go test -race -run 'TestCompileMultiChainDeterministic|TestIterToReachFinalCost' .

# Backend audits: every stitcher backend (all five, portfolio included)
# through Compile under the full oracle audit (zero violations
# required), the cnvW1A1 flow on the hybrid backend recounted end to
# end, and the two-shard partitioned compile with the partition
# assignment, every shard placement and the cut weight all recounted.
echo "==> stitch backend oracle audits (-check full)" >&2
go test -run 'TestCompileBackendsAuditClean|TestRunCNVHybridFullAudit|TestLegalizedPlacementsPassOracle|TestCompilePartitionedFullAudit' . ./internal/stitch/

# Telemetry plane: boot an in-process daemon, run a job, and require
# GET /metrics to parse as strict Prometheus text with the service
# series present — plus the flight recorder's anomaly-dump path.
echo "==> macroflowd telemetry plane (-race, /metrics exposition + flight recorder)" >&2
go test -race -count=1 -run 'TestMetricsEndpoint|TestFlightRecorder' ./cmd/macroflowd/

# Daemon smoke: build the real macroflowd binary under -race, start it
# on a random port, submit a compile over HTTP, assert the result is
# byte-identical to the in-process flow, SIGTERM, and require a clean
# drain (see TestDaemonBinarySmoke).
echo "==> macroflowd daemon smoke (-race, SIGTERM drain)" >&2
MACROFLOWD_SMOKE=1 go test -race -count=1 -run '^TestDaemonBinarySmoke$' ./cmd/macroflowd/

# Golden output: the full experiment run must reproduce the committed
# experiments_output.txt byte for byte, log lines included (recorded
# with 2>&1). TestGoldenSubset checks four sections under go test; this
# is the whole run (several minutes).
echo "==> experiments -exp all vs experiments_output.txt" >&2
exp_out="$(mktemp)"
go run ./cmd/experiments -exp all >"${exp_out}" 2>&1
if ! diff experiments_output.txt "${exp_out}" >&2; then
	rm -f "${exp_out}"
	echo "golden: experiments -exp all differs from experiments_output.txt" >&2
	exit 1
fi
rm -f "${exp_out}"

echo "==> go test -bench . -benchtime 1x (smoke)" >&2
go test -run '^$' -bench . -benchtime 1x .

# Observability overhead gate: the instrumented implement path with a
# nil recorder must stay within OBS_GATE_TOL (default 1%) of the
# uninstrumented baseline. Each round runs both benchmarks back-to-back
# in one process so load drift hits the pair equally, and the min ns/op
# across rounds is compared — the min discards scheduler and GC noise,
# which on a shared box dwarfs the few nil-checks being measured.
# Raise OBS_GATE_ROUNDS or OBS_GATE_BENCHTIME on noisy boxes.
echo "==> nil-recorder overhead gate" >&2
go test -c -o /tmp/macroflow.obsgate.test .
obs_bench=""
round=0
while [ "${round}" -lt "${OBS_GATE_ROUNDS:-8}" ]; do
	obs_bench="${obs_bench}
$(/tmp/macroflow.obsgate.test -test.run '^$' \
		-test.bench '^(BenchmarkImplementNoObs|BenchmarkImplementObsNil)$' \
		-test.benchtime "${OBS_GATE_BENCHTIME:-8x}")"
	round=$((round + 1))
done
rm -f /tmp/macroflow.obsgate.test
echo "${obs_bench}" | grep '^Benchmark' >&2
echo "${obs_bench}" | awk -v tol="${OBS_GATE_TOL:-0.01}" '
	/^BenchmarkImplementNoObs/  { if (base == 0 || $3 < base) base = $3 }
	/^BenchmarkImplementObsNil/ { if (inst == 0 || $3 < inst) inst = $3 }
	END {
		if (base == 0 || inst == 0) { print "obs gate: benchmarks missing" > "/dev/stderr"; exit 1 }
		ratio = inst / base
		printf "obs gate: nil-recorder min %.0f ns/op vs baseline min %.0f ns/op (ratio %.4f, tolerance %.2f)\n", inst, base, ratio, 1 + tol > "/dev/stderr"
		if (ratio > 1 + tol) { print "obs gate: nil-recorder overhead exceeds tolerance" > "/dev/stderr"; exit 1 }
	}'

echo "ci: all gates passed" >&2
