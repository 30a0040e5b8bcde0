#!/bin/sh
# CI for the tracecache repo: tier-1 build+test, vet+gofmt+tcvet static
# gates, a race pass over the observability layer, the simulator, and the
# parallel sweep engine, a fast-forward agreement+accuracy step (tcbench
# -ffwd and tcsim -ffwd must print the same mean fetch size), a warm
# result-store smoke, a tcserve sweep-service smoke (restart +
# store-served resubmission, plus the /metrics and /debug/pprof/ handler
# set that tcserve shares with tcbench -http), a smoke run of the
# throughput benchmarks (BenchmarkSimulatorThroughput and its -check
# twin), and vet + tests of the perfbench module, which ./... skips
# because it is its own module.
set -eu
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
UNFORMATTED=$(gofmt -l .)
[ -z "$UNFORMATTED" ] || { echo "FAIL: gofmt needed:"; echo "$UNFORMATTED"; exit 1; }

echo "== tcvet (project static analysis: determinism, hotalloc, nilsafe, nopanic, metrichygiene) =="
go run ./cmd/tcvet ./...

echo "== go test =="
go test ./...

echo "== go test -race (obs, sim, metrics, monitor, journal, resultstore, server) =="
go test -race ./internal/obs/... ./internal/sim/... \
	./internal/metrics/... ./internal/monitor/... ./internal/journal/... \
	./internal/resultstore/... ./internal/server/... ./internal/atomicfile/...

echo "== go test -race (sweep engine: worker pool + singleflight + executor in every mode + program cache) =="
go test -race -run 'Parallel|Singleflight|RunE|SweepE|RunAll|Shared|FastForward|Sampled|Store|Replay|Memoizes' \
	./internal/experiments/ ./internal/workload/

echo "== fast-forward agreement (tcbench -ffwd fig4 mean fetch size == tcsim -ffwd) =="
FF_BENCH=$(go run ./cmd/tcbench -exp fig4 -ffwd 100000 -warmup 20000 -insts 40000 -j 1 |
	sed -n 's/^Ave fetch size \([0-9.]*\).*/\1/p')
FF_SIM=$(go run ./cmd/tcsim -bench gcc -config baseline -ffwd 100000 -warmup 20000 -insts 40000 |
	sed -n 's/.*Fetch width breakdown (mean \([0-9.]*\)).*/\1/p')
[ -n "$FF_BENCH" ] && [ "$FF_BENCH" = "$FF_SIM" ] || {
	echo "FAIL: fig4 mean fetch size under -ffwd: tcbench '$FF_BENCH', tcsim '$FF_SIM'"; exit 1; }

echo "== fast-forward accuracy assert =="
go test -run 'TestFastForwardAccuracy|TestFastForwardDeterminism' \
	./internal/sim/

echo "== self-check smoke (lockstep + invariants on both headline configs) =="
go run ./cmd/tcsim -check -bench gcc -config baseline \
	-warmup 40000 -insts 80000 -json >/dev/null
go run ./cmd/tcsim -check -bench gcc -config promo-pack-costreg \
	-warmup 40000 -insts 80000 -json >/dev/null

echo "== differential fuzz seeds (replay only, no fuzzing) =="
go test -run 'FuzzDifferential' ./internal/check/

echo "== monitoring smoke (live /metrics + /progress during a -j N sweep, stdout purity) =="
go build -o /tmp/tcbench-ci ./cmd/tcbench
rm -f /tmp/tcbench-ci-journal.jsonl
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 4 \
	-http 127.0.0.1:0 -journal /tmp/tcbench-ci-journal.jsonl \
	>/tmp/tcbench-ci-monitored.out 2>/tmp/tcbench-ci.err &
MON_PID=$!
# Wait for the server announce, then hit the endpoints while the sweep runs.
ADDR=""
for _ in $(seq 1 50); do
	ADDR=$(sed -n 's|.*monitoring on http://\([^ ]*\).*|\1|p' /tmp/tcbench-ci.err)
	[ -n "$ADDR" ] && break
	sleep 0.1
done
[ -n "$ADDR" ] || { echo "FAIL: no monitoring announce"; cat /tmp/tcbench-ci.err; exit 1; }
curl -sf "http://$ADDR/metrics" >/tmp/tcbench-ci-metrics.txt
curl -sf "http://$ADDR/progress" >/tmp/tcbench-ci-progress.json
curl -sf "http://$ADDR/debug/pprof/" >/dev/null
wait "$MON_PID"
for series in tracecache_runner_runs_started_total \
	tracecache_runner_memo_hits_total \
	tracecache_sim_instructions_committed_total \
	tracecache_runner_run_wall_seconds_bucket \
	tracecache_obs_events_total; do
	grep -q "$series" /tmp/tcbench-ci-metrics.txt || {
		echo "FAIL: /metrics missing $series"; exit 1; }
done
grep -q '"total"' /tmp/tcbench-ci-progress.json || {
	echo "FAIL: /progress missing fields"; exit 1; }
[ -s /tmp/tcbench-ci-journal.jsonl ] || { echo "FAIL: journal empty"; exit 1; }
/tmp/tcbench-ci -journal-report /tmp/tcbench-ci-journal.jsonl >/dev/null
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 1 >/tmp/tcbench-ci-bare.out 2>/dev/null
cmp /tmp/tcbench-ci-monitored.out /tmp/tcbench-ci-bare.out || {
	echo "FAIL: monitored stdout differs from bare run"; exit 1; }

echo "== store smoke (a warm result store serves every executed point; stdout unchanged) =="
rm -rf /tmp/tcbench-ci-store /tmp/tcbench-ci-store1.jsonl /tmp/tcbench-ci-store2.jsonl
for n in 1 2; do
	/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 1 -store /tmp/tcbench-ci-store \
		-journal /tmp/tcbench-ci-store$n.jsonl >/tmp/tcbench-ci-store$n.out 2>/dev/null
	cmp /tmp/tcbench-ci-store$n.out /tmp/tcbench-ci-bare.out || {
		echo "FAIL: store run $n stdout differs from bare run"; exit 1; }
done
/tmp/tcbench-ci -journal-report /tmp/tcbench-ci-store2.jsonl >/tmp/tcbench-ci-store2.report
grep -q '^provenance: 0 cold, 0 replay, ' /tmp/tcbench-ci-store2.report || {
	echo "FAIL: warm-store run simulated:"; head -2 /tmp/tcbench-ci-store2.report; exit 1; }

echo "== replay smoke (record -> replay -> verify within fidelity bounds) =="
rm -rf /tmp/tcsim-ci-traces && mkdir -p /tmp/tcsim-ci-traces
go build -o /tmp/tcsim-ci ./cmd/tcsim
/tmp/tcsim-ci -bench gcc -config baseline -warmup 20000 -insts 60000 \
	-record /tmp/tcsim-ci-traces >/dev/null
TRACE=$(ls /tmp/tcsim-ci-traces/*.tctrace | head -1)
[ -n "$TRACE" ] || { echo "FAIL: -record produced no trace"; exit 1; }
/tmp/tcsim-ci -bench gcc -config baseline -warmup 20000 -insts 60000 \
	-replay "$TRACE" -json >/dev/null
# -replay-verify records in memory, replays, and exits non-zero on any
# fidelity violation (internal/check.CompareReplay, documented tolerances).
/tmp/tcsim-ci -bench gcc -config baseline -warmup 20000 -insts 60000 \
	-replay-verify
/tmp/tcsim-ci -bench gcc -config promo-pack-costreg -warmup 20000 -insts 60000 \
	-replay-verify
echo "== replay tests (stream format, fidelity, determinism, runner fast path) =="
go test ./internal/trace/
go test -run 'TestReplay|TestRecord|TestRunnerReplay|TestCompareReplay' \
	./internal/sim/ ./internal/experiments/ ./internal/check/

echo "== sampling smoke (schedule audit + CI-vs-truth fidelity on both headline configs) =="
go run ./cmd/tcsim -bench gcc -config baseline \
	-sample 1000:20000:1000 -insts 200000 -json >/dev/null
go run ./cmd/tcsim -bench gcc -config promo-pack-costreg -check \
	-sample 1000:20000:1000 -insts 100000 -json >/dev/null
# CompareSampled (internal/check) asserts the sampled estimates cover a
# fully detailed run of the same extent within the committed tolerance.
go test -run 'TestRunMatchesDetailedTruth|TestRunAuditAndShape|TestRunDeterminism' \
	./internal/sampling/
go test -run 'TestCompareSampled|TestSamplingAudit' ./internal/check/

echo "== tcserve smoke (sweep service; restart must serve the resubmitted sweep from the store; shared /metrics + pprof set) =="
go build -o /tmp/tcserve-ci ./cmd/tcserve
rm -rf /tmp/tcserve-ci-store /tmp/tcserve-ci-journal.jsonl
SWEEP_SPEC='{"configs":["baseline","packing"],"benchmarks":["compress","gcc","go"],"warmupInsts":2000,"measureInsts":8000}'

# start_tcserve launches a fresh daemon on the shared store and resolves
# its bound address into SRV_ADDR / SRV_PID.
start_tcserve() {
	: >/tmp/tcserve-ci.err
	/tmp/tcserve-ci -http 127.0.0.1:0 -store /tmp/tcserve-ci-store \
		-journal /tmp/tcserve-ci-journal.jsonl -j 4 2>/tmp/tcserve-ci.err &
	SRV_PID=$!
	SRV_ADDR=""
	for _ in $(seq 1 50); do
		SRV_ADDR=$(sed -n 's|.*serving on http://\([^ ]*\).*|\1|p' /tmp/tcserve-ci.err)
		[ -n "$SRV_ADDR" ] && break
		sleep 0.1
	done
	[ -n "$SRV_ADDR" ] || { echo "FAIL: tcserve never announced"; cat /tmp/tcserve-ci.err; exit 1; }
}

# run_sweep submits the 6-point sweep, waits for the job, and saves its
# results payload to $1.
run_sweep() {
	SWEEP_JOB=$(curl -sf -XPOST "http://$SRV_ADDR/api/jobs" -d "$SWEEP_SPEC" |
		sed -n 's|.*"id": "\([^"]*\)".*|\1|p')
	[ -n "$SWEEP_JOB" ] || { echo "FAIL: sweep submission returned no job id"; exit 1; }
	SWEEP_STATE=""
	for _ in $(seq 1 600); do
		SWEEP_STATE=$(curl -sf "http://$SRV_ADDR/api/jobs/$SWEEP_JOB" |
			sed -n 's|.*"state": "\([^"]*\)".*|\1|p')
		[ "$SWEEP_STATE" = done ] && break
		sleep 0.1
	done
	[ "$SWEEP_STATE" = done ] || { echo "FAIL: job $SWEEP_JOB ended as '$SWEEP_STATE'"; exit 1; }
	curl -sf "http://$SRV_ADDR/api/jobs/$SWEEP_JOB/results" >"$1"
}

start_tcserve
run_sweep /tmp/tcserve-ci-results1.json
kill -TERM "$SRV_PID"; wait "$SRV_PID"

# Restarted daemon, same store: the identical sweep must simulate nothing.
start_tcserve
run_sweep /tmp/tcserve-ci-results2.json
curl -sf "http://$SRV_ADDR/metrics" >/tmp/tcserve-ci-metrics.txt
curl -sf "http://$SRV_ADDR/debug/pprof/" >/dev/null
kill -TERM "$SRV_PID"; wait "$SRV_PID"
grep -q tracecache_server_jobs_submitted_total /tmp/tcserve-ci-metrics.txt || {
	echo "FAIL: tcserve /metrics missing tracecache_server_jobs_submitted_total"; exit 1; }

metric() { awk -v m="$1" '$1 == m {print $2}' /tmp/tcserve-ci-metrics.txt; }
COLD=$(metric tracecache_runner_cold_starts_total)
REPLAYS=$(metric tracecache_runner_replays_total)
HITS=$(metric tracecache_store_hits_total)
SERVED=$(metric tracecache_runner_store_served_total)
[ "$COLD$REPLAYS" = "00" ] || {
	echo "FAIL: restarted daemon simulated (cold=$COLD replays=$REPLAYS)"; exit 1; }
[ "$HITS" = 6 ] && [ "$SERVED" = 6 ] || {
	echo "FAIL: restarted daemon store hits=$HITS served=$SERVED, want 6/6"; exit 1; }
STORE_RECS=$(grep -c '"provenance":"store"' /tmp/tcserve-ci-journal.jsonl)
[ "$STORE_RECS" = 6 ] || {
	echo "FAIL: journal has $STORE_RECS store-provenance records, want 6"; exit 1; }
cmp /tmp/tcserve-ci-results1.json /tmp/tcserve-ci-results2.json || {
	echo "FAIL: store-served results differ from simulated results"; exit 1; }

echo "== throughput benchmark smoke (BenchmarkSimulatorThroughput, plain and -check) =="
go test -run xxx -bench=SimulatorThroughput -benchtime=1x -benchmem .

echo "== perfbench module (its own go.mod: go vet + go test) =="
(cd perfbench && go vet ./... && go test ./...)

echo "CI OK"
