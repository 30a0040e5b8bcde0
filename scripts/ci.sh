#!/bin/sh
# CI for the tracecache repo: tier-1 build+test, vet+gofmt+tcvet static
# gates, 15 seconds of fuzzing each for the interpreter step (FuzzStepAt:
# StepAt and Commit), the fill unit (FuzzFillUnit) and the two on-disk
# decoders (FuzzStoreEntry: result-store entries; FuzzJournalRead:
# journals), a race pass over
# the observability layer, the simulator, and the parallel sweep engine,
# a fast-forward agreement+accuracy step (tcbench
# -ffwd and tcsim -ffwd must print the same mean fetch size), a
# monitoring smoke (/progress and /debug/pprof/ of a live tcbench -http
# -store sweep) and a run of examples/monitoring, a warm result-store
# smoke, an interrupt smoke (a tcbench -store -journal sweep killed by
# SIGTERM or SIGKILL leaves only whole entries and a readable journal,
# and its rerun simulates only the missing points), a replay-determinism
# smoke (tcbench -replay stdout must not depend on -j, on which
# experiments run with it, or on what a detailed run left in the store),
# a replay smoke (tcsim -replay must print tcbench -replay's numbers for
# a point, and -replay-verify must hold the fidelity envelope in its
# calibrated domain and report a shorter run as out of domain), a smoke
# run of the throughput benchmarks (BenchmarkSimulatorThroughput and its
# -check twin), and vet + tests of the perfbench module, which ./...
# skips because it is its own module.
set -eu
cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
UNFORMATTED=$(gofmt -l .)
[ -z "$UNFORMATTED" ] || { echo "FAIL: gofmt needed:"; echo "$UNFORMATTED"; exit 1; }

echo "== tcvet (project static analysis: determinism, hotalloc, nilsafe, nopanic) =="
go run ./cmd/tcvet ./...

echo "== go test =="
go test ./...

echo "== fuzz (StepAt/Commit, the fill unit, store entries and journals, 15s each) =="
go test -run '^$' -fuzz '^FuzzStepAt$' -fuzztime 15s ./internal/exec/
go test -run '^$' -fuzz '^FuzzFillUnit$' -fuzztime 15s ./internal/core/
go test -run '^$' -fuzz '^FuzzStoreEntry$' -fuzztime 15s ./internal/resultstore/
go test -run '^$' -fuzz '^FuzzJournalRead$' -fuzztime 15s ./internal/journal/

echo "== go test -race (obs, sim, monitor, journal, resultstore, atomicfile) =="
go test -race ./internal/obs/... ./internal/sim/... \
	./internal/monitor/... ./internal/journal/... \
	./internal/resultstore/... ./internal/atomicfile/...

echo "== go test -race (sweep engine: worker pool + singleflight + executor in every mode + spare reuse + program cache) =="
go test -race -run 'Parallel|Singleflight|RunE|SweepE|RunAll|Shared|FastForward|Sampled|Store|Replay|Memoizes|Reuse' \
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

echo "== monitoring smoke (live /progress + /debug/pprof/ during a -j N sweep, stdout purity) =="
go build -o /tmp/tcbench-ci ./cmd/tcbench
rm -rf /tmp/tcbench-ci-journal.jsonl /tmp/tcbench-ci-mon-store
# Empty the announce file first: the loop below can read it before the
# launch's redirection truncates it, and must not find an earlier run's
# address there.
: >/tmp/tcbench-ci.err
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 4 \
	-http 127.0.0.1:0 -journal /tmp/tcbench-ci-journal.jsonl \
	-store /tmp/tcbench-ci-mon-store \
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
curl -sf "http://$ADDR/progress" >/tmp/tcbench-ci-progress.json
curl -sf "http://$ADDR/debug/pprof/" >/dev/null
wait "$MON_PID"
for field in total done memoHits instsPerSec; do
	grep -q "\"$field\"" /tmp/tcbench-ci-progress.json || {
		echo "FAIL: /progress missing $field"; exit 1; }
done
[ -s /tmp/tcbench-ci-journal.jsonl ] || { echo "FAIL: journal empty"; exit 1; }
/tmp/tcbench-ci -journal-report /tmp/tcbench-ci-journal.jsonl >/dev/null
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 1 >/tmp/tcbench-ci-bare.out 2>/dev/null
cmp /tmp/tcbench-ci-monitored.out /tmp/tcbench-ci-bare.out || {
	echo "FAIL: monitored stdout differs from bare run"; exit 1; }

echo "== monitoring example (examples/monitoring: a journaled sweep polled on /progress, self-terminating) =="
go run ./examples/monitoring >/dev/null

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

echo "== interrupt smoke (a killed -store -journal sweep leaves the store and journal whole) =="
# The cold run above simulated every point once: its cold count is the
# sweep's distinct points, its memoized count the requests they share.
/tmp/tcbench-ci -journal-report /tmp/tcbench-ci-store1.jsonl >/tmp/tcbench-ci-store1.report
TOTAL=$(sed -n 's/^provenance: \([0-9]*\) cold, 0 replay, 0 sampled, \([0-9]*\) memoized, 0 store$/\1/p' /tmp/tcbench-ci-store1.report)
MEMO=$(sed -n 's/^provenance: \([0-9]*\) cold, 0 replay, 0 sampled, \([0-9]*\) memoized, 0 store$/\2/p' /tmp/tcbench-ci-store1.report)
[ -n "$TOTAL" ] && [ -n "$MEMO" ] || {
	echo "FAIL: cold store run report:"; head -2 /tmp/tcbench-ci-store1.report; exit 1; }
# SIGTERM and SIGKILL only: a background job of a non-interactive shell
# starts with SIGINT ignored. With no handler installed, SIGTERM takes
# the default action Ctrl-C's SIGINT takes in a terminal.
for sig in TERM KILL; do
	DIR=/tmp/tcbench-ci-int-$sig
	rm -rf "$DIR" "$DIR.jsonl" "$DIR-rerun.jsonl"
	/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 4 -store "$DIR" \
		-journal "$DIR.jsonl" >/dev/null 2>&1 &
	INT_PID=$!
	# Kill as soon as the first entry is installed.
	for _ in $(seq 1 1500); do
		ls "$DIR"/*.tcresult >/dev/null 2>&1 && break
		sleep 0.02
	done
	kill -s "$sig" "$INT_PID"
	STATUS=0
	wait "$INT_PID" || STATUS=$?
	[ "$STATUS" -gt 128 ] && [ "$(kill -l "$STATUS")" = "$sig" ] || {
		echo "FAIL: SIG$sig: tcbench exit status $STATUS, want death by the signal"; exit 1; }
	N=$(find "$DIR" -name '*.tcresult' | wc -l)
	[ "$N" -gt 0 ] && [ "$N" -lt "$TOTAL" ] || {
		echo "FAIL: SIG$sig left $N of $TOTAL entries, want 0 < N < $TOTAL"; exit 1; }
	/tmp/tcbench-ci -journal-report "$DIR.jsonl" >/dev/null || {
		echo "FAIL: SIG$sig: the killed run's journal does not read"; exit 1; }
	/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 4 -store "$DIR" \
		-journal "$DIR-rerun.jsonl" >"$DIR.out" 2>/dev/null
	cmp "$DIR.out" /tmp/tcbench-ci-bare.out || {
		echo "FAIL: SIG$sig: rerun stdout differs from bare run"; exit 1; }
	WANT="provenance: $((TOTAL - N)) cold, 0 replay, 0 sampled, $MEMO memoized, $N store"
	GOT=$(/tmp/tcbench-ci -journal-report "$DIR-rerun.jsonl" | grep '^provenance: ')
	[ "$GOT" = "$WANT" ] || {
		echo "FAIL: SIG$sig rerun: '$GOT', want '$WANT'"; exit 1; }
	[ -z "$(find "$DIR" -name '*.quarantined')" ] || {
		echo "FAIL: SIG$sig: the rerun quarantined entries the killed run left"; exit 1; }
	echo "SIG$sig: killed run left $N of $TOTAL entries; rerun: $GOT"
done

echo "== replay determinism smoke (-replay output is a pure function of the request) =="
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 1 -replay >/tmp/tcbench-ci-replay1.out 2>/dev/null
/tmp/tcbench-ci -exp all -warmup 2000 -insts 8000 -j 4 -replay >/tmp/tcbench-ci-replay4.out 2>/dev/null
cmp /tmp/tcbench-ci-replay1.out /tmp/tcbench-ci-replay4.out || {
	echo "FAIL: -replay stdout differs between -j 1 and -j 4"; exit 1; }
/tmp/tcbench-ci -exp fig16 -warmup 2000 -insts 8000 -j 1 -replay >/tmp/tcbench-ci-replay-fig16.out 2>/dev/null
# The fig16 block of the full sweep: its separator line through the line
# before the next separator.
awk -v id=fig16 '
/^=+$/ { if (inblk) exit; sep = $0; hdr = 1; next }
hdr { hdr = 0; if (index($0, id ": ") == 1) { inblk = 1; print sep } }
inblk { print }' /tmp/tcbench-ci-replay1.out >/tmp/tcbench-ci-replay-all-fig16.out
cmp /tmp/tcbench-ci-replay-fig16.out /tmp/tcbench-ci-replay-all-fig16.out || {
	echo "FAIL: -exp fig16 -replay differs from its block of -exp all -replay"; exit 1; }
rm -rf /tmp/tcbench-ci-replay-store
/tmp/tcbench-ci -exp table2 -warmup 2000 -insts 8000 -j 1 \
	-store /tmp/tcbench-ci-replay-store >/dev/null 2>&1
/tmp/tcbench-ci -exp table2 -warmup 2000 -insts 8000 -j 1 -replay \
	-store /tmp/tcbench-ci-replay-store >/tmp/tcbench-ci-replay-stored.out 2>/dev/null
/tmp/tcbench-ci -exp table2 -warmup 2000 -insts 8000 -j 1 -replay >/tmp/tcbench-ci-replay-table2.out 2>/dev/null
cmp /tmp/tcbench-ci-replay-stored.out /tmp/tcbench-ci-replay-table2.out || {
	echo "FAIL: -replay -store output differs from a store-less -replay run"; exit 1; }

echo "== replay smoke (tcsim -replay == tcbench -replay per point; verify within fidelity bounds) =="
go build -o /tmp/tcsim-ci ./cmd/tcsim
# One replay answer per point: tcsim -replay must print the retired count
# and effective fetch rate tcbench -replay journals for the same point
# (fig6 is promo-t64 on gcc).
rm -f /tmp/tcbench-ci-fig6.jsonl
/tmp/tcbench-ci -exp fig6 -warmup 20000 -insts 60000 -j 1 -replay \
	-journal /tmp/tcbench-ci-fig6.jsonl >/dev/null 2>&1
/tmp/tcsim-ci -bench gcc -config promo-t64 -warmup 20000 -insts 60000 \
	-replay -json >/tmp/tcsim-ci-replay.json
grep '"config":"promo-t64","benchmark":"gcc"' /tmp/tcbench-ci-fig6.jsonl |
	head -1 >/tmp/tcbench-ci-fig6-point.json
for key in retired effFetchRate; do
	FROM_BENCH=$(sed -n "s/.*\"$key\":\([^,}]*\).*/\1/p" /tmp/tcbench-ci-fig6-point.json)
	FROM_SIM=$(sed -n "s/^  \"$key\": \([^,}]*\),*$/\1/p" /tmp/tcsim-ci-replay.json)
	[ -n "$FROM_BENCH" ] && [ "$FROM_BENCH" = "$FROM_SIM" ] || {
		echo "FAIL: promo-t64/gcc $key under -replay: tcbench '$FROM_BENCH', tcsim '$FROM_SIM'"; exit 1; }
done
# -replay-verify runs detailed, replays as -replay does, and exits
# non-zero on any fidelity violation (internal/check.CompareReplay,
# documented tolerances).
/tmp/tcsim-ci -bench gcc -config baseline -warmup 20000 -insts 60000 \
	-replay-verify
/tmp/tcsim-ci -bench gcc -config promo-pack-costreg -warmup 20000 -insts 60000 \
	-replay-verify
# Below the calibrated domain (20k warm-up + 60k measured) the envelope
# does not apply: -replay-verify still prints the comparison, reports the
# run as out of domain and exits non-zero, never "passed".
if /tmp/tcsim-ci -bench gcc -config baseline -warmup 2000 -insts 8000 \
	-replay-verify >/tmp/tcsim-ci-ood.out 2>&1; then
	echo "FAIL: -replay-verify at 2k+8k exited 0"; exit 1
fi
grep -q 'outside the calibrated domain' /tmp/tcsim-ci-ood.out &&
	grep -q 'mispredict     detailed=' /tmp/tcsim-ci-ood.out &&
	! grep -q 'passed' /tmp/tcsim-ci-ood.out || {
	echo "FAIL: -replay-verify at 2k+8k did not report an out-of-domain comparison:"
	cat /tmp/tcsim-ci-ood.out; exit 1; }
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

echo "== throughput benchmark smoke (BenchmarkSimulatorThroughput, plain and -check) =="
go test -run xxx -bench=SimulatorThroughput -benchtime=1x -benchmem .

echo "== perfbench module (its own go.mod: go vet + go test) =="
(cd perfbench && go vet ./... && go test ./...)

echo "CI OK"
