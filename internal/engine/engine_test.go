package engine

import (
	"fmt"
	"testing"

	"tracecache/internal/cache"
)

func testHier() *cache.Hierarchy {
	return &cache.Hierarchy{
		L1I: mustCache(cache.Config{Name: "l1i", SizeBytes: 4096, LineBytes: 64, Assoc: 4}),
		L1D: mustCache(cache.Config{Name: "l1d", SizeBytes: 1 << 16, LineBytes: 64, Assoc: 4}),
		L2:  mustCache(cache.Config{Name: "l2", SizeBytes: 1 << 20, LineBytes: 64, Assoc: 8}),
	}
}

func newEngine(oracle bool) *Engine {
	cfg := DefaultConfig()
	cfg.MemOracle = oracle
	return New(cfg, testHier())
}

// run advances the engine until seq completes or maxCycles pass, returning
// the completion cycle.
func runUntilDone(t *testing.T, e *Engine, seq uint64, start, maxCycles uint64) uint64 {
	t.Helper()
	for c := start; c < start+maxCycles; c++ {
		for _, s := range e.Tick(c) {
			if s == seq {
				return c
			}
		}
	}
	t.Fatalf("seq %d did not complete within %d cycles", seq, maxCycles)
	return 0
}

func TestSimpleALUCompletion(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	seq := e.Dispatch(nil, false, false, 0, 1)
	// Ready at 1, scheduled at 1, executes, completes at 1+1=2.
	done := runUntilDone(t, e, seq, 1, 10)
	if done != 2 {
		t.Errorf("ALU op completed at %d, want 2", done)
	}
	if !e.IsDone(seq) || e.DoneAt(seq) != done {
		t.Error("IsDone/DoneAt inconsistent")
	}
}

func TestDependencyChainTiming(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	a := e.Dispatch(nil, false, false, 0, 1)
	b := e.Dispatch([]uint64{a}, false, false, 0, 1)
	c := e.Dispatch([]uint64{b}, false, false, 0, 1)
	// a done at 2, b ready 3, done 4; c ready 5, done 6.
	if got := runUntilDone(t, e, c, 1, 20); got != 6 {
		t.Errorf("chain completed at %d, want 6", got)
	}
}

func TestMulLatency(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	seq := e.Dispatch(nil, false, false, 0, 3)
	if got := runUntilDone(t, e, seq, 1, 20); got != 4 {
		t.Errorf("mul completed at %d, want 4", got)
	}
}

func TestIndependentOpsRunInParallel(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	var seqs []uint64
	for i := 0; i < 16; i++ {
		seqs = append(seqs, e.Dispatch(nil, false, false, 0, 1))
	}
	done := map[uint64]bool{}
	for c := uint64(1); c <= 2; c++ {
		for _, s := range e.Tick(c) {
			done[s] = true
		}
	}
	if len(done) != 16 {
		t.Errorf("%d of 16 independent ops done after FU-width cycle", len(done))
	}
}

func TestFULimitSerialises(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	last := uint64(0)
	for i := 0; i < 32; i++ {
		last = e.Dispatch(nil, false, false, 0, 1)
	}
	// 32 ready ops, 16 FUs: two waves; second wave completes one cycle later.
	if got := runUntilDone(t, e, last, 1, 10); got != 3 {
		t.Errorf("last of 32 completed at %d, want 3", got)
	}
}

func TestLoadHitLatency(t *testing.T) {
	e := newEngine(false)
	// Warm the D-cache.
	e.hier.AccessData(0x100)
	e.Tick(0)
	seq := e.Dispatch(nil, true, false, 0x100, 1)
	// Ready 1, mem phase starts at 1, completes 1 + DCacheHit = 2.
	if got := runUntilDone(t, e, seq, 1, 10); got != 2 {
		t.Errorf("load hit completed at %d, want 2", got)
	}
}

func TestLoadMissLatency(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	seq := e.Dispatch(nil, true, false, 0x4000, 1)
	// Cold miss: 1 + DCacheHit + L2 + Mem = 1 + 1 + 56 = 58.
	want := uint64(1 + 1 + cache.L2Latency + cache.MemLatency)
	if got := runUntilDone(t, e, seq, 1, 100); got != want {
		t.Errorf("load miss completed at %d, want %d", got, want)
	}
}

func TestConservativeLoadWaitsForStoreAddress(t *testing.T) {
	e := newEngine(false)
	e.hier.AccessData(0x100)
	e.hier.AccessData(0x4000)
	e.Tick(0)
	// A slow producer feeds the store's address; the load (different
	// address) must wait for the store to resolve.
	slow := e.Dispatch(nil, false, false, 0, 12) // div: done at 13
	_ = e.Dispatch([]uint64{slow}, false, true, 0x100, 1)
	load := e.Dispatch(nil, true, false, 0x4000, 1)
	done := runUntilDone(t, e, load, 1, 100)
	// Store done at 15; load unblocked then, completes ~16-17.
	if done < 15 {
		t.Errorf("load completed at %d; bypassed an unresolved store", done)
	}
	if e.Stats().LoadsBlocked == 0 {
		t.Error("blocked-load statistic not counted")
	}
}

func TestOracleLoadBypassesUnknownStore(t *testing.T) {
	e := newEngine(true)
	e.hier.AccessData(0x100)
	e.hier.AccessData(0x4000)
	e.Tick(0)
	slow := e.Dispatch(nil, false, false, 0, 12)
	_ = e.Dispatch([]uint64{slow}, false, true, 0x100, 1)
	load := e.Dispatch(nil, true, false, 0x4000, 1)
	if done := runUntilDone(t, e, load, 1, 100); done != 2 {
		t.Errorf("oracle load completed at %d, want 2 (no blocking)", done)
	}
	if e.Stats().LoadsBlocked != 0 {
		t.Error("oracle scheduler blocked a load")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	e := newEngine(true)
	e.hier.AccessData(0x4000) // would be a hit anyway; forwarding beats it
	e.Tick(0)
	slow := e.Dispatch(nil, false, false, 0, 5)              // data producer, done at 6
	st := e.Dispatch([]uint64{slow}, false, true, 0x4000, 1) // store done at 8
	load := e.Dispatch(nil, true, false, 0x4000, 1)
	done := runUntilDone(t, e, load, 1, 100)
	stDone := e.DoneAt(st)
	if done != stDone+1 {
		t.Errorf("forwarded load done at %d, store at %d; want store+1", done, stDone)
	}
	if e.Stats().Forwards == 0 {
		t.Error("forward not counted")
	}
}

func TestForwardingFromCompletedStore(t *testing.T) {
	e := newEngine(true)
	e.Tick(0)
	st := e.Dispatch(nil, false, true, 0x8000, 1)
	// Let the store complete first.
	var c uint64
	for c = 1; !e.IsDone(st); c++ {
		e.Tick(c)
	}
	load := e.Dispatch(nil, true, false, 0x8000, 1)
	done := runUntilDone(t, e, load, c, 50)
	// Forward latency, not the cold-miss latency.
	if done > c+3 {
		t.Errorf("load should forward from completed in-flight store; done at %d (start %d)", done, c)
	}
}

func TestWindowCapacity(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FUs = 2
	cfg.RSPerFU = 4
	e := New(cfg, testHier())
	e.Tick(0)
	if !e.SpaceFor(8) {
		t.Fatal("empty window rejects full dispatch")
	}
	var last uint64
	for i := 0; i < 8; i++ {
		last = e.Dispatch(nil, false, false, 0, 1)
	}
	if e.SpaceFor(1) {
		t.Error("full window accepts more")
	}
	if e.InFlight() != 8 {
		t.Errorf("in flight = %d", e.InFlight())
	}
	// Complete and retire everything in order.
	for c := uint64(1); c < 20 && !e.IsDone(last); c++ {
		e.Tick(c)
	}
	for s := uint64(0); s <= last; s++ {
		e.Retire(s)
	}
	if e.InFlight() != 0 || !e.SpaceFor(8) {
		t.Error("retire did not free window")
	}
}

func TestSquashDropsInstructions(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	a := e.Dispatch(nil, false, false, 0, 1)
	b := e.Dispatch(nil, false, false, 0, 12)
	c := e.Dispatch([]uint64{b}, false, false, 0, 1)
	e.Squash(b)
	if e.InFlight() != 1 {
		t.Errorf("in flight after squash = %d", e.InFlight())
	}
	_ = c
	// a still completes; b and c never do.
	var got []uint64
	for cyc := uint64(1); cyc < 30; cyc++ {
		got = append(got, e.Tick(cyc)...)
	}
	if len(got) != 1 || got[0] != a {
		t.Errorf("completions after squash = %v, want [%d]", got, a)
	}
	if e.Stats().Squashed != 2 {
		t.Errorf("squashed = %d", e.Stats().Squashed)
	}
}

func TestSquashThenRedispatchSameSeq(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	a := e.Dispatch(nil, false, false, 0, 12) // slow producer
	b := e.Dispatch([]uint64{a}, false, false, 0, 1)
	e.Squash(b)
	// Reuse seq b's slot for a fresh independent instruction.
	b2 := e.Dispatch(nil, false, false, 0, 1)
	if b2 != b {
		t.Fatalf("expected seq reuse: %d vs %d", b2, b)
	}
	if got := runUntilDone(t, e, b2, 1, 30); got != 2 {
		t.Errorf("redispatched inst done at %d, want 2 (stale dep applied?)", got)
	}
}

func TestSquashedStoreUnblocksLoads(t *testing.T) {
	e := newEngine(false)
	e.hier.AccessData(0x100)
	e.hier.AccessData(0x4000)
	e.Tick(0)
	slow := e.Dispatch(nil, false, false, 0, 12)
	st := e.Dispatch([]uint64{slow}, false, true, 0x100, 1)
	load := e.Dispatch(nil, true, false, 0x4000, 1)
	e.Tick(1) // load AGENs, gets blocked behind the store
	e.Squash(st)
	// The load was squashed too (younger). Redispatch a load: with the
	// store gone it must not block.
	load2 := e.Dispatch(nil, true, false, 0x4000, 1)
	if load2 != st {
		t.Fatalf("seq layout unexpected: %d", load2)
	}
	_ = load
	done := runUntilDone(t, e, load2, 2, 30)
	if done > 4 {
		t.Errorf("load after squash done at %d; still blocked by dead store", done)
	}
}

func TestRetirePanicsOutOfOrder(t *testing.T) {
	e := newEngine(false)
	e.Tick(0)
	e.Dispatch(nil, false, false, 0, 1)
	b := e.Dispatch(nil, false, false, 0, 1)
	for c := uint64(1); !e.IsDone(b); c++ {
		e.Tick(c)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-order retire did not panic")
		}
	}()
	e.Retire(b)
}

func TestNextSeqAdvances(t *testing.T) {
	e := newEngine(false)
	if e.NextSeq() != 0 {
		t.Error("first seq not 0")
	}
	e.Dispatch(nil, false, false, 0, 1)
	if e.NextSeq() != 1 {
		t.Error("seq did not advance")
	}
}

// mustCache builds a cache from a known-good test config.
func mustCache(cfg cache.Config) *cache.Cache {
	c, err := cache.New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// TestRenewMatchesNew: an engine renewed while it still holds in-flight
// instructions, scheduled events, ready and blocked loads, pending stores
// and store-address entries behaves exactly as a new one: the same
// script of dispatches and ticks completes the same instructions on the
// same cycles, with the same statistics.
func TestRenewMatchesNew(t *testing.T) {
	old := newEngine(false)
	old.Tick(0)
	for i := uint64(0); i < 40; i++ {
		old.Dispatch(nil, i%5 == 4, i%5 == 0, 0x100*(i%8), 12)
	}
	old.Tick(1)
	old.Tick(2)
	script := func(e *Engine) (done [][]uint64) {
		for c := uint64(0); c < 60; c++ {
			if c < 20 {
				st := e.Dispatch(nil, false, true, 0x100*(c%8), 1)
				ld := e.Dispatch([]uint64{st}, true, false, 0x100*(c%8), 1)
				e.Dispatch([]uint64{ld}, false, false, 0, 12)
			}
			if c == 2 {
				// A load no store of this script precedes at its address.
				e.Dispatch(nil, true, false, 0x500, 1)
			}
			done = append(done, append([]uint64(nil), e.Tick(c)...))
		}
		return done
	}
	renewed := Renew(old, DefaultConfig(), testHier())
	fresh := newEngine(false)
	got, want := script(renewed), script(fresh)
	for c := range want {
		if fmt.Sprint(got[c]) != fmt.Sprint(want[c]) {
			t.Fatalf("cycle %d: renewed engine completed %v, new engine %v", c, got[c], want[c])
		}
	}
	if renewed.Stats() != fresh.Stats() {
		t.Errorf("renewed stats %+v, new engine %+v", renewed.Stats(), fresh.Stats())
	}
}
