// Package engine implements the execution core of the paper's machine
// (Section 3): 16 universal functional units fed from 64-entry reservation
// stations (node tables), dataflow wakeup/select scheduling, a
// conservative memory scheduler in which no load may bypass a store with
// an unknown address — plus the oracle ("perfect disambiguation")
// scheduler of Section 6 — with store-to-load forwarding and a data cache
// hierarchy.
//
// The engine tracks timing only; instruction semantics are executed by the
// simulator against internal/exec state at dispatch. Squash is O(1):
// every cross-instruction reference carries the target's dispatch epoch
// and is validated lazily.
package engine

import (
	"fmt"

	"tracecache/internal/cache"
)

// Config parameterises the core.
type Config struct {
	FUs        int  // functional units (paper: 16, each capable of all ops)
	RSPerFU    int  // reservation station entries per unit (paper: 64)
	MemOracle  bool // perfect memory disambiguation (Section 6)
	DCacheHit  int  // L1 data cache hit latency
	ForwardLat int  // store-to-load forwarding latency
}

// DefaultConfig returns the paper's execution core.
func DefaultConfig() Config {
	return Config{FUs: 16, RSPerFU: 64, DCacheHit: 1, ForwardLat: 1}
}

// Window returns the instruction window capacity.
func (c Config) Window() int { return c.FUs * c.RSPerFU }

// ref is an epoch-validated reference to an in-flight instruction.
type ref struct {
	seq uint64
	ep  uint32
}

// event kinds in the time-bucket ring.
const (
	evComplete uint8 = iota // instruction finishes execution
	evReady                 // instruction becomes eligible for scheduling
)

type event struct {
	ref  ref
	kind uint8
}

type inst struct {
	seq      uint64
	ep       uint32
	live     bool
	done     bool
	started  bool // handed to a functional unit
	memDone  bool // loads: memory phase scheduled
	isLoad   bool
	isStore  bool
	addr     uint64
	latency  int
	depCount int
	deps     []ref // instructions waiting on this one's result
	doneAt   uint64
}

// seqHeap is a min-heap of refs ordered by seq (oldest first). The push/pop
// methods are hand-rolled rather than going through container/heap: the
// interface{} boxing of heap.Push/heap.Pop allocates on every call, and
// these run millions of times per simulated second.
type seqHeap []ref

func (h seqHeap) Len() int { return len(h) }

//tc:hotpath
func (h *seqHeap) push(r ref) {
	*h = append(*h, r)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].seq <= s[i].seq {
			break
		}
		s[parent], s[i] = s[i], s[parent]
		i = parent
	}
}

//tc:hotpath
func (h *seqHeap) pop() ref {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && s[r].seq < s[l].seq {
			min = r
		}
		if s[i].seq <= s[min].seq {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
	return top
}

// bucketRing must exceed the longest scheduling horizon: schedule (1) +
// divide (12) + L2 (6) + memory (50) with slack.
const bucketRing = 128

// Engine is the timing model of the execution core.
type Engine struct {
	cfg   Config
	hier  *cache.Hierarchy
	insts []inst
	mask  uint64
	head  uint64 // oldest unretired seq
	tail  uint64 // next seq to dispatch

	cycle        uint64
	buckets      [bucketRing][]event
	ready        seqHeap
	pendingStore seqHeap // conservative: stores with unresolved addresses
	blockedLoads seqHeap // loads held by the memory scheduler
	storesByAddr map[uint64][]ref
	// storeFree recycles the backing arrays of emptied storesByAddr
	// entries: recovery-heavy runs would otherwise reallocate an entry for
	// every store address revisited after a squash.
	storeFree [][]ref

	// completedBuf backs Tick's return value; it is reused every cycle, so
	// callers must consume the slice before the next Tick.
	completedBuf []uint64

	stats Stats
}

// Stats counts engine activity.
type Stats struct {
	Dispatched   uint64
	Executed     uint64
	Squashed     uint64
	LoadsBlocked uint64 // loads delayed by the conservative scheduler
	Forwards     uint64 // store-to-load forwards
	HighWater    int    // peak instruction window occupancy observed
}

// depsPerSlot is the dependency-list capacity each window slot starts with,
// carved from one shared backing array so a fresh engine does not allocate
// a list per slot on its first wakeups. A slot that needs more grows its
// own list by append.
const depsPerSlot = 4

// New builds an engine over the given data-cache hierarchy.
func New(cfg Config, hier *cache.Hierarchy) *Engine { return Renew(nil, cfg, hier) }

// Renew is New built in old's storage when old's window has the size cfg
// needs: the event buckets, the scheduler heaps and the store-address
// index are emptied in place, keeping only their capacity, and the window
// slots are left as they are, since Dispatch assigns every field of a
// slot it fills. So the engine behaves exactly as a new one. old may be
// nil; a renewed old must not be used again.
func Renew(old *Engine, cfg Config, hier *cache.Hierarchy) *Engine {
	size := 1
	for size < 2*cfg.Window() {
		size <<= 1
	}
	if old != nil && len(old.insts) == size {
		e := old
		for i := range e.buckets {
			e.buckets[i] = e.buckets[i][:0]
		}
		clear(e.storesByAddr)
		*e = Engine{
			cfg: cfg, hier: hier, insts: e.insts, mask: e.mask,
			buckets:      e.buckets,
			ready:        e.ready[:0],
			pendingStore: e.pendingStore[:0],
			blockedLoads: e.blockedLoads[:0],
			storesByAddr: e.storesByAddr,
			storeFree:    e.storeFree,
			completedBuf: e.completedBuf[:0],
		}
		return e
	}
	e := &Engine{
		cfg:          cfg,
		hier:         hier,
		insts:        make([]inst, size),
		mask:         uint64(size - 1),
		storesByAddr: make(map[uint64][]ref),
	}
	deps := make([]ref, size*depsPerSlot)
	for i := range e.insts {
		e.insts[i].deps = deps[i*depsPerSlot : i*depsPerSlot : (i+1)*depsPerSlot]
	}
	return e
}

// Stats returns activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

//tc:hotpath
func (e *Engine) slot(seq uint64) *inst { return &e.insts[seq&e.mask] }

// valid reports whether a reference still names a live instruction.
func (e *Engine) valid(r ref) *inst {
	in := e.slot(r.seq)
	if in.live && in.seq == r.seq && in.ep == r.ep {
		return in
	}
	return nil
}

// InFlight returns the number of occupied window slots.
func (e *Engine) InFlight() int { return int(e.tail - e.head) }

// CheckInvariants verifies the instruction-window bookkeeping: the
// occupancy is within [0, Window] and every slot in [head, tail) holds a
// live instruction whose stored sequence number matches its position.
// Used by the self-check layer; returns the first failure found.
func (e *Engine) CheckInvariants() error {
	if e.tail < e.head {
		return fmt.Errorf("engine: window tail %d behind head %d", e.tail, e.head)
	}
	if n := e.InFlight(); n > e.cfg.Window() {
		return fmt.Errorf("engine: %d instructions in flight, window holds %d", n, e.cfg.Window())
	}
	for s := e.head; s < e.tail; s++ {
		in := e.slot(s)
		if !in.live || in.seq != s {
			return fmt.Errorf("engine: window slot for seq %d holds live=%v seq=%d", s, in.live, in.seq)
		}
	}
	return nil
}

// SpaceFor reports whether n more instructions fit in the window.
func (e *Engine) SpaceFor(n int) bool { return e.InFlight()+n <= e.cfg.Window() }

// IsDone reports whether the instruction has finished executing.
func (e *Engine) IsDone(seq uint64) bool {
	in := e.slot(seq)
	return in.live && in.seq == seq && in.done
}

// DoneAt returns the completion cycle of a done instruction.
func (e *Engine) DoneAt(seq uint64) uint64 { return e.slot(seq).doneAt }

// NextSeq returns the sequence number the next Dispatch will use.
func (e *Engine) NextSeq() uint64 { return e.tail }

// Dispatch enters an instruction into the window at the current cycle and
// returns its sequence number. srcs lists the sequence numbers of the
// producing instructions still possibly in flight; isLoad/isStore and addr
// describe memory behaviour; latency is the functional-unit latency.
//
//tc:hotpath
func (e *Engine) Dispatch(srcs []uint64, isLoad, isStore bool, addr uint64, latency int) uint64 {
	seq := e.tail
	e.tail++
	in := e.slot(seq)
	// Fill the reused slot by assigning every field in place, keeping its
	// epoch count and dependency storage; TestPoisonedSlotsCarryNothing
	// covers it. doneAt is left as it is: complete sets it before done.
	in.seq, in.ep, in.live = seq, in.ep+1, true
	in.done, in.started, in.memDone = false, false, false
	in.isLoad, in.isStore, in.addr, in.latency = isLoad, isStore, addr, latency
	in.depCount, in.deps = 0, in.deps[:0]
	e.stats.Dispatched++
	if occ := e.InFlight(); occ > e.stats.HighWater {
		e.stats.HighWater = occ
	}
	r := ref{seq: seq, ep: in.ep}
	for _, s := range srcs {
		if s >= e.head && s < seq {
			if p := e.valid(ref{seq: s, ep: e.slot(s).ep}); p != nil && !p.done {
				p.deps = append(p.deps, r)
				in.depCount++
			}
		}
	}
	if isStore {
		e.pendingStore.push(r)
		list, ok := e.storesByAddr[addr]
		if !ok {
			if n := len(e.storeFree); n > 0 {
				list = e.storeFree[n-1]
				e.storeFree = e.storeFree[:n-1]
			}
		}
		//tcvet:ignore hotalloc list comes from the storeFree free list; backing arrays are recycled across stores
		e.storesByAddr[addr] = append(list, r)
	}
	if in.depCount == 0 {
		e.schedule(ref{seq: seq, ep: in.ep}, e.cycle+1, evReady)
	}
	return seq
}

// schedule queues an event at the given cycle.
//
//tc:hotpath
func (e *Engine) schedule(r ref, at uint64, kind uint8) {
	if at <= e.cycle {
		at = e.cycle + 1
	}
	if at-e.cycle >= bucketRing {
		at = e.cycle + bucketRing - 1 // defensive clamp; cannot occur with paper latencies
	}
	e.buckets[at%bucketRing] = append(e.buckets[at%bucketRing], event{ref: r, kind: kind})
}

// minUnresolvedStore returns the oldest in-flight store whose address is
// not yet resolved, or ^0 when none.
//
//tc:hotpath
func (e *Engine) minUnresolvedStore() uint64 {
	for e.pendingStore.Len() > 0 {
		r := e.pendingStore[0]
		in := e.valid(r)
		if in == nil || in.done {
			e.pendingStore.pop()
			continue
		}
		return r.seq
	}
	return ^uint64(0)
}

// storeFreeMax bounds the recycled-slice pool; beyond it, emptied entries
// are left to the garbage collector.
const storeFreeMax = 256

// recycleStoreList removes an emptied address entry and keeps its backing
// array for the next store to a fresh address.
func (e *Engine) recycleStoreList(addr uint64, list []ref) {
	delete(e.storesByAddr, addr)
	if cap(list) > 0 && len(e.storeFree) < storeFreeMax {
		e.storeFree = append(e.storeFree, list[:0])
	}
}

// olderStore returns the youngest in-flight same-address store older than
// the load, pruning dead references as it goes. Pruning compacts the list
// in place — the backing array is kept (or recycled via the free list when
// the entry empties) so revisited addresses do not reallocate.
//
//tc:hotpath
func (e *Engine) olderStore(addr uint64, loadSeq uint64) *inst {
	list := e.storesByAddr[addr]
	n := 0
	for _, r := range list {
		if e.valid(r) != nil {
			list[n] = r
			n++
		}
	}
	list = list[:n]
	if n == 0 {
		if list != nil {
			e.recycleStoreList(addr, list)
		}
		return nil
	}
	e.storesByAddr[addr] = list
	for i := n - 1; i >= 0; i-- {
		if list[i].seq < loadSeq {
			return e.slot(list[i].seq)
		}
	}
	return nil
}

// startMemPhase begins a load's memory access (after AGEN and once the
// memory scheduler allows), scheduling its completion.
//
//tc:hotpath
func (e *Engine) startMemPhase(in *inst) {
	in.memDone = true
	r := ref{seq: in.seq, ep: in.ep}
	if st := e.olderStore(in.addr, in.seq); st != nil {
		e.stats.Forwards++
		if st.done {
			e.schedule(r, e.cycle+uint64(e.cfg.ForwardLat), evComplete)
		} else {
			// Wait for the store's data, then forward.
			st.deps = append(st.deps, r)
			in.depCount = -1 // sentinel: completion via forward wake
		}
		return
	}
	lat := uint64(e.cfg.DCacheHit + e.hier.AccessData(in.addr))
	e.schedule(r, e.cycle+lat, evComplete)
}

// tryStartLoads releases blocked loads permitted by the memory scheduler.
//
//tc:hotpath
func (e *Engine) tryStartLoads() {
	if e.blockedLoads.Len() == 0 {
		return
	}
	minStore := e.minUnresolvedStore()
	for e.blockedLoads.Len() > 0 {
		r := e.blockedLoads[0]
		in := e.valid(r)
		if in == nil || in.memDone {
			e.blockedLoads.pop()
			continue
		}
		if r.seq > minStore {
			return // oldest blocked load still cannot bypass
		}
		e.blockedLoads.pop()
		e.startMemPhase(in)
	}
}

// complete finishes an instruction and wakes its dependents.
//
//tc:hotpath
func (e *Engine) complete(in *inst) {
	if in.done {
		return
	}
	in.done = true
	in.doneAt = e.cycle
	e.stats.Executed++
	for _, d := range in.deps {
		w := e.valid(d)
		if w == nil || w.done {
			continue
		}
		if w.depCount == -1 {
			// A load waiting on this store's data: forward.
			e.schedule(d, e.cycle+uint64(e.cfg.ForwardLat), evComplete)
			continue
		}
		w.depCount--
		if w.depCount == 0 && !w.started {
			e.schedule(d, e.cycle+1, evReady)
		}
	}
	in.deps = in.deps[:0]
	if in.isStore {
		// Address now resolved; blocked loads may proceed.
		e.tryStartLoads()
	}
}

// execute hands an instruction to a functional unit at the current cycle.
//
//tc:hotpath
func (e *Engine) execute(in *inst) {
	in.started = true
	r := ref{seq: in.seq, ep: in.ep}
	if !in.isLoad {
		e.schedule(r, e.cycle+uint64(in.latency), evComplete)
		return
	}
	// Loads: AGEN takes the unit latency; then the memory scheduler rules.
	if !e.cfg.MemOracle && e.minUnresolvedStore() < in.seq {
		e.stats.LoadsBlocked++
		e.blockedLoads.push(r)
		return
	}
	e.startMemPhase(in)
}

// Tick advances the engine one cycle and returns the sequence numbers of
// instructions that completed execution this cycle, in ascending order.
// The returned slice is reused by the next Tick; the caller must consume
// it before ticking again.
//
//tc:hotpath
func (e *Engine) Tick(cycle uint64) []uint64 {
	e.cycle = cycle
	completed := e.completedBuf[:0]
	bucket := e.buckets[cycle%bucketRing]
	// Reuse the bucket's array: schedule() always targets a future cycle
	// strictly inside the ring (at most cycle+bucketRing-1), so no event
	// scheduled while draining can land back in this bucket.
	e.buckets[cycle%bucketRing] = bucket[:0]
	for _, ev := range bucket {
		in := e.valid(ev.ref)
		if in == nil {
			continue
		}
		switch ev.kind {
		case evComplete:
			if !in.done {
				e.complete(in)
				completed = append(completed, in.seq)
			}
		case evReady:
			if !in.started && !in.done {
				e.ready.push(ev.ref)
			}
		}
	}
	// Memory scheduler: re-examine blocked loads (store resolution may
	// have happened via completions above).
	e.tryStartLoads()
	// Select: each functional unit starts the oldest ready instruction.
	for fu := 0; fu < e.cfg.FUs && e.ready.Len() > 0; {
		r := e.ready.pop()
		in := e.valid(r)
		if in == nil || in.started || in.done {
			continue
		}
		e.execute(in)
		fu++
	}
	e.completedBuf = completed
	return completed
}

// dropStoreRef truncates the squashed tail (seq >= from) of a store-address
// list eagerly, so squashed references do not pile up waiting for a load to
// the same address to prune them. A reference with seq >= from sitting
// below a seq < from entry was killed by an earlier squash; it stays for
// lazy pruning, which is harmless.
func (e *Engine) dropStoreRef(addr uint64, from uint64) {
	list := e.storesByAddr[addr]
	n := len(list)
	for n > 0 && list[n-1].seq >= from {
		n--
	}
	switch {
	case n == len(list):
	case n == 0:
		e.recycleStoreList(addr, list)
	default:
		e.storesByAddr[addr] = list[:n]
	}
}

// Squash removes every instruction with seq >= from. References from
// surviving instructions are invalidated lazily via epochs; store-address
// references are dropped eagerly so recovery does not leave garbage behind.
func (e *Engine) Squash(from uint64) {
	if from >= e.tail {
		return
	}
	for s := from; s < e.tail; s++ {
		in := e.slot(s)
		if in.live && in.seq == s {
			in.live = false
			e.stats.Squashed++
			if in.isStore {
				e.dropStoreRef(in.addr, from)
			}
		}
	}
	e.tail = from
}

// Retire releases the oldest instruction, which must be done. The caller
// enforces in-order retirement.
//
//tc:hotpath
func (e *Engine) Retire(seq uint64) {
	in := e.slot(seq)
	if seq != e.head || !in.live || in.seq != seq || !in.done {
		panic("engine: out-of-order or premature retire")
	}
	in.live = false
	e.head = seq + 1
}
