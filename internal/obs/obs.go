// Package obs is the simulator's observability layer: a low-overhead
// structured event bus with pluggable sinks, windowed time-series
// collection of the paper's headline metrics (IPC, effective fetch rate,
// trace cache hit rate, promotion coverage, prediction-bandwidth demand),
// and a Chrome/Perfetto trace-event exporter.
//
// The layer is opt-in and compiles out of the hot path via a nil-check:
// every producer holds a *Bus that is nil by default, and both Enabled and
// Emit are safe to call on a nil receiver. With no bus attached the only
// cost at an instrumentation site is a pointer comparison.
package obs

// Kind identifies the type of an Event.
type Kind uint8

// Event kinds. The payload fields each kind uses are documented inline;
// unused fields are zero.
const (
	// KindFetchRecord is the lifetime of one fetch delivery, emitted when
	// the record finalizes (all its instructions retired or squashed).
	// Span: Cycle is the delivery cycle, Dur the cycles until finalize.
	// PC is the fetch address, V1 instructions dispatched, V2 instructions
	// retired, V3 the stats.FetchEnd termination reason. FlagFromTC and
	// FlagMispredict apply.
	KindFetchRecord Kind = iota
	// KindTCHit is a trace cache hit. PC is the fetch address, V1 the
	// segment length in instructions, V2 the predictions consumed.
	KindTCHit
	// KindTCMiss is a trace cache miss. PC is the fetch address.
	KindTCMiss
	// KindICacheFetch is an instruction-cache fetch block. PC is the fetch
	// address, V1 the block length, V2 the miss latency in cycles.
	KindICacheFetch
	// KindSegFinalize is a trace segment written by the fill unit. PC is
	// the segment start, V1 its length, V2 the core.FinalizeReason, V3 the
	// number of promoted branches embedded.
	KindSegFinalize
	// KindSegPack is a fetch block split across segments by trace packing.
	// PC is the block's first instruction, V1 the instructions packed into
	// the earlier segment.
	KindSegPack
	// KindPromote is a promoted branch instance embedded by the fill unit.
	// PC is the branch; FlagTaken carries the promoted direction.
	KindPromote
	// KindDemote is a promoted branch demoted after a fault. PC is the
	// branch, V1 the number of trace cache lines invalidated.
	KindDemote
	// KindPromotedFault is a promoted branch whose static prediction was
	// wrong. PC is the branch.
	KindPromotedFault
	// KindRedirect is a misprediction recovery window. Span: Cycle is the
	// fetch cycle of the mispredicted instruction, Dur the resolution time
	// in cycles. PC is the instruction, V1 the stats.CycleClass of the
	// recovery.
	KindRedirect
	// KindWindowSample is a periodic counter sample of instruction window
	// occupancy. V1 is the number of occupied window slots.
	KindWindowSample
	// KindCheckViolation is a self-check violation (internal/check). PC is
	// the offending instruction or fetch address, V1 the check.Layer, V2
	// the dynamic sequence number when applicable.
	KindCheckViolation
	// NumKinds bounds the kind space.
	NumKinds
)

var kindNames = [NumKinds]string{
	"fetch-record", "tc-hit", "tc-miss", "icache-fetch",
	"seg-finalize", "seg-pack", "promote", "demote", "promoted-fault",
	"redirect", "window-sample", "check-violation",
}

// String names the kind.
func (k Kind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "kind(?)"
}

// Bit returns the kind's position in a sink interest mask.
func (k Kind) Bit() uint64 { return 1 << uint(k) }

// AllKinds is the sink interest mask selecting every kind.
const AllKinds = uint64(1)<<uint(NumKinds) - 1

// Event flags.
const (
	// FlagFromTC marks a fetch served by the trace cache.
	FlagFromTC uint8 = 1 << iota
	// FlagTaken carries a branch direction.
	FlagTaken
	// FlagMispredict marks a fetch record terminated by a misprediction.
	FlagMispredict
)

// Event is one structured observation. Events are small fixed-size values
// so sinks never allocate per event.
type Event struct {
	Kind  Kind
	Flags uint8
	// Cycle is when the event happened; for span kinds (KindFetchRecord,
	// KindRedirect) it is the span start. Producers without a cycle counter
	// leave it zero and the bus stamps it from the attached clock.
	Cycle uint64
	// Dur is the span length in cycles (span kinds only).
	Dur uint64
	// PC is the instruction or fetch address the event concerns.
	PC int
	// V1, V2, V3 are kind-specific payloads (see the Kind docs).
	V1, V2, V3 uint64
}

// Sink consumes events from a Bus.
type Sink interface {
	// Kinds returns the interest mask (union of Kind.Bit values, or
	// AllKinds). The bus only delivers matching events.
	Kinds() uint64
	// Emit consumes one event. Called synchronously on the emitting
	// goroutine; sinks must not retain pointers into the event.
	Emit(Event)
}

// Bus is the event hub: it counts every event and forwards it to the
// attached sinks. A nil *Bus is a valid, permanently-disabled bus: every
// method is safe on a nil receiver, and tcvet's nilsafe analyzer enforces
// that each one guards the receiver before touching fields and that a
// *Bus is never boxed into an interface (which would defeat callers' nil
// checks).
//
//tc:nilsafe
type Bus struct {
	n     uint64 // total events emitted
	sinks []Sink
	clock func() uint64
}

// NewBus builds a bus with no sinks attached.
func NewBus() *Bus { return &Bus{} }

// Attach adds a sink. On a nil (disabled) bus it is a no-op: the sink
// will simply never see events.
func (b *Bus) Attach(s Sink) {
	if b == nil {
		return
	}
	b.sinks = append(b.sinks, s)
}

// SetClock installs a cycle source used to stamp events emitted with a
// zero Cycle (producers below the simulator, such as the fill unit, have
// no cycle counter of their own). A no-op on a nil bus.
func (b *Bus) SetClock(fn func() uint64) {
	if b == nil {
		return
	}
	b.clock = fn
}

// Enabled reports whether events of the kind are being observed. It is
// the fast-path guard: nil-safe, so instrumentation sites read
//
//	if bus.Enabled(obs.KindX) { bus.Emit(obs.Event{...}) }
//
// and cost one pointer comparison when observability is off.
func (b *Bus) Enabled(Kind) bool { return b != nil }

// Emit counts the event and forwards it to interested sinks. Safe on a
// nil bus (a no-op).
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	if ev.Cycle == 0 && b.clock != nil {
		ev.Cycle = b.clock()
	}
	b.n++
	bit := ev.Kind.Bit()
	for _, s := range b.sinks {
		if s.Kinds()&bit != 0 {
			s.Emit(ev)
		}
	}
}

// Count returns the total number of events emitted.
func (b *Bus) Count() uint64 {
	if b == nil {
		return 0
	}
	return b.n
}

// FuncSink adapts a function to the Sink interface, observing every kind.
type FuncSink func(Event)

// Kinds implements Sink.
func (FuncSink) Kinds() uint64 { return AllKinds }

// Emit implements Sink.
func (f FuncSink) Emit(ev Event) { f(ev) }
