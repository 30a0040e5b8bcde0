package obs

import "testing"

// TestNilBus exercises every method on a nil *Bus: the disabled path must
// be safe at every instrumentation site.
func TestNilBus(t *testing.T) {
	var b *Bus
	if b.Enabled(KindTCHit) {
		t.Fatal("nil bus reports enabled")
	}
	b.Emit(Event{Kind: KindTCHit}) // must not panic
	if b.Count() != 0 {
		t.Fatalf("nil bus Count = %d", b.Count())
	}
}

// maskSink records events and advertises a fixed interest mask.
type maskSink struct {
	mask uint64
	got  []Event
}

func (s *maskSink) Kinds() uint64 { return s.mask }
func (s *maskSink) Emit(ev Event) { s.got = append(s.got, ev) }

// TestSinkFiltering checks that the bus delivers only the kinds a sink
// asked for and counts every event it emits.
func TestSinkFiltering(t *testing.T) {
	b := NewBus()
	hits := &maskSink{mask: KindTCHit.Bit()}
	all := &maskSink{mask: AllKinds}
	b.Attach(hits)
	b.Attach(all)
	b.Emit(Event{Kind: KindTCHit})
	b.Emit(Event{Kind: KindTCMiss})
	b.Emit(Event{Kind: KindPromote})
	if len(hits.got) != 1 || hits.got[0].Kind != KindTCHit {
		t.Fatalf("filtered sink got %v", hits.got)
	}
	if len(all.got) != 3 {
		t.Fatalf("AllKinds sink got %d events, want 3", len(all.got))
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d, want 3", b.Count())
	}
}

// TestClockStamping checks that zero-cycle events are stamped from the
// attached clock and explicit cycles are preserved.
func TestClockStamping(t *testing.T) {
	b := NewBus()
	now := uint64(42)
	b.SetClock(func() uint64 { return now })
	var got []Event
	b.Attach(FuncSink(func(ev Event) { got = append(got, ev) }))
	b.Emit(Event{Kind: KindPromote})            // stamped
	b.Emit(Event{Kind: KindRedirect, Cycle: 7}) // preserved
	if got[0].Cycle != 42 {
		t.Errorf("stamped cycle = %d, want 42", got[0].Cycle)
	}
	if got[1].Cycle != 7 {
		t.Errorf("explicit cycle = %d, want 7", got[1].Cycle)
	}
}

// TestKindStrings checks every kind names itself.
func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < NumKinds; k++ {
		if k.String() == "" || k.String() == "kind(?)" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if NumKinds.String() != "kind(?)" {
		t.Errorf("out-of-range kind should name as kind(?)")
	}
	if AllKinds != uint64(1)<<uint(NumKinds)-1 {
		t.Errorf("AllKinds mask out of sync with NumKinds")
	}
}
