package trace

import (
	"bytes"
	"errors"
	"testing"

	"tracecache/internal/isa"
)

func testHeader() Header {
	return Header{
		ProgHash:         0xdeadbeefcafe0123,
		CodeLen:          1 << 20,
		Entry:            17,
		FastForwardInsts: 100_000,
		WarmupInsts:      20_000,
		MeasureInsts:     40_000,
		CoreHash:         "00aabbccddeeff11",
		Name:             "gcc",
		Provenance:       "commit-tap",
	}
}

// boundaryRecs exercises varint and delta boundary values: zero deltas,
// maximal forward and backward jumps, store addresses crossing the
// signed-delta boundary, and every control-flow kind.
func boundaryRecs(codeLen int) []Rec {
	return []Rec{
		{PC: 17, Kind: KindOther},                                       // first record at entry: delta 0
		{PC: 18, Kind: KindOther, HasMem: true, MemAddr: 0},             // store at address zero
		{PC: 19, Kind: KindOther, HasMem: true, MemAddr: 1<<63 + 12345}, // huge positive address delta
		{PC: 20, Kind: KindOther, HasMem: true, MemAddr: 8},             // huge negative address delta
		{PC: 21, Kind: KindCond, Taken: true},                           // taken branch
		{PC: codeLen - 1, Kind: KindCond, Taken: false},                 // maximal forward PC delta
		{PC: 0, Kind: KindJmp},                                          // maximal backward PC delta
		{PC: 1, Kind: KindCall},                                         //
		{PC: 2, Kind: KindIndirect, Target: codeLen - 1},                // maximal forward target delta
		{PC: codeLen - 2, Kind: KindIndirect, Target: 0},                // maximal backward target delta
		{PC: codeLen - 3, Kind: KindRet},                                //
		{PC: 5, Kind: KindTrap, HasMem: true, MemAddr: ^uint64(0)},      // all-ones address
		{PC: 5, Kind: KindOther, HasMem: true, MemAddr: 0},              // repeated PC (delta -1)
		{PC: 6, Kind: KindHalt},                                         //
	}
}

func encode(t *testing.T, h Header, recs []Rec) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for _, r := range recs {
		w.Append(r)
	}
	if got, want := w.count, uint64(len(recs)); got != want {
		t.Fatalf("count = %d, want %d", got, want)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	h := testHeader()
	recs := boundaryRecs(h.CodeLen)
	data := encode(t, h, recs)

	gotH, gotRecs, err := ReadAll(data)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if gotH != h {
		t.Errorf("header round trip:\n got %+v\nwant %+v", gotH, h)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Errorf("rec %d: got %+v, want %+v", i, gotRecs[i], recs[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	h := testHeader()
	data := encode(t, h, nil)
	gotH, recs, err := ReadAll(data)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if gotH != h || len(recs) != 0 {
		t.Errorf("empty stream: header %+v, %d records", gotH, len(recs))
	}
}

// TestRoundTripLong crosses several internal flush boundaries so the CRC
// is computed over multiple chunks.
func TestRoundTripLong(t *testing.T) {
	h := testHeader()
	var recs []Rec
	pc := h.Entry
	for i := 0; i < 20_000; i++ {
		r := Rec{PC: pc, Kind: KindOther}
		if i%7 == 0 {
			r.Kind = KindCond
			r.Taken = i%3 == 0
		}
		if i%5 == 0 {
			r.HasMem = true
			r.MemAddr = uint64(i) * 1024
		}
		recs = append(recs, r)
		pc = (pc + 1 + i%13) % h.CodeLen
	}
	data := encode(t, h, recs)
	_, gotRecs, err := ReadAll(data)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(gotRecs) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(gotRecs), len(recs))
	}
	for i := range recs {
		if gotRecs[i] != recs[i] {
			t.Fatalf("rec %d: got %+v, want %+v", i, gotRecs[i], recs[i])
		}
	}
}

func TestTruncated(t *testing.T) {
	h := testHeader()
	data := encode(t, h, boundaryRecs(h.CodeLen))
	// Every proper prefix must fail with ErrTruncated or ErrCorrupt,
	// never succeed and never panic.
	for cut := 0; cut < len(data); cut++ {
		_, _, err := ReadAll(data[:cut])
		if err == nil {
			t.Fatalf("cut at %d/%d: decode succeeded", cut, len(data))
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut at %d: unexpected error class: %v", cut, err)
		}
	}
}

func TestCorrupt(t *testing.T) {
	h := testHeader()
	data := encode(t, h, boundaryRecs(h.CodeLen))
	// Flipping any single payload bit must be caught (structurally or by
	// the CRC), never silently accepted.
	hdrLen := len(appendHeader(nil, h))
	for off := hdrLen; off < len(data); off++ {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, _, err := ReadAll(mut)
		if err == nil {
			t.Fatalf("bit flip at %d accepted", off)
		}
	}
	// Trailing garbage after the trailer.
	_, _, err := ReadAll(append(append([]byte(nil), data...), 0x00))
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: %v", err)
	}
	// Bad magic.
	mut := append([]byte(nil), data...)
	mut[0] = 'X'
	if _, err := newReader(mut); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad magic: %v", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	data := encode(t, testHeader(), nil)
	data[4] = 0x7f // version field (LE u16 after the 4-byte magic)
	_, err := newReader(data)
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version mismatch: %v", err)
	}
}

func TestCountMismatch(t *testing.T) {
	h := testHeader()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Rec{PC: h.Entry, Kind: KindOther})
	w.count = 7 // lie about the record count
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, _, err = ReadAll(buf.Bytes())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("count mismatch: %v", err)
	}
}

// TestCollision is the stream-identity contract: a stream whose header
// describes different content must be rejected with ErrMismatch, not
// replayed.
func TestCollision(t *testing.T) {
	h := testHeader()
	if err := h.Matches(h); err != nil {
		t.Fatalf("self match: %v", err)
	}
	// A longer recording satisfies a shorter want (prefix property).
	longer := h
	longer.MeasureInsts += 1000
	if err := longer.Matches(h); err != nil {
		t.Errorf("longer recording rejected: %v", err)
	}
	for name, mut := range map[string]func(*Header){
		"prog-hash": func(m *Header) { m.ProgHash++ },
		"code-len":  func(m *Header) { m.CodeLen++ },
		"entry":     func(m *Header) { m.Entry++ },
		"shorter":   func(m *Header) { m.MeasureInsts -= 1000 },
	} {
		m := h
		mut(&m)
		if err := m.Matches(h); !errors.Is(err, ErrMismatch) {
			t.Errorf("%s: Matches = %v, want ErrMismatch", name, err)
		}
	}
}

func TestKindOf(t *testing.T) {
	cases := map[isa.Op]Kind{
		isa.OpAdd:    KindOther,
		isa.OpLoad:   KindOther,
		isa.OpStore:  KindOther,
		isa.OpBr:     KindCond,
		isa.OpJmp:    KindJmp,
		isa.OpCall:   KindCall,
		isa.OpRet:    KindRet,
		isa.OpJmpInd: KindIndirect,
		isa.OpTrap:   KindTrap,
		isa.OpHalt:   KindHalt,
	}
	for op, want := range cases {
		if got := KindOf(isa.Inst{Op: op}); got != want {
			t.Errorf("KindOf(%v) = %v, want %v", op, got, want)
		}
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n <= 0 {
		return 0, errors.New("disk full")
	}
	e.n -= len(p)
	return len(p), nil
}

func TestWriterLatchesErrors(t *testing.T) {
	w, err := NewWriter(&errWriter{n: 64}, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100_000; i++ {
		w.Append(Rec{PC: i % 1000, Kind: KindOther})
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close after write failure returned nil")
	}
	if _, err := NewWriter(&errWriter{n: 0}, testHeader()); err == nil {
		t.Fatal("NewWriter with failing destination returned nil error")
	}
}
