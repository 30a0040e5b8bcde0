// Package trace implements the compact binary retired-stream format
// behind the record/replay backend. A recording is the committed
// instruction stream of one benchmark — program counters, control-flow
// kinds, branch directions, indirect targets and store addresses — which
// is everything the fetch path (trace cache, fill unit, bias table,
// branch/indirect predictors, L1I) consumes. The stream is a pure
// function of the program and the instruction budget, independent of any
// machine configuration, so one recording serves every front-end sweep
// point (see sim.Replayer).
//
// # Format
//
// A stream is a versioned header, a sequence of delta/varint-encoded
// records, an end marker, and an integrity trailer:
//
//	header:  magic "tctr", version u16 LE, then varint fields
//	         (program hash, code length, entry, budgets, core hash)
//	         and length-prefixed strings (benchmark name, provenance)
//	record:  flags byte [kind:3 | taken | mem | target | 0 | 0]
//	         zigzag-varint PC delta from the previous record's PC + 1
//	         [target] zigzag-varint target delta from PC+1 (indirects)
//	         [mem]    zigzag-varint address delta from the previous store
//	end:     0xFF flags byte (reserved bits are never set in a record)
//	trailer: varint record count, CRC-32 (IEEE) LE over the records and
//	         end marker
//
// Sequential instructions therefore cost two bytes (zero flags, zero
// delta); a taken branch typically costs three or four. Truncation,
// bit corruption and version skew are all detectable: ErrTruncated,
// ErrCorrupt and ErrVersion respectively.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"tracecache/internal/isa"
)

// Version is the current stream format version.
const Version = 1

const (
	magic = "tctr"

	flagKindMask = 0x07
	flagTaken    = 0x08
	flagMem      = 0x10
	flagTarget   = 0x20
	flagReserved = 0xC0

	endMarker = 0xFF

	// maxRecBytes bounds one encoded record: flags plus three maximal
	// 10-byte varints, rounded up.
	maxRecBytes   = 32
	writerBufSize = 1 << 12
)

// Stream errors. Decoding failures wrap one of these three, so callers
// can errors.Is against them; Header.Matches wraps ErrMismatch.
var (
	ErrVersion   = errors.New("trace: version mismatch")
	ErrCorrupt   = errors.New("trace: corrupt stream")
	ErrTruncated = errors.New("trace: truncated stream")
	ErrMismatch  = errors.New("trace: header mismatch")
)

var crcTable = crc32.MakeTable(crc32.IEEE)

// Kind is the control-flow class of one retired instruction.
type Kind uint8

// Control-flow kinds, three bits in the record flags byte.
const (
	KindOther Kind = iota
	KindCond
	KindJmp
	KindCall
	KindRet
	KindIndirect
	KindTrap
	KindHalt
)

// KindOf classifies an instruction.
func KindOf(in isa.Inst) Kind {
	switch in.Op {
	case isa.OpBr:
		return KindCond
	case isa.OpJmp:
		return KindJmp
	case isa.OpCall:
		return KindCall
	case isa.OpRet:
		return KindRet
	case isa.OpJmpInd:
		return KindIndirect
	case isa.OpTrap:
		return KindTrap
	case isa.OpHalt:
		return KindHalt
	}
	return KindOther
}

// Rec is one retired instruction.
type Rec struct {
	PC    int
	Kind  Kind
	Taken bool // conditional branches: committed direction
	// Target is the committed target of an indirect jump (the only
	// control transfer whose destination is not derivable from the code
	// segment and the direction bit).
	Target int
	// MemAddr is the store address (HasMem set); the data-side accesses
	// the bias table and fill unit see at commit.
	MemAddr uint64
	HasMem  bool
}

// Header identifies what a stream is a recording of. ProgHash, CodeLen,
// Entry and the budgets define the stream content (see Matches);
// CoreHash, Name and Provenance are advisory metadata.
type Header struct {
	// ProgHash is the program content hash (program.Program.Hash).
	ProgHash uint64
	CodeLen  int
	Entry    int

	// Recording budgets: the stream covers the committed path through
	// fast-forward, warmup and measurement (fewer records if the program
	// halts first).
	FastForwardInsts uint64
	WarmupInsts      uint64
	MeasureInsts     uint64

	// CoreHash is the recording configuration's hash with every
	// front-end axis cleared (sim.Config.CoreHash). The stream itself is
	// configuration-independent, and replay eligibility never reads
	// this (DESIGN.md §9); it records provenance only.
	CoreHash string

	Name       string // benchmark name
	Provenance string // how the stream was produced (e.g. "commit-tap")
}

// TotalInsts is the number of committed instructions the recording was
// budgeted to cover.
func (h Header) TotalInsts() uint64 {
	return h.FastForwardInsts + h.WarmupInsts + h.MeasureInsts
}

// Matches reports whether a recorded stream can stand in for a recording
// with the wanted content: same program and at least the wanted budget.
// A mismatch wraps ErrMismatch: the stream records another program or
// too short a run, and replaying it would measure the wrong path.
func (h Header) Matches(want Header) error {
	switch {
	case h.ProgHash != want.ProgHash:
		return fmt.Errorf("%w: program hash %016x, want %016x", ErrMismatch, h.ProgHash, want.ProgHash)
	case h.CodeLen != want.CodeLen || h.Entry != want.Entry:
		return fmt.Errorf("%w: code %d@%d, want %d@%d", ErrMismatch, h.CodeLen, h.Entry, want.CodeLen, want.Entry)
	case h.TotalInsts() < want.TotalInsts():
		return fmt.Errorf("%w: covers %d insts, want %d", ErrMismatch, h.TotalInsts(), want.TotalInsts())
	}
	return nil
}

// zigzag maps a signed delta to an unsigned varint-friendly value.
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer encodes a stream. Append is allocation-free (a fixed internal
// buffer, flushed in chunks) so the commit-path tap stays within the
// hotpath contract; I/O errors are latched and surface from Close.
type Writer struct {
	dst     io.Writer
	err     error
	closed  bool
	count   uint64
	prevPC  int
	prevMem uint64
	crc     uint32
	n       int
	buf     [writerBufSize]byte
}

// NewWriter writes the header and returns a Writer appending to dst.
func NewWriter(dst io.Writer, h Header) (*Writer, error) {
	hdr := appendHeader(nil, h)
	if _, err := dst.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: write header: %w", err)
	}
	return &Writer{dst: dst, prevPC: h.Entry - 1}, nil
}

// appendHeader encodes the header.
func appendHeader(b []byte, h Header) []byte {
	b = append(b, magic...)
	b = binary.LittleEndian.AppendUint16(b, Version)
	b = binary.AppendUvarint(b, h.ProgHash)
	b = binary.AppendUvarint(b, uint64(h.CodeLen))
	b = binary.AppendUvarint(b, uint64(h.Entry))
	b = binary.AppendUvarint(b, h.FastForwardInsts)
	b = binary.AppendUvarint(b, h.WarmupInsts)
	b = binary.AppendUvarint(b, h.MeasureInsts)
	for _, s := range [...]string{h.CoreHash, h.Name, h.Provenance} {
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// Append encodes one retired instruction. Errors are latched; a failed
// writer drops records silently until Close reports the cause.
//
//tc:hotpath
func (w *Writer) Append(r Rec) {
	if w.err != nil || w.closed {
		return
	}
	if w.n > writerBufSize-maxRecBytes {
		w.flush()
		if w.err != nil {
			return
		}
	}
	flags := byte(r.Kind) & flagKindMask
	if r.Taken {
		flags |= flagTaken
	}
	if r.HasMem {
		flags |= flagMem
	}
	hasTarget := r.Kind == KindIndirect
	if hasTarget {
		flags |= flagTarget
	}
	n := w.n
	w.buf[n] = flags
	n++
	n += binary.PutUvarint(w.buf[n:], zigzag(int64(r.PC-w.prevPC-1)))
	if hasTarget {
		n += binary.PutUvarint(w.buf[n:], zigzag(int64(r.Target-(r.PC+1))))
	}
	if r.HasMem {
		n += binary.PutUvarint(w.buf[n:], zigzag(int64(r.MemAddr-w.prevMem)))
		w.prevMem = r.MemAddr
	}
	w.prevPC = r.PC
	w.n = n
	w.count++
}

// flush drains the record buffer, folding it into the payload CRC.
func (w *Writer) flush() {
	if w.n == 0 || w.err != nil {
		return
	}
	w.crc = crc32.Update(w.crc, crcTable, w.buf[:w.n])
	if _, err := w.dst.Write(w.buf[:w.n]); err != nil {
		w.err = fmt.Errorf("trace: write records: %w", err)
	}
	w.n = 0
}

// Close writes the end marker and integrity trailer and returns the
// first latched error. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.n > writerBufSize-1 {
		w.flush()
	}
	w.buf[w.n] = endMarker
	w.n++
	w.flush()
	if w.err != nil {
		return w.err
	}
	var tail []byte
	tail = binary.AppendUvarint(tail, w.count)
	tail = binary.LittleEndian.AppendUint32(tail, w.crc)
	if _, err := w.dst.Write(tail); err != nil {
		w.err = fmt.Errorf("trace: write trailer: %w", err)
	}
	return w.err
}

// reader decodes a stream. The whole stream is held in memory (a 1M-
// instruction recording is a few megabytes); next streams records out of
// it without allocating, verifying the trailer when the end marker is
// reached.
type reader struct {
	h            Header
	data         []byte
	pos          int
	payloadStart int
	prevPC       int
	prevMem      uint64
	count        uint64
	done         bool
}

// newReader decodes the stream header of an in-memory stream.
func newReader(data []byte) (*reader, error) {
	r := &reader{data: data}
	if len(data) < len(magic)+2 {
		return nil, fmt.Errorf("%w: short header", ErrTruncated)
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r.pos = len(magic)
	if v := binary.LittleEndian.Uint16(data[r.pos:]); v != Version {
		return nil, fmt.Errorf("%w: stream version %d, reader supports %d", ErrVersion, v, Version)
	}
	r.pos += 2
	var ints [6]uint64
	for i := range ints {
		v, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		ints[i] = v
	}
	r.h.ProgHash = ints[0]
	r.h.CodeLen = int(ints[1])
	r.h.Entry = int(ints[2])
	r.h.FastForwardInsts, r.h.WarmupInsts, r.h.MeasureInsts = ints[3], ints[4], ints[5]
	for _, s := range [...]*string{&r.h.CoreHash, &r.h.Name, &r.h.Provenance} {
		n, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if uint64(len(data)-r.pos) < n {
			return nil, fmt.Errorf("%w: header string", ErrTruncated)
		}
		*s = string(data[r.pos : r.pos+int(n)])
		r.pos += int(n)
	}
	if r.h.CodeLen <= 0 || r.h.Entry < 0 || r.h.Entry >= r.h.CodeLen {
		return nil, fmt.Errorf("%w: entry %d outside code [0,%d)", ErrCorrupt, r.h.Entry, r.h.CodeLen)
	}
	r.payloadStart = r.pos
	r.prevPC = r.h.Entry - 1
	return r, nil
}

// uvarint decodes one unsigned varint at the cursor.
func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		if n == 0 {
			return 0, fmt.Errorf("%w: varint", ErrTruncated)
		}
		return 0, fmt.Errorf("%w: varint overflow", ErrCorrupt)
	}
	r.pos += n
	return v, nil
}

// next decodes the next record into rec. It returns io.EOF after the end
// marker and a verified trailer; any structural or integrity failure
// returns an error wrapping ErrTruncated or ErrCorrupt.
//
//tc:hotpath
func (r *reader) next(rec *Rec) error {
	if r.done {
		return io.EOF
	}
	if r.pos >= len(r.data) {
		return r.failTruncated("record flags")
	}
	flags := r.data[r.pos]
	if flags == endMarker {
		return r.finish()
	}
	r.pos++
	if flags&flagReserved != 0 {
		return r.failCorrupt("reserved flag bits set")
	}
	d, err := r.uvarint()
	if err != nil {
		return err
	}
	pc := r.prevPC + 1 + int(unzigzag(d))
	if pc < 0 || pc >= r.h.CodeLen {
		return r.failCorrupt("pc out of range")
	}
	kind := Kind(flags & flagKindMask)
	if (flags&flagTarget != 0) != (kind == KindIndirect) {
		return r.failCorrupt("target flag disagrees with kind")
	}
	rec.PC = pc
	rec.Kind = kind
	rec.Taken = flags&flagTaken != 0
	rec.HasMem = flags&flagMem != 0
	rec.Target = 0
	rec.MemAddr = 0
	if flags&flagTarget != 0 {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		t := pc + 1 + int(unzigzag(d))
		if t < 0 || t >= r.h.CodeLen {
			return r.failCorrupt("indirect target out of range")
		}
		rec.Target = t
	}
	if rec.HasMem {
		d, err := r.uvarint()
		if err != nil {
			return err
		}
		rec.MemAddr = r.prevMem + uint64(unzigzag(d))
		r.prevMem = rec.MemAddr
	}
	r.prevPC = pc
	r.count++
	return nil
}

// finish verifies the trailer at the end marker.
func (r *reader) finish() error {
	markerEnd := r.pos + 1
	r.pos = markerEnd
	count, err := r.uvarint()
	if err != nil {
		return err
	}
	if count != r.count {
		return fmt.Errorf("%w: trailer count %d, decoded %d", ErrCorrupt, count, r.count)
	}
	if len(r.data)-r.pos < 4 {
		return r.failTruncated("trailer crc")
	}
	want := binary.LittleEndian.Uint32(r.data[r.pos:])
	r.pos += 4
	if got := crc32.Checksum(r.data[r.payloadStart:markerEnd], crcTable); got != want {
		return fmt.Errorf("%w: crc %08x, trailer says %08x", ErrCorrupt, got, want)
	}
	if r.pos != len(r.data) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.data)-r.pos)
	}
	r.done = true
	return io.EOF
}

// failTruncated wraps ErrTruncated with context (out of line so the
// hotpath decode body stays free of fmt calls).
func (r *reader) failTruncated(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrTruncated, what, r.pos)
}

// failCorrupt wraps ErrCorrupt with context.
func (r *reader) failCorrupt(what string) error {
	return fmt.Errorf("%w: %s at offset %d", ErrCorrupt, what, r.pos)
}

// ReadAll decodes an entire in-memory stream; the decoded slice is what
// replay consumes (decode once, replay at every sweep point). Capacity
// is pre-sized from the encoding's ~2 bytes/record density so a large
// stream does not pay repeated growth copies.
func ReadAll(data []byte) (Header, []Rec, error) {
	r, err := newReader(data)
	if err != nil {
		return Header{}, nil, err
	}
	recs := make([]Rec, 0, len(data)/2)
	var rec Rec
	for {
		err := r.next(&rec)
		if err == io.EOF {
			return r.h, recs, nil
		}
		if err != nil {
			return r.h, recs, err
		}
		recs = append(recs, rec)
	}
}
