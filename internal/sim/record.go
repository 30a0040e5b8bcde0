package sim

import (
	"tracecache/internal/isa"
	"tracecache/internal/trace"
)

// AttachRecorder attaches a retired-stream recording tap: every committed
// instruction — fast-forwarded or detailed, in commit order — is appended
// to w. Attach before Run on a fresh simulator (recording must start at
// the program entry); a nil writer detaches. The detached path costs one
// nil comparison per committed instruction, per the hotpath contract, and
// write errors are latched inside the writer (surface them via w.Close).
func (s *Simulator) AttachRecorder(w *trace.Writer) { s.trc = w }

// TraceHeader describes the stream an attached recorder captures under
// this simulator's configuration and program.
func (s *Simulator) TraceHeader(provenance string) trace.Header {
	return trace.Header{
		ProgHash:         s.prog.Hash(),
		CodeLen:          len(s.prog.Code),
		Entry:            s.prog.Entry,
		FastForwardInsts: s.cfg.FastForwardInsts,
		WarmupInsts:      s.cfg.WarmupInsts,
		MeasureInsts:     s.cfg.MaxInsts,
		CoreHash:         s.cfg.CoreHash(),
		Name:             s.prog.Name,
		Provenance:       provenance,
	}
}

// recordRetire appends one committed instruction to the recording tap.
// The caller nil-checks s.trc.
//
//tc:hotpath
func (s *Simulator) recordRetire(pc int, in isa.Inst, taken bool, nextPC int, memAddr uint64) {
	r := trace.Rec{PC: pc, Kind: trace.KindOf(in)}
	switch {
	case in.IsCondBranch():
		r.Taken = taken
	case in.IsIndirect():
		r.Target = nextPC
	case in.IsStore():
		r.HasMem, r.MemAddr = true, memAddr
	}
	s.trc.Append(r)
}
