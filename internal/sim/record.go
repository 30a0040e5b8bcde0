package sim

import (
	"bytes"

	"tracecache/internal/isa"
	"tracecache/internal/program"
	"tracecache/internal/stats"
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

// RecordStream records the committed stream a replay under cfg consumes
// by executing it functionally through the fast-forward recording tap
// (TestRecordTapFastForwardEquivalence pins that tap record for record
// to a detailed recording). The stream covers the fast-forward, warm-up
// and measured budgets plus a tail of two fetch bundles: the replay loop
// checks the end of warm-up and the end of measurement before each fetch,
// so each boundary can overshoot by less than one bundle, and the tail
// lets every replay measure its full MaxInsts. SkipFunctional stops
// before a halt, so a program that halts inside the budget yields a
// stream without its halt record; none of the suite's benchmarks halts
// within 20M committed instructions. The only error that can occur here
// comes from New, which would fail a detailed run of cfg too.
func RecordStream(cfg Config, prog *program.Program) (trace.Header, []trace.Rec, error) {
	s, err := New(cfg, prog)
	if err != nil {
		return trace.Header{}, nil, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, s.TraceHeader("functional"))
	if err != nil {
		return trace.Header{}, nil, err
	}
	s.AttachRecorder(w)
	if _, err := s.SkipFunctional(cfg.FastForwardInsts + cfg.WarmupInsts + cfg.MaxInsts + 2*stats.MaxFetchWidth); err != nil {
		return trace.Header{}, nil, err
	}
	if err := w.Close(); err != nil {
		return trace.Header{}, nil, err
	}
	return trace.ReadAll(buf.Bytes())
}

// recordRetire appends one committed instruction to the recording tap.
// The caller nil-checks s.trc.
//
//tc:hotpath
func (s *Simulator) recordRetire(pc int, in *isa.Inst, taken bool, nextPC int, memAddr uint64) {
	r := trace.Rec{PC: pc, Kind: trace.KindOf(*in)}
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
