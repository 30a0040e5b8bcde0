package fetch

import (
	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/isa"
	"tracecache/internal/obs"
	"tracecache/internal/program"
	"tracecache/internal/stats"
)

// condPredictor supplies the prediction for the conditional branch that
// terminates an instruction-cache fetch block and records the predictor's
// update context on the fetched instruction fi.
type condPredictor func(brPC int, fi *FetchedInst) (taken bool)

// icacheFetcher collects one fetch block per cycle from an instruction
// cache, with split-line fetching: a fetch may continue into the next
// cache line, but terminates at the boundary if the second line is not
// resident (Section 4, footnote 2).
type icacheFetcher struct {
	prog      *program.Program
	hier      *cache.Hierarchy
	maxWidth  int
	lineInsts int
}

func newICacheFetcher(prog *program.Program, hier *cache.Hierarchy, maxWidth int) icacheFetcher {
	return icacheFetcher{
		prog:      prog,
		hier:      hier,
		maxWidth:  maxWidth,
		lineInsts: hier.L1I.LineBytes() / isa.InstBytes,
	}
}

// fetchBlock fills b with one fetch block starting at pc. fs is the
// speculative fetch state, predictBr the conditional-branch predictor, ind
// the indirect-jump predictor.
//
//tc:hotpath
func (f *icacheFetcher) fetchBlock(b *Bundle, pc int, fs *frontState, predictBr condPredictor, ind *bpred.IndirectPredictor) {
	code := f.prog.Code
	b.Latency = f.hier.FetchInst(isa.Addr(pc))
	line := pc / f.lineInsts
	crossed := false
	b.NextPC = pc
	for len(b.Insts) < f.maxWidth && pc < len(code) {
		if l := pc / f.lineInsts; l != line {
			// Crossing a line boundary: split-line fetch reaches one more
			// line, and only if it is resident.
			if crossed || !f.hier.ProbeInst(isa.Addr(pc)) {
				break
			}
			f.hier.FetchInst(isa.Addr(pc)) // hit; refresh LRU
			line, crossed = l, true
		}
		in := &code[pc]
		fi := b.next(pc, in, fs, len(b.Insts) == 0, false)
		stop := false
		switch {
		case in.IsCondBranch():
			taken := predictBr(pc, fi)
			fi.Predicted = taken
			fs.hist.Push(taken)
			if taken {
				fi.PredTarget = in.Target
			}
			b.PredsUsed++
			stop = true
		case in.Op == isa.OpJmp:
			fi.PredTarget = in.Target
			stop = true
		case in.Op == isa.OpCall:
			fs.ras = rasPush(fs.ras, pc+1)
			fi.PredTarget = in.Target
			stop = true
		case in.Op == isa.OpRet:
			fi.PredTarget, fs.ras = rasPop(fs.ras, pc)
			stop = true
		case in.IsIndirect():
			if t, ok := ind.Predict(pc); ok {
				fi.PredTarget = t
			}
			stop = true
		case in.IsTrap() || in.Op == isa.OpHalt:
			b.EndsInSerial = true
			stop = true
		}
		b.NextPC = fi.PredTarget
		pc++
		if stop {
			break
		}
	}
	if len(b.Insts) == f.maxWidth {
		b.Reason = stats.EndMaxSize
	} else {
		b.Reason = stats.EndICache
	}
}

// ICacheEngine is the reference front end of Section 3: a large
// dual-ported instruction cache supplying a single fetch block per cycle,
// predicted by an aggressive hybrid single-branch predictor.
type ICacheEngine struct {
	frontState
	icf    icacheFetcher
	hybrid *bpred.Hybrid
	ind    *bpred.IndirectPredictor
	bundle Bundle
}

// ICacheConfig parameterises the reference front end.
type ICacheConfig struct {
	Prog     *program.Program
	Hier     *cache.Hierarchy
	Hybrid   *bpred.Hybrid
	Indirect *bpred.IndirectPredictor
	MaxWidth int // default 16
}

// icacheHistBits is the reference front end's global history length, the
// hybrid predictor's 15-bit gshare history.
const icacheHistBits = 15

// NewICacheEngine builds the reference front end.
func NewICacheEngine(cfg ICacheConfig) *ICacheEngine {
	if cfg.MaxWidth <= 0 {
		cfg.MaxWidth = stats.MaxFetchWidth
	}
	e := &ICacheEngine{
		icf:    newICacheFetcher(cfg.Prog, cfg.Hier, cfg.MaxWidth),
		hybrid: cfg.Hybrid,
		ind:    cfg.Indirect,
	}
	e.hist.Bits = icacheHistBits
	e.bundle.Insts = make([]FetchedInst, 0, cfg.MaxWidth)
	return e
}

// Fetch implements Engine.
//
//tc:hotpath
func (e *ICacheEngine) Fetch(pc int) *Bundle {
	b := &e.bundle
	insts := b.Insts[:0]
	*b = Bundle{}
	b.Insts = insts
	pc = clampPC(pc, len(e.icf.prog.Code))
	// go build -gcflags=-m: the literal does not escape (stack allocated).
	//tcvet:ignore hotalloc predictor literal is stack-allocated per escape analysis
	e.icf.fetchBlock(b, pc, &e.frontState, func(brPC int, fi *FetchedInst) bool {
		taken, ctx := e.hybrid.Predict(brPC, e.hist.Reg)
		fi.UsedHybrid, fi.HCtx = true, ctx
		return taken
	}, e.ind)
	if e.obs.Enabled(obs.KindICacheFetch) {
		e.obs.Emit(obs.Event{
			Kind: obs.KindICacheFetch, PC: pc,
			V1: uint64(len(b.Insts)), V2: uint64(b.Latency),
		})
	}
	return b
}
