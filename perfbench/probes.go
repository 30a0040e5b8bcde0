package main

import (
	"bytes"
	"fmt"
	"io"

	"tracecache"
	"tracecache/internal/bpred"
	"tracecache/internal/cache"
	"tracecache/internal/config"
	"tracecache/internal/core"
	"tracecache/internal/exec"
	"tracecache/internal/isa"
	"tracecache/internal/program"
	"tracecache/internal/sim"
	"tracecache/internal/trace"
)

// The layer probes drive each layer alone, through its public calls, over
// the same recorded retired streams on every workload: one of a small
// loopy program and one of a large branchy one. Each reports host time
// per call beside the work and outcomes it produced on those streams.

const probeInsts = 200_000

// probeBenches are the probe streams' programs (name, code scale).
var probeBenches = []sampledBench{{"compress", 1}, {"gcc", sampledScale}}

// probeResult is one probe's totals over all probe streams.
type probeResult struct {
	calls        uint64
	ns           int64
	hits, misses uint64
	note         string
}

func (p probeResult) nsPerCall() float64 {
	if p.calls == 0 {
		return 0
	}
	return float64(p.ns) / float64(p.calls)
}

// probeSet holds every probe's result; ordered names keep printing
// stable.
type probeSet struct {
	names   []string
	results map[string]*probeResult
	// Extra per-stream facts the metrics need.
	encodedBytes, streamInsts uint64
	detailedCycles, l1iMisses uint64
	samplingOverheadPct       float64
}

func (ps *probeSet) get(name string) *probeResult {
	if r, ok := ps.results[name]; ok {
		return r
	}
	ps.names = append(ps.names, name)
	r := &probeResult{}
	ps.results[name] = r
	return r
}

// timeit runs fn inside a span and returns the host CPU time it took.
func timeit(tr *tracer, name string, fn func()) int64 {
	t := cpuNow()
	tr.do(name, false, fn)
	return int64(cpuNow() - t)
}

// runProbes records the probe streams and drives every layer over them.
func runProbes(tr *tracer) (*probeSet, error) {
	ps := &probeSet{results: map[string]*probeResult{}}
	for _, b := range probeBenches {
		prog, err := generate(tr, b.name, b.scale, defaultSeed)
		if err != nil {
			return nil, err
		}
		if err := probeStream(tr, ps, prog); err != nil {
			return nil, fmt.Errorf("probe %s: %w", b.name, err)
		}
	}
	return ps, nil
}

func probeStream(tr *tracer, ps *probeSet, prog *program.Program) error {
	base := config.Baseline()
	base.MaxInsts = probeInsts

	// sim: a plain detailed run. The stream the later probes read is
	// recorded by a second, untimed run with the commit tap attached, so
	// trace encoding stays out of the detailed rate.
	var (
		run *tracecache.Run
		err error
	)
	detailedNs := timeit(tr, "probe.sim.detailed", func() {
		var s *tracecache.Simulator
		if s, err = tracecache.NewSimulator(base, prog); err == nil {
			run = s.Run()
		}
	})
	if err != nil {
		return err
	}
	r := ps.get("sim.detailed")
	r.calls += run.Retired
	r.ns += detailedNs
	r.hits, r.misses = r.hits+run.CondBranches-run.CondMispredicts, r.misses+run.CondMispredicts
	r.note = "per committed inst; hits/misses = cond branch predictions"
	ps.detailedCycles += run.Cycles
	data, _, err := record(base, prog)
	if err != nil {
		return err
	}

	// trace: decode once for the other probes, then time the codec.
	hdr, recs, err := trace.ReadAll(data)
	if err != nil {
		return err
	}
	ps.streamInsts += uint64(len(recs))
	r = ps.get("trace.decode")
	r.ns += bestOf(3, func() int64 {
		return timeit(tr, "probe.trace.decode", func() { _, _, err = trace.ReadAll(data) })
	})
	r.calls += uint64(len(recs))
	r.note = "per record"
	var enc bytes.Buffer
	r = ps.get("trace.encode")
	r.ns += bestOf(3, func() int64 {
		enc.Reset()
		return timeit(tr, "probe.trace.encode", func() {
			w, werr := trace.NewWriter(&enc, hdr)
			if werr != nil {
				err = werr
				return
			}
			for _, rc := range recs {
				w.Append(rc)
			}
			err = w.Close()
		})
	})
	if err != nil {
		return err
	}
	r.calls += uint64(len(recs))
	r.note = "per record"
	ps.encodedBytes += uint64(enc.Len())

	// core: fill unit (promotion + cost-regulated packing) building
	// segments into a trace cache, then trace cache lookups at every
	// fetch-block start of the stream.
	best := config.Best()
	tc, err := core.NewTraceCache(best.TC)
	if err != nil {
		return err
	}
	fill := core.NewFillUnit(best.Fill, tc)
	r = ps.get("core.fill")
	r.ns += timeit(tr, "probe.core.fill", func() {
		for _, rc := range recs {
			fill.Retire(rc.PC, prog.Code[rc.PC], rc.Taken)
		}
	})
	r.calls += uint64(len(recs))
	r.hits += fill.Stats().Segments
	r.note = "per retired inst; hits = segments built"
	var lookups, hits uint64
	r = ps.get("core.tc_lookup")
	r.ns += timeit(tr, "probe.core.tc_lookup", func() {
		blockStart := true
		for _, rc := range recs {
			if blockStart {
				lookups++
				if tc.Lookup(rc.PC) != nil {
					hits++
				}
			}
			blockStart = prog.Code[rc.PC].IsControl()
		}
	})
	r.calls += lookups
	r.hits += hits
	r.misses += lookups - hits
	r.note = "per lookup at each fetch-block start"

	// bpred: the hybrid predictor and the tree multiple-branch predictor
	// each predict and train on every conditional branch.
	hyb := bpred.NewHybrid()
	tree := bpred.NewTreeMBP(base.TreeEntries)
	var hist uint64
	var preds, correct uint64
	r = ps.get("bpred")
	r.ns += timeit(tr, "probe.bpred", func() {
		start, newBlock := prog.Entry, true
		for _, rc := range recs {
			if newBlock {
				start, newBlock = rc.PC, false
			}
			in := prog.Code[rc.PC]
			if in.IsCondBranch() {
				p, hctx := hyb.Predict(rc.PC, hist)
				hyb.Update(hctx, rc.Taken)
				q, tctx := tree.Predict(start, rc.PC, hist, 0, 0)
				tree.Update(tctx, rc.Taken)
				preds += 2
				if p == rc.Taken {
					correct++
				}
				if q == rc.Taken {
					correct++
				}
				hist = hist<<1 | b2u(rc.Taken)
			}
			newBlock = in.IsControl()
		}
	})
	r.calls += preds
	r.hits += correct
	r.misses += preds - correct
	r.note = "per prediction+update; hits/misses = correct/incorrect"

	// cache: the hierarchy sees one instruction fetch per line entered and
	// one data access per store.
	hier, err := newHierarchy(base)
	if err != nil {
		return err
	}
	var accesses uint64
	r = ps.get("cache")
	r.ns += timeit(tr, "probe.cache", func() {
		line := ^uint64(0)
		lb := uint64(base.LineBytes)
		for _, rc := range recs {
			if a := isa.Addr(rc.PC); a/lb != line {
				line = a / lb
				hier.FetchInst(a)
				accesses++
			}
			if rc.HasMem {
				hier.AccessData(rc.MemAddr)
				accesses++
			}
		}
	})
	l1i, l1d := hier.L1I.Stats(), hier.L1D.Stats()
	r.calls += accesses
	r.hits += l1i.Accesses - l1i.Misses + l1d.Accesses - l1d.Misses
	r.misses += l1i.Misses + l1d.Misses
	r.note = "per access; hits/misses = L1I+L1D"
	ps.l1iMisses += l1i.Misses

	// exec: the architectural interpreter alone.
	r = ps.get("exec")
	var steps uint64
	r.ns += timeit(tr, "probe.exec", func() { steps, _ = exec.NewState(prog).Run(uint64(len(recs))) })
	r.calls += steps
	r.note = "per executed inst"

	// sim: construction, functional fast-forward and front-end replay.
	r = ps.get("sim.new")
	r.ns += bestOf(5, func() int64 {
		return timeit(tr, "probe.sim.new", func() { _, err = tracecache.NewSimulator(base, prog) })
	})
	if err != nil {
		return err
	}
	r.calls++
	r.note = "per simulator (best of 5)"
	ff := base
	ff.MaxInsts = 4 * probeInsts
	s, err := tracecache.NewSimulator(ff, prog)
	if err != nil {
		return err
	}
	var skipped uint64
	r = ps.get("sim.ffwd")
	ffwdNs := timeit(tr, "probe.sim.ffwd", func() { skipped, err = s.SkipFunctional(uint64(len(recs))) })
	r.ns += ffwdNs
	if err != nil {
		return err
	}
	r.calls += skipped
	r.note = "per fast-forwarded inst"
	r = ps.get("sim.replay")
	r.ns += timeit(tr, "probe.sim.replay", func() {
		var rp *tracecache.Replayer
		if rp, err = tracecache.NewReplayer(base, prog); err == nil {
			_, err = rp.ReplayRecords(hdr, recs)
		}
	})
	if err != nil {
		return err
	}
	r.calls += uint64(len(recs))
	r.note = "per replayed inst"

	// sampling: one sampled run with the sampled workload's schedule; the
	// time its gaps and windows do not explain at the rates measured
	// above is the sampling driver's own overhead (transitions, drains,
	// aggregation).
	sc := sampledConfig(config.Baseline(), defaultSeed)
	var res *tracecache.SampledRun
	ns := timeit(tr, "probe.sampling", func() { res, err = tracecache.SimulateSampled(sc, prog) })
	if err != nil {
		return err
	}
	r = ps.get("sampling")
	r.calls += uint64(len(res.Windows))
	r.ns += ns
	detailed := res.MeasuredInsts + uint64(len(res.Windows))*res.WarmupInsts
	gap := res.TotalInsts - detailed
	explained := float64(gap)*float64(ffwdNs)/float64(skipped) +
		float64(detailed)*float64(detailedNs)/float64(run.Retired)
	ps.samplingOverheadPct += 100 * (float64(ns) - explained) / float64(ns) / float64(len(probeBenches))
	r.note = "per window"
	return nil
}

// newHierarchy builds the configuration's cache hierarchy.
func newHierarchy(c sim.Config) (*cache.Hierarchy, error) {
	mk := func(name string, size, assoc int) (*cache.Cache, error) {
		return cache.New(cache.Config{Name: name, SizeBytes: size, LineBytes: c.LineBytes, Assoc: assoc})
	}
	l1i, err := mk("l1i", c.ICacheBytes, 4)
	if err != nil {
		return nil, err
	}
	l1d, err := mk("l1d", c.L1DBytes, 4)
	if err != nil {
		return nil, err
	}
	l2, err := mk("l2", c.L2Bytes, 8)
	if err != nil {
		return nil, err
	}
	return &cache.Hierarchy{L1I: l1i, L1D: l1d, L2: l2}, nil
}

// bestOf runs fn n times and returns its smallest time.
func bestOf(n int, fn func() int64) int64 {
	best := int64(-1)
	for i := 0; i < n; i++ {
		if t := fn(); best < 0 || t < best {
			best = t
		}
	}
	return best
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// printProbes writes the probe table.
func printProbes(w io.Writer, ps *probeSet) {
	fmt.Fprintf(w, "layer probes (streams: %d insts of compress and gcc x%d):\n", ps.streamInsts, sampledScale)
	fmt.Fprintf(w, "  %-16s %12s %12s %12s %12s  %s\n", "probe", "calls", "ns/call", "hits", "misses", "base")
	for _, n := range ps.names {
		r := ps.results[n]
		fmt.Fprintf(w, "  %-16s %12d %12.1f %12d %12d  %s\n", n, r.calls, r.nsPerCall(), r.hits, r.misses, r.note)
	}
}
