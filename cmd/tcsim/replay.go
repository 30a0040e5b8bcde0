package main

import (
	"errors"
	"fmt"
	"strings"

	"tracecache"
	"tracecache/internal/check"
	"tracecache/internal/sim"
)

// recordAndReplay records the program's committed stream functionally
// (sim.RecordStream, the recording tcbench -replay serves its sweeps
// from) and replays it under cfg through the front end only. It returns
// the replayed statistics, the replayer (for its trace cache and fill
// unit) and the number of recorded instructions.
func recordAndReplay(cfg tracecache.Config, prog *tracecache.Program) (*tracecache.Run, *sim.Replayer, int, error) {
	h, recs, err := sim.RecordStream(cfg, prog)
	if err != nil {
		return nil, nil, 0, err
	}
	rp, err := sim.NewReplayer(cfg, prog)
	if err != nil {
		return nil, nil, 0, err
	}
	run, err := rp.ReplayRecords(h, recs)
	if err != nil {
		return nil, nil, 0, err
	}
	return run, rp, len(recs), nil
}

// runReplay replays the committed stream through the front end only.
// Its outcome reports the front-end statistics (cycle-domain metrics are
// undefined and rendered as zero; see DESIGN.md §9).
func runReplay(cfg tracecache.Config, prog *tracecache.Program) (*outcome, error) {
	run, rp, n, err := recordAndReplay(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &outcome{run: run, report: func() {
		fmt.Printf("replay of %d recorded instructions\n\n", n)
		reportParts(run, rp.TraceCache(), rp.FillUnit())
	}}, nil
}

// runReplayVerify runs the configuration detailed, replays it exactly as
// -replay does, prints both runs' headline statistics, and verifies the
// replayed ones against the detailed ones under the committed fidelity
// envelope (check.CompareReplay). It returns an error listing any
// violation; this is the CI smoke for the record/replay backend. Budgets
// below the envelope's calibrated domain (check.InReplayDomain) are
// compared and printed too, but the run is reported as out of domain,
// an error, whatever the comparison shows.
func runReplayVerify(cfg tracecache.Config, prog *tracecache.Program) error {
	s, err := tracecache.NewSimulator(cfg, prog)
	if err != nil {
		return err
	}
	det := s.Run()
	rep, rp, n, err := recordAndReplay(cfg, prog)
	if err != nil {
		return err
	}

	dStats := check.ReplayStats{Run: det}
	rStats := check.ReplayStats{Run: rep}
	if tc := s.TraceCache(); tc != nil {
		st := tc.Stats()
		dStats.TCLookups, dStats.TCHits = st.Lookups, st.Hits
	}
	if tc := rp.TraceCache(); tc != nil {
		st := tc.Stats()
		rStats.TCLookups, rStats.TCHits = st.Lookups, st.Hits
	}
	fmt.Printf("replay-verify %s/%s: %d recorded instructions\n", det.Config, det.Benchmark, n)
	fmt.Printf("  retired        detailed=%d replayed=%d\n", det.Retired, rep.Retired)
	fmt.Printf("  eff fetch rate detailed=%.4f replayed=%.4f\n", det.EffFetchRate(), rep.EffFetchRate())
	fmt.Printf("  mispredict     detailed=%.2f%% replayed=%.2f%%\n",
		100*det.CondMispredictRate(), 100*rep.CondMispredictRate())
	vs := check.CompareReplay(dStats, rStats, check.DefaultReplayTolerance())
	var b strings.Builder
	if check.InReplayDomain(cfg.WarmupInsts, cfg.MaxInsts) {
		if len(vs) == 0 {
			fmt.Println("replay-verify passed: replayed statistics within the documented envelope")
			return nil
		}
		fmt.Fprintf(&b, "replay-verify FAILED (%d violations)", len(vs))
	} else {
		fmt.Fprintf(&b, "replay-verify outside the calibrated domain: %d warm-up + %d measured instructions, "+
			"below the %d + %d the envelope was calibrated at (DESIGN.md §9); not judged (%d envelope violations)",
			cfg.WarmupInsts, cfg.MaxInsts, check.ReplayDomainWarmupInsts, check.ReplayDomainMeasureInsts, len(vs))
	}
	for _, v := range vs {
		fmt.Fprintf(&b, "\n  %s", v)
	}
	return errors.New(b.String())
}
