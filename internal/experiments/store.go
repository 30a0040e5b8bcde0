package experiments

import (
	"tracecache/internal/resultstore"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// storeKey addresses one point in the persistent store: the full
// configuration hash (cfg must carry its final budgets — WarmupInsts,
// MaxInsts, FastForwardInsts, Sampling — when called, matching what
// stats.Meta.ConfigHash records), the benchmark, and the fidelity mode.
func storeKey(cfg sim.Config, bench, mode string) resultstore.Key {
	return resultstore.Key{ConfigHash: cfg.Hash(), Benchmark: bench, Mode: mode}
}

// storeMode is the one store mode a request reads and writes (DESIGN.md
// §11): sampled for a sampled request, replay for a request that replays
// (Runner.replays), detailed otherwise — the fidelity class of the result
// the request itself would compute.
func storeMode(mode runMode, replay bool) string {
	switch {
	case mode == modeSampled:
		return resultstore.ModeSampled
	case replay:
		return resultstore.ModeReplay
	}
	return resultstore.ModeDetailed
}

// storeGet looks the point up under the mode and returns the entry, or
// nil on miss. Store corruption is logged and treated as a miss — the
// point re-simulates.
func (r *Runner) storeGet(cfg sim.Config, bench, mode string) *resultstore.Entry {
	e, err := r.Store.Get(storeKey(cfg, bench, mode))
	if err != nil {
		r.logf("result store: %v\n", err)
		return nil
	}
	if e == nil || e.Run == nil || (mode == resultstore.ModeSampled && e.Sampled == nil) {
		return nil
	}
	return e
}

// provenances maps every provenance a computed result can carry to the
// store mode it is persisted under. Store-served results are never
// persisted again.
var provenances = map[string]string{
	stats.ProvCold:    resultstore.ModeDetailed,
	stats.ProvReplay:  resultstore.ModeReplay,
	stats.ProvSampled: resultstore.ModeSampled,
}

// storePut persists one computed result. It is a no-op without a store,
// for failed or store-served results, and for checked runs (their
// purpose is to distrust cached numbers, so they neither read nor seed
// the store). Persistence errors are logged, never fatal: the store is a
// cache, and losing a put only costs a future re-simulation.
func (r *Runner) storePut(cfg sim.Config, bench string, res result) {
	if r.Store == nil || r.Check || res.run == nil || res.provenance == stats.ProvStore {
		return
	}
	e := &resultstore.Entry{
		Key:     storeKey(cfg, bench, provenances[res.provenance]),
		Config:  cfg.Name,
		Run:     res.run,
		Sampled: res.sampled,
	}
	if err := r.Store.Put(e); err != nil {
		r.logf("result store: %v\n", err)
	}
}
