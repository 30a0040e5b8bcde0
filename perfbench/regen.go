package main

import "fmt"

// regenerate recomputes every workload's expected data at the default
// program seed — digests of every point and the fully detailed truth
// runs — and writes it into dir. Run it after a deliberate change to the
// simulated results or to the budgets.
func regenerate(dir string) error {
	lg := &ledger{}
	gate := newGate(nil)
	_, text, err := runSuite(nil, lg, gate)
	if err != nil {
		return fmt.Errorf("suite: %w", err)
	}
	if err := writeExpected(dir, wSuite, &expected{Params: suiteParams(), Text: digest(text), Points: gate.want}); err != nil {
		return err
	}

	f, err := newFrontend(defaultSeed)
	if err != nil {
		return err
	}
	if err := f.setup(nil); err != nil {
		return err
	}
	if err := f.computeTruth(); err != nil {
		return err
	}
	f.gate = newGate(nil)
	f.fidelity(lg)
	f.rep(nil, lg)
	if err := writeExpected(dir, wReplay, &expected{Params: replayParams(), Points: f.gate.want, Truth: f.truth}); err != nil {
		return err
	}

	s := &sampled{seed: defaultSeed}
	if err := s.setup(nil); err != nil {
		return err
	}
	if err := s.computeTruth(); err != nil {
		return err
	}
	s.gate = newGate(nil)
	s.fidelity(lg)
	s.rep(nil, lg)
	if err := writeExpected(dir, wSampled, &expected{Params: sampledParams(), Points: s.gate.want, Truth: s.truth}); err != nil {
		return err
	}
	if lg.failed > 0 {
		return fmt.Errorf("%d of %d operations failed while regenerating, first: %v", lg.failed, lg.attempted, lg.first)
	}
	fmt.Printf("wrote expected data for %s, %s and %s (%d operations)\n", wSuite, wReplay, wSampled, lg.attempted)
	return nil
}
