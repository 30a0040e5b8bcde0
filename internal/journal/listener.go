package journal

import (
	"time"

	"tracecache/internal/experiments"
)

// RunnerListener adapts a Writer into an experiments.Runner.OnRun
// listener: every resolved request (RunDone) appends exactly one record,
// carrying its event's provenance and result-store errors, so the journal
// counts a sweep exactly as tcbench -progress prints it. Queued and
// started events are not journaled. Append failures are reported to onErr
// (if non-nil) and do not disturb the run.
func RunnerListener(w *Writer, onErr func(error)) func(experiments.RunEvent) {
	return func(ev experiments.RunEvent) {
		if ev.Phase != experiments.RunDone {
			return
		}
		var rec Record
		if ev.Run != nil {
			rec = FromRun(ev.Run)
		}
		rec.Time = time.Now().UTC().Format(time.RFC3339)
		rec.Config = ev.Config
		rec.Benchmark = ev.Benchmark
		rec.Provenance = ev.Provenance
		if ev.Err != nil {
			rec.Error = ev.Err.Error()
		}
		if ev.StoreErr != nil {
			rec.StoreError = ev.StoreErr.Error()
		}
		rec.WallMillis = float64(ev.Wall) / float64(time.Millisecond)
		rec.QueueWaitMillis = float64(ev.QueueWait) / float64(time.Millisecond)
		if err := w.Append(rec); err != nil && onErr != nil {
			onErr(err)
		}
	}
}
