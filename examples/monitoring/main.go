// Monitoring: run a journaled parallel sweep while polling its own live
// monitoring endpoint, then rebuild the sweep summary from the journal
// alone. The runner reports only through its RunEvents, and the progress
// tracker and the journal both listen to them, so the final /progress
// snapshot and the journal report count the same sweep. Everything is
// self-terminating: the HTTP server binds an ephemeral port and the
// program exits when the sweep and its final poll complete.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tracecache"
)

func main() {
	dir, err := os.MkdirTemp("", "tracecache-monitoring")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	jPath := filepath.Join(dir, "runs.jsonl")

	// 1. A runner whose RunEvents feed a live progress tracker and a
	// persistent journal.
	workers := runtime.GOMAXPROCS(0)
	r := tracecache.NewRunner(50_000, 150_000)
	r.Workers = workers
	progress := tracecache.NewSweepProgress(workers)
	jw, err := tracecache.OpenJournal(jPath)
	if err != nil {
		log.Fatal(err)
	}
	r.OnRun = tracecache.RunListeners(
		tracecache.RunnerJournalListener(jw, func(err error) { log.Print(err) }),
		progress.Listener(),
	)

	// 2. The monitoring surface on an ephemeral port.
	srv := &tracecache.MonitorServer{Progress: progress}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("monitoring on http://%s\n\n", addr)

	// 3. Sweep two configurations over every benchmark in the background.
	done := make(chan error, 1)
	go func() {
		defer progress.Finish()
		for _, cfg := range []tracecache.Config{
			tracecache.BaselineConfig(), tracecache.BestConfig(),
		} {
			if _, err := r.SweepE(cfg); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	// 4. Poll /progress like an external dashboard would. The instruction
	// count and rate advance as points finish.
	for {
		var snap struct {
			Total, Done    int
			Complete       bool
			InstsCommitted uint64
			InstsPerSec    float64
		}
		resp, err := http.Get("http://" + addr + "/progress")
		if err != nil {
			log.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("progress: %d/%d points, %d insts committed, %.0f insts/s\n",
			snap.Done, snap.Total, snap.InstsCommitted, snap.InstsPerSec)
		if snap.Complete {
			break
		}
		time.Sleep(300 * time.Millisecond)
	}
	if err := <-done; err != nil {
		log.Fatal(err)
	}
	if err := jw.Close(); err != nil {
		log.Fatal(err)
	}

	// 5. The journal alone reproduces the sweep summary; its measured
	// insts equal the last poll's insts committed.
	recs, truncated, err := tracecache.ReadJournal(jPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", tracecache.JournalReport(recs, truncated))
}
