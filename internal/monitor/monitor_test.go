package monitor

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tracecache/internal/config"
	"tracecache/internal/experiments"
	"tracecache/internal/journal"
	"tracecache/internal/sim"
	"tracecache/internal/stats"
)

// feed delivers events to the tracker through its Listener, as a Runner
// does.
func feed(p *Progress, evs ...experiments.RunEvent) {
	l := p.Listener()
	for _, ev := range evs {
		l(ev)
	}
}

func queued(key string) experiments.RunEvent {
	return experiments.RunEvent{Phase: experiments.RunQueued, Key: key}
}

func started(key string) experiments.RunEvent {
	return experiments.RunEvent{Phase: experiments.RunStarted, Key: key}
}

// done is an executed point's RunDone: a cold run that measured retired
// instructions, or, with err set, a failure.
func done(key string, err error, wall time.Duration, retired uint64) experiments.RunEvent {
	ev := experiments.RunEvent{Phase: experiments.RunDone, Key: key, Err: err, Wall: wall}
	if err == nil {
		ev.Run = &stats.Run{Retired: retired}
		ev.Provenance = stats.ProvCold
	}
	return ev
}

// TestProgressLifecycle drives the tracker through a three-point sweep.
func TestProgressLifecycle(t *testing.T) {
	p := NewProgress(2)
	feed(p, queued("a/x"), queued("a/y"), started("a/x"))
	s := p.Snapshot()
	if s.Total != 2 || s.Running != 1 || s.Queued != 1 || s.Done != 0 {
		t.Errorf("mid-sweep snapshot = %+v", s)
	}
	if s.ETASeconds != -1 {
		t.Errorf("ETA before any completion = %v, want -1", s.ETASeconds)
	}
	if s.Points[0].Key != "a/x" || s.Points[0].Status != StatusRunning {
		t.Errorf("points not active-first: %+v", s.Points)
	}

	feed(p, done("a/x", nil, 100*time.Millisecond, 4_000), started("a/y"),
		done("a/y", errors.New("boom"), 50*time.Millisecond, 0))
	p.Finish()
	s = p.Snapshot()
	if s.Done != 1 || s.Failed != 1 || s.Running != 0 || !s.Complete {
		t.Errorf("final snapshot = %+v", s)
	}
	if s.ETASeconds != 0 {
		t.Errorf("ETA with nothing remaining = %v, want 0", s.ETASeconds)
	}
	for _, ps := range s.Points {
		if ps.Key == "a/y" && ps.Error == "" {
			t.Error("failed point lost its error")
		}
	}
}

// TestDefaultWorkersInProgress: a tracker built from an unset worker
// count (tcbench's default -j 0) reports the pool the runner actually
// runs, GOMAXPROCS, and sizes its ETA by it.
func TestDefaultWorkersInProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	for _, workers := range []int{0, -1} {
		p := NewProgress(workers)
		feed(p, queued("a/x"), queued("a/y"), queued("a/z"), done("a/x", nil, 300*time.Millisecond, 4_000))
		s := p.Snapshot()
		if s.Workers != 3 {
			t.Errorf("NewProgress(%d): workers = %d, want 3 (GOMAXPROCS)", workers, s.Workers)
		}
		// Two points remain at 0.3 s each over three workers.
		if math.Abs(s.ETASeconds-0.2) > 1e-9 {
			t.Errorf("NewProgress(%d): ETA = %v s, want 0.2", workers, s.ETASeconds)
		}
	}
}

// TestProgressListener checks the RunEvent adapter feeds the tracker,
// memo hits included, and counts the measured instructions of executed
// points only: a memoized or store-served result simulated nothing here.
func TestProgressListener(t *testing.T) {
	p := NewProgress(1)
	shared := &stats.Run{Retired: 4_000}
	stored := done("c/s", nil, time.Millisecond, 3_000)
	stored.Provenance = stats.ProvStore
	feed(p,
		queued("c/b"), started("c/b"), done("c/b", nil, time.Millisecond, 4_000),
		experiments.RunEvent{Phase: experiments.RunDone, Key: "c/b", Run: shared,
			Memoized: true, Provenance: stats.ProvMemoized},
		queued("c/s"), started("c/s"), stored)
	s := p.Snapshot()
	if s.Total != 2 || s.Done != 2 || s.MemoHits != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.InstsCommitted != 4_000 {
		t.Errorf("insts committed = %d, want 4000 (the executed point only)", s.InstsCommitted)
	}
	if s.InstsPerSec != 4_000/s.ElapsedSeconds {
		t.Errorf("insts/s = %v, want insts committed over %v s elapsed", s.InstsPerSec, s.ElapsedSeconds)
	}
}

// TestEndpoints exercises every route of a started server.
func TestEndpoints(t *testing.T) {
	p := NewProgress(1)
	feed(p, queued("a/x"))
	srv := &Server{Progress: p}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/progress"); code != 200 {
		t.Errorf("/progress: code=%d", code)
	} else {
		var s Snapshot
		if err := json.Unmarshal([]byte(body), &s); err != nil || s.Total != 1 {
			t.Errorf("/progress body = %q (err %v)", body, err)
		}
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/: code=%d", code)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Errorf("unknown path: code=%d, want 404", code)
	}
}

// TestProgressSSE checks the stream emits JSON events and terminates on
// completion.
func TestProgressSSE(t *testing.T) {
	p := NewProgress(1)
	feed(p, queued("a/x"))
	srv := httptest.NewServer((&Server{Progress: p}).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/progress?sse=1&interval=20")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	go func() {
		time.Sleep(50 * time.Millisecond)
		feed(p, done("a/x", nil, time.Millisecond, 4_000))
		p.Finish()
	}()

	var events []Snapshot
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &s); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		events = append(events, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("got %d events, want at least an initial and a final one", len(events))
	}
	if last := events[len(events)-1]; !last.Complete || last.Done != 1 {
		t.Errorf("final event = %+v, want complete with one done point", last)
	}
}

// sseHandlerGoroutines counts live goroutines currently inside the
// /progress SSE loop.
func sseHandlerGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*Server).progress(")
}

// TestCloseTerminatesSSE is the regression test for Server.Close leaving
// in-flight SSE handlers alive until their next ticker fire: with a 60s
// client interval and an incomplete sweep, Close must still unblock the
// stream promptly and the handler goroutine must exit — no leak.
func TestCloseTerminatesSSE(t *testing.T) {
	p := NewProgress(1)
	feed(p, queued("a/x")) // never completes, so only Close can end the stream
	srv := &Server{Progress: p}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + "/progress?sse=1&interval=60000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	// First event: the handler is now parked in its 60s select.
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first SSE event: %v", err)
	}
	if got := sseHandlerGoroutines(); got == 0 {
		t.Fatal("SSE handler goroutine not observable before Close")
	}

	streamClosed := make(chan struct{})
	go func() {
		defer close(streamClosed)
		_, _ = io.Copy(io.Discard, br)
	}()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	select {
	case <-streamClosed:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE stream still open 5s after Close; handler is waiting out its 60s ticker")
	}
	deadline := time.Now().Add(5 * time.Second)
	for sseHandlerGoroutines() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler goroutine leaked after Close")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestAcceptHeaderSSE checks content negotiation picks the stream.
func TestAcceptHeaderSSE(t *testing.T) {
	p := NewProgress(1)
	p.Finish()
	srv := httptest.NewServer((&Server{Progress: p}).Handler())
	defer srv.Close()
	req, _ := http.NewRequest("GET", srv.URL+"/progress", nil)
	req.Header.Set("Accept", "text/event-stream; q=0.9, application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
}

// TestLiveSweepMonitoring monitors a real concurrent sweep end to end:
// while the sweep runs, /progress must respond; afterwards the snapshot
// must account for every point, and the instruction count and rate must
// have moved.
func TestLiveSweepMonitoring(t *testing.T) {
	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 4
	prog := NewProgress(4)
	r.OnRun = prog.Listener()

	srv := &Server{Progress: prog}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan error, 1)
	go func() {
		_, err := r.SweepE(config.Baseline())
		prog.Finish()
		done <- err
	}()

	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		var s Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if s.Complete {
			if s.Done != s.Total || s.Failed != 0 {
				t.Errorf("final snapshot = %+v", s)
			}
			if s.Done == 0 {
				t.Error("sweep completed with zero points")
			}
			if s.InstsCommitted < uint64(s.Done)*r.Budget || s.InstsPerSec <= 0 {
				t.Errorf("final snapshot counts %d insts at %v insts/s over %d points of %d",
					s.InstsCommitted, s.InstsPerSec, s.Done, r.Budget)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatal("sweep did not complete in time")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// measuredInsts parses the "measured insts" figure of a journal report.
var measuredInsts = regexp.MustCompile(`(?m)^simulated: (\d+) measured insts`)

// TestProgressMatchesJournal: /progress and the journal listen to the
// same RunEvents, so after a sweep they count it identically. The sweep
// runs on four workers with every request made twice and one request
// failing. The final /progress snapshot's done, failed and memo-hit
// counts equal the journal's record counts, and its instructions
// committed equal the measured insts journal.Report prints.
func TestProgressMatchesJournal(t *testing.T) {
	r := experiments.NewRunner(1_000, 3_000)
	r.Workers = 4
	prog := NewProgress(4)
	var buf bytes.Buffer
	jw := journal.NewWriter(&buf)
	r.OnRun = experiments.MultiListener(
		journal.RunnerListener(jw, func(err error) { t.Errorf("journal: %v", err) }),
		prog.Listener())

	bad := config.Baseline()
	bad.Name = "bad-engine"
	bad.Engine.FUs = 0
	type request struct {
		cfg   sim.Config
		bench string
	}
	reqs := []request{{bad, "gcc"}}
	for range 2 {
		for _, b := range r.Benchmarks()[:5] {
			reqs = append(reqs, request{config.Baseline(), b}, request{config.Best(), b})
		}
	}
	var wg sync.WaitGroup
	for _, q := range reqs {
		wg.Add(1)
		go func(q request) {
			defer wg.Done()
			_, err := r.RunE(q.cfg, q.bench)
			if (err != nil) != (q.cfg.Name == bad.Name) {
				t.Errorf("RunE(%s, %s): %v", q.cfg.Name, q.bench, err)
			}
		}(q)
	}
	wg.Wait()
	prog.Finish()

	srv := httptest.NewServer((&Server{Progress: prog}).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	recs, truncated, err := journal.Read(&buf)
	if err != nil || truncated {
		t.Fatalf("read back: err=%v truncated=%v", err, truncated)
	}
	var ok, failed, memo int
	for _, rec := range recs {
		switch {
		case rec.Error != "":
			failed++
		case rec.Provenance == stats.ProvMemoized:
			memo++
		default:
			ok++
		}
	}
	if ok != 10 || failed != 1 || memo != 10 {
		t.Errorf("journal holds %d executed, %d failed and %d memoized records, want 10, 1 and 10", ok, failed, memo)
	}
	if snap.Done != ok || snap.Failed != failed || snap.MemoHits != memo {
		t.Errorf("/progress counts done=%d failed=%d memoHits=%d, journal %d, %d and %d",
			snap.Done, snap.Failed, snap.MemoHits, ok, failed, memo)
	}
	rep := journal.Report(recs, false)
	m := measuredInsts.FindStringSubmatch(rep)
	if m == nil {
		t.Fatalf("report has no measured insts line:\n%s", rep)
	}
	insts, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if insts == 0 || snap.InstsCommitted != insts {
		t.Errorf("/progress instsCommitted = %d, journal report measured insts = %d", snap.InstsCommitted, insts)
	}
}

// TestMonitoringPreservesOutput pins the stdout-purity requirement at the
// library layer: a monitored parallel RunAll renders byte-identical
// experiment output to a bare sequential one.
func TestMonitoringPreservesOutput(t *testing.T) {
	exps := make([]experiments.Experiment, 0, 2)
	for _, id := range []string{"fig4", "table2"} {
		e, ok := experiments.ByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		exps = append(exps, e)
	}
	render := func(monitored bool, workers int) string {
		r := experiments.NewRunner(1_000, 3_000)
		r.Workers = workers
		var srv *Server
		if monitored {
			prog := NewProgress(workers)
			r.OnRun = prog.Listener()
			srv = &Server{Progress: prog}
			if _, err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
		}
		var sb strings.Builder
		err := experiments.RunAll(r, exps, func(e experiments.Experiment, out string) {
			fmt.Fprintf(&sb, "== %s ==\n%s\n", e.ID, out)
		})
		if err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if bare, monitored := render(false, 1), render(true, 4); bare != monitored {
		t.Error("monitoring changed experiment output")
	}
}
