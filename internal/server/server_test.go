package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testServer builds a server on dir with fast-test options, mounts it on
// an httptest server, and tears both down with the test.
func testServer(t *testing.T, dir string, mutate func(*Options)) (*Server, *httptest.Server) {
	t.Helper()
	opts := Options{
		StoreDir: dir,
		Workers:  2,
	}
	if mutate != nil {
		mutate(&opts)
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// smallSpec is a fast 4-point sweep (2 configurations × 2 benchmarks).
func smallSpec(benches ...string) string {
	if len(benches) == 0 {
		benches = []string{"compress", "gcc"}
	}
	return fmt.Sprintf(`{"configs":["baseline","packing"],"benchmarks":[%q,%q],"warmupInsts":500,"measureInsts":2000}`,
		benches[0], benches[1])
}

// submit posts a spec and decodes the job status it returns.
func submit(t *testing.T, ts *httptest.Server, spec string) (jobStatusJSON, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/api/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatusJSON
	if resp.StatusCode == http.StatusCreated || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode job status: %v", err)
		}
	}
	return st, resp.StatusCode
}

// await blocks until the job reaches a terminal state.
func await(t *testing.T, s *Server, id string) *Job {
	t.Helper()
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		t.Fatalf("no job %s", id)
	}
	select {
	case <-j.finished:
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", id)
	}
	return j
}

// fetch GETs a path and returns status and body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestSubmitRunsAndServesResults(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), nil)

	st, code := submit(t, ts, smallSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit status = %d, want 201", code)
	}
	if st.Points != 4 || st.ID == "" {
		t.Fatalf("job status = %+v", st)
	}
	j := await(t, s, st.ID)
	if got := j.stateNow(); got != JobDone {
		t.Fatalf("job state = %s, want done", got)
	}

	code, body := fetch(t, ts, "/api/jobs/"+st.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results status = %d: %s", code, body)
	}
	var res struct {
		Points []PointResult `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("results hold %d points, want 4", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Error != "" || p.Summary == nil {
			t.Errorf("point %s/%s = %+v", p.Config, p.Benchmark, p)
		}
		if p.Summary != nil && p.Summary.Meta != nil {
			t.Errorf("point %s/%s leaked provenance metadata", p.Config, p.Benchmark)
		}
	}
	// Results payloads never carry provenance.
	if bytes.Contains(body, []byte("provenance")) {
		t.Error("results payload mentions provenance")
	}

	// Provenance lives in job status instead.
	code, body = fetch(t, ts, "/api/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status fetch = %d", code)
	}
	var done jobStatusJSON
	if err := json.Unmarshal(body, &done); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range done.Prov {
		total += n
	}
	if total != 4 || !done.Progress.Complete {
		t.Errorf("terminal status = %+v", done)
	}

	// The store now holds every point.
	if n, _ := s.store.Len(); n != 4 {
		t.Errorf("store holds %d entries, want 4", n)
	}
}

// TestResultsByteIdenticalAcrossRestart is the acceptance shape: the same
// sweep against a fresh daemon sharing the store directory simulates
// nothing and returns byte-identical results.
func TestResultsByteIdenticalAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := testServer(t, dir, nil)
	st1, _ := submit(t, ts1, smallSpec())
	await(t, s1, st1.ID)
	code, body1 := fetch(t, ts1, "/api/jobs/"+st1.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("first results = %d", code)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := testServer(t, dir, nil) // restarted daemon, same store
	st2, _ := submit(t, ts2, smallSpec())
	await(t, s2, st2.ID)
	code, body2 := fetch(t, ts2, "/api/jobs/"+st2.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("second results = %d", code)
	}

	if !bytes.Equal(body1, body2) {
		t.Errorf("results differ across restart:\nfirst  %s\nsecond %s", body1, body2)
	}
	if got := s2.runnerMetrics.StoreServed.Value(); got != 4 {
		t.Errorf("restarted daemon store-served = %d, want 4", got)
	}
	if cold := s2.runnerMetrics.ColdStarts.Value(); cold != 0 {
		t.Errorf("restarted daemon simulated: cold=%d, want 0", cold)
	}
	j2 := await(t, s2, st2.ID)
	j2.mu.Lock()
	served := j2.prov["store"]
	j2.mu.Unlock()
	if served != 4 {
		t.Errorf("job provenance tally store = %d, want 4", served)
	}
}

// TestCoalescing holds the job gate so the first job stays live, then
// resubmits the identical spec: it must join the existing job, not
// create a new one.
func TestCoalescing(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), func(o *Options) { o.MaxConcurrentJobs = 1 })
	s.jobSem <- struct{}{} // occupy the only slot: jobs queue, stay live
	defer func() { <-s.jobSem }()

	st1, code := submit(t, ts, smallSpec())
	if code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	// Identical spec joins the live job — 200, same id.
	st2, code := submit(t, ts, smallSpec())
	if code != http.StatusOK {
		t.Fatalf("coalesced submit = %d, want 200", code)
	}
	if st2.ID != st1.ID {
		t.Errorf("coalesced into %s, want %s", st2.ID, st1.ID)
	}
	if st2.Coalesced != 1 {
		t.Errorf("coalesced count = %d, want 1", st2.Coalesced)
	}
	if got := s.met.JobsCoalesced.Value(); got != 1 {
		t.Errorf("jobs_coalesced_total = %d, want 1", got)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := testServer(t, t.TempDir(), nil)
	cases := []string{
		`{"configs":[]}`,
		`{"configs":["no-such-config"]}`,
		`{"configs":["baseline"],"benchmarks":["no-such-bench"]}`,
		`{"configs":["baseline"],"sample":"bogus"}`,
		`{"configs":["baseline"],"sample":"1000:4000:200","replay":true}`,
		`{"configs":["baseline"],"unknownField":1}`,
		`not json`,
	}
	for _, spec := range cases {
		if _, code := submit(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("spec %s accepted with %d, want 400", spec, code)
		}
	}
	if code, _ := fetch(t, ts, "/api/jobs/nope"); code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", code)
	}
}

func TestResultsConflictWhileRunning(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), func(o *Options) { o.MaxConcurrentJobs = 1 })
	s.jobSem <- struct{}{}
	st, _ := submit(t, ts, smallSpec())
	if code, _ := fetch(t, ts, "/api/jobs/"+st.ID+"/results"); code != http.StatusConflict {
		t.Errorf("running-job results = %d, want 409", code)
	}
	<-s.jobSem
	await(t, s, st.ID)
	if code, _ := fetch(t, ts, "/api/jobs/"+st.ID+"/results"); code != http.StatusOK {
		t.Errorf("finished-job results = %d, want 200", code)
	}
}

func TestSampledJob(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), nil)
	spec := `{"configs":["baseline"],"benchmarks":["compress"],"measureInsts":12000,"sample":"1000:4000:200"}`
	st, code := submit(t, ts, spec)
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	await(t, s, st.ID)
	code, body := fetch(t, ts, "/api/jobs/"+st.ID+"/results")
	if code != http.StatusOK {
		t.Fatalf("results = %d: %s", code, body)
	}
	var res struct {
		Points []PointResult `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Sampled == nil || res.Points[0].Summary != nil {
		t.Fatalf("sampled results = %+v", res.Points)
	}
	if res.Points[0].Sampled.Meta != nil {
		t.Error("sampled point leaked provenance metadata")
	}
}

func TestProgressEndpointAndSSE(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), nil)
	st, _ := submit(t, ts, smallSpec())
	await(t, s, st.ID)

	code, body := fetch(t, ts, "/api/jobs/"+st.ID+"/progress")
	if code != http.StatusOK {
		t.Fatalf("progress = %d", code)
	}
	var snap struct {
		Complete bool `json:"complete"`
		Done     int  `json:"done"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Complete || snap.Done != 4 {
		t.Errorf("progress snapshot = %+v", snap)
	}

	// SSE on a complete job: one event, then the stream ends.
	resp, err := http.Get(ts.URL + "/api/jobs/" + st.ID + "/progress?sse=1&interval=10")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/event-stream") {
		t.Fatalf("SSE content type = %q", ct)
	}
	sse, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(sse, []byte(`"complete": true`)) && !bytes.Contains(sse, []byte(`"complete":true`)) {
		t.Errorf("SSE stream never reported completion: %s", sse)
	}
}

func TestListEndpoints(t *testing.T) {
	s, ts := testServer(t, t.TempDir(), nil)
	st, _ := submit(t, ts, smallSpec())
	await(t, s, st.ID)
	code, body := fetch(t, ts, "/api/jobs")
	if code != http.StatusOK || !bytes.Contains(body, []byte(st.ID)) {
		t.Errorf("job list = %d: %s", code, body)
	}
	code, body = fetch(t, ts, "/metrics")
	if code != http.StatusOK || !bytes.Contains(body, []byte("tracecache_server_jobs_submitted_total")) {
		t.Errorf("metrics = %d", code)
	}
	if !bytes.Contains(body, []byte("tracecache_store_hits_total")) {
		t.Error("metrics exposition lacks store counters")
	}
	if code, _ := fetch(t, ts, "/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

// TestDefaultWorkersInProgress: with Workers left at 0 each job's runner
// runs GOMAXPROCS slots, so the job's progress must report that pool
// (its ETA divides by it), the same count /metrics reports.
func TestDefaultWorkersInProgress(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	s, ts := testServer(t, t.TempDir(), func(o *Options) { o.Workers = 0 })
	st, code := submit(t, ts, smallSpec())
	if code != http.StatusCreated {
		t.Fatalf("submit = %d", code)
	}
	if st.Progress.Workers != 3 {
		t.Errorf("job progress workers = %d, want 3 (GOMAXPROCS)", st.Progress.Workers)
	}
	await(t, s, st.ID)
	if _, body := fetch(t, ts, "/metrics"); !bytes.Contains(body, []byte("tracecache_runner_workers_limit 3\n")) {
		t.Error("metrics do not report a 3-slot worker pool")
	}
}

// TestCloseWaitsForJobs: Close returns only once every job is terminal.
// A running job finishes, so its store puts land before Close returns; a
// job still waiting for its slot fails without simulating; a submission
// after Close is refused. Nothing writes to the store afterwards.
func TestCloseWaitsForJobs(t *testing.T) {
	dir := t.TempDir()
	s, ts := testServer(t, dir, func(o *Options) { o.MaxConcurrentJobs = 1 })
	// One point long enough to still hold the only slot while the
	// second job is submitted.
	running, code := submit(t, ts, `{"configs":["baseline"],"benchmarks":["gcc"],"warmupInsts":500,"measureInsts":100000}`)
	if code != http.StatusCreated {
		t.Fatalf("first submit = %d", code)
	}
	s.mu.Lock()
	rj := s.jobs[running.ID]
	s.mu.Unlock()
	for rj.stateNow() == JobQueued {
		time.Sleep(time.Millisecond)
	}
	queued, code := submit(t, ts, smallSpec())
	if code != http.StatusCreated {
		t.Fatalf("second submit = %d", code)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for id, want := range map[string]string{running.ID: JobDone, queued.ID: JobFailed} {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		select {
		case <-j.finished:
		default:
			t.Fatalf("job %s still live after Close", id)
		}
		if got := j.stateNow(); got != want {
			t.Errorf("job %s state = %s, want %s", id, got, want)
		}
	}
	qj := await(t, s, queued.ID)
	for _, res := range qj.results {
		if res.Error != "server closed" {
			t.Errorf("queued point %s/%s error = %q, want \"server closed\"", res.Config, res.Benchmark, res.Error)
		}
	}
	if got := s.runnerMetrics.RunsStarted.Value(); got != 1 {
		t.Errorf("runs started = %d, want 1 (the queued job must not simulate)", got)
	}
	if _, code := submit(t, ts, smallSpec("go", "li")); code != http.StatusServiceUnavailable {
		t.Errorf("submit after Close = %d, want 503", code)
	}

	// The absence of a late write can only be observed over an interval.
	before := storeListing(t, dir)
	if len(before) == 0 {
		t.Fatal("store is empty: the running job's put did not land before Close returned")
	}
	time.Sleep(100 * time.Millisecond)
	if after := storeListing(t, dir); !reflect.DeepEqual(before, after) {
		t.Errorf("store changed after Close:\nbefore %v\nafter  %v", before, after)
	}
}

// storeListing lists every file under dir with its size.
func storeListing(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		out[path] = info.Size()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
