package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Server is the monitoring HTTP surface of tcbench -http: live sweep
// progress (JSON and SSE) on /progress, and the /debug/pprof/ profiles.
type Server struct {
	// Progress feeds /progress. Nil serves a zero snapshot.
	Progress *Progress

	httpSrv *http.Server

	// done signals in-flight /progress streams to return promptly on
	// Close, instead of lingering until their next ticker fire. Lazily
	// created so a Server used via Handler alone (httptest) still shuts
	// its streams down.
	mu        sync.Mutex
	done      chan struct{}
	closeOnce sync.Once
}

// shutdownChan returns the server's close-signal channel, creating it on
// first use.
func (s *Server) shutdownChan() chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.done == nil {
		s.done = make(chan struct{})
	}
	return s.done
}

// Handler builds the monitoring mux: /progress and the /debug/pprof/
// profiles.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /progress", s.progress)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Start serves the monitoring mux on addr (e.g. "127.0.0.1:0") in the
// background and returns the bound address. Close the server to stop it.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("monitor: %w", err)
	}
	srv := &http.Server{Handler: s.Handler()}
	go func() {
		// ErrServerClosed (and listener-closed errors) are the normal
		// shutdown path; the server has no other way to fail that the
		// caller could act on.
		_ = srv.Serve(ln)
	}()
	s.httpSrv = srv
	return ln.Addr().String(), nil
}

// Close stops a started server. The shutdown signal fires before the
// listener closes, so in-flight SSE handlers return promptly (they
// select on it alongside their tick) rather than lingering until the
// next ticker fire. Idempotent.
func (s *Server) Close() error {
	ch := s.shutdownChan()
	s.closeOnce.Do(func() { close(ch) })
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// snapshot returns the current progress, or a zero snapshot without a
// tracker.
func (s *Server) snapshot() Snapshot {
	if s.Progress == nil {
		return Snapshot{ETASeconds: -1, Points: []PointState{}}
	}
	return s.Progress.Snapshot()
}

// wantSSE selects the streaming variant via Accept: text/event-stream or
// ?sse=1.
func wantSSE(r *http.Request) bool {
	if r.URL.Query().Get("sse") == "1" {
		return true
	}
	for _, accept := range r.Header.Values("Accept") {
		for _, part := range strings.Split(accept, ",") {
			part = strings.TrimSpace(part)
			if media, _, ok := strings.Cut(part, ";"); ok {
				part = strings.TrimSpace(media)
			}
			if part == "text/event-stream" {
				return true
			}
		}
	}
	return false
}

// progress serves the progress snapshot as JSON, or — when the request
// asks for text/event-stream or ?sse=1 — as a Server-Sent Events stream
// of snapshots every ?interval milliseconds (default 1000, minimum 10)
// until a snapshot reports Complete, the client disconnects, or Close
// runs. The event reporting Complete is the last.
func (s *Server) progress(w http.ResponseWriter, r *http.Request) {
	if !wantSSE(r) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(s.snapshot())
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	interval := 1000
	if v := r.URL.Query().Get("interval"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			interval = n
		}
	}
	if interval < 10 {
		interval = 10
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	shutdown := s.shutdownChan()
	ticker := time.NewTicker(time.Duration(interval) * time.Millisecond)
	defer ticker.Stop()
	for {
		snap := s.snapshot()
		data, err := json.Marshal(snap)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "data: %s\n\n", data); err != nil {
			return
		}
		flusher.Flush()
		if snap.Complete {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-shutdown:
			return
		case <-ticker.C:
		}
	}
}
