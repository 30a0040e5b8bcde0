// Command tcserve is the sweep service daemon: it accepts simulation
// sweeps over an HTTP/JSON API, executes them on a shared worker pool
// backed by the persistent content-addressed result store, and serves
// each job's status, results and live progress (JSON/SSE), plus /metrics
// and /debug/pprof/. tcsim -list names the configs and benchmarks a
// sweep may use; tcserve -version and the startup log line report the
// version and the store.
//
// Usage:
//
//	tcserve -http 127.0.0.1:8080 -store /var/lib/tracecache/store
//	tcserve -http :8080 -store store -journal runs.jsonl -j 4
//
// Submit a sweep:
//
//	curl -s -XPOST localhost:8080/api/jobs -d '{"configs":["baseline","best"],"benchmarks":["gcc","go"]}'
//
// See README.md ("Sweep service") for the full walkthrough.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"tracecache/internal/buildinfo"
	"tracecache/internal/server"
)

func main() {
	var (
		httpAddr = flag.String("http", "127.0.0.1:8080", "listen address")
		storeDir = flag.String("store", "", "persistent result store directory (required)")
		jPath    = flag.String("journal", "", "append one JSONL record per resolved run to this file")
		workers  = flag.Int("j", 0, "concurrent simulations per job (default GOMAXPROCS)")
		maxJobs  = flag.Int("max-jobs", 2, "sweep jobs simulating concurrently; later jobs queue")
		maxPts   = flag.Int("max-points", 1024, "largest accepted sweep, in points")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("tcserve"))
		return
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "tcserve: -store is required (the persistent result store directory)")
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "tcserve: ", log.LstdFlags)
	srv, err := server.New(server.Options{
		StoreDir:          *storeDir,
		JournalPath:       *jPath,
		Workers:           *workers,
		MaxConcurrentJobs: *maxJobs,
		MaxPointsPerJob:   *maxPts,
		Logf:              logger.Printf,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcserve: %v\n", err)
		os.Exit(1)
	}

	addr, err := srv.Start(*httpAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tcserve: %v\n", err)
		os.Exit(1)
	}
	logger.Printf("%s serving on http://%s (store %s)", buildinfo.String("tcserve"), addr, *storeDir)
	logger.Printf("POST /api/jobs to submit a sweep; GET /api/jobs, /metrics, /debug/pprof/")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	<-sigc
	logger.Printf("shutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "tcserve: %v\n", err)
		os.Exit(1)
	}
}
