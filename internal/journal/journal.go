// Package journal persists one JSONL record per simulation request, so a
// sweep's full history — which points ran, how they were produced
// (simulated, replayed, sampled, store-served, or shared from the memo),
// what they measured, and how long they took — survives the process and
// can be summarized or diffed later without re-simulating anything.
//
// The format is append-only JSON Lines: one compact JSON object per line.
// Each record — JSON plus its trailing newline — is marshaled into one
// buffer and issued as a single Write, under a mutex against goroutines
// of the same Writer and on an O_APPEND descriptor against other
// processes (POSIX makes each O_APPEND write one atomic append), so any
// number of appenders sharing a journal file — a tcserve daemon and a
// CLI run, say — interleave at whole-record granularity, never inside a
// line. A process killed mid-write leaves at most one truncated final
// line, which readers skip (with a warning flag) rather than rejecting
// the whole journal; corruption anywhere else is an error.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"tracecache/internal/stats"
)

// Record is one journal line: a run request and its outcome.
type Record struct {
	// Time is the record's wall-clock timestamp in RFC 3339 UTC.
	Time string `json:"time,omitempty"`
	// Config and Benchmark identify the sweep point.
	Config    string `json:"config"`
	Benchmark string `json:"benchmark"`
	// Provenance is the request-level result provenance: stats.ProvCold,
	// stats.ProvReplay, stats.ProvSampled, stats.ProvMemoized for requests
	// that shared another request's result, or stats.ProvStore for
	// requests served from the persistent result store. Empty on failed
	// requests. Journals written before fast-forward ran in every point's
	// own simulator may also hold "checkpoint-fork"; they still read.
	Provenance string `json:"provenance,omitempty"`
	// Error is the failure message of an unsuccessful request; the
	// headline statistics are zero when it is set.
	Error string `json:"error,omitempty"`

	// Headline statistics of the measured window.
	Cycles            uint64  `json:"cycles,omitempty"`
	Retired           uint64  `json:"retired,omitempty"`
	IPC               float64 `json:"ipc,omitempty"`
	EffFetchRate      float64 `json:"effFetchRate,omitempty"`
	CondMispredictPct float64 `json:"condMispredictPct,omitempty"`

	// WallMillis is the time this request held a worker slot (zero for
	// memoized requests, which simulated nothing); QueueWaitMillis is the
	// time it waited for the slot.
	WallMillis      float64 `json:"wallMillis,omitempty"`
	QueueWaitMillis float64 `json:"queueWaitMillis,omitempty"`

	// Meta is the simulator's full provenance block for the underlying
	// run (shared verbatim by memoized records; nil on failures).
	Meta *stats.Meta `json:"meta,omitempty"`
}

// FromRun builds the statistics portion of a record from a completed run.
func FromRun(run *stats.Run) Record {
	return Record{
		Config:            run.Config,
		Benchmark:         run.Benchmark,
		Cycles:            run.Cycles,
		Retired:           run.Retired,
		IPC:               run.IPC(),
		EffFetchRate:      run.EffFetchRate(),
		CondMispredictPct: run.CondMispredictRate() * 100,
		Meta:              run.Meta,
	}
}

// Writer appends records to an underlying stream, one JSON line each.
// It is safe for concurrent use. A nil *Writer is a valid, permanently-
// disabled journal: Append discards and Close is a no-op, so listeners
// can hold an optional writer without guarding every call.
//
//tc:nilsafe
type Writer struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer
}

// NewWriter wraps an open stream. The caller keeps ownership of it.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// OpenFile opens (creating if needed) a journal file for appending. The
// descriptor is opened O_APPEND, which is what makes the file safe to
// share between processes: each record's single Write is one atomic
// append at the kernel-maintained end of file, wherever other writers
// have moved it. Close the writer to release it.
func OpenFile(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Writer{w: f, c: f}, nil
}

// Append writes one record as a single JSON line: record and newline are
// marshaled into one buffer (outside the lock) and issued as exactly one
// Write, so concurrent appenders — goroutines of this Writer, and other
// processes appending to the same O_APPEND file — interleave only at
// record granularity, never inside a line. Append on a closed writer
// discards, like a disabled one.
func (w *Writer) Append(rec Record) error {
	if w == nil {
		return nil // disabled journal: discard
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	line = append(line, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w == nil {
		return nil // closed: discard
	}
	if _, err := w.w.Write(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	return nil
}

// Close closes the underlying file, if the writer owns one, under the
// same lock as Append — an in-flight append completes its record before
// the descriptor closes, and appends after Close discard instead of
// hitting a closed fd. Idempotent; a no-op on a nil (disabled) writer.
func (w *Writer) Close() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.w = nil
	if w.c == nil {
		return nil
	}
	c := w.c
	w.c = nil
	return c.Close()
}

// Read parses a journal stream. A final line missing its newline (the
// signature of a process killed mid-append) is skipped and reported via
// truncatedTail; malformed JSON anywhere else is an error.
func Read(r io.Reader) (recs []Record, truncatedTail bool, err error) {
	br := bufio.NewReader(r)
	for lineNo := 1; ; lineNo++ {
		line, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, false, fmt.Errorf("journal: %w", err)
		}
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		line = bytes.TrimSuffix(line, []byte("\n"))
		if len(bytes.TrimSpace(line)) > 0 {
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				if !complete {
					return recs, true, nil
				}
				return nil, false, fmt.Errorf("journal: line %d: %w", lineNo, jerr)
			}
			if !complete {
				// Parsed but unterminated: the final flush may still have
				// been cut short (e.g. inside a trailing field), so treat
				// it as truncated rather than trusting it.
				return recs, true, nil
			}
			recs = append(recs, rec)
		}
		if err == io.EOF {
			return recs, false, nil
		}
	}
}

// ReadFile reads a journal file. See Read for the truncated-tail contract.
func ReadFile(path string) (recs []Record, truncatedTail bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	return Read(f)
}
