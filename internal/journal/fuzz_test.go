package journal

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJournalRead: Read must never panic, whatever bytes it is given. It
// returns either an error or whole records, one per complete non-blank
// line, each exactly what that line decodes to, skipping at most an
// unterminated last line and reporting that it did. A complete line that
// does not decode is an error. The seeds are records as Append writes
// them, truncations of that output and a flipped byte.
func FuzzJournalRead(f *testing.F) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, rec := range sampleRecords(f) {
		if err := w.Append(rec); err != nil {
			f.Fatal(err)
		}
	}
	whole := buf.Bytes()
	f.Add(whole)
	for _, n := range []int{0, 1, len(whole) / 3, len(whole) / 2, len(whole) - 10, len(whole) - 1} {
		f.Add(whole[:n])
	}
	flipped := append([]byte(nil), whole...)
	flipped[len(flipped)/2] ^= 0x20
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, truncated, err := Read(bytes.NewReader(data))
		if err != nil && (recs != nil || truncated) {
			t.Fatalf("Read returned %d records and truncated=%v with error %v", len(recs), truncated, err)
		}
		lines := bytes.Split(data, []byte("\n"))
		tail := lines[len(lines)-1] // unterminated: empty when data ends in a newline
		var want []Record
		for i, line := range lines[:len(lines)-1] {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			var rec Record
			if jerr := json.Unmarshal(line, &rec); jerr != nil {
				if err == nil {
					t.Fatalf("line %d does not decode (%v), but Read returned %d records", i+1, jerr, len(recs))
				}
				return
			}
			want = append(want, rec)
		}
		if err != nil {
			t.Fatalf("Read failed on decodable complete lines: %v", err)
		}
		if wantTrunc := len(bytes.TrimSpace(tail)) > 0; truncated != wantTrunc {
			t.Fatalf("truncated = %v, want %v (unterminated tail %q)", truncated, wantTrunc, tail)
		}
		if !reflect.DeepEqual(recs, want) {
			t.Fatalf("Read returned %+v, want the complete lines' records %+v", recs, want)
		}
	})
}
