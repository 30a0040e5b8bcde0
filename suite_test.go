package tracecache_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"tracecache"
)

// TestSuiteTextDigest pins the rendered output of every paper experiment,
// all 240 suite points, at the benchmark's 1k warm-up + 4k measured
// instructions with one worker: the digest of the text must equal the
// one the perfbench suite-detailed workload stores. The digest is the
// hex of the first 12 bytes of the SHA-256 of the JSON-encoded text, as
// perfbench computes it. The test only reads the stored file.
func TestSuiteTextDigest(t *testing.T) {
	data, err := os.ReadFile("perfbench/expected/suite-detailed.json")
	if err != nil {
		t.Fatal(err)
	}
	var stored struct {
		Params string `json:"params"`
		Text   string `json:"text"`
	}
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.Params != "warmup=1000 insts=4000" {
		t.Fatalf("stored digest is for %q, not warmup=1000 insts=4000", stored.Params)
	}
	r := tracecache.NewRunner(1_000, 4_000)
	r.Workers = 1
	var text strings.Builder
	err = tracecache.RunExperiments(r, tracecache.Experiments(), func(e tracecache.Experiment, out string) {
		text.WriteString(e.ID + "\n" + out + "\n")
	})
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(text.String())
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(enc)
	if got := hex.EncodeToString(sum[:12]); got != stored.Text {
		t.Errorf("suite text digest %s, stored %s", got, stored.Text)
	}
}
