package journal

import (
	"fmt"
	"sort"
	"strings"

	"tracecache/internal/stats"
	"tracecache/internal/textplot"
)

// pointKey orders records by sweep point. Sampled records carry their
// schedule in the key: a sampled estimate and a detailed measurement of
// the same (config, benchmark) are different points, never each other's
// "latest result".
func pointKey(r Record) string {
	var s *stats.SamplingMeta
	if r.Meta != nil {
		s = r.Meta.Sampling
	}
	return stats.PointLabel(r.Config, r.Benchmark, s)
}

// latestResult picks, per sweep point, the authoritative record: the last
// successful one (memoized records share the executed run's statistics, so
// any successful record for a key carries the same numbers), or the last
// failure when the point never succeeded.
func latestResult(recs []Record) map[string]Record {
	out := make(map[string]Record)
	for _, r := range recs {
		k := pointKey(r)
		if prev, ok := out[k]; ok && prev.Error == "" && r.Error != "" {
			continue
		}
		out[k] = r
	}
	return out
}

func sortedKeys(m map[string]Record) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Report renders a human-readable summary of a journal: record and
// provenance counts, aggregate simulated throughput (the measured insts
// and slot wall time of the points the journaling process executed), and
// one table row per sweep point. It reproduces a sweep's summary from the
// journal alone — no re-simulation.
func Report(recs []Record, truncatedTail bool) string {
	var sb strings.Builder
	if truncatedTail {
		sb.WriteString("warning: journal tail truncated (unterminated final line skipped)\n")
	}
	var ok, failed int
	prov := map[string]int{}
	var retired uint64
	var wallMs float64
	for _, r := range recs {
		if r.Error != "" {
			failed++
		} else {
			ok++
			prov[r.Provenance]++
		}
		// Memoized and store-served requests simulated nothing in this
		// process; counting their (shared) statistics would inflate the
		// throughput line.
		if r.Provenance != stats.ProvMemoized && r.Provenance != stats.ProvStore {
			retired += r.Retired
			wallMs += r.WallMillis
		}
	}
	fmt.Fprintf(&sb, "journal: %d records (%d ok, %d failed)\n", len(recs), ok, failed)
	fmt.Fprintf(&sb, "provenance: %d cold, %d replay, %d sampled, %d memoized, %d store\n",
		prov[stats.ProvCold], prov[stats.ProvReplay],
		prov[stats.ProvSampled], prov[stats.ProvMemoized], prov[stats.ProvStore])
	if wallMs > 0 {
		fmt.Fprintf(&sb, "simulated: %d measured insts in %.1fs slot wall (%.0f insts/s)\n",
			retired, wallMs/1000, float64(retired)/(wallMs/1000))
	}
	points := latestResult(recs)
	if len(points) == 0 {
		return sb.String()
	}
	sb.WriteString("\n")
	rows := make([][]string, 0, len(points))
	for _, k := range sortedKeys(points) {
		r := points[k]
		if r.Error != "" {
			rows = append(rows, []string{r.Config, r.Benchmark, r.Provenance,
				"failed: " + r.Error, "", ""})
			continue
		}
		rows = append(rows, []string{r.Config, r.Benchmark, r.Provenance,
			fmt.Sprintf("%.3f", r.IPC),
			fmt.Sprintf("%.3f", r.EffFetchRate),
			fmt.Sprintf("%.2f", r.CondMispredictPct)})
	}
	sb.WriteString(textplot.Table(
		[]string{"config", "benchmark", "prov", "IPC", "eff.rate", "mispred%"}, rows))
	return sb.String()
}

// Diff renders a point-by-point comparison of two journals (labelled a
// and b): effective fetch rate and IPC deltas for common points, plus the
// points present on only one side.
func Diff(a, b []Record) string {
	pa, pb := latestResult(a), latestResult(b)
	keys := map[string]bool{}
	for k := range pa {
		keys[k] = true
	}
	for k := range pb {
		keys[k] = true
	}
	ordered := make([]string, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)

	var rows [][]string
	var onlyA, onlyB []string
	for _, k := range ordered {
		ra, inA := pa[k]
		rb, inB := pb[k]
		switch {
		case !inB:
			onlyA = append(onlyA, k)
		case !inA:
			onlyB = append(onlyB, k)
		case ra.Error != "" || rb.Error != "":
			rows = append(rows, []string{ra.Config, ra.Benchmark,
				statusOf(ra), statusOf(rb), "", ""})
		default:
			rows = append(rows, []string{ra.Config, ra.Benchmark,
				fmt.Sprintf("%.3f", ra.EffFetchRate),
				fmt.Sprintf("%.3f", rb.EffFetchRate),
				fmt.Sprintf("%+.2f%%", pctDelta(ra.EffFetchRate, rb.EffFetchRate)),
				fmt.Sprintf("%+.2f%%", pctDelta(ra.IPC, rb.IPC))})
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "diff: %d points in a, %d in b, %d compared\n\n",
		len(pa), len(pb), len(rows))
	if len(rows) > 0 {
		sb.WriteString(textplot.Table(
			[]string{"config", "benchmark", "eff.rate a", "eff.rate b", "Δeff.rate", "ΔIPC"}, rows))
	}
	for _, k := range onlyA {
		fmt.Fprintf(&sb, "only in a: %s\n", k)
	}
	for _, k := range onlyB {
		fmt.Fprintf(&sb, "only in b: %s\n", k)
	}
	return sb.String()
}

func statusOf(r Record) string {
	if r.Error != "" {
		return "failed"
	}
	return "ok"
}

func pctDelta(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return (b - a) / a * 100
}
