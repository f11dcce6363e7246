package main

import (
	"crypto/sha256"
	"fmt"

	"bordercontrol/internal/stats"
)

// countNames maps each exact simulated work count the benchmark reports
// to the stats snapshot counters it sums. They move no host metric; a
// change that only speeds up the host must leave them bit-identical.
var countNames = []struct {
	name     string
	counters []string
}{
	{"sim.events", []string{"engine.events"}},
	{"core.checks", []string{"border.checks"}},
	{"core.table_reads", []string{"border.table_reads"}},
	{"core.violations", []string{"border.violations"}},
	{"ats.translations", []string{"iommu.translations"}},
	{"ats.walks", []string{"iommu.walks"}},
	{"cache.l1_misses", []string{"gpu.l1.misses"}},
	{"cache.l2_misses", []string{"gpu.l2.misses"}},
	{"tlb.l1_misses", []string{"gpu.l1tlb.misses"}},
	{"coherence.requests", []string{"coherence.get_s", "coherence.get_m"}},
	{"memory.dram_accesses", []string{"dram.accesses"}},
}

// simCounts extracts the exact work counts from a snapshot.
func simCounts(s stats.Snapshot) map[string]float64 {
	return countsFrom(func(name string) float64 { return float64(s.Counter(name)) })
}

// countsFrom computes the exact work counts from counter, which reads one
// snapshot counter by name (from a Snapshot, or a daemon's metrics page).
func countsFrom(counter func(string) float64) map[string]float64 {
	out := map[string]float64{}
	for _, c := range countNames {
		var v float64
		for _, n := range c.counters {
			v += counter(n)
		}
		out[c.name] = v
	}
	hits, misses := counter("border.bcc.hits"), counter("border.bcc.misses")
	out["core.bcc_miss_ratio"] = 0
	if hits+misses > 0 {
		out["core.bcc_miss_ratio"] = misses / (hits + misses)
	}
	return out
}

// compareCounts fails s unless its exact counts equal ref's.
func compareCounts(s *sample, ref map[string]float64) {
	for _, k := range sortedKeys(ref) {
		if s.counts[k] != ref[k] {
			s.fail("traced %s = %v, untraced %v", k, s.counts[k], ref[k])
		}
	}
}

func digest(s string) string { return fmt.Sprintf("%x", sha256.Sum256([]byte(s))) }
