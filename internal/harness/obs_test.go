package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"bordercontrol/internal/prof"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/workload"
)

func mustSpec(t *testing.T, name string) workload.Spec {
	t.Helper()
	spec, ok := workload.ByName(name)
	if !ok {
		t.Fatalf("%s not registered", name)
	}
	return spec
}

// TestSnapshotDeterministic runs the same simulation twice and requires
// byte-identical stats JSON: the metrics layer must observe only simulated
// state, never host state.
func TestSnapshotDeterministic(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	p := DefaultParams()
	var blobs [][]byte
	for i := 0; i < 2; i++ {
		res, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(res.Stats)
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, blob)
	}
	if !bytes.Equal(blobs[0], blobs[1]) {
		t.Errorf("stats JSON differs between identical runs:\n%s\n%s", blobs[0], blobs[1])
	}
}

// TestSnapshotCoverage checks the snapshot spans every subsystem the issue
// names: BCC, TLBs, caches, DRAM and the engine, under dotted paths.
func TestSnapshotCoverage(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	res, err := Run(BCBCC, HighlyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	snap := res.Stats
	for _, name := range []string{
		"engine.events",
		"dram.accesses",
		"dram.row_hit_ratio",
		"iommu.translations",
		"iommu.l2tlb.hits",
		"border.checks",
		"border.bcc.hits",
		"border.bcc.miss_ratio",
		"gpu.ops",
		"gpu.l1.miss_ratio",
		"gpu.l1tlb.hits",
		"gpu.l2.hits",
		"gpu.port.reads",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("snapshot is missing %q", name)
		}
	}
	// Cross-check against the scalar result fields the tables render.
	if got := snap.Counter("border.checks"); got != res.BCChecks {
		t.Errorf("border.checks = %d, result field says %d", got, res.BCChecks)
	}
	if got := snap.Counter("gpu.ops"); got != res.Ops {
		t.Errorf("gpu.ops = %d, result field says %d", got, res.Ops)
	}
	if got := snap.Gauge("border.bcc.miss_ratio"); got != res.BCCMissRatio {
		t.Errorf("border.bcc.miss_ratio = %v, result field says %v", got, res.BCCMissRatio)
	}
}

// TestTracerIsPureObservation runs with and without a tracer attached and
// requires identical simulation results — tracing must never perturb
// timing — while the trace itself must be valid Chrome trace JSON with
// events from the engine, GPU and border categories.
func TestTracerIsPureObservation(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	p := DefaultParams()
	plain, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	traced, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	plain.Host, traced.Host = HostStats{}, HostStats{}
	pj, _ := json.Marshal(plain)
	tj, _ := json.Marshal(traced)
	if !bytes.Equal(pj, tj) {
		t.Errorf("tracer changed the simulation:\nplain:  %s\ntraced: %s", pj, tj)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if i := indexByte(ev.Cat, '.'); i >= 0 {
			cats[ev.Cat[:i]] = true
		} else if ev.Cat != "" {
			cats[ev.Cat] = true
		}
	}
	for _, want := range []string{"engine", "gpu", "border"} {
		if !cats[want] {
			t.Errorf("trace has no %q events (have %v)", want, cats)
		}
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

// TestLatencyHistogramsDistinguishClasses shrinks the BCC so checks split
// between BCC hits and Protection Table walks, then requires the per-class
// histograms to partition the border.checks counter exactly.
func TestLatencyHistogramsDistinguishClasses(t *testing.T) {
	spec := mustSpec(t, "bfs")
	p := DefaultParams()
	p.BCC.Entries = 16
	p.BCC.PagesPerEntry = 1 // page-granular entries: capacity-bound, so misses happen
	res, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hit := res.Stats.Hist("border.latency_ps.bcc_hit")
	walk := res.Stats.Hist("border.latency_ps.pt_walk")
	denied := res.Stats.Hist("border.latency_ps.denied")
	if hit.Count == 0 {
		t.Error("no BCC-hit latency samples")
	}
	if walk.Count == 0 {
		t.Error("no PT-walk latency samples despite a thrashing BCC")
	}
	if denied.Count != 0 {
		t.Errorf("%d denied crossings in a legitimate run", denied.Count)
	}
	if total := hit.Count + walk.Count + denied.Count; total != res.BCChecks {
		t.Errorf("latency classes sum to %d, border made %d checks", total, res.BCChecks)
	}
	// A walk includes the table access, so its latency distribution must sit
	// strictly above the pure BCC-hit path.
	if walk.Min <= hit.Min {
		t.Errorf("walk min %d not above hit min %d", walk.Min, hit.Min)
	}
	if qd := res.Stats.Hist("engine.queue_depth"); qd.Count == 0 {
		t.Error("no engine queue-depth samples")
	}
	if tr := res.Stats.Hist("iommu.translate_latency_ps"); tr.Count != res.Translations {
		t.Errorf("translate latency samples %d, translations %d", tr.Count, res.Translations)
	}
}

// TestStatsJSONHistogramSchema validates a real run's -stats-json document
// against the histogram schema checker.
func TestStatsJSONHistogramSchema(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	res, err := Run(BCBCC, ModeratelyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(res.Stats)
	if err != nil {
		t.Fatal(err)
	}
	hists, err := stats.ValidateSnapshotJSON(blob)
	if err != nil {
		t.Fatalf("run stats fail the schema check: %v", err)
	}
	if hists == 0 {
		t.Error("run stats contain no histograms")
	}
}

// TestSnapshotMergeHistogramsOrderIndependent merges two different runs'
// snapshots in both orders — the exp layer's aggregation must not depend on
// job completion order.
func TestSnapshotMergeHistogramsOrderIndependent(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	a, err := Run(BCBCC, ModeratelyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(BCNoBCC, ModeratelyThreaded, spec, DefaultParams(), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ab, err := json.Marshal(stats.Merge(a.Stats, b.Stats))
	if err != nil {
		t.Fatal(err)
	}
	ba, err := json.Marshal(stats.Merge(b.Stats, a.Stats))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ab, ba) {
		t.Errorf("snapshot merge is order-dependent:\n%s\n%s", ab, ba)
	}
}

// TestProfilerIsPureObservation runs with and without a profiler and
// requires identical simulation results; two profiled runs must produce
// byte-identical folded stacks.
func TestProfilerIsPureObservation(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	p := DefaultParams()
	plain, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pr1 := prof.New()
	profiled, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{Profiler: pr1})
	if err != nil {
		t.Fatal(err)
	}
	plain.Host, profiled.Host = HostStats{}, HostStats{}
	pj, _ := json.Marshal(plain)
	fj, _ := json.Marshal(profiled)
	if !bytes.Equal(pj, fj) {
		t.Errorf("profiler changed the simulation:\nplain:    %s\nprofiled: %s", pj, fj)
	}
	if pr1.Total() == 0 {
		t.Fatal("profiler attributed nothing")
	}

	pr2 := prof.New()
	if _, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{Profiler: pr2}); err != nil {
		t.Fatal(err)
	}
	if pr1.Folded() != pr2.Folded() {
		t.Errorf("folded stacks differ between identical runs:\n%s\n%s", pr1.Folded(), pr2.Folded())
	}
}

// TestProfileByteIdenticalAcrossJobs runs the profiling matrix serially and
// in parallel; the merged folded output must be byte-identical.
func TestProfileByteIdenticalAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 4-cell profile matrix twice")
	}
	p := DefaultParams()
	serial, err := Profile(context.Background(), Exec{Jobs: 1}, p, "pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	par, err := Profile(context.Background(), Exec{Jobs: 4}, p, "pathfinder")
	if err != nil {
		t.Fatal(err)
	}
	if serial.Folded() != par.Folded() {
		t.Error("profile differs between -jobs 1 and -jobs 4")
	}
}

// TestSweepTraceMerges checks Exec.Trace collects one Perfetto process per
// job of a sweep.
func TestSweepTraceMerges(t *testing.T) {
	spec := mustSpec(t, "pathfinder")
	multi := trace.NewMulti("engine,border")
	specs := []runSpec{
		{Label: "trace/a", Mode: BCBCC, Class: ModeratelyThreaded, Spec: spec},
		{Label: "trace/b", Mode: BCNoBCC, Class: ModeratelyThreaded, Spec: spec},
	}
	if _, err := runAll(context.Background(), Exec{Jobs: 2, Trace: multi}, DefaultParams(), specs, new(progMemo)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := multi.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Pid  int    `json:"pid"`
			Ph   string `json:"ph"`
			Name string `json:"name"`
			Args struct {
				Name string `json:"name"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("merged trace is not valid JSON: %v", err)
	}
	labels := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			labels[ev.Args.Name] = true
		}
	}
	if !labels["trace/a"] || !labels["trace/b"] {
		t.Errorf("merged trace missing per-job processes, have %v", labels)
	}
}
