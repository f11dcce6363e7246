package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"bordercontrol/internal/core"
	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
)

// sweepSeedsPerShape is how many traces each traffic shape contributes.
const sweepSeedsPerShape = 3

// sweepDigest0 is the sha256 of the sweep CSV at the default seed, the
// same grid as `bctool sweep -seeds 3 -csv`.
const sweepDigest0 = "007513cca345f961f0c171c503db2f8637614f0ef77b0c23f112dd5771bbd256"

// sweep is the synthetic-traffic replay grid: every traffic shape x three
// seeds x the five modes x every border design x both classes, run
// serially. Traces are generated once per iteration, before any cell runs,
// so generation is bypassed inside cells.
type sweep struct {
	seed uint64
	// rows holds the latest untraced row per cell label; the traced
	// iteration must reproduce them.
	rows map[string]harness.SweepRow
}

func newSweep(seed uint64) *sweep { return &sweep{seed: seed, rows: map[string]harness.SweepRow{}} }

// traceSeeds are the traffic seeds of a run seed: 1..3 for the default
// seed 0, 4..6 for seed 1, and so on.
func (w *sweep) traceSeeds() []uint64 {
	var out []uint64
	for k := uint64(1); k <= sweepSeedsPerShape; k++ {
		out = append(out, w.seed*sweepSeedsPerShape+k)
	}
	return out
}

// plan generates the traces and builds the grid; gen times each
// generation.
func (w *sweep) plan(gen func(func())) ([]harness.SweepCell, error) {
	traces := map[string]*tracerec.Trace{}
	var names []string
	for _, shape := range traffic.Shapes() {
		for _, ts := range w.traceSeeds() {
			var tr *tracerec.Trace
			var err error
			gen(func() { tr, err = traffic.Generate(traffic.Config{Shape: shape, Seed: ts, Workers: 1}) })
			if err != nil {
				return nil, err
			}
			name := fmt.Sprintf("%s-s%d", shape, ts)
			traces[name] = tr
			names = append(names, name)
		}
	}
	modes := []harness.Mode{harness.ATSOnly, harness.FullIOMMU, harness.CAPILike, harness.BCNoBCC, harness.BCBCC}
	classes := []harness.GPUClass{harness.HighlyThreaded, harness.ModeratelyThreaded}
	return harness.RecordedCells(traces, names, modes, core.Designs(), classes, harness.DefaultParams(), 0), nil
}

func (w *sweep) warmup(ctx context.Context) *sample { return w.iterate(ctx) }

func (w *sweep) iterate(ctx context.Context) *sample {
	s := &sample{}
	t0 := time.Now()
	cells, err := w.plan(func(f func()) { f() })
	if err != nil {
		s.attempted++
		s.fail("sweep plan: %v", err)
		return s
	}
	s.setup = append(s.setup, time.Since(t0))
	ex := harness.Exec{Jobs: 1, Progress: func(r exp.Result) {
		s.units = append(s.units, r.Elapsed)
		calib.tick()
	}}
	rows, err := harness.RunSweepExec(ctx, ex, cells)
	s.wall = time.Since(t0)
	s.attempted += len(cells)
	if err != nil {
		s.failed += len(cells) - 1
		s.fail("sweep: %v", err)
		return s
	}
	if len(rows) != len(cells) {
		s.fail("sweep: %d rows for %d cells", len(rows), len(cells))
	}
	for _, r := range rows {
		s.events += r.Events
		if r.Granted > 0 && strings.Contains(r.Label, "/bc-") {
			s.fail("sweep %s: Border Control granted %d probes", r.Label, r.Granted)
		}
		w.rows[r.Label] = r
	}
	if csv := harness.SweepCSV(rows); w.seed == 0 && digest(csv) != sweepDigest0 {
		s.fail("sweep: CSV digest %s, recorded %s", digest(csv), sweepDigest0)
	}
	s.counts = map[string]float64{"sim.events": float64(s.events)}
	return s
}

// traced runs each cell through harness.RunTraceCtx, the call RunCell
// makes, so the engine time and the full snapshot of every cell are
// visible.
func (w *sweep) traced(ctx context.Context, tr *tracer, ref *sample, lm *layerMetrics) *sample {
	s := &sample{}
	root := tr.begin("sweep.iteration")
	setup := tr.begin("sweep.setup")
	var ops uint64
	cells, err := w.plan(func(f func()) {
		lm.addDur("traffic.generate_s", tr.do("traffic.generate", f))
	})
	for _, c := range uniqueTraces(cells) {
		ops += c.Ops()
	}
	setupD := tr.end(setup)
	if err != nil {
		s.attempted++
		s.fail("sweep plan: %v", err)
		tr.end(root)
		return s
	}
	s.setup = append(s.setup, setupD)
	lm.add("traffic.ops", "count", float64(ops))
	var snaps []stats.Snapshot
	var runWall time.Duration
	var segments int
	for _, c := range cells {
		s.attempted++
		var res harness.TraceRunResult
		d := tr.do("harness.cell", func() {
			res, err = harness.RunTraceCtx(ctx, c.Mode, c.Class, c.Trace, c.P, harness.RunOptions{Shards: c.Shards})
		})
		lm.addDur("harness.cell_s", d)
		s.units = append(s.units, d)
		if err != nil {
			s.fail("sweep %s: %v", c.Label, err)
			continue
		}
		runWall += res.Host.Wall
		segments += len(res.Segments)
		s.events += res.Host.Events
		snaps = append(snaps, res.Stats)
		var granted uint64
		for _, seg := range res.Segments {
			if seg.VerifyErr != nil {
				s.fail("sweep %s: segment %s verify: %v", c.Label, seg.Name, seg.VerifyErr)
			}
			granted += seg.ProbesGranted
		}
		want := w.rows[c.Label]
		if res.Host.Events != want.Events || res.SimTime != want.SimPs || res.Ops != want.Ops || res.BCChecks != want.BCChecks || granted != want.Granted {
			s.fail("sweep %s: traced result differs from the untraced row", c.Label)
		}
	}
	s.wall = tr.end(root)
	lm.addDur("sim.run_s", runWall)
	lm.add("sim.ns_per_event", "ns", float64(runWall.Nanoseconds())/float64(s.events))
	lm.add("tracerec.segments", "count", float64(segments))
	lm.set("exp.overhead_s", "s", ref.wall.Seconds()-sumDur(ref.setup)-sumDur(ref.units), 1)
	s.counts = simCounts(stats.Merge(snaps...))
	compareCounts(s, ref.counts)
	return s
}

// uniqueTraces returns each distinct trace of a grid once.
func uniqueTraces(cells []harness.SweepCell) []*tracerec.Trace {
	seen := map[*tracerec.Trace]bool{}
	var out []*tracerec.Trace
	for _, c := range cells {
		if !seen[c.Trace] {
			seen[c.Trace] = true
			out = append(out, c.Trace)
		}
	}
	return out
}

func sumDur(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t.Seconds()
}
