package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/workload"
)

// fig4 is paper Figure 4 for both GPU classes: the seven Rodinia workloads
// under the ATS-only baseline and the four safe modes, generated live,
// serially. Its inputs are the paper's fixed workloads, so it does not
// depend on the seed; its rendering must equal RESULTS.txt at every seed.
type fig4 struct {
	classes []harness.GPUClass
	want    map[harness.GPUClass]string
	fig5    string
	// cells maps each job label to its cycles and events in the latest
	// untraced iteration; the traced iteration must reproduce them.
	cells map[string][2]uint64
}

func newFig4(results string) (*fig4, error) {
	f := &fig4{
		classes: []harness.GPUClass{harness.HighlyThreaded, harness.ModeratelyThreaded},
		want:    map[harness.GPUClass]string{},
		cells:   map[string][2]uint64{},
	}
	for _, c := range f.classes {
		block, err := resultsBlock(results, fmt.Sprintf("Figure 4 (%s GPU):", c))
		if err != nil {
			return nil, err
		}
		f.want[c] = block
	}
	var err error
	f.fig5, err = resultsBlock(results, "Figure 5 (")
	return f, err
}

// resultsBlock returns the RESULTS.txt block that starts with head and
// ends before the next blank line.
func resultsBlock(results, head string) (string, error) {
	i := strings.Index(results, head)
	if i < 0 {
		return "", fmt.Errorf("RESULTS.txt has no %q block", head)
	}
	block := results[i:]
	if j := strings.Index(block, "\n\n"); j >= 0 {
		block = block[:j+1]
	}
	return block, nil
}

// warmup renders Figure 5 instead of a Figure 4 pass: it builds all seven
// workloads and runs the border path in about 2 s, where a Figure 4 pass
// takes 20 s of the run's time budget. Its rendering is checked against
// RESULTS.txt too.
func (f *fig4) warmup(ctx context.Context) *sample {
	s := &sample{attempted: 1}
	start := time.Now()
	res, err := harness.Figure5(ctx, harness.Exec{Jobs: 1}, harness.DefaultParams())
	switch {
	case err != nil:
		s.fail("fig5 warm-up: %v", err)
	case res.Render() != f.fig5:
		s.fail("fig5 warm-up: rendering differs from RESULTS.txt:\n%s", res.Render())
	}
	s.wall = time.Since(start)
	return s
}

func (f *fig4) iterate(ctx context.Context) *sample {
	s := &sample{}
	var snaps []stats.Snapshot
	start := time.Now()
	for _, class := range f.classes {
		var first time.Time
		t0 := time.Now()
		ex := harness.Exec{Jobs: 1, Progress: func(r exp.Result) {
			if first.IsZero() {
				first = time.Now().Add(-r.Elapsed)
			}
			s.units = append(s.units, r.Elapsed)
			s.attempted++
			rr, ok := r.Value.(harness.RunResult)
			if r.Err != nil || !ok {
				s.fail("fig4 %s: %v", r.Name, r.Err)
				return
			}
			s.events += rr.Host.Events
			f.cells[r.Name] = [2]uint64{rr.Cycles, rr.Host.Events}
			calib.tick()
		}}
		res, err := harness.Figure4(ctx, ex, class, harness.DefaultParams())
		if err != nil {
			s.attempted++
			s.fail("fig4 %v: %v", class, err)
			continue
		}
		s.setup = append(s.setup, first.Sub(t0))
		if got := res.Render(); got != f.want[class] {
			s.fail("fig4 %v: rendering differs from RESULTS.txt:\n%s", class, got)
		}
		snaps = append(snaps, res.Stats)
	}
	s.wall = time.Since(start)
	s.counts = simCounts(stats.Merge(snaps...))
	return s
}

// traced drives, per cell, the same public calls harness.RunCtx makes, so
// each phase gets its own span: system assembly, workload generation,
// engine run, snapshot and verification.
func (f *fig4) traced(ctx context.Context, tr *tracer, ref *sample, lm *layerMetrics) *sample {
	s := &sample{}
	var snaps []stats.Snapshot
	p := harness.DefaultParams()
	modes := append([]harness.Mode{harness.ATSOnly}, harness.SafeModes()...)
	root := tr.begin("fig4.iteration")
	for _, class := range f.classes {
		res := harness.Figure4Result{Class: class, GeoMean: map[harness.Mode]float64{}}
		per := map[harness.Mode][]float64{}
		cls := tr.begin("fig4.class")
		for _, spec := range workload.All() {
			row := harness.Figure4Row{Workload: spec.Name, Cycles: map[harness.Mode]uint64{}, Overheads: map[harness.Mode]float64{}}
			for _, mode := range modes {
				label := fmt.Sprintf("fig4/%s/%s/%s", harness.ClassSlug(class), spec.Name, shortMode(mode))
				s.attempted++
				var cycles, events uint64
				var snap stats.Snapshot
				var err error
				d := tr.do("harness.cell", func() {
					cycles, events, snap, err = tracedCell(tr, lm, mode, class, spec, p)
				})
				lm.addDur("harness.cell_s", d)
				s.units = append(s.units, d)
				if err != nil {
					s.fail("%s: %v", label, err)
					continue
				}
				if want, ok := f.cells[label]; !ok || want != [2]uint64{cycles, events} {
					s.fail("%s: traced cycles/events %d/%d, untraced %v", label, cycles, events, want)
				}
				s.events += events
				snaps = append(snaps, snap)
				if mode == harness.ATSOnly {
					row.Baseline = cycles
					continue
				}
				row.Cycles[mode] = cycles
				ov := float64(cycles)/float64(row.Baseline) - 1
				row.Overheads[mode] = ov
				per[mode] = append(per[mode], ov)
			}
			res.Rows = append(res.Rows, row)
		}
		tr.end(cls)
		for _, m := range harness.SafeModes() {
			res.GeoMean[m] = stats.GeoMeanOverhead(per[m])
		}
		if got := res.Render(); got != f.want[class] {
			s.fail("fig4 %v: traced rendering differs from RESULTS.txt:\n%s", class, got)
		}
	}
	s.wall = tr.end(root)
	s.counts = simCounts(stats.Merge(snaps...))
	compareCounts(s, ref.counts)
	lm.add("sim.ns_per_event", "ns", lm.current("sim.run_s")*1e9/float64(s.events))
	lm.set("exp.overhead_s", "s", ref.wall.Seconds()-sumDur(ref.setup)-sumDur(ref.units), 1)
	return s
}

// tracedCell is harness.RunCtx for a fresh direct engine with no options,
// one span per phase.
func tracedCell(tr *tracer, lm *layerMetrics, mode harness.Mode, class harness.GPUClass, spec workload.Spec, p harness.Params) (cycles, events uint64, snap stats.Snapshot, err error) {
	asm := tr.begin("harness.assemble")
	sys, err := harness.NewSystemWithEngine(&sim.Engine{}, mode, class, p)
	if err != nil {
		tr.end(asm)
		return
	}
	hp, err := sys.OS.NewProcess(spec.Name)
	lm.addDur("harness.assemble_s", tr.end(asm))
	if err != nil {
		return
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b := tr.begin("workload.build")
	prog, err := spec.Build(hp, p.Scale)
	lm.addDur("workload.build_s", tr.end(b))
	runtime.ReadMemStats(&ms1)
	lm.add("workload.build_alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	lm.add("workload.builds", "count", 1)
	if err != nil {
		return
	}
	sys.ATS.Activate(sys.Name, hp.ASID())
	if sys.BC != nil {
		if err = sys.BC.ProcessStart(hp.ASID()); err != nil {
			return
		}
	}
	if err = sys.GPU.Launch(prog, hp.ASID()); err != nil {
		return
	}
	runtime.ReadMemStats(&ms0)
	run := tr.begin("sim.run")
	sys.Eng.Run()
	runD := tr.end(run)
	runtime.ReadMemStats(&ms1)
	lm.addDur("sim.run_s", runD)
	lm.add("sim.run_alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
	if !sys.GPU.Finished() {
		err = fmt.Errorf("simulation drained with the kernel incomplete")
		return
	}
	if err = sys.GPU.Err(); err != nil {
		return
	}
	cycles, events = sys.GPU.Cycles(), sys.Eng.Fired()
	lm.addDur("stats.snapshot_s", tr.do("stats.snapshot", func() { snap = sys.Metrics.Snapshot() }))
	if sys.BC != nil {
		sys.BC.ProcessComplete(sys.GPU.FinishTime(), hp.ASID())
	}
	sys.ATS.Deactivate(sys.Name, hp.ASID())
	if prog.Verify != nil {
		lm.addDur("workload.verify_s", tr.do("workload.verify", func() { err = prog.Verify(hp) }))
	}
	return
}

// shortMode is the mode name Figure 4 uses in its job labels.
func shortMode(m harness.Mode) string {
	switch m {
	case harness.ATSOnly:
		return "ATS-only"
	case harness.FullIOMMU:
		return "IOMMU"
	case harness.CAPILike:
		return "CAPI"
	case harness.BCNoBCC:
		return "BC-noBCC"
	case harness.BCBCC:
		return "BC-BCC"
	}
	return m.String()
}
