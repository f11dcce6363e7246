package harness

import (
	"context"
	"fmt"
	"strings"

	"bordercontrol/internal/core"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/workload"
)

// FigureBordersRow is one workload's overheads relative to the unsafe
// baseline, per registered border design (all under BC-BCC).
type FigureBordersRow struct {
	Workload  string
	Baseline  uint64             // ATS-only cycles
	Cycles    map[string]uint64  // per design
	Overheads map[string]float64 // cycles/baseline - 1, per design
}

// FigureBordersResult is the design-comparison figure: the Figure 4 BC-BCC
// sweep repeated for every registered protection architecture, so the cost
// of each border design is directly comparable on the paper's workloads.
// Every design enforces the same decisions (see DESIGN.md §14); only the
// timing and traffic of carrying them differ, which is exactly what this
// figure isolates.
type FigureBordersResult struct {
	Class   GPUClass
	Designs []string // registry order (sorted); "flat" is the paper's design
	Rows    []FigureBordersRow
	// GeoMean holds the geometric-mean overhead per design.
	GeoMean map[string]float64
	// Stats aggregates the metrics snapshots of every run in the sweep.
	Stats stats.Snapshot
}

// FigureBorders runs all workloads under ATS-only (baseline) and then
// under BC-BCC once per registered border design, for the given GPU class,
// on the experiment-execution layer. Each design's runs carry a per-job
// Params override (Params.Border); everything else about the sweep is the
// Figure 4 recipe, so the flat column reproduces Figure 4's BC-BCC column.
func FigureBorders(ctx context.Context, ex Exec, class GPUClass, p Params) (FigureBordersResult, error) {
	res := FigureBordersResult{
		Class:   class,
		Designs: core.Designs(),
		GeoMean: make(map[string]float64),
	}
	specs := workload.All()

	var list []runSpec
	for _, spec := range specs {
		list = append(list, runSpec{
			Label: "borders/" + classShort(class) + "/" + spec.Name + "/base",
			Mode:  ATSOnly, Class: class, Spec: spec,
		})
		for _, design := range res.Designs {
			dp := p
			dp.Border = design
			list = append(list, runSpec{
				Label: "borders/" + classShort(class) + "/" + spec.Name + "/" + design,
				Mode:  BCBCC, Class: class, Spec: spec, P: &dp,
			})
		}
	}
	runs, err := runAll(ctx, ex, p, list, new(progMemo))
	if err != nil {
		return res, err
	}
	res.Stats = sweepStats(runs)

	per := make(map[string][]float64)
	next := 0
	for _, spec := range specs {
		base := runs[next]
		next++
		if base.VerifyErr != nil {
			return res, fmt.Errorf("harness: %s baseline results wrong: %w", spec.Name, base.VerifyErr)
		}
		row := FigureBordersRow{
			Workload:  spec.Name,
			Baseline:  base.Cycles,
			Cycles:    make(map[string]uint64),
			Overheads: make(map[string]float64),
		}
		for _, design := range res.Designs {
			r := runs[next]
			next++
			if r.VerifyErr != nil {
				return res, fmt.Errorf("harness: %s under design %q results wrong: %w", spec.Name, design, r.VerifyErr)
			}
			row.Cycles[design] = r.Cycles
			ov := float64(r.Cycles)/float64(base.Cycles) - 1
			row.Overheads[design] = ov
			per[design] = append(per[design], ov)
		}
		res.Rows = append(res.Rows, row)
	}
	for _, design := range res.Designs {
		res.GeoMean[design] = stats.GeoMeanOverhead(per[design])
	}
	return res, nil
}

// Render prints the design comparison as a text table.
func (f FigureBordersResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Border designs (%s GPU): BC-BCC runtime overhead vs ATS-only baseline, per design\n", f.Class)
	fmt.Fprintf(&b, "%-12s %12s", "workload", "base cycles")
	for _, d := range f.Designs {
		fmt.Fprintf(&b, " %12s", d)
	}
	b.WriteString("\n")
	for _, row := range f.Rows {
		fmt.Fprintf(&b, "%-12s %12d", row.Workload, row.Baseline)
		for _, d := range f.Designs {
			fmt.Fprintf(&b, " %11.2f%%", row.Overheads[d]*100)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-12s %12s", "geomean", "")
	for _, d := range f.Designs {
		fmt.Fprintf(&b, " %11.2f%%", f.GeoMean[d]*100)
	}
	b.WriteString("\n")
	return b.String()
}

// CSV renders the comparison as workload,design,baseline_cycles,cycles,overhead.
func (f FigureBordersResult) CSV() string {
	var b strings.Builder
	b.WriteString("workload,design,baseline_cycles,cycles,overhead\n")
	for _, row := range f.Rows {
		for _, d := range f.Designs {
			fmt.Fprintf(&b, "%s,%s,%d,%d,%.6f\n",
				row.Workload, d, row.Baseline, row.Cycles[d], row.Overheads[d])
		}
	}
	for _, d := range f.Designs {
		fmt.Fprintf(&b, "geomean,%s,,,%.6f\n", d, f.GeoMean[d])
	}
	return b.String()
}
