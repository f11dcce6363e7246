package harness

import (
	"context"
	"fmt"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/workload"
)

// ProfileConfig is one cell of the profiling matrix.
type ProfileConfig struct {
	Mode  Mode
	Class GPUClass
	Label string
}

// ProfileMatrix lists the configurations `bctool profile` attributes: the
// same matrix `bctool bench` measures, so the profile explains the bench.
func ProfileMatrix() []ProfileConfig {
	return []ProfileConfig{
		{ATSOnly, HighlyThreaded, "ats-only/high"},
		{BCBCC, HighlyThreaded, "bc-bcc/high"},
		{FullIOMMU, HighlyThreaded, "full-iommu/high"},
		{BCBCC, ModeratelyThreaded, "bc-bcc/moderate"},
	}
}

// Profile runs the workload across the profile matrix with a per-job
// simulated-time profiler attached and returns the merged profile. Each job
// gets its own Profiler (profilers are single-goroutine, like every stats
// structure), and the merge is a commutative sum over per-stack totals —
// the result is byte-identical at any Exec.Jobs setting.
func Profile(ctx context.Context, ex Exec, p Params, workloadName string) (*prof.Profiler, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q (have %v)", workloadName, workload.Names())
	}
	configs := ProfileMatrix()
	type job struct {
		cfg ProfileConfig
		pr  *prof.Profiler
	}
	jobs := make([]job, 0, len(configs))
	for _, cfg := range configs {
		jobs = append(jobs, job{cfg: cfg, pr: prof.New()})
	}
	// Every cell runs the same program: build it once, replay it elsewhere.
	memo := new(progMemo)
	_, err := exp.Map(ctx, ex.runner(), jobs,
		func(_ int, j job) string { return j.cfg.Label + "/" + workloadName },
		func(ctx context.Context, j job) (RunResult, error) {
			return runCtx(ctx, j.cfg.Mode, j.cfg.Class, spec, p, RunOptions{Profiler: j.pr}, memo)
		})
	if err != nil {
		return nil, err
	}
	merged := prof.New()
	for _, j := range jobs {
		merged.Merge(j.pr)
	}
	return merged, nil
}

// ProfileRun profiles a single (mode, class, workload) simulation and
// returns its profiler.
func ProfileRun(ctx context.Context, mode Mode, class GPUClass, p Params, workloadName string) (*prof.Profiler, error) {
	spec, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("harness: unknown workload %q (have %v)", workloadName, workload.Names())
	}
	pr := prof.New()
	if _, err := RunCtx(ctx, mode, class, spec, p, RunOptions{Profiler: pr}); err != nil {
		return nil, err
	}
	return pr, nil
}
