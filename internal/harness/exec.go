package harness

import (
	"context"
	"time"

	"bordercontrol/internal/exp"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/workload"
)

// Exec configures how a sweep's independent simulations execute. The zero
// Exec runs on all cores with no per-job timeout and no progress output —
// safe defaults for library callers, because ordered result collection
// makes parallel artifacts byte-identical to serial ones.
type Exec struct {
	// Jobs bounds concurrent simulations: 0 = GOMAXPROCS, 1 = serial.
	Jobs int
	// Timeout, when positive, bounds each simulation; an overrunning job
	// fails with context.DeadlineExceeded instead of stalling the sweep.
	Timeout time.Duration
	// Progress, when non-nil, receives each finished job in completion
	// order (calls are serialized).
	Progress func(exp.Result)
	// Trace, when non-nil, collects a per-job timeline for every
	// simulation of the sweep into one merged Chrome trace (one Perfetto
	// process per job, labelled by the job name). Tracing is pure
	// observation: rendered artifacts are byte-identical with it on.
	Trace *trace.Multi
	// Shards, when positive, executes every simulation of the sweep on
	// the sharded engine with that many workers (see RunOptions.Shards).
	// Artifacts are byte-identical at any setting.
	Shards int
}

func (e Exec) runner() *exp.Runner {
	return &exp.Runner{Workers: e.Jobs, Timeout: e.Timeout, OnDone: e.Progress}
}

// runSpec names one simulation of a sweep: the experiment-space coordinate
// plus a label for progress reporting.
type runSpec struct {
	Label string
	Mode  Mode
	Class GPUClass
	Spec  workload.Spec
	Opts  RunOptions
	// P, when non-nil, overrides the sweep-wide Params for this run only
	// (FigureBorders varies Params.Border across the jobs of one sweep).
	P *Params
}

// runAll executes the specs — each on a fresh System — through the
// experiment runner and returns their results in submission order, so
// callers can assemble artifacts exactly as a serial loop would have. The
// first error in submission order (the one a serial sweep would have
// stopped at) fails the whole sweep. Cells share memo's programs: each
// (workload, scale) is generated once and replayed everywhere else.
func runAll(ctx context.Context, ex Exec, p Params, specs []runSpec, memo *progMemo) ([]RunResult, error) {
	return exp.Map(ctx, ex.runner(), specs,
		func(_ int, s runSpec) string { return s.Label },
		func(ctx context.Context, s runSpec) (RunResult, error) {
			opts := s.Opts
			if ex.Trace != nil {
				opts.Tracer = ex.Trace.New(s.Label)
			}
			if opts.Shards == 0 {
				opts.Shards = ex.Shards
			}
			pp := p
			if s.P != nil {
				pp = *s.P
			}
			return runCtx(ctx, s.Mode, s.Class, s.Spec, pp, opts, memo)
		})
}

// sweepStats aggregates the per-run snapshots of a sweep (see stats.Merge:
// counters sum, ratio gauges average).
func sweepStats(runs []RunResult) stats.Snapshot {
	snaps := make([]stats.Snapshot, 0, len(runs))
	for _, r := range runs {
		snaps = append(snaps, r.Stats)
	}
	return stats.Merge(snaps...)
}

// classShort is a compact GPU-class label for job names.
func classShort(c GPUClass) string {
	if c == ModeratelyThreaded {
		return "mod"
	}
	return "high"
}
