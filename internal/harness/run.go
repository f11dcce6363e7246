package harness

import (
	"context"
	"fmt"
	"sort"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/arch"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/prof"
	"bordercontrol/internal/sim"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/trace"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// RunError identifies which simulation of a sweep failed and why, so a
// parallel failure report names the job: workload, configuration, GPU
// class, and the stage that failed. It wraps the underlying cause (for a
// GPU abort, the border-violation detail from sys.GPU.Err()).
type RunError struct {
	Workload string
	Mode     Mode
	Class    GPUClass
	// Stage is where the run failed: "build", "start", "launch",
	// "interrupted", "hang", "abort".
	Stage string
	Err   error
}

func (e *RunError) Error() string {
	return fmt.Sprintf("harness: %s on %v (%v): %s: %v", e.Workload, e.Mode, e.Class, e.Stage, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// RunOptions tune a single workload execution.
type RunOptions struct {
	// DowngradesPerSec injects synthetic permission downgrades (RW -> R,
	// then restore) at this rate of simulated time, round-robin over the
	// process's writable pages — the Figure 7 experiment. Zero disables
	// injection.
	DowngradesPerSec float64
	// FixedDowngrades, when positive, overrides DowngradesPerSec and
	// injects this many downgrades spread evenly over SpreadOver of
	// simulated time (normally the workload's baseline runtime). Used to
	// measure the per-downgrade cost densely on short kernels.
	FixedDowngrades int
	// SpreadOver is the window FixedDowngrades are spread across.
	SpreadOver sim.Time
	// SkipVerify skips the functional output check (used by sweeps that
	// deliberately perturb timing only).
	SkipVerify bool
	// Tracer, when non-nil, records the run's timeline (engine, border,
	// and GPU events) in Chrome trace-event form. Pure observation: a run
	// with a tracer attached produces identical results to one without.
	Tracer *trace.Tracer
	// Profiler, when non-nil, accumulates simulated-time attribution for
	// the run (component-stack samples for folded/pprof output). Pure
	// observation, like Tracer.
	Profiler *prof.Profiler
	// Shards, when positive, executes the run on the sharded
	// conservative-parallel engine with that many worker goroutines
	// available. A single-accelerator run is one determinism domain (one
	// logical shard), so this changes execution machinery only: results —
	// every simulated time, count and snapshot — are bit-identical to the
	// default direct engine at any setting. It is the figure-level proof
	// that sharded execution is residue-free; fleets (RunFleetCtx) are
	// where extra workers buy wall-clock time.
	Shards int
}

// HostStats is the host-side self-measurement of one run: how long the
// simulation took in wall-clock terms and how fast the engine processed
// events. It feeds `bctool bench`.
type HostStats struct {
	// Wall is the host wall-clock duration of the Engine.Run call.
	Wall time.Duration
	// Events is how many discrete events the engine fired.
	Events uint64
	// EventsPerSec is Events divided by Wall.
	EventsPerSec float64
}

// RunResult reports one workload execution on one system configuration.
type RunResult struct {
	Workload string
	Mode     Mode
	Class    GPUClass

	// Runtime is the kernel's simulated duration, including the final
	// cache drain; Cycles is the same in GPU cycles — the paper's runtime
	// metric.
	Runtime sim.Time
	Cycles  uint64
	// Ops is the number of memory operations the GPU completed.
	Ops uint64

	// BCChecks is the number of requests checked at the border (BC modes).
	BCChecks uint64
	// BCCMissRatio is the BCC check miss ratio (BCBCC mode).
	BCCMissRatio float64
	// Downgrades counts injected permission downgrades.
	Downgrades uint64
	// DRAMUtilization is mean channel utilization over the run.
	DRAMUtilization float64

	// Cache-hierarchy statistics (sandboxed configurations only; zero for
	// the full-IOMMU path, which has no accelerator caches).
	L1MissRatio  float64
	L2MissRatio  float64
	TLBMissRatio float64
	// Translations is the number of ATS requests (accelerator TLB misses,
	// or every access under the full IOMMU).
	Translations uint64
	// PageWalks is how many of those missed the trusted L2 TLB.
	PageWalks uint64

	// VerifyErr reports a functional-output mismatch (nil when correct).
	VerifyErr error

	// Stats is the full hierarchical metrics snapshot of the run's System
	// — every registered counter and ratio under its dotted path. The
	// scalar fields above remain as the rendered tables' inputs; new
	// consumers should read Stats.
	Stats stats.Snapshot

	// Host is the host-side self-measurement of this run.
	Host HostStats
}

// RequestsPerCycle returns border checks per GPU cycle (Figure 5).
func (r RunResult) RequestsPerCycle() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.BCChecks) / float64(r.Cycles)
}

// Run executes one workload on a fresh system in the given configuration.
func Run(mode Mode, class GPUClass, spec workload.Spec, p Params, opts RunOptions) (RunResult, error) {
	return RunCtx(context.Background(), mode, class, spec, p, opts)
}

// RunCtx is Run with cooperative cancellation: the simulation engine polls
// ctx between events, so a cancelled or timed-out run aborts promptly and
// fails with a *RunError wrapping ctx.Err(). Every failure path that names
// a specific run returns a *RunError, so parallel sweeps report exactly
// which job broke.
func RunCtx(ctx context.Context, mode Mode, class GPUClass, spec workload.Spec, p Params, opts RunOptions) (RunResult, error) {
	return runCtx(ctx, mode, class, spec, p, opts, nil)
}

// runCtx is RunCtx with the sweep's program memo: memo builds (or replays)
// the workload's program. A nil memo, or a run from a recorded trace,
// builds on the cell's own process as RunCtx always has.
func runCtx(ctx context.Context, mode Mode, class GPUClass, spec workload.Spec, p Params, opts RunOptions, memo *progMemo) (RunResult, error) {
	fail := func(stage string, err error) (RunResult, error) {
		return RunResult{}, &RunError{Workload: spec.Name, Mode: mode, Class: class, Stage: stage, Err: err}
	}
	if p.Trace != "" {
		// Replay mode: swap the generator for the recorded trace's replay
		// recipe. Decode failures (corrupt or truncated recordings) surface
		// here as typed build-stage errors.
		tr, err := tracerec.Load(tracerec.Resolve(p.Trace, spec.Name))
		if err != nil {
			return fail("build", err)
		}
		rspec, err := tracerec.ReplaySpec(tr)
		if err != nil {
			return fail("build", err)
		}
		spec = rspec
		memo = nil
	}
	// With opts.Shards the system is assembled on (the only) shard of a
	// sharded engine; the window width is irrelevant with no cross-shard
	// traffic, any positive lookahead does.
	var se *sim.ShardedEngine
	eng := &sim.Engine{}
	if opts.Shards > 0 {
		se = sim.NewShardedEngine(1, sim.Microsecond)
		se.Workers = opts.Shards
		eng = se.Shard(0)
	}
	sys, err := NewSystemWithEngine(eng, mode, class, p)
	if err != nil {
		return RunResult{}, err
	}
	proc, err := sys.OS.NewProcess(spec.Name)
	if err != nil {
		return fail("start", err)
	}
	prog, err := memo.build(proc, spec, p.Scale)
	if err != nil {
		return fail("build", err)
	}

	// Process initialization on the accelerator (paper Figure 3a).
	sys.ATS.Activate(sys.Name, proc.ASID())
	if sys.BC != nil {
		if err := sys.BC.ProcessStart(proc.ASID()); err != nil {
			return fail("start", err)
		}
	}

	if err := sys.GPU.Launch(prog, proc.ASID()); err != nil {
		return fail("launch", err)
	}

	var injector *downgradeInjector
	switch {
	case opts.FixedDowngrades > 0 && opts.SpreadOver > 0:
		interval := opts.SpreadOver / sim.Time(opts.FixedDowngrades+1)
		injector = newDowngradeInjector(sys, proc, interval, opts.FixedDowngrades)
	case opts.DowngradesPerSec > 0:
		interval := sim.Time(float64(sim.Second) / opts.DowngradesPerSec)
		injector = newDowngradeInjector(sys, proc, interval, 0)
	}
	if injector != nil {
		injector.start()
	}
	if done := ctx.Done(); done != nil {
		poll := func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		}
		if se != nil {
			se.Interrupt = poll
		} else {
			sys.Eng.Interrupt = poll
		}
	}
	if opts.Tracer != nil {
		sys.AttachTracer(opts.Tracer)
	}
	if opts.Profiler != nil {
		sys.AttachProfiler(opts.Profiler)
	}
	wallStart := time.Now()
	if se != nil {
		se.Run()
	} else {
		sys.Eng.Run()
	}
	wall := time.Since(wallStart)

	if !sys.GPU.Finished() {
		// Distinguish an external interruption (cancellation, timeout) from
		// a genuinely stuck simulation.
		if err := ctx.Err(); err != nil {
			return fail("interrupted", err)
		}
		return fail("hang", fmt.Errorf("simulation drained with the kernel incomplete"))
	}
	if gerr := sys.GPU.Err(); gerr != nil {
		return fail("abort", gerr)
	}

	res := RunResult{
		Workload:        spec.Name,
		Mode:            mode,
		Class:           class,
		Runtime:         sys.GPU.Runtime(),
		Cycles:          sys.GPU.Cycles(),
		Ops:             sys.GPU.OpsDone.Value(),
		DRAMUtilization: sys.DRAM.Utilization(sys.GPU.Runtime()),
		Translations:    sys.ATS.Translation.Value(),
		PageWalks:       sys.ATS.Walks.Value(),
	}
	if h, ok := sys.Hier.(*accel.Sandboxed); ok {
		var l1h, l1m, tlbh, tlbm uint64
		for cu := 0; cu < sys.GPU.Config().CUs; cu++ {
			l1h += h.L1(cu).HitMiss.Hits.Value()
			l1m += h.L1(cu).HitMiss.Misses.Value()
			tlbh += h.L1TLB(cu).HitMiss.Hits.Value()
			tlbm += h.L1TLB(cu).HitMiss.Misses.Value()
		}
		if l1h+l1m > 0 {
			res.L1MissRatio = float64(l1m) / float64(l1h+l1m)
		}
		if tlbh+tlbm > 0 {
			res.TLBMissRatio = float64(tlbm) / float64(tlbh+tlbm)
		}
		res.L2MissRatio = h.L2().HitMiss.MissRatio()
	}
	if injector != nil {
		// A failed restore leaves the workload wedged on read-only pages —
		// the run's numbers would be nonsense, so it fails rather than
		// silently under-reporting.
		if injector.err != nil {
			return fail("downgrade", fmt.Errorf("%d restore(s) failed; first: %w", injector.restoreErrs, injector.err))
		}
		res.Downgrades = injector.count
	}
	if sys.BC != nil {
		res.BCChecks = sys.BC.CrossingChecks()
		if bcc := sys.BC.Cache(); bcc != nil {
			res.BCCMissRatio = bcc.CheckHitMiss.MissRatio()
		}
	}
	res.Stats = sys.Metrics.Snapshot()
	res.Host = HostStats{Wall: wall, Events: sys.Eng.Fired()}
	if s := wall.Seconds(); s > 0 {
		res.Host.EventsPerSec = float64(res.Host.Events) / s
	}

	// Process completion (Figure 3e), then verify the results the program
	// left in memory.
	if sys.BC != nil {
		sys.BC.ProcessComplete(sys.GPU.FinishTime(), proc.ASID())
	}
	sys.ATS.Deactivate(sys.Name, proc.ASID())
	if prog.Verify != nil && !opts.SkipVerify {
		res.VerifyErr = prog.Verify(proc)
	}
	return res, nil
}

// downgradeInjector schedules periodic permission downgrades over a
// process's writable pages while the GPU runs, at most max times (0 =
// until the GPU finishes). count and err are valid once the engine has
// drained: count is the number of downgrades that landed, err the first
// restore failure (a failed restore strands the workload on read-only
// pages, so the run must not report results as if nothing happened).
type downgradeInjector struct {
	sys      *System
	proc     *hostos.Process
	pages    []arch.Virt
	interval sim.Time
	max      int

	count       uint64
	restoreErrs uint64
	err         error
}

func newDowngradeInjector(sys *System, proc *hostos.Process, interval sim.Time, max int) *downgradeInjector {
	if interval == 0 {
		interval = 1
	}
	// Snapshot the writable pages (generation already faulted them in).
	// ForEachMapped iterates a map in random order; sort so the injection
	// round-robin — and therefore Figure 7 — is identical on every run.
	var pages []arch.Virt
	proc.ForEachMapped(func(vpn arch.VPN, _ arch.PPN, perm arch.Perm) {
		if perm.CanWrite() {
			pages = append(pages, vpn.Base())
		}
	})
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return &downgradeInjector{sys: sys, proc: proc, pages: pages, interval: interval, max: max}
}

// injectOnce runs one downgrade/restore round on the idx'th page of the
// round-robin: downgrade RW -> R (shootdown + border flush), then restore
// so the workload can continue; the restore is an upgrade and incurs no
// shootdown (paper §3.2.4). Split out from the event-loop scheduling so
// the restore-failure path is directly testable.
func (d *downgradeInjector) injectOnce(idx uint64) {
	v := d.pages[idx%uint64(len(d.pages))]
	if _, err := d.sys.OS.Protect(d.proc, v, arch.PageSize, arch.PermRead); err == nil {
		d.count++
	}
	if _, err := d.sys.OS.Protect(d.proc, v, arch.PageSize, arch.PermRW); err != nil {
		d.restoreErrs++
		if d.err == nil {
			d.err = fmt.Errorf("restore %#x to RW: %w", uint64(v), err)
		}
	}
}

// start arms the injector on the system's engine. One pre-bound callback
// rescheduling itself: the payload word is the round-robin page index, so
// injection runs allocation-free however many downgrades fire.
func (d *downgradeInjector) start() {
	if len(d.pages) == 0 {
		return
	}
	var tick sim.EventFunc
	tick = func(_ sim.Time, idx uint64) {
		if d.sys.GPU.Finished() || (d.max > 0 && d.count >= uint64(d.max)) {
			return
		}
		d.injectOnce(idx)
		d.sys.Eng.ScheduleIntoAfter(d.interval, tick, idx+1)
	}
	d.sys.Eng.ScheduleIntoAfter(d.interval, tick, 0)
}
