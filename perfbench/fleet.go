package main

import (
	"context"
	"runtime"
	"time"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/workload"
)

// fleetDigest0 is the sha256 of FleetResult.Render() at the default seed,
// the report `bctool fleet` prints.
const fleetDigest0 = "c0f61fed543b87fa5270293db2c7bfce169f02915afb03bd4bcda88a489ae388"

// fleetWorkers is the fleet's shard-worker count: the one workload whose
// purpose is parallel execution, on two workers.
const fleetWorkers = 2

// fleet is the 16-tenant bc-bcc moderate-class fleet with downgrade churn
// (DefaultFleetParams) on the sharded engine. The seed drives launch
// jitter and churn targeting.
type fleet struct {
	seed uint64
	spec workload.Spec
}

func newFleet(seed uint64) *fleet {
	spec, _ := workload.ByName("pathfinder") // bctool fleet's default workload, always registered
	return &fleet{seed: seed, spec: spec}
}

func (w *fleet) params(workers int) harness.FleetParams {
	fp := harness.DefaultFleetParams()
	fp.Seed = int64(w.seed) + 1 // seed 0 is DefaultFleetParams' own seed
	fp.Workers = workers
	return fp
}

func (w *fleet) run(ctx context.Context, s *sample, workers int, spec workload.Spec) (harness.FleetResult, time.Duration, bool) {
	fp := w.params(workers)
	t0 := time.Now()
	res, err := harness.RunFleetCtx(ctx, harness.DefaultParams(), fp, spec)
	wall := time.Since(t0)
	s.attempted += fp.Tenants
	if err != nil {
		s.failed += fp.Tenants - 1
		s.fail("fleet: %v", err)
		return res, wall, false
	}
	if res.Completed != fp.Tenants || res.Verified != fp.Tenants {
		s.fail("fleet: %d completed, %d verified of %d tenants", res.Completed, res.Verified, fp.Tenants)
	}
	if w.seed == 0 && digest(res.Render()) != fleetDigest0 {
		s.fail("fleet: report digest %s, recorded %s", digest(res.Render()), fleetDigest0)
	}
	return res, wall, true
}

func (w *fleet) warmup(ctx context.Context) *sample { return w.iterate(ctx) }

// iterate probes the host's speed before each tenant's build, in the
// serial setup; the probes' time is taken out of the setup time.
func (w *fleet) iterate(ctx context.Context) *sample {
	s := &sample{}
	spec := w.spec
	spec.Build = func(p *hostos.Process, scale int) (*accel.Program, error) {
		calib.tick()
		return w.spec.Build(p, scale)
	}
	res, wall, ok := w.run(ctx, s, fleetWorkers, spec)
	s.wall = wall
	if ok {
		_, probes := calib.ticked()
		s.setup = append(s.setup, wall-res.Host.Wall-probes)
		s.events = res.Events
		s.counts = simCounts(res.Stats)
	}
	return s
}

// traced wraps the workload's Build (and the Verify of each program it
// builds) in spans; RunFleetCtx calls both from the calling goroutine,
// during its serial setup and after the run. It then runs the same fleet
// on one worker for the serial window time.
func (w *fleet) traced(ctx context.Context, tr *tracer, ref *sample, lm *layerMetrics) *sample {
	s := &sample{}
	var build, verify time.Duration
	spec := w.spec
	spec.Build = func(p *hostos.Process, scale int) (*accel.Program, error) {
		var prog *accel.Program
		var err error
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		d := tr.do("workload.build", func() { prog, err = w.spec.Build(p, scale) })
		runtime.ReadMemStats(&ms1)
		build += d
		lm.addDur("workload.build_s", d)
		lm.add("workload.build_alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		lm.add("workload.builds", "count", 1)
		if prog != nil && prog.Verify != nil {
			check := prog.Verify
			prog.Verify = func(p *hostos.Process) error {
				var err error
				d := tr.do("workload.verify", func() { err = check(p) })
				verify += d
				lm.addDur("workload.verify_s", d)
				return err
			}
		}
		return prog, err
	}
	root := tr.begin("fleet.iteration")
	var res harness.FleetResult
	var ok bool
	call := tr.begin("harness.RunFleetCtx")
	res, s.wall, ok = w.run(ctx, s, fleetWorkers, spec)
	tr.end(call)
	var serial harness.FleetResult
	var serialOK bool
	tr.do("harness.RunFleetCtx.serial", func() { serial, _, serialOK = w.run(ctx, s, 1, w.spec) })
	tr.end(root)
	if !ok || !serialOK {
		return s
	}
	if serial.Render() != res.Render() {
		s.fail("fleet: report differs between 1 and %d workers", fleetWorkers)
	}
	setup := s.wall - res.Host.Wall
	s.setup = append(s.setup, setup)
	lm.addDur("harness.assemble_s", setup-build-verify)
	lm.addDur("sim.window_s", res.Host.Wall)
	lm.addDur("sim.window_s_serial", serial.Host.Wall)
	lm.add("sim.windows", "count", float64(res.Windows))
	lm.add("sim.messages", "count", float64(res.Messages))
	lm.add("sim.ns_per_event", "ns", float64(res.Host.Wall.Nanoseconds())/float64(res.Events))
	s.events = res.Events
	s.counts = simCounts(res.Stats)
	compareCounts(s, ref.counts)
	return s
}
