package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"bordercontrol/internal/core"
	"bordercontrol/internal/harness"
	"bordercontrol/internal/serve"
	"bordercontrol/internal/stats"
	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/traffic"
	"bordercontrol/internal/workload"
)

// serveRepeats is how many jobs of an iteration re-submit an earlier
// request, which the daemon's artifact cache serves: a quarter of the
// sixteen jobs.
const serveRepeats = 4

// serveExtraStarts is how many more daemon start-ups an iteration times.
const serveExtraStarts = 4

// servePool is the distinct requests of every job sequence: six single
// runs (workloads whose runs take a fraction of a second) and six small
// sweeps, one per traffic shape and two more. Every seed submits all of
// them, so the simulated work is the same at every seed; the seed picks
// their order and which earlier requests are re-submitted.
var servePool = []serve.Request{
	{Type: "run", Run: &serve.RunSpec{Workload: "backprop", Mode: "bc-bcc", Class: "high"}},
	{Type: "run", Run: &serve.RunSpec{Workload: "hotspot", Mode: "full-iommu", Class: "mod"}},
	{Type: "run", Run: &serve.RunSpec{Workload: "lud", Mode: "bc-nobcc", Class: "mod"}},
	{Type: "run", Run: &serve.RunSpec{Workload: "nn", Mode: "capi-like", Class: "high"}},
	{Type: "run", Run: &serve.RunSpec{Workload: "pathfinder", Mode: "ats-only", Class: "mod"}},
	{Type: "run", Run: &serve.RunSpec{Workload: "pathfinder", Mode: "bc-bcc", Class: "high"}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"bursty"}, Seeds: 1, Classes: "high", CSV: true}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"churn"}, Seeds: 1, Classes: "moderate", Borders: []string{"sparta"}}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"mix"}, Seeds: 2, Classes: "high", Modes: []string{"bc-nobcc", "bc-bcc"}, CSV: true}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"stream"}, Seeds: 1, Classes: "moderate", Borders: []string{"range"}, CSV: true}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"mix"}, Seeds: 1, Classes: "moderate", Borders: []string{"flat"}}},
	{Type: "sweep", Sweep: &serve.SweepSpec{Traffic: []string{"bursty"}, Seeds: 1, Classes: "moderate", Modes: []string{"bc-bcc"}}},
}

// serveBench drives an in-process daemon (serve.New with in-process sweeps
// and Jobs = 1) over loopback HTTP with one closed-loop client: each job is
// submitted, streamed to its terminal state and its artifact read before
// the next is sent. It runs on one P like the other serial workloads, so
// the client reads the event stream only when the executor yields (at a
// preemption, about every 10 ms, or at the job's end): first_event_ms and
// serve.queue_wait_ms include that wait.
type serveBench struct {
	reqs []serve.Request
	// refs caches the in-process rendering of each distinct request.
	refs map[string]string
}

// newServe builds the seed's job sequence: the pool in a seeded order,
// with serveRepeats re-submissions of earlier requests inserted at seeded
// places.
func newServe(seed uint64) *serveBench {
	r := &rng{s: seed}
	reqs := append([]serve.Request(nil), servePool...)
	for i := len(reqs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		reqs[i], reqs[j] = reqs[j], reqs[i]
	}
	for k := 0; k < serveRepeats; k++ {
		at := 1 + r.intn(len(reqs))
		reqs = append(reqs[:at], append([]serve.Request{reqs[r.intn(at)]}, reqs[at:]...)...)
	}
	return &serveBench{reqs: reqs, refs: map[string]string{}}
}

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func reqKey(req serve.Request) string {
	blob, _ := json.Marshal(req) // plain structs of strings and numbers always marshal
	return string(blob)
}

// jobTiming is one job's client-side timeline, measured from submission.
type jobTiming struct {
	submit, first, running, terminal, total time.Duration
	cached                                  bool
	art                                     string
}

// daemon is one in-process service on a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	cancel context.CancelFunc
	tr     *http.Transport
	c      *serve.Client
}

func startDaemon(ctx context.Context) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Options{Jobs: 1}), served: make(chan error, 1), tr: &http.Transport{}}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	sctx, cancel := context.WithCancel(ctx)
	d.cancel = cancel
	d.srv.Start(sctx)
	d.c = &serve.Client{Base: "http://" + ln.Addr().String(), HTTP: &http.Client{Transport: d.tr}}
	if err := d.c.WaitReady(ctx, 10*time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// stop shuts the executor and the HTTP server down and waits for both.
func (d *daemon) stop() {
	d.cancel()
	d.srv.Stop()
	d.hs.Close()
	<-d.served
	d.tr.CloseIdleConnections()
}

// job runs one request through submit, stream and fetch.
func (d *daemon) job(ctx context.Context, req serve.Request, tr *tracer) (jobTiming, error) {
	var t jobTiming
	do := func(name string, fn func()) {
		if tr != nil {
			tr.do(name, fn)
		} else {
			fn()
		}
	}
	j0 := time.Now()
	var st serve.JobStatus
	var err error
	do("serve.submit", func() { st, err = d.c.Submit(ctx, req) })
	t.submit = time.Since(j0)
	if err != nil {
		return t, err
	}
	do("serve.stream", func() {
		st, err = d.c.Stream(ctx, st.ID, func(ev serve.Event) {
			now := time.Since(j0)
			if t.first == 0 {
				t.first = now
			}
			if ev.Type == "state" && ev.Msg == serve.StateRunning {
				t.running = now
			}
		})
	})
	t.terminal = time.Since(j0)
	if err != nil {
		return t, err
	}
	if st.State != serve.StateDone {
		return t, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	t.cached = st.Cached
	do("serve.fetch", func() { t.art, err = d.c.Artifact(ctx, st.ID) })
	t.total = time.Since(j0)
	return t, err
}

// counts reads the daemon's exact simulated counts from its metrics page:
// run jobs export their full snapshots, sweep jobs their event totals.
func (d *daemon) counts(ctx context.Context) (map[string]float64, error) {
	text, err := d.c.MetricsText(ctx)
	if err != nil {
		return nil, err
	}
	m, err := serve.ParseMetrics(text)
	if err != nil {
		return nil, err
	}
	c := countsFrom(func(name string) float64 { return m[stats.PromName("bc_job_", name)] })
	c["sim.events"] += m[stats.PromName("bc_job_", "sweep.events")]
	return c, nil
}

// session runs one iteration: daemon start, the job sequence, shutdown,
// then the output checks.
func (w *serveBench) session(ctx context.Context, tr *tracer) (*sample, []jobTiming) {
	s := &sample{}
	t0 := time.Now()
	var d *daemon
	var err error
	if tr != nil {
		tr.do("serve.start", func() { d, err = startDaemon(ctx) })
	} else {
		d, err = startDaemon(ctx)
	}
	if err != nil {
		s.attempted++
		s.fail("serve: start: %v", err)
		return s, nil
	}
	s.setup = append(s.setup, time.Since(t0))
	var jobs []jobTiming
	for i, req := range w.reqs {
		s.attempted++
		var t jobTiming
		if tr != nil {
			jt := tr.begin("serve.job")
			t, err = d.job(ctx, req, tr)
			tr.end(jt)
		} else {
			t, err = d.job(ctx, req, nil)
		}
		if err != nil {
			s.fail("serve job %d (%s): %v", i, req.Type, err)
			continue
		}
		s.units = append(s.units, t.total)
		s.first = append(s.first, t.first)
		jobs = append(jobs, t)
		w.check(ctx, s, i, t)
		calib.tick()
	}
	s.counts, err = d.counts(ctx)
	if err != nil {
		s.fail("serve: metrics: %v", err)
	}
	d.stop()
	s.wall = time.Since(t0)
	// More start-ups of a fresh daemon, outside the iteration's wall time,
	// so setup_s is a median over many sub-millisecond samples.
	for k := 0; k < serveExtraStarts; k++ {
		t := time.Now()
		d, err := startDaemon(ctx)
		if err != nil {
			s.attempted++
			s.fail("serve: start: %v", err)
			continue
		}
		s.setup = append(s.setup, time.Since(t))
		d.stop()
	}
	return s, jobs
}

// check compares a job's artifact with the in-process rendering of its
// request; a repeated request must be a cache hit with the same bytes.
func (w *serveBench) check(ctx context.Context, s *sample, i int, t jobTiming) {
	req := w.reqs[i]
	repeat := false
	for _, prev := range w.reqs[:i] {
		if reqKey(prev) == reqKey(req) {
			repeat = true
		}
	}
	if t.cached != repeat {
		s.fail("serve job %d: cached=%v, want %v", i, t.cached, repeat)
	}
	k := reqKey(req)
	ref, ok := w.refs[k]
	if !ok {
		var err error
		if ref, err = reference(ctx, req); err != nil {
			s.fail("serve job %d: in-process reference: %v", i, err)
			return
		}
		w.refs[k] = ref
	}
	if t.art != ref {
		s.fail("serve job %d (%s): artifact differs from the in-process rendering", i, k)
	}
}

func (w *serveBench) warmup(ctx context.Context) *sample { return w.iterate(ctx) }

func (w *serveBench) iterate(ctx context.Context) *sample {
	s, _ := w.session(ctx, nil)
	return s
}

func (w *serveBench) traced(ctx context.Context, tr *tracer, ref *sample, lm *layerMetrics) *sample {
	root := tr.begin("serve.iteration")
	s, jobs := w.session(ctx, tr)
	tr.end(root)
	var submit, queue, exec, fetch []float64
	hits := 0
	for _, t := range jobs {
		submit = append(submit, float64(t.submit)/1e6)
		queue = append(queue, float64(t.running)/1e6)
		exec = append(exec, float64(t.terminal-t.running)/1e6)
		fetch = append(fetch, float64(t.total-t.terminal)/1e6)
		if t.cached {
			hits++
		}
	}
	lm.add("serve.submit_ms", "ms", median(submit))
	lm.add("serve.queue_wait_ms", "ms", median(queue))
	lm.add("serve.exec_ms", "ms", median(exec))
	lm.add("serve.fetch_ms", "ms", median(fetch))
	if len(jobs) > 0 {
		lm.add("serve.cache_hit_ratio", "ratio", float64(hits)/float64(len(jobs)))
	}
	compareCounts(s, ref.counts)
	return s
}

// reference renders a request in process, through the same harness calls
// the daemon makes, without HTTP, the queue or the cache.
func reference(ctx context.Context, req serve.Request) (string, error) {
	switch {
	case req.Run != nil:
		return referenceRun(ctx, req.Run)
	case req.Sweep != nil:
		return referenceSweep(ctx, req.Sweep)
	}
	return "", fmt.Errorf("no reference for job type %q", req.Type)
}

func referenceRun(ctx context.Context, rs *serve.RunSpec) (string, error) {
	mode, err := harness.ParseModeSlug(rs.Mode)
	if err != nil {
		return "", err
	}
	class, err := harness.ParseClassSlug(rs.Class)
	if err != nil {
		return "", err
	}
	spec, ok := workload.ByName(rs.Workload)
	if !ok {
		return "", fmt.Errorf("unknown workload %q", rs.Workload)
	}
	res, err := harness.RunCtx(ctx, mode, class, spec, harness.DefaultParams(), harness.RunOptions{})
	if err != nil {
		return "", err
	}
	return renderRun(mode, res), nil
}

// renderRun is the `bctool run` report, the daemon's run artifact.
func renderRun(mode harness.Mode, res harness.RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload      %s\n", res.Workload)
	fmt.Fprintf(&b, "mode          %v\n", res.Mode)
	fmt.Fprintf(&b, "class         %v\n", res.Class)
	fmt.Fprintf(&b, "GPU cycles    %d\n", res.Cycles)
	fmt.Fprintf(&b, "runtime       %.3f ms\n", float64(res.Runtime)/1e9)
	fmt.Fprintf(&b, "memory ops    %d\n", res.Ops)
	fmt.Fprintf(&b, "DRAM util     %.1f%%\n", res.DRAMUtilization*100)
	if res.L1MissRatio > 0 || res.L2MissRatio > 0 {
		fmt.Fprintf(&b, "L1 miss       %.3f\n", res.L1MissRatio)
		fmt.Fprintf(&b, "L2 miss       %.3f\n", res.L2MissRatio)
		fmt.Fprintf(&b, "L1 TLB miss   %.4f\n", res.TLBMissRatio)
	}
	fmt.Fprintf(&b, "translations  %d (%d page walks)\n", res.Translations, res.PageWalks)
	if mode == harness.BCNoBCC || mode == harness.BCBCC {
		fmt.Fprintf(&b, "BC checks     %d (%.3f/cycle)\n", res.BCChecks, res.RequestsPerCycle())
		fmt.Fprintf(&b, "BCC miss      %.4f\n", res.BCCMissRatio)
	}
	if res.Downgrades > 0 {
		fmt.Fprintf(&b, "downgrades    %d\n", res.Downgrades)
	}
	if res.VerifyErr != nil {
		fmt.Fprintf(&b, "results       INCORRECT: %v\n", res.VerifyErr)
	} else {
		b.WriteString("results       verified correct\n")
	}
	return b.String()
}

// referenceSweep expands a sweep request as `bctool sweep` does: traces
// "<shape>-s<seed>" for seeds 1..Seeds, crossed with the mode, border and
// class axes over DefaultParams.
func referenceSweep(ctx context.Context, sp *serve.SweepSpec) (string, error) {
	traces := map[string]*tracerec.Trace{}
	var names []string
	for _, shape := range sp.Traffic {
		for seed := 1; seed <= sp.Seeds; seed++ {
			tr, err := traffic.Generate(traffic.Config{Shape: shape, Seed: uint64(seed), Workers: 1})
			if err != nil {
				return "", err
			}
			name := fmt.Sprintf("%s-s%d", shape, seed)
			traces[name] = tr
			names = append(names, name)
		}
	}
	modes := []harness.Mode{harness.ATSOnly, harness.FullIOMMU, harness.CAPILike, harness.BCNoBCC, harness.BCBCC}
	if len(sp.Modes) > 0 {
		modes = nil
		for _, m := range sp.Modes {
			mode, err := harness.ParseModeSlug(m)
			if err != nil {
				return "", err
			}
			modes = append(modes, mode)
		}
	}
	borders := core.Designs()
	if len(sp.Borders) > 0 {
		borders = sp.Borders
	}
	class, err := harness.ParseClassSlug(sp.Classes)
	if err != nil {
		return "", err
	}
	cells := harness.RecordedCells(traces, names, modes, borders, []harness.GPUClass{class}, harness.DefaultParams(), 0)
	rows, err := harness.RunSweepExec(ctx, harness.Exec{Jobs: 1}, cells)
	if err != nil {
		return "", err
	}
	if sp.CSV {
		return harness.SweepCSV(rows), nil
	}
	return harness.RenderSweep(rows), nil
}
