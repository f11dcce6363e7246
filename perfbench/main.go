// Command perfbench is the repository's benchmark. One invocation runs one
// workload in its own process, so peak RSS and heap state never carry over
// between workloads:
//
//	bash perfbench/run.sh --workload fig4|sweep|fleet|serve --seed N --seconds S --trace 0|1
//
// The benchmark measures every layer from outside: it times its own calls
// into the public functions of harness, workload, sim, traffic, tracerec,
// exp and serve, and reads exact simulated counts from stats snapshots. It
// adds no code to the program.
//
// With --trace 0 it runs a discarded warm-up iteration, then whole
// iterations until --seconds have passed (at least two), checks every
// output, and reports end-to-end metrics as medians over iterations. Its
// times come raw (wall_s, cpu_s) and scaled to a reference host speed that
// a fixed kernel measures between units of work (ref_cpu_s, setup_s; see
// calib.go); the raw ones are printed, the scaled ones gated. With
// --trace 1 it runs untraced iterations, then traced ones with spans and a
// CPU profile, and reports per-layer metrics; the spans and the profile are
// written under -out. The last line of standard output is one JSON object
// holding exactly the metrics BENCHMARK.json names for the mode.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minIterations keeps every end-to-end median off a single sample.
const minIterations = 2

// metric is one named, unit-carrying number. n is the number of samples
// it was computed from (0 for exact counts).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
	note  string
}

// sample is one iteration's measurements.
type sample struct {
	wall  time.Duration
	setup []time.Duration
	// units are host times per unit of work: a fig4 run, a sweep cell or a
	// serve job. first is serve's submit-to-first-event latency per job.
	units []time.Duration
	first []time.Duration
	// events is the simulated event count (0 where the iteration cannot
	// observe it from outside, as in serve).
	events uint64
	// counts are exact simulated work counts, compared between runs.
	counts map[string]float64
	alloc  uint64
	// cpu is the process's CPU time (user and system, every thread) over
	// the iteration. Unlike wall time it excludes time the host steals
	// from this machine's virtual CPUs.
	cpu time.Duration
	// refCPU is cpu scaled to the reference host's speed, and slowdown
	// this host's slowness relative to it over the iteration (see
	// calib.go); both are 0 in traced runs.
	refCPU, slowdown float64
	// attempted and failed count runs, cells, tenants or jobs; problems
	// describes each failed check.
	attempted, failed int
	problems          []string
}

func (s *sample) fail(format string, args ...any) {
	s.failed++
	s.problems = append(s.problems, fmt.Sprintf(format, args...))
}

// bench is one workload.
type bench interface {
	// iterate runs one untraced iteration and checks its outputs.
	iterate(ctx context.Context) *sample
	// warmup is the discarded first iteration, which fills lazy caches and
	// grows the heap before timing. Its outputs are checked too.
	warmup(ctx context.Context) *sample
	// traced runs one iteration with spans recorded in tr. ref is an
	// untraced iteration of the same process, whose simulated results the
	// traced one must reproduce exactly. It adds workload-specific layer
	// metrics to lm.
	traced(ctx context.Context, tr *tracer, ref *sample, lm *layerMetrics) *sample
}

func main() { os.Exit(run()) }

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: fig4, sweep, fleet or serve")
	seed := fs.Uint64("seed", 0, "workload seed (0 is the default seed, whose outputs are also checked against recorded digests)")
	seconds := fs.Int("seconds", 10, "how long one run measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	out := fs.String("out", ".bench_build", "directory for the span file and CPU profile")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if *seconds < 1 || *seconds > 600 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "perfbench: want --seconds 1..600, --trace 0|1 and no operands")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	results, err := os.ReadFile("RESULTS.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	// The serial workloads get one P: on a virtual machine, waking an idle
	// second CPU for each goroutine hand-off adds latency and spinning CPU
	// time that vary with the host's load, not with the program.
	procs := 1
	var b bench
	switch *name {
	case "fig4":
		b, err = newFig4(string(results))
	case "sweep":
		b = newSweep(*seed)
	case "fleet":
		b = newFleet(*seed)
		procs = fleetWorkers
	case "serve":
		b = newServe(*seed)
	default:
		err = fmt.Errorf("unknown --workload %q (fig4, sweep, fleet, serve)", *name)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}

	runtime.GOMAXPROCS(procs)
	fmt.Println("host", hostRecord())
	fmt.Printf("workload %s seed %d seconds %d trace %d\n", *name, *seed, *seconds, *trace)
	ctx := context.Background()
	budget := time.Duration(*seconds) * time.Second
	var (
		ms    []metric
		all   []*sample
		want  []specMetric
		extra []string
	)
	if *trace == 0 {
		ms, all = measureEndToEnd(ctx, b, budget)
		want = spec.EndToEnd
	} else {
		base := filepath.Join(*out, fmt.Sprintf("perfbench-%s-seed%d", *name, *seed))
		ms, all, extra = measureLayers(ctx, b, budget, base)
		want = spec.PerLayer
	}

	attempted, failed := 0, 0
	for _, s := range all {
		attempted += s.attempted
		failed += s.failed
		for _, p := range s.problems {
			fmt.Println("FAIL", p)
		}
	}
	if attempted > 0 {
		ms = append(ms, metric{name: "error_rate", unit: "ratio", value: float64(failed) / float64(attempted), n: attempted})
	}
	selfProblems := selfCheck(ms, want, *trace == 0)
	for _, p := range selfProblems {
		fmt.Println("SELFCHECK", p)
	}
	for _, m := range ms {
		fmt.Println(m.String())
	}
	for _, line := range extra {
		fmt.Println(line)
	}

	correct := failed == 0 && len(selfProblems) == 0 && attempted > 0
	if attempted == 0 {
		attempted = 1
		failed = 1
	}
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	type jv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	jm := map[string]jv{}
	for _, w := range want {
		if m, ok := byName[w.Name]; ok {
			jm[w.Name] = jv{Value: m.value, Unit: m.unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jv `json:"metrics"`
	}{correct, attempted, failed, jm})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func (m metric) String() string {
	s := fmt.Sprintf("metric %-26s %16.6g %-6s", m.name, m.value, m.unit)
	if m.n > 0 {
		s += fmt.Sprintf(" n=%d", m.n)
	}
	if m.note != "" {
		s += " " + m.note
	}
	return s
}

// timed runs one iteration with allocation and CPU-time accounting.
func timed(fn func() *sample) *sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calib.begin()
	c0 := cpuTime()
	s := fn()
	s.cpu = cpuTime() - c0
	pc, pw := calib.ticked()
	s.cpu -= pc
	s.wall -= pw
	s.refCPU, s.slowdown = calib.end()
	runtime.ReadMemStats(&after)
	s.alloc = after.TotalAlloc - before.TotalAlloc
	return s
}

// measureEndToEnd runs the warm-up and the measured iterations and derives
// the end-to-end metrics. The warm-up's checks count; its times do not.
func measureEndToEnd(ctx context.Context, b bench, budget time.Duration) ([]metric, []*sample) {
	calib = newCalibrator()
	defer func() { calib = nil }()
	warm := timed(func() *sample { return b.warmup(ctx) })
	all := []*sample{warm}
	var runs []*sample
	deadline := time.Now().Add(budget)
	for len(runs) < minIterations || time.Now().Before(deadline) {
		s := timed(func() *sample { return b.iterate(ctx) })
		runs = append(runs, s)
		all = append(all, s)
	}
	return endToEnd(runs), all
}

func endToEnd(runs []*sample) []metric {
	var walls, cpus, refCPUs, refWalls, slowdowns, setups, allocs, units, firsts, eps []float64
	for _, s := range runs {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		refCPUs = append(refCPUs, s.refCPU)
		refWalls = append(refWalls, s.wall.Seconds()/s.slowdown)
		slowdowns = append(slowdowns, s.slowdown)
		allocs = append(allocs, float64(s.alloc)/1e6)
		for _, d := range s.setup {
			setups = append(setups, d.Seconds()/s.slowdown)
		}
		for _, d := range s.units {
			units = append(units, float64(d)/1e6)
		}
		for _, d := range s.first {
			firsts = append(firsts, float64(d)/1e6)
		}
		if s.events > 0 {
			eps = append(eps, float64(s.events)/s.wall.Seconds())
		}
	}
	note := fmt.Sprintf("median of %d iterations", len(runs))
	ms := []metric{
		{name: "wall_s", unit: "s", value: median(walls), n: len(walls), note: note + ": " + formatSeconds(walls)},
		{name: "cpu_s", unit: "s", value: median(cpus), n: len(cpus), note: note + ": " + formatSeconds(cpus)},
		{name: "ref_cpu_s", unit: "s", value: median(refCPUs), n: len(refCPUs), note: note + ": " + formatSeconds(refCPUs)},
		{name: "ref_wall_s", unit: "s", value: median(refWalls), n: len(refWalls), note: note + ": " + formatSeconds(refWalls)},
		{name: "host_slowdown", unit: "ratio", value: median(slowdowns), n: len(slowdowns), note: note + ": " + formatSeconds(slowdowns)},
		{name: "setup_s", unit: "s", value: median(setups), n: len(setups), note: "median, scaled to the reference host"},
		{name: "peak_rss_mb", unit: "MB", value: peakRSSMB(), n: len(runs), note: "process peak over all iterations"},
		{name: "alloc_mb", unit: "MB", value: median(allocs), n: len(allocs), note: note},
	}
	if len(eps) > 0 {
		ms = append(ms, metric{name: "events_per_s", unit: "1/s", value: median(eps), n: len(eps), note: note})
	}
	if len(units) > 0 {
		ms = append(ms, metric{name: "cell_p50_ms", unit: "ms", value: median(units), n: len(units)})
		if p, v, beyond, ok := tail(units); ok {
			ms = append(ms, metric{name: "cell_tail_ms", unit: "ms", value: v, n: len(units),
				note: fmt.Sprintf("p%s, %d samples beyond it", p, beyond)})
		}
	}
	if len(firsts) > 0 {
		ms = append(ms, metric{name: "first_event_ms", unit: "ms", value: median(firsts), n: len(firsts), note: "median over jobs"})
	}
	return ms
}

// measureLayers is the traced run: a discarded warm-up, untraced
// iterations for the reference wall time and simulated results, then
// traced iterations under a CPU profile.
func measureLayers(ctx context.Context, b bench, budget time.Duration, base string) ([]metric, []*sample, []string) {
	warm := timed(func() *sample { return b.warmup(ctx) })
	all := []*sample{warm}
	var plain []*sample
	deadline := time.Now().Add(budget / 2)
	for len(plain) < 1 || time.Now().Before(deadline) {
		s := timed(func() *sample { return b.iterate(ctx) })
		plain = append(plain, s)
		all = append(all, s)
	}
	ref := plain[len(plain)-1]

	tr := newTracer()
	lm := newLayerMetrics()
	prof, err := startProfile(base + ".pprof")
	if err != nil {
		warm.fail("cpu profile: %v", err)
	}
	var traced []*sample
	deadline = time.Now().Add(budget / 2)
	for len(traced) < 1 || time.Now().Before(deadline) {
		tr.nextRun()
		s := lm.runtimeDelta(func() *sample {
			return timed(func() *sample { return b.traced(ctx, tr, ref, lm) })
		})
		traced = append(traced, s)
		all = append(all, s)
	}
	var extra []string
	if prof != nil {
		shares, n, err := prof.stop()
		if err != nil {
			warm.fail("cpu profile: %v", err)
		}
		for _, k := range sortedKeys(shares) {
			lm.set("cpu."+k, "share", shares[k], n)
		}
		extra = append(extra, fmt.Sprintf("cpuprofile %s (%d samples)", base+".pprof", n))
	}
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		warm.fail("span file: %v", err)
	}
	extra = append(extra, tr.summary(base+".spans.jsonl")...)

	var pw, tw []float64
	for _, s := range plain {
		pw = append(pw, s.wall.Seconds())
	}
	for _, s := range traced {
		tw = append(tw, s.wall.Seconds())
	}
	lm.set("bench.trace_overhead_s", "s", median(tw)-median(pw), len(tw))
	lm.set("runtime.heap_peak_mb", "MB", float64(tr.heapPeak)/1e6, 0)
	for k, v := range traced[len(traced)-1].counts {
		lm.set(k, countUnit(k), v, 0)
	}
	return lm.list(), all, extra
}

// countUnit is the unit of an exact simulated count.
func countUnit(name string) string {
	if strings.HasSuffix(name, "_ratio") {
		return "ratio"
	}
	return "count"
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("run from the repository root: %w", err)
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// selfCheck enforces the benchmark's own rules: well-formed names with
// units, every metric BENCHMARK.json names present with its unit, no
// end-to-end metric from a single sample, and no two end-to-end metrics
// equal (a copy of another metric is a defect, not a measurement).
func selfCheck(ms []metric, want []specMetric, endToEnd bool) []string {
	var bad []string
	byName := map[string]metric{}
	for _, m := range ms {
		if !nameRE.MatchString(m.name) || m.unit == "" {
			bad = append(bad, fmt.Sprintf("metric %q has a malformed name or no unit", m.name))
		}
		if _, dup := byName[m.name]; dup {
			bad = append(bad, fmt.Sprintf("metric %q reported twice", m.name))
		}
		byName[m.name] = m
	}
	for _, w := range want {
		m, ok := byName[w.Name]
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("metric %q is not measured by this workload", w.Name))
		case m.unit != w.Unit:
			bad = append(bad, fmt.Sprintf("metric %q has unit %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit))
		case endToEnd && m.n < minIterations:
			bad = append(bad, fmt.Sprintf("metric %q comes from %d sample(s)", w.Name, m.n))
		case endToEnd && m.value <= 0:
			bad = append(bad, fmt.Sprintf("metric %q is %v", w.Name, m.value))
		}
	}
	if endToEnd {
		for i, a := range ms {
			for _, c := range ms[i+1:] {
				if a.value == c.value && a.value != 0 {
					bad = append(bad, fmt.Sprintf("metrics %q and %q are equal", a.name, c.name))
				}
			}
		}
	}
	return bad
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// formatSeconds lists samples, for the report.
func formatSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}
