package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailLadder is the percentile ladder cell_tail_ms picks from.
var tailLadder = []struct {
	label string
	q     float64
}{{"99.9", 0.999}, {"99", 0.99}, {"95", 0.95}, {"90", 0.90}, {"75", 0.75}, {"50", 0.50}}

// tail returns the highest ladder percentile (nearest rank) that has at
// least ten samples beyond it, with its value and that sample count.
func tail(xs []float64) (label string, v float64, beyond int, ok bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range tailLadder {
		idx := int(math.Ceil(p.q*float64(len(s)))) - 1
		if idx < 0 {
			continue
		}
		if n := len(s) - idx - 1; n >= 10 {
			return p.label, s[idx], n, true
		}
	}
	return "", 0, 0, false
}

// peakRSSMB is the process's peak resident set, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPUTime is the calling thread's CPU time so far, to the
// nanosecond (getrusage counts a single thread's time in clock ticks).
func threadCPUTime() time.Duration {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID on Linux
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// hostRecord describes the host every result was measured on.
func hostRecord() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d go=%s cpu=%q", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapBytes reads the live heap without stopping the world.
func heapBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// layerMetrics accumulates per-layer metrics of the traced iterations.
// Values given with add are summed per iteration and reported as the
// median over traced iterations; set overwrites.
type layerMetrics struct {
	iter  int
	sums  []map[string]float64
	units map[string]string
	fixed map[string]metric
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{units: map[string]string{}, fixed: map[string]metric{}}
}

// add adds v to this traced iteration's total of name.
func (l *layerMetrics) add(name, unit string, v float64) {
	for len(l.sums) <= l.iter {
		l.sums = append(l.sums, map[string]float64{})
	}
	l.sums[l.iter][name] += v
	l.units[name] = unit
}

// current is this traced iteration's total of name so far.
func (l *layerMetrics) current(name string) float64 {
	if l.iter < len(l.sums) {
		return l.sums[l.iter][name]
	}
	return 0
}

func (l *layerMetrics) addDur(name string, d time.Duration) { l.add(name, "s", d.Seconds()) }

func (l *layerMetrics) set(name, unit string, v float64, n int) {
	l.fixed[name] = metric{name: name, unit: unit, value: v, n: n}
}

// runtimeDelta runs one traced iteration and records its runtime costs.
func (l *layerMetrics) runtimeDelta(fn func() *sample) *sample {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := fn()
	runtime.ReadMemStats(&after)
	l.add("runtime.gc_cycles", "count", float64(after.NumGC-before.NumGC))
	l.add("runtime.gc_pause_ms", "ms", float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
	l.add("runtime.mallocs", "count", float64(after.Mallocs-before.Mallocs))
	l.iter++
	return s
}

// list returns every metric: per-iteration medians of the summed ones,
// then the fixed ones.
func (l *layerMetrics) list() []metric {
	vals := map[string][]float64{}
	for _, it := range l.sums {
		for name := range l.units {
			vals[name] = append(vals[name], it[name])
		}
	}
	var out []metric
	for _, name := range sortedKeys(vals) {
		out = append(out, metric{name: name, unit: l.units[name], value: median(vals[name]), n: len(vals[name]), note: "median per traced iteration"})
	}
	for _, name := range sortedKeys(l.fixed) {
		if _, dup := vals[name]; !dup {
			out = append(out, l.fixed[name])
		}
	}
	return out
}
