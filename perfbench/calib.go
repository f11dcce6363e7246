package main

import (
	"runtime"
	"sync"
	"time"
)

// The benchmark runs on virtual machines that share their hardware, whose
// speed moves by a quarter or more in phases of seconds to minutes as
// other tenants load it. A time measured there mixes the program's cost
// with the host's speed at that moment. The calibrator separates them: it
// runs a fixed reference kernel between units of a workload's work (a
// Figure 4 run, a few sweep cells, a serve job, a fleet tenant build) and
// scales each stretch of work by the kernel's speed measured just before
// and just after it. The scaled times read as times on a host where the
// kernel takes refNominal; the kernel lives in the benchmark, so it is
// the same on every commit measured and a change to the program moves
// the scaled times as it moves the raw ones.

// refSteps is the size of each half of the reference kernel; the whole
// kernel takes about 0.8 ms on the 2-vCPU Xeon host the benchmark was
// tuned on.
const refSteps = 15_000

// refNominal is the reference kernel's CPU (and wall) time in seconds on
// that host; scaled times are in seconds of a host where it takes this.
const refNominal = 0.0008

// probeRuns is how many kernel runs one probe takes; the probe reads
// their median, so a preemption inside one run does not move it.
const probeRuns = 5

// probeEvery is the CPU time of work between two probes.
const probeEvery = 150 * time.Millisecond

// refKernel is the reference work, in two halves: random reads and writes
// over a 64 KiB table, which stays in the CPU's private caches, then over
// a 4 MiB one, which reaches the shared cache and memory, each beside
// lookups in an 8192-entry map that miss half the time. The simulator
// spends its time on both kinds of access: a neighbour on the same core
// slows the first, one on the same socket the second. Against sweep and
// serve runs at different host speeds, this mix tracked the simulator
// better than either half alone or a pass over a 32 MiB table. It
// allocates nothing, so it never moves the garbage collector's schedule.
type refKernel struct {
	small, large []uint64
	m            map[uint64]uint64
	sink         uint64
}

func newRefKernel() *refKernel {
	k := &refKernel{small: make([]uint64, 1<<13), large: make([]uint64, 1<<19), m: make(map[uint64]uint64, 8192)}
	for i := uint64(0); i < 8192; i++ {
		k.m[2*i] = i
	}
	return k
}

// run does the same work on every call.
func (k *refKernel) run() {
	k.pass(k.small, 0x7ff)
	k.pass(k.large, 0x3fff)
}

func (k *refKernel) pass(table []uint64, keys uint64) {
	x := uint64(0x9e3779b97f4a7c15)
	mask := uint64(len(table) - 1)
	var acc uint64
	for i := 0; i < refSteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		table[x&mask] += x
		acc += k.m[x&keys]
	}
	k.sink += acc
}

// probe is one speed reading: the kernel's median CPU and wall time, and
// the process CPU time and clock when the probe began and ended.
type probe struct {
	cpu, wall          float64
	cpuStart, cpuEnd   time.Duration
	wallStart, wallEnd time.Time
}

// calibrator probes the host's speed during one iteration. A nil
// calibrator does nothing, so traced runs carry no probes.
type calibrator struct {
	// ks holds one kernel per P: a probe runs them at once, one per
	// virtual CPU, since the CPUs of a workload that runs on more than one
	// can be slowed by different neighbours.
	ks     []*refKernel
	probes []probe
	// ticked is the CPU and wall time of the probes tick took since begin,
	// which the iteration's raw times exclude.
	tickedCPU, tickedWall time.Duration
}

// calib is the calibrator of the end-to-end run; it is nil in traced runs.
var calib *calibrator

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		c.ks = append(c.ks, newRefKernel())
	}
	return c
}

// measure takes one probe: every kernel runs probeRuns times, each on its
// own locked thread, and the probe reads the median of all their runs.
func (c *calibrator) measure() {
	p := probe{cpuStart: cpuTime(), wallStart: time.Now()}
	cpus := make([]float64, len(c.ks)*probeRuns)
	walls := make([]float64, len(cpus))
	var wg sync.WaitGroup
	for g, k := range c.ks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			for i := g * probeRuns; i < (g+1)*probeRuns; i++ {
				c0, w0 := threadCPUTime(), time.Now()
				k.run()
				walls[i] = time.Since(w0).Seconds()
				cpus[i] = (threadCPUTime() - c0).Seconds()
			}
		}()
	}
	wg.Wait()
	p.cpuEnd, p.wallEnd = cpuTime(), time.Now()
	p.cpu, p.wall = median(cpus), median(walls)
	c.probes = append(c.probes, p)
}

// begin starts an iteration with a probe.
func (c *calibrator) begin() {
	if c == nil {
		return
	}
	c.probes = c.probes[:0]
	c.tickedCPU, c.tickedWall = 0, 0
	c.measure()
}

// tick is called by a workload between units of work; it probes once
// probeEvery of CPU time has passed since the last probe.
func (c *calibrator) tick() {
	if c == nil || len(c.probes) == 0 {
		return
	}
	if cpuTime()-c.probes[len(c.probes)-1].cpuEnd < probeEvery {
		return
	}
	c.measure()
	p := c.probes[len(c.probes)-1]
	c.tickedCPU += p.cpuEnd - p.cpuStart
	c.tickedWall += p.wallEnd.Sub(p.wallStart)
}

// ticked is the CPU and wall time the probes of tick took since begin.
func (c *calibrator) ticked() (cpu, wall time.Duration) {
	if c == nil {
		return 0, 0
	}
	return c.tickedCPU, c.tickedWall
}

// end closes the iteration with a probe and returns its work's CPU time
// scaled to the reference host: each stretch between two probes divided
// by the mean of their kernel times, times refNominal. slowdown is the
// mean kernel wall time over the iteration divided by refNominal; wall
// times divided by it read as wall times on the reference host.
func (c *calibrator) end() (scaledCPU, slowdown float64) {
	if c == nil {
		return 0, 0
	}
	c.measure()
	var wall float64
	for i, p := range c.probes {
		wall += p.wall
		if i == 0 {
			continue
		}
		q := c.probes[i-1]
		scaledCPU += (p.cpuStart - q.cpuEnd).Seconds() / ((p.cpu + q.cpu) / 2)
	}
	return scaledCPU * refNominal, wall / float64(len(c.probes)) / refNominal
}
