package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer. Spans of one traced iteration share
// Run; Parent is the enclosing span's ID (0 at the top).
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine: every traced call is made by the benchmark's own goroutine,
// including the workload builds RunFleetCtx makes during its serial setup.
type tracer struct {
	t0    time.Time
	run   int
	spans []span
	open  []int // indices into spans of the enclosing spans
	// heapPeak is the largest live heap seen at a span's end.
	heapPeak uint64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) nextRun() { t.run++ }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

// end closes the span opened by begin and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = int64(time.Since(t.t0))
	if h := heapBytes(); h > t.heapPeak {
		t.heapPeak = h
	}
	if n := len(t.open); n > 0 && t.open[n-1] == i {
		t.open = t.open[:n-1]
	}
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, fn func()) time.Duration {
	i := t.begin(name)
	fn()
	return t.end(i)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary reports, per span name, calls, total time and self time (the
// span's duration minus the time its direct children cover), averaged
// per traced iteration.
func (t *tracer) summary(path string) []string {
	type agg struct {
		calls       int
		total, self int64
	}
	byID := map[int]*span{}
	for i := range t.spans {
		byID[t.spans[i].ID] = &t.spans[i]
	}
	aggs := map[string]*agg{}
	for _, s := range t.spans {
		a := aggs[s.Name]
		if a == nil {
			a = &agg{}
			aggs[s.Name] = a
		}
		d := s.End - s.Start
		a.calls++
		a.total += d
		a.self += d
		if p := byID[s.Parent]; p != nil {
			aggs[p.Name].self -= d
		}
	}
	runs := t.run
	if runs < 1 {
		runs = 1
	}
	lines := []string{fmt.Sprintf("spans %s (%d spans, %d traced iterations; per-iteration averages below)", path, len(t.spans), runs)}
	for _, name := range sortedKeys(aggs) {
		a := aggs[name]
		lines = append(lines, fmt.Sprintf("span %-28s calls=%-6d total_s=%-12.6f self_s=%.6f",
			name, a.calls/runs, float64(a.total)/1e9/float64(runs), float64(a.self)/1e9/float64(runs)))
	}
	return lines
}
