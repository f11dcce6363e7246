package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bordercontrol/internal/harness"
)

// tinySweepRequest is a grid small enough for unit tests: generator knobs
// shrunk, one shape, two modes, one border, one class, CSV rendering.
func tinySweepRequest() Request {
	return Request{Type: "sweep", Sweep: &SweepSpec{
		Traffic: []string{"bursty"}, Seeds: 1,
		Modes: []string{"bc-nobcc", "bc-bcc"}, Borders: []string{"flat"},
		Classes: "moderate", CSV: true,
		GenSegments: 2, GenWavefronts: 2, GenOps: 64,
	}}
}

func startTestServer(t *testing.T, opts Options) (*Server, *Client) {
	t.Helper()
	srv := New(opts)
	ctx, cancel := context.WithCancel(context.Background())
	srv.Start(ctx)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		cancel()
		srv.Stop()
	})
	return srv, &Client{Base: hs.URL}
}

// TestServeSweepMatchesInProcess: the daemon's sweep artifact is
// byte-identical to the same grid run directly at any pool width, the job
// streams exactly one progress event per cell, and a second identical
// submission is served from the artifact cache — marked cached, same
// bytes, with a cache event in the stream.
func TestServeSweepMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	req := tinySweepRequest()
	req.Sweep.Traffic = []string{"bursty", "stream"}

	cells, _, err := req.Sweep.plan()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := harness.RunSweep(cells, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := harness.SweepCSV(rows)

	for _, jobs := range []int{1, 4} {
		t.Run(fmt.Sprintf("jobs=%d", jobs), func(t *testing.T) {
			_, c := startTestServer(t, Options{Jobs: jobs, Version: "test"})
			if err := c.WaitReady(ctx, 5*time.Second); err != nil {
				t.Fatal(err)
			}
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			notes := map[string]int{}
			final, err := c.Stream(ctx, st.ID, func(e Event) {
				if e.Type == "progress" && strings.HasPrefix(e.Msg, "cell ") {
					notes[e.Msg]++
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if final.State != StateDone || final.Cached {
				t.Fatalf("first run: state=%s cached=%v, want done/uncached", final.State, final.Cached)
			}
			for _, cell := range cells {
				if n := notes[cellNote(cell.Label, nil)]; n != 1 {
					t.Errorf("cell %s: %d progress events, want 1", cell.Label, n)
				}
			}
			if len(notes) != len(cells) {
				t.Errorf("got %d distinct cell notes %v, want one per cell (%d)", len(notes), notes, len(cells))
			}
			art, err := c.Artifact(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if art != want {
				t.Errorf("served artifact differs from in-process sweep:\n--- want\n%s--- got\n%s", want, art)
			}

			// Second identical submission: cache hit, no re-execution, same
			// bytes.
			st2, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			var sawCacheEvent bool
			final2, err := c.Stream(ctx, st2.ID, func(e Event) {
				if e.Type == "cache" {
					sawCacheEvent = true
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if final2.State != StateDone || !final2.Cached {
				t.Fatalf("second run: state=%s cached=%v, want done/cached", final2.State, final2.Cached)
			}
			if !sawCacheEvent {
				t.Error("second run: no cache event in stream")
			}
			art2, err := c.Artifact(ctx, st2.ID)
			if err != nil {
				t.Fatal(err)
			}
			if art2 != art {
				t.Error("cached artifact differs from the original")
			}
		})
	}
}

// TestServeCacheKey: the cache key is artifact identity — a generator
// knob that changes the grid changes the key, and so does the code
// version.
func TestServeCacheKey(t *testing.T) {
	req := tinySweepRequest()
	_, hashes, err := req.Sweep.plan()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := cacheKey("v", req, hashes)
	if err != nil {
		t.Fatal(err)
	}
	req2 := tinySweepRequest()
	req2.Sweep.GenOps = 128
	k2, err := cacheKey("v", req2, hashes)
	if err != nil {
		t.Fatal(err)
	}
	if k2 == k1 {
		t.Error("cache key ignores a generator knob that changes the grid")
	}
	if k3, _ := cacheKey("v2", req, hashes); k3 == k1 {
		t.Error("cache key ignores the code version")
	}
}

// TestServeValidation: malformed submissions are refused with 400 before
// occupying a queue slot.
func TestServeValidation(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	for _, req := range []Request{
		{Type: "warp"},
		{Type: "run"}, // type without its spec
		{Type: "run", Run: &RunSpec{Workload: "nope", Mode: "bc-bcc", Class: "mod"}},
		{Type: "sweep", Sweep: &SweepSpec{Modes: []string{"bogus"}}},
		{Type: "sweep", Sweep: &SweepSpec{Borders: []string{"bogus"}}},
		{Type: "run", Run: &RunSpec{Workload: "pathfinder", Mode: "bc-bcc", Class: "mod"},
			Sweep: &SweepSpec{}}, // two specs
	} {
		if _, err := c.Submit(ctx, req); err == nil || !strings.Contains(err.Error(), "400") {
			t.Errorf("Submit(%+v): err = %v, want 400", req, err)
		}
	}
}

// TestServeQueueBound: without a running executor, submissions beyond
// QueueDepth are refused with 503 — deterministically, since nothing
// drains the queue.
func TestServeQueueBound(t *testing.T) {
	srv := New(Options{QueueDepth: 2, Version: "test"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()
	req := tinySweepRequest()
	for i := 0; i < 2; i++ {
		if _, err := c.Submit(ctx, req); err != nil {
			t.Fatalf("submission %d: %v", i, err)
		}
	}
	_, err := c.Submit(ctx, req)
	if err == nil || !strings.Contains(err.Error(), "503") {
		t.Fatalf("third submission: err = %v, want 503 queue full", err)
	}
}

// TestServeCancelQueued: a queued job can be cancelled before any
// executor picks it up, and the executor then skips it.
func TestServeCancelQueued(t *testing.T) {
	srv := New(Options{Version: "test"})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()

	st, err := c.Submit(ctx, tinySweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	got, err := c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", got.State)
	}

	// Starting the executor now must leave the cancelled job untouched.
	runCtx, cancel := context.WithCancel(context.Background())
	srv.Start(runCtx)
	defer func() { cancel(); srv.Stop() }()
	time.Sleep(50 * time.Millisecond)
	got, err = c.Status(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("after executor start: state = %s, want cancelled", got.State)
	}
	if err := c.Cancel(ctx, "j9999"); err == nil {
		t.Error("cancelling an unknown job: want error")
	}
}

// TestServeRunJob: a run job renders the `bctool run` report.
func TestServeRunJob(t *testing.T) {
	_, c := startTestServer(t, Options{Version: "test"})
	ctx := context.Background()
	st, err := c.Submit(ctx, Request{Type: "run", Run: &RunSpec{
		Workload: "pathfinder", Mode: "bc-bcc", Class: "moderate",
	}})
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.Stream(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	art, err := c.Artifact(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workload      pathfinder", "BC checks", "results       verified correct"} {
		if !strings.Contains(art, want) {
			t.Errorf("run artifact missing %q:\n%s", want, art)
		}
	}
}
