package harness

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"bordercontrol/internal/accel"
	"bordercontrol/internal/hostos"
	"bordercontrol/internal/workload"
)

// countingSpec is the named workload with its Build wrapped in a call
// counter: the number of live generations a sweep performs.
func countingSpec(t *testing.T, name string, builds *atomic.Int64) workload.Spec {
	t.Helper()
	spec := mustSpec(t, name)
	build := spec.Build
	spec.Build = func(p *hostos.Process, scale int) (*accel.Program, error) {
		builds.Add(1)
		return build(p, scale)
	}
	return spec
}

// memoSweep is a 2-workload x 5-mode sweep on the moderately threaded
// class: ten cells over two distinct programs.
func memoSweep(t *testing.T, builds *atomic.Int64) []runSpec {
	var list []runSpec
	for _, name := range []string{"hotspot", "nn"} {
		spec := countingSpec(t, name, builds)
		for _, mode := range Modes() {
			list = append(list, runSpec{
				Label: "memo/" + name + "/" + shortMode(mode),
				Mode:  mode, Class: ModeratelyThreaded, Spec: spec,
			})
		}
	}
	return list
}

// TestMemoSweepBuildsOnce: with a memo, a sweep generates each distinct
// program exactly once — serially and with cells racing for the same key
// at Jobs 4 — and every cell, replayed or live, equals the unmemoised run
// in cycles, events and the full stats snapshot. Short enough for the race
// run, where four concurrent cells share one captured recipe.
func TestMemoSweepBuildsOnce(t *testing.T) {
	ctx := context.Background()
	p := DefaultParams()
	var builds atomic.Int64
	list := memoSweep(t, &builds)
	want, err := runAll(ctx, Exec{Jobs: 1}, p, list, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != int64(len(list)) {
		t.Fatalf("unmemoised sweep built %d programs, want one per cell (%d)", n, len(list))
	}
	for _, jobs := range []int{1, 4} {
		builds.Store(0)
		got, err := runAll(ctx, Exec{Jobs: jobs}, p, list, new(progMemo))
		if err != nil {
			t.Fatal(err)
		}
		if n := builds.Load(); n != 2 {
			t.Errorf("jobs=%d: memoised sweep built %d programs, want 2", jobs, n)
		}
		for i := range want {
			w, g := want[i], got[i]
			if g.VerifyErr != nil {
				t.Errorf("jobs=%d %s: verify: %v", jobs, list[i].Label, g.VerifyErr)
			}
			if g.Cycles != w.Cycles || g.Host.Events != w.Host.Events {
				t.Errorf("jobs=%d %s: cycles/events %d/%d, unmemoised %d/%d",
					jobs, list[i].Label, g.Cycles, g.Host.Events, w.Cycles, w.Host.Events)
			}
			if !reflect.DeepEqual(g.Stats, w.Stats) {
				t.Errorf("jobs=%d %s: stats snapshot differs from the unmemoised run", jobs, list[i].Label)
			}
		}
	}
}

// TestMemoFleetBuildsOnce: an 8-tenant fleet generates its program once
// and replays it into the other seven tenants, which then run concurrently
// on two workers; the report, event count and merged stats equal a fleet
// whose every tenant builds live.
func TestMemoFleetBuildsOnce(t *testing.T) {
	ctx := context.Background()
	p := DefaultParams()
	var builds atomic.Int64
	spec := countingSpec(t, "hotspot", &builds)
	fp := DefaultFleetParams()
	fp.Tenants = 8
	fp.Workers = 2
	want, err := runFleet(ctx, p, fp, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != int64(fp.Tenants) {
		t.Fatalf("unmemoised fleet built %d programs, want %d", n, fp.Tenants)
	}
	builds.Store(0)
	got, err := RunFleetCtx(ctx, p, fp, spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := builds.Load(); n != 1 {
		t.Errorf("fleet built %d programs, want 1", n)
	}
	if got.Verified != fp.Tenants {
		t.Errorf("verified %d of %d tenants", got.Verified, fp.Tenants)
	}
	if got.Render() != want.Render() || got.Events != want.Events {
		t.Errorf("fleet differs from the unmemoised fleet:\n%s\nwant:\n%s", got.Render(), want.Render())
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Error("fleet stats snapshot differs from the unmemoised fleet")
	}
}

// TestMemoBuildError: when the capturing cell's generator fails, the
// cells waiting on that key build live and fail on their own, each with a
// build-stage *RunError — a failed capture is never replayed.
func TestMemoBuildError(t *testing.T) {
	var builds atomic.Int64
	spec := workload.Spec{Name: "broken", Build: func(*hostos.Process, int) (*accel.Program, error) {
		builds.Add(1)
		return nil, errors.New("generator failed")
	}}
	list := []runSpec{
		{Label: "broken/a", Mode: ATSOnly, Class: ModeratelyThreaded, Spec: spec},
		{Label: "broken/b", Mode: BCBCC, Class: ModeratelyThreaded, Spec: spec},
	}
	_, err := runAll(context.Background(), Exec{Jobs: 2}, DefaultParams(), list, new(progMemo))
	var re *RunError
	if !errors.As(err, &re) || re.Stage != "build" {
		t.Fatalf("error %v is not a build-stage *RunError", err)
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("generator ran %d times, want once per cell (2)", n)
	}
}
