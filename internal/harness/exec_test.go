package harness

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"bordercontrol/internal/workload"
)

// smokeSpecs is a small cross-configuration sweep used by the fast
// parallel-equivalence tests: one workload on every mode and class.
func smokeSpecs(t *testing.T) []runSpec {
	t.Helper()
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder not registered")
	}
	var list []runSpec
	for _, mode := range Modes() {
		for _, class := range []GPUClass{HighlyThreaded, ModeratelyThreaded} {
			list = append(list, runSpec{
				Label: "smoke/" + shortMode(mode) + "/" + classShort(class),
				Mode:  mode, Class: class, Spec: spec,
			})
		}
	}
	return list
}

// TestRunnerMatchesSerial runs the same sweep serially and at Jobs=8 and
// requires identical results slot for slot: concurrent Systems must be
// provably independent. Host self-measurement (wall clock, events/sec) is
// the one legitimately nondeterministic field and is cleared first.
func TestRunnerMatchesSerial(t *testing.T) {
	p := DefaultParams()
	serial, err := runAll(context.Background(), Exec{Jobs: 1}, p, smokeSpecs(t), new(progMemo))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := runAll(context.Background(), Exec{Jobs: 8}, p, smokeSpecs(t), new(progMemo))
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		serial[i].Host = HostStats{}
		parallel[i].Host = HostStats{}
	}
	if !reflect.DeepEqual(serial, parallel) {
		for i := range serial {
			if !reflect.DeepEqual(serial[i], parallel[i]) {
				t.Errorf("slot %d differs:\nserial:   %+v\nparallel: %+v", i, serial[i], parallel[i])
			}
		}
	}
}

// TestFigure4Determinism is the acceptance check for the execution layer:
// the Figure 4 CSV must be byte-identical at -jobs=1, 4 and 8.
func TestFigure4Determinism(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	p := DefaultParams()
	var want string
	for _, jobs := range []int{1, 4, 8} {
		res, err := Figure4(context.Background(), Exec{Jobs: jobs}, HighlyThreaded, p)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		csv := res.CSV()
		if jobs == 1 {
			want = csv
			continue
		}
		if csv != want {
			t.Errorf("jobs=%d CSV differs from serial:\nserial:\n%s\njobs=%d:\n%s", jobs, want, jobs, csv)
		}
	}
}

// TestSecurityMatrixParallel checks the probe matrix is identical at any
// parallelism.
func TestSecurityMatrixParallel(t *testing.T) {
	p := DefaultParams()
	serial, err := SecurityMatrix(context.Background(), Exec{Jobs: 1}, p)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := SecurityMatrix(context.Background(), Exec{Jobs: 8}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("matrices differ:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if RenderSecurityMatrix(serial) != RenderSecurityMatrix(parallel) {
		t.Error("rendered matrices differ")
	}
}

// TestRunCtxCancelled checks a cancelled context aborts the simulation
// mid-run with a typed RunError naming the job — on the direct engine and
// on the sharded engine at several worker counts.
func TestRunCtxCancelled(t *testing.T) {
	spec, ok := workload.ByName("bfs")
	if !ok {
		t.Fatal("bfs not registered")
	}
	for _, shards := range []int{0, 1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the engine stops at its first poll
		_, err := RunCtx(ctx, BCBCC, HighlyThreaded, spec, DefaultParams(), RunOptions{Shards: shards})
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("shards=%d: error = %T %v, want *RunError", shards, err, err)
		}
		if re.Workload != "bfs" || re.Mode != BCBCC || re.Class != HighlyThreaded || re.Stage != "interrupted" {
			t.Errorf("shards=%d: RunError fields lost: %+v", shards, re)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("shards=%d: error %v does not unwrap to context.Canceled", shards, err)
		}
	}
}

// TestRunCtxShardsEquivalent checks RunOptions.Shards is pure execution
// machinery: a single-accelerator run on the sharded engine must report
// exactly what the direct engine reports — every simulated time, counter
// and metrics sample — with only the host self-measurement free to move.
func TestRunCtxShardsEquivalent(t *testing.T) {
	spec, ok := workload.ByName("pathfinder")
	if !ok {
		t.Fatal("pathfinder not registered")
	}
	p := DefaultParams()
	base, err := RunCtx(context.Background(), BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	base.Host = HostStats{}
	for _, shards := range []int{1, 4} {
		res, err := RunCtx(context.Background(), BCBCC, ModeratelyThreaded, spec, p, RunOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		res.Host = HostStats{}
		if !reflect.DeepEqual(base, res) {
			t.Errorf("shards=%d differs from direct engine:\ndirect:  %+v\nsharded: %+v", shards, base, res)
		}
	}
}

// TestExecTimeout checks the per-job timeout fails a sweep's overrunning
// jobs with DeadlineExceeded instead of stalling the sweep.
func TestExecTimeout(t *testing.T) {
	spec, ok := workload.ByName("backprop")
	if !ok {
		t.Fatal("backprop not registered")
	}
	_, err := runAll(context.Background(), Exec{Jobs: 2, Timeout: 5 * time.Millisecond}, DefaultParams(),
		[]runSpec{{Label: "timeout/backprop", Mode: ATSOnly, Class: HighlyThreaded, Spec: spec}}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded", err)
	}
}
