package sim

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// shardedScheduler drives the heapref differential script through a
// ShardedEngine: events are scheduled on shard 0 through the same mixed
// At/ScheduleInto adapter, but execution goes through the conservative
// window loop instead of a bare Step loop. Any window width must fire the
// identical order — a window boundary leaves no timing residue.
type shardedScheduler struct {
	*intoAdapter
	se  *ShardedEngine
	ran bool
}

func (s *shardedScheduler) Step() bool {
	if s.ran {
		return false
	}
	s.ran = true
	s.se.Run()
	return true
}

// corpusScripts loads every checked-in FuzzEngineSchedule corpus entry, so
// the sharded engine replays exactly the schedules the fuzzer minimized
// against the serial reference.
func corpusScripts(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzEngineSchedule")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	scripts := make(map[string][]byte)
	for _, ent := range entries {
		blob, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(blob), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "[]byte(") || !strings.HasSuffix(line, ")") {
				continue
			}
			q, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s: cannot unquote corpus line %q: %v", ent.Name(), line, err)
			}
			scripts[ent.Name()] = []byte(q)
		}
	}
	if len(scripts) == 0 {
		t.Fatal("no corpus scripts found")
	}
	return scripts
}

// diffSharded replays one schedule through the reference engine and through
// single-shard ShardedEngines of several lookahead widths, requiring the
// bit-identical firing order from each.
func diffSharded(t *testing.T, name string, data []byte) {
	t.Helper()
	want := runScript(&refEngine{}, data)
	for _, la := range []Time{1, 3, 64, Microsecond} {
		se := NewShardedEngine(1, la)
		got := runScript(&shardedScheduler{intoAdapter: &intoAdapter{Engine: se.Shard(0)}, se: se}, data)
		if len(got) != len(want) {
			t.Fatalf("%s lookahead=%d: sharded fired %d events, reference %d", name, la, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s lookahead=%d: order diverges at event %d: sharded=(t=%d id=%d) ref=(t=%d id=%d)",
					name, la, i, got[i].at, got[i].id, want[i].at, want[i].id)
			}
		}
	}
}

// TestShardedEngineReplaysFuzzCorpus replays the checked-in differential
// fuzz corpus through the sharded engine: the conservative window loop must
// fire every minimized schedule in exactly the serial reference order,
// whatever the window width.
func TestShardedEngineReplaysFuzzCorpus(t *testing.T) {
	for name, data := range corpusScripts(t) {
		diffSharded(t, name, data)
	}
}

// TestShardedEngineMatchesReferenceRandom is the randomized-schedule analog
// of TestEngineMatchesHeapReference for the window loop.
func TestShardedEngineMatchesReferenceRandom(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(512))
		rng.Read(data)
		diffSharded(t, "seed", data)
	}
}

// TestShardedEngineBurstNested replays the same-timestamp burst and
// zero-delta nested schedules (the heapref pinned cases) through the
// window loop.
func TestShardedEngineBurstNested(t *testing.T) {
	for name, data := range map[string][]byte{
		"burst-nested":     {1, 2, 3, 3, 0, 0, 0, 3, 1, 1, 1},
		"same-timestamp":   {7, 7, 7, 3, 7, 7, 7, 3, 7, 7, 7, 3, 7, 7, 7},
		"zero-delta-chain": []byte("\x05\x00\x05\x03\x08\x08\x08\x02\x01\x00\x03\x09\x00\x03\x00\x00\x00\x03\x00\x00\x00"),
	} {
		diffSharded(t, name, data)
	}
}

// shardRec is one observed shard-local firing or message receipt.
type shardRec struct {
	at   Time
	kind byte // 'l' local chain event, 'm' message receipt
	val  uint64
}

// fleetRun executes a synthetic multi-shard workload: every shard runs an
// LCG-driven self-rescheduling chain, and every few events sends a
// timestamped message to the next shard (carrying the sender's LCG state),
// whose receipt schedules a local follow-up. It returns the per-shard
// firing logs plus the engine's aggregate counters.
func fleetRun(shards, workers int, lookahead Time, events int) ([][]shardRec, *ShardedEngine) {
	se := NewShardedEngine(shards, lookahead)
	se.Workers = workers
	logs := make([][]shardRec, shards)
	// recv[k] runs on shard k when a message arrives there, so it is bound
	// to shard k's own engine and log: Engine.Send requires a delivered
	// callback to touch only its destination shard.
	recv := make([]EventFunc, shards)
	for k := 0; k < shards; k++ {
		k := k
		e := se.Shard(k)
		recv[k] = func(now Time, arg uint64) {
			logs[k] = append(logs[k], shardRec{at: now, kind: 'm', val: arg})
			// A receipt spawns local work at a data-dependent delta.
			e.ScheduleIntoAfter(Time(arg%97), func(now Time, arg uint64) {
				logs[k] = append(logs[k], shardRec{at: now, kind: 'l', val: arg})
			}, arg^0xff)
		}
	}
	for k := 0; k < shards; k++ {
		k := k
		e := se.Shard(k)
		lcg := uint64(k)*0x9e3779b97f4a7c15 + 1
		n := 0
		var chain EventFunc
		chain = func(now Time, _ uint64) {
			lcg = lcg*6364136223846793005 + 1442695040888963407
			logs[k] = append(logs[k], shardRec{at: now, kind: 'l', val: lcg})
			n++
			if n >= events {
				return
			}
			if n%5 == 0 {
				dest := ShardID((k + 1) % shards)
				e.Send(dest, now+lookahead+Time(lcg%256), recv[dest], lcg)
			}
			e.ScheduleIntoAfter(1+Time(lcg%128), chain, 0)
		}
		e.ScheduleInto(Time(k%7), chain, 0)
	}
	se.Run()
	return logs, se
}

// TestShardedEngineWorkerCountInvariance is the acceptance test for the
// conservative protocol: the same multi-shard workload, executed serially
// (Workers=1) and on 2 and 4 workers, must produce bit-identical per-shard
// event orders and identical window/message/event counts.
func TestShardedEngineWorkerCountInvariance(t *testing.T) {
	const shards, events = 5, 400
	wantLogs, wantEng := fleetRun(shards, 1, 500, events)
	if wantEng.Delivered() == 0 {
		t.Fatal("workload generated no cross-shard messages; the test is vacuous")
	}
	if wantEng.Windows() < 2 {
		t.Fatal("workload ran in a single window; the test is vacuous")
	}
	for _, workers := range []int{2, 4} {
		gotLogs, gotEng := fleetRun(shards, workers, 500, events)
		if gotEng.Fired() != wantEng.Fired() || gotEng.Windows() != wantEng.Windows() ||
			gotEng.Delivered() != wantEng.Delivered() {
			t.Fatalf("workers=%d counters diverge: fired %d/%d windows %d/%d messages %d/%d",
				workers, gotEng.Fired(), wantEng.Fired(), gotEng.Windows(), wantEng.Windows(),
				gotEng.Delivered(), wantEng.Delivered())
		}
		for k := range wantLogs {
			if len(gotLogs[k]) != len(wantLogs[k]) {
				t.Fatalf("workers=%d shard %d fired %d records, serial fired %d",
					workers, k, len(gotLogs[k]), len(wantLogs[k]))
			}
			for i := range wantLogs[k] {
				if gotLogs[k][i] != wantLogs[k][i] {
					t.Fatalf("workers=%d shard %d diverges at record %d: got %+v want %+v",
						workers, k, i, gotLogs[k][i], wantLogs[k][i])
				}
			}
		}
	}
}

// TestShardedEngineLookaheadInvariance: the same workload under different
// lookahead windows fires identically per shard — window width buys
// parallelism, never different physics. (Message timestamps here embed the
// lookahead, so compare only the local chain records' LCG values.)
func TestShardedEngineLookaheadInvariance(t *testing.T) {
	extract := func(logs [][]shardRec) [][]uint64 {
		out := make([][]uint64, len(logs))
		for k, l := range logs {
			for _, r := range l {
				if r.kind == 'l' && r.val != 0 {
					out[k] = append(out[k], r.val)
				}
			}
		}
		return out
	}
	base, _ := fleetRun(3, 1, 300, 200)
	want := extract(base)
	for _, la := range []Time{301, 1000} {
		logs, _ := fleetRun(3, 2, la, 200)
		got := extract(logs)
		for k := range want {
			if len(got[k]) != len(want[k]) {
				t.Fatalf("lookahead=%d shard %d chain length %d, want %d", la, k, len(got[k]), len(want[k]))
			}
		}
	}
}

// TestShardedEngineInterruptStopsAllShards: latching the interrupt mid-run
// halts every shard within one poll stride, leaving queues intact.
func TestShardedEngineInterruptStopsAllShards(t *testing.T) {
	const shards = 4
	se := NewShardedEngine(shards, 50)
	var fired atomic.Uint64
	for k := 0; k < shards; k++ {
		e := se.Shard(k)
		var chain EventFunc
		chain = func(_ Time, n uint64) {
			fired.Add(1)
			e.ScheduleIntoAfter(3, chain, n+1)
		}
		e.ScheduleInto(1, chain, 0)
	}
	const cutoff = 20000
	se.Interrupt = func() bool { return fired.Load() >= cutoff }
	se.Run()
	got := se.Fired()
	if got < cutoff {
		t.Fatalf("run stopped after %d events, before the %d-event cutoff", got, cutoff)
	}
	// Every shard polls at least every interruptStride events, so the
	// overshoot is bounded by one stride per shard.
	if max := uint64(cutoff + shards*interruptStride); got > max {
		t.Errorf("run fired %d events after a cutoff of %d; interrupt did not stop shards promptly (bound %d)",
			got, cutoff, max)
	}
	if se.Pending() == 0 {
		t.Error("interrupted run drained its queues; expected pending events to remain")
	}
	// A fresh Run picks the queues back up after the latch is cleared.
	se.stop.Store(false)
	se.Interrupt = func() bool { return fired.Load() >= 2*cutoff }
	se.Run()
	if se.Fired() <= got {
		t.Error("resumed run made no progress")
	}
}

// TestShardedEngineSetupSends: messages sent before Run (engine clocks at
// zero) are delivered even to shards with no local events.
func TestShardedEngineSetupSends(t *testing.T) {
	se := NewShardedEngine(3, 10)
	var got []uint64
	se.Shard(0).Send(2, 10, func(now Time, arg uint64) {
		got = append(got, arg)
	}, 7)
	se.Run()
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("setup-time send not delivered: got %v", got)
	}
	if se.Delivered() != 1 {
		t.Fatalf("Delivered() = %d, want 1", se.Delivered())
	}
}

// TestShardedEngineSendContract pins the conservative-protocol panics: a
// remote send inside the lookahead window, to an unknown shard, or with a
// nil callback is always a component bug.
func TestShardedEngineSendContract(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	se := NewShardedEngine(2, 100)
	cb := func(Time, uint64) {}
	mustPanic("send inside lookahead", func() { se.Shard(0).Send(1, 99, cb, 0) })
	mustPanic("send to unknown shard", func() { se.Shard(0).Send(5, 1000, cb, 0) })
	mustPanic("nil send", func() { se.Shard(0).Send(1, 1000, nil, 0) })
	mustPanic("zero shards", func() { NewShardedEngine(0, 100) })
	mustPanic("zero lookahead", func() { NewShardedEngine(2, 0) })

	// Local sends (and standalone engines) fall back to ScheduleInto, with
	// its weaker at >= now contract.
	se.Shard(0).Send(0, 1, cb, 0)
	var standalone Engine
	standalone.Send(0, 1, cb, 0)
	if se.Shard(0).Pending() != 1 || standalone.Pending() != 1 {
		t.Error("local Send did not schedule")
	}
}

// TestShardedEngineRunUntilInterrupt covers the satellite fix: a bounded
// RunUntil on a plain engine now honors Interrupt instead of running to
// the deadline regardless.
func TestShardedEngineRunUntilInterrupt(t *testing.T) {
	var e Engine
	n := 0
	var chain EventFunc
	chain = func(_ Time, _ uint64) {
		n++
		e.ScheduleIntoAfter(1, chain, 0)
	}
	e.ScheduleInto(0, chain, 0)
	e.Interrupt = func() bool { return n >= 2*interruptStride }
	e.RunUntil(Time(100 * interruptStride))
	if n >= 100*interruptStride {
		t.Fatalf("RunUntil ignored Interrupt: fired %d events", n)
	}
}
