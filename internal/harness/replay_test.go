package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"

	"bordercontrol/internal/tracerec"
	"bordercontrol/internal/workload"
)

// replayConfig is one system configuration the replay-equivalence proof
// covers.
type replayConfig struct {
	mode      Mode
	class     GPUClass
	selective bool
	border    string
}

// name labels the subtest: workload, class (moderate is implicit), mode,
// and for the Border Control modes the protocol variant and design.
func (c replayConfig) name(workload string) string {
	name := workload
	if c.class == HighlyThreaded {
		name += "/high"
	}
	name += "/" + c.mode.String()
	if c.mode == BCNoBCC || c.mode == BCBCC {
		name += fmt.Sprintf("/sf=%v/%s", c.selective, c.border)
	}
	return name
}

// replayConfigs lists, for both GPU classes, every mode a sweep's program
// memo replays under: the unsafe and the non-BC baselines once each, and
// the four Border Control protocol variants (BCNoBCC/BCBCC x
// SelectiveFlush) under every listed border design.
func replayConfigs(borders []string) []replayConfig {
	var out []replayConfig
	for _, class := range []GPUClass{ModeratelyThreaded, HighlyThreaded} {
		for _, mode := range []Mode{ATSOnly, FullIOMMU, CAPILike} {
			out = append(out, replayConfig{mode: mode, class: class, border: "flat"})
		}
		for _, mode := range []Mode{BCNoBCC, BCBCC} {
			for _, selective := range []bool{true, false} {
				for _, border := range borders {
					out = append(out, replayConfig{mode, class, selective, border})
				}
			}
		}
	}
	return out
}

// TestReplayMatchesLiveGolden is the replay-equivalence guarantee: for
// every workload, recording its reference trace once and replaying it
// through the full border/ATS/cache path produces artifacts byte-identical
// to running the generator live — same simulated runtime, same event
// count, same full stats snapshot — on both GPU classes, under every mode
// (the ATS-only, full-IOMMU and CAPI-like baselines and all four Border
// Control protocol variants) and all three border designs. This is what
// lets a sweep record once and fan a thousand cells out over one decode,
// and what lets Figure 4's program memo replay one capture in every cell.
func TestReplayMatchesLiveGolden(t *testing.T) {
	specs := workload.All()
	borders := []string{"flat", "sparta", "range"}
	if testing.Short() {
		// Full matrix on the CI path; a taste under -short: the two
		// cheapest workloads, every mode and class, the paper's design.
		specs = []workload.Spec{mustSpec(t, "backprop"), mustSpec(t, "hotspot")}
		borders = borders[:1]
	}
	dir := t.TempDir()
	for _, spec := range specs {
		tr, err := tracerec.Record(spec, 1)
		if err != nil {
			t.Fatalf("record %s: %v", spec.Name, err)
		}
		if err := tracerec.WriteFile(tracerec.Resolve(dir, spec.Name), tr); err != nil {
			t.Fatalf("write %s: %v", spec.Name, err)
		}
	}

	for _, spec := range specs {
		for _, c := range replayConfigs(borders) {
			t.Run(c.name(spec.Name), func(t *testing.T) {
				p := DefaultParams()
				p.SelectiveFlush = c.selective
				p.Border = c.border
				live, err := Run(c.mode, c.class, spec, p, RunOptions{})
				if err != nil {
					t.Fatalf("live: %v", err)
				}
				rp := p
				rp.Trace = dir
				rep, err := Run(c.mode, c.class, spec, rp, RunOptions{})
				if err != nil {
					t.Fatalf("replay: %v", err)
				}
				if live.VerifyErr != nil || rep.VerifyErr != nil {
					t.Fatalf("verify: live=%v replay=%v", live.VerifyErr, rep.VerifyErr)
				}
				if live.Runtime != rep.Runtime {
					t.Errorf("sim_ps: live %d, replay %d", live.Runtime, rep.Runtime)
				}
				if live.Host.Events != rep.Host.Events {
					t.Errorf("events: live %d, replay %d", live.Host.Events, rep.Host.Events)
				}
				if live.Ops != rep.Ops || live.BCChecks != rep.BCChecks ||
					live.BCCMissRatio != rep.BCCMissRatio {
					t.Errorf("counters diverged: live ops=%d checks=%d miss=%g, replay ops=%d checks=%d miss=%g",
						live.Ops, live.BCChecks, live.BCCMissRatio,
						rep.Ops, rep.BCChecks, rep.BCCMissRatio)
				}
				lj, err := json.Marshal(live.Stats)
				if err != nil {
					t.Fatal(err)
				}
				rj, err := json.Marshal(rep.Stats)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(lj, rj) {
					t.Errorf("stats snapshots differ:\n live  %s\n replay %s", lj, rj)
				}
			})
		}
	}
}

// TestReplayDecodeErrorTyped: a corrupt or truncated recording must
// surface from Run as a typed *RunError in the build stage wrapping the
// codec's *FormatError — never a panic, never an untyped string. This is
// the regression test for the replay-layer failure path.
func TestReplayDecodeErrorTyped(t *testing.T) {
	spec, _ := workload.ByName("pathfinder")
	tr, err := tracerec.Record(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := tracerec.Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cases := map[string][]byte{
		"corrupt": func() []byte {
			b := bytes.Clone(blob)
			b[len(b)/2] ^= 0x20
			return b
		}(),
		"truncated": blob[:len(blob)/3],
	}
	for name, b := range cases {
		path := dir + "/" + name + tracerec.Ext
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		p := DefaultParams()
		p.Trace = path
		_, err := Run(BCBCC, ModeratelyThreaded, spec, p, RunOptions{})
		if err == nil {
			t.Fatalf("%s: replay of a damaged trace succeeded", name)
		}
		var re *RunError
		if !errors.As(err, &re) || re.Stage != "build" {
			t.Fatalf("%s: error %v is not a build-stage *RunError", name, err)
		}
		var fe *tracerec.FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("%s: error %v does not wrap a *tracerec.FormatError", name, err)
		}
	}
}
