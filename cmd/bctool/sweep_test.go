package main

import (
	"context"
	"strings"
	"testing"
)

// TestSweepClassesFlag: `bctool sweep -classes` goes through the class-axis
// parser serve's SweepSpec uses, so the CLI accepts every spelling the
// daemon does ("highly" and the empty default included) and refuses the
// rest. The flag parses before any trace is generated, so an empty
// -traffic reaches the "no traces" error only when -classes was accepted.
func TestSweepClassesFlag(t *testing.T) {
	for _, tc := range []struct {
		classes string
		ok      bool
	}{
		{"both", true}, {"", true},
		{"high", true}, {"highly", true},
		{"moderate", true}, {"mod", true},
		{"warp", false}, {"high,mod", false},
	} {
		err := sweepReplay(context.Background(), []string{"-traffic", "", "-classes", tc.classes, "-quiet"})
		if err == nil {
			t.Fatalf("-classes %q: sweep with no traces succeeded", tc.classes)
		}
		accepted := strings.Contains(err.Error(), "no traces")
		if accepted != tc.ok {
			t.Errorf("-classes %q: err = %v, want accepted=%v", tc.classes, err, tc.ok)
		}
		if !tc.ok && !strings.Contains(err.Error(), "-classes") {
			t.Errorf("-classes %q: error %q does not name the flag", tc.classes, err)
		}
	}
}
