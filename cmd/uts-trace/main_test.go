package main

import (
	"testing"
	"time"

	"repro/internal/des"
)

// Below four PEs the threshold is one work source, not the zero that P/4
// truncates to and every run "reaches" from the start.
func TestDiffusionLineSmallP(t *testing.T) {
	tr := &des.Trace{Changes: []des.Sample{{T: 3 * time.Microsecond, WorkSources: 1}, {T: 5 * time.Microsecond}}}
	for pes, want := range map[int]string{
		1: "reached 1 work sources (P/4) at 3µs",
		3: "reached 1 work sources (P/4) at 3µs",
		8: "never reached 2 work sources (P/4)",
	} {
		if got := diffusionLine(tr, pes); got != want {
			t.Errorf("pes=%d: %q, want %q", pes, got, want)
		}
	}
}
