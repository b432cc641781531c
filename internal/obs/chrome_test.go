package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden Chrome trace")

// goldenTracer replays a small deterministic steal episode on two virtual
// lanes: PE 1 probes PE 0, steals from it, and both settle. It exercises
// every exporter branch — metadata, state slices, instants with args, the
// flow arrow pair, a failed steal, and open-interval closing.
func goldenTracer() *Tracer {
	tr := NewVirtual(2, 16)
	l0, l1 := tr.Lane(0), tr.Lane(1)
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

	l0.RecV(KindStateChange, -1, 0, us(0)) // PE 0 starts working
	l1.RecV(KindStateChange, -1, 0, us(0))
	l1.RecV(KindStateChange, -1, 1, us(50)) // PE 1 runs dry, searches
	l1.RecV(KindProbeStart, 0, 0, us(60))
	l1.RecV(KindProbeResult, 0, 2, us(80))  // PE 0 has 2 chunks
	l1.RecV(KindStateChange, -1, 2, us(90)) // stealing
	l1.RecV(KindStealRequest, 0, 0, us(100))
	l0.RecV(KindStealGrant, 1, 1, us(150))    // victim grants 1 chunk
	l1.RecV(KindChunkTransfer, 0, 8, us(200)) // 8 nodes land: flow 100→200
	l1.RecV(KindStateChange, -1, 0, us(210))  // back to working
	l0.RecV(KindRelease, -1, 1, us(250))
	l1.RecV(KindReacquire, -1, 8, us(260))
	l1.RecV(KindStateChange, -1, 1, us(300)) // dry again
	l1.RecV(KindStealRequest, 0, 0, us(310))
	l1.RecV(KindStealFail, 0, 0, us(330)) // nothing left this time
	l0.RecV(KindTermEnter, -1, 0, us(400))
	l1.RecV(KindTermEnter, -1, 0, us(410))
	return tr
}

// TestChromeGolden byte-compares the exporter output against the checked-in
// golden file — the field-order and framing stability contract. Regenerate
// with: go test ./internal/obs -run TestChromeGolden -update
func TestChromeGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTracer()); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "chrome_golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exporter output drifted from golden file (regenerate with -update if intentional)\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestChromeStructure parses the exporter output and checks the semantic
// shape: valid JSON, one thread_name per lane, a matched s/f flow pair for
// the successful steal and none for the failed one.
func TestChromeStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, goldenTracer()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Tid  int     `json:"tid"`
			ID   int     `json:"id"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	var flowStart, flowEnd *struct {
		ts      float64
		tid, id int
	}
	for _, e := range doc.TraceEvents {
		counts[e.Ph]++
		switch e.Ph {
		case "s":
			flowStart = &struct {
				ts      float64
				tid, id int
			}{e.Ts, e.Tid, e.ID}
		case "f":
			flowEnd = &struct {
				ts      float64
				tid, id int
			}{e.Ts, e.Tid, e.ID}
		}
	}
	if counts["M"] != 2 {
		t.Errorf("thread_name metadata events = %d, want 2", counts["M"])
	}
	if counts["s"] != 1 || counts["f"] != 1 {
		t.Fatalf("flow events s=%d f=%d, want exactly one pair (failed steal must not draw an arrow)",
			counts["s"], counts["f"])
	}
	if flowStart.id != flowEnd.id {
		t.Errorf("flow ids differ: %d vs %d", flowStart.id, flowEnd.id)
	}
	// Arrow runs from the victim's lane at request time to the thief's
	// lane at transfer time.
	if flowStart.tid != 0 || flowStart.ts != 100 {
		t.Errorf("flow start tid=%d ts=%v, want victim tid 0 at 100µs", flowStart.tid, flowStart.ts)
	}
	if flowEnd.tid != 1 || flowEnd.ts != 200 {
		t.Errorf("flow end tid=%d ts=%v, want thief tid 1 at 200µs", flowEnd.tid, flowEnd.ts)
	}
	if counts["X"] == 0 {
		t.Error("no state slices emitted")
	}
	// Every lane's open interval is closed at the trace end (410µs), so
	// no slice may extend past it.
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" && e.Ts > 410 {
			t.Errorf("state slice starts at %vµs, past the trace end", e.Ts)
		}
	}
}

// TestChromeWrappedLaneHasNoInventedState: a lane whose ring wrapped has
// lost its early state changes, so the exporter must not paint it "working
// since 0" up to the first one it still holds. The lane here sat idle from
// 10µs to 100µs; a 4-slot ring retains three probe results and the change
// back to working.
func TestChromeWrappedLaneHasNoInventedState(t *testing.T) {
	tr := NewVirtual(1, 4)
	l := tr.Lane(0)
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }
	l.RecV(KindStateChange, -1, 3, us(10)) // idle
	for i := int64(0); i < 6; i++ {
		l.RecV(KindProbeResult, 0, 0, us(20+10*i))
	}
	l.RecV(KindStateChange, -1, 0, us(100)) // working

	type slice struct {
		Name, Ph string
		Ts, Dur  float64
	}
	export := func() (states []slice, instants int) {
		var buf bytes.Buffer
		if err := WriteChromeTrace(&buf, tr); err != nil {
			t.Fatal(err)
		}
		var doc struct{ TraceEvents []slice }
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("not valid JSON: %v\n%s", err, buf.Bytes())
		}
		for _, e := range doc.TraceEvents {
			switch e.Ph {
			case "X":
				states = append(states, e)
			case "i":
				instants++
			}
		}
		return
	}
	states, instants := export()
	if len(states) != 0 {
		t.Errorf("wrapped lane got state slices for a span it no longer records: %+v", states)
	}
	if instants != 3 {
		t.Errorf("%d instants, want the 3 retained probe results", instants)
	}
	// From the first retained state change on, the state is known again.
	l.RecV(KindTermEnter, -1, 0, us(150))
	states, _ = export()
	if want := (slice{"working", "X", 100, 50}); len(states) != 1 || states[0] != want {
		t.Errorf("state slices = %+v, want exactly %+v", states, want)
	}
}
