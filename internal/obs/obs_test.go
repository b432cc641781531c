package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// TestKindNamesComplete: every declared Kind has a name of its own. A
// missing tail entry of kindRows zero-fills to "", which would fork the
// timeline, Chrome and metrics vocabularies.
func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if name := k.String(); name == "" || strings.HasPrefix(name, "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
}

// TestKindRowsSpellOtherAndValue: an event of every kind with Other = 3 and
// Value = 5 reads the same in the timeline and in Chrome's args — each
// shows the peer and the value exactly where the kind's row gives them a
// meaning.
func TestKindRowsSpellOtherAndValue(t *testing.T) {
	want := [numKinds]struct {
		line string
		args string // Chrome's args as JSON; state changes are spans, not marks
	}{
		KindStateChange:    {"state-change → state(5)", ""},
		KindProbeStart:     {"probe-start → PE 3", `{"other":3}`},
		KindProbeResult:    {"probe-result ← PE 3 avail=5", `{"avail":5,"other":3}`},
		KindStealRequest:   {"steal-request → PE 3", `{"other":3}`},
		KindStealGrant:     {"steal-grant → PE 3 chunks=5", `{"chunks":5,"other":3}`},
		KindStealDeny:      {"steal-deny → PE 3", `{"other":3}`},
		KindStealFail:      {"steal-fail ← PE 3", `{"other":3}`},
		KindChunkTransfer:  {"chunk-transfer ← PE 3 nodes=5", `{"nodes":5,"other":3}`},
		KindRelease:        {"release avail=5", `{"avail":5}`},
		KindReacquire:      {"reacquire nodes=5", `{"nodes":5}`},
		KindTermEnter:      {"term-enter", ""},
		KindTermExit:       {"term-exit", ""},
		KindRPCRetry:       {"rpc-retry → PE 3 attempt=5", `{"attempt":5,"other":3}`},
		KindPeerDead:       {"peer-dead PE 3", `{"other":3}`},
		KindHandoffReclaim: {"handoff-reclaim ← PE 3 chunks=5", `{"chunks":5,"other":3}`},
		KindDuplicateTake:  {"duplicate-take ← PE 3 chunks=5", `{"chunks":5,"other":3}`},
	}
	for k := Kind(0); k < numKinds; k++ {
		e := Event{Kind: k, Other: 3, Value: 5}
		if got := e.String(); got != want[k].line {
			t.Errorf("%v: timeline %q, want %q", k, got, want[k].line)
		}
		if k == KindStateChange {
			continue
		}
		var buf bytes.Buffer
		newChromeEncoder(&buf).instant(e, 0)
		var ev struct{ Args json.RawMessage }
		if err := json.Unmarshal(bytes.TrimPrefix(buf.Bytes(), []byte("{\"traceEvents\":[\n")), &ev); err != nil {
			t.Fatalf("%v: %v in %s", k, err, buf.Bytes())
		}
		if got := string(ev.Args); got != want[k].args {
			t.Errorf("%v: Chrome args %s, want %s", k, got, want[k].args)
		}
	}
}

func TestRingWraparound(t *testing.T) {
	const ringSize, total = 8, 20
	tr := NewVirtual(1, ringSize)
	l := tr.Lane(0)
	for i := 0; i < total; i++ {
		l.RecV(KindTermEnter, int32(i), int64(i), time.Duration(i))
	}
	if got := l.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
	evs := l.Snapshot(nil)
	if len(evs) != ringSize {
		t.Fatalf("snapshot retained %d events, want %d", len(evs), ringSize)
	}
	for i, e := range evs {
		wantSeq := uint64(total - ringSize + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d: Seq = %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Value != int64(wantSeq) || e.Other != int32(wantSeq) || e.T != int64(wantSeq) {
			t.Errorf("event %d: payload %+v does not match seq %d", i, e, wantSeq)
		}
		if e.PE != 0 || e.Kind != KindTermEnter {
			t.Errorf("event %d: wrong identity %+v", i, e)
		}
	}
	sum := tr.Summary()
	if sum.Events != total || sum.Dropped != total-ringSize {
		t.Errorf("summary events=%d dropped=%d, want %d and %d",
			sum.Events, sum.Dropped, total, total-ringSize)
	}
}

// TestSnapshotConcurrent exercises the seqlock under the race detector: a
// reader snapshots continuously while the owner records, and every event
// that comes back must be internally consistent (Other, Value, and T
// all carry the sequence number, so a torn slot would disagree).
func TestSnapshotConcurrent(t *testing.T) {
	const total = 50000
	tr := NewVirtual(1, 64)
	l := tr.Lane(0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var buf []Event
		for {
			buf = l.Snapshot(buf[:0])
			var lastSeq int64 = -1
			for _, e := range buf {
				if e.Value != int64(e.Other) || e.T != e.Value {
					t.Errorf("torn event escaped the seqlock: %+v", e)
					return
				}
				if int64(e.Seq) <= lastSeq {
					t.Errorf("snapshot out of order at seq %d", e.Seq)
					return
				}
				lastSeq = int64(e.Seq)
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	for i := 0; i < total; i++ {
		l.RecV(KindTermEnter, int32(i%math.MaxInt32), int64(i%math.MaxInt32), time.Duration(i%math.MaxInt32))
	}
	close(done)
	wg.Wait()
	if got := l.Recorded(); got != total {
		t.Fatalf("Recorded() = %d, want %d", got, total)
	}
}

func TestHistogramExactBelow16(t *testing.T) {
	var h Histogram
	for v := int64(0); v < 16; v++ {
		h.Observe(v)
	}
	if h.Count() != 16 || h.Sum() != 120 || h.Min() != 0 || h.Max() != 15 {
		t.Fatalf("count=%d sum=%d min=%d max=%d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	// With 16 uniform values 0..15, the rank-⌈q·16⌉ observation is exact:
	// ⌈0.5·16⌉ = 8th observation (1-based) is the value 7. The pre-fix
	// floor-rank/strictly-greater scan returned 8 here — one rank high.
	if got := h.Quantile(0.5); got != 7 {
		t.Errorf("p50 = %d, want 7", got)
	}
	if got := h.Quantile(0); got != 0 {
		t.Errorf("p0 = %d, want 0", got)
	}
	if got := h.Quantile(1); got != 15 {
		t.Errorf("p100 = %d, want 15", got)
	}
}

// TestHistogramQuantileRankContract pins the rank-⌈q·n⌉ contract over the
// exact (<16) bucket range, where every bucket holds one value and the
// quantile must be exact. Covers the exact-divisor points (q·n integral)
// that the pre-fix floor/> scan got wrong, plus non-divisor points,
// duplicates, and the q=0 / q=1 ends.
func TestHistogramQuantileRankContract(t *testing.T) {
	obs := func(vs ...int64) *Histogram {
		var h Histogram
		for _, v := range vs {
			h.Observe(v)
		}
		return &h
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want int64
	}{
		// Exact divisors: q·n integral, rank = q·n exactly.
		{"even-n-median", obs(0, 1, 2, 3, 4, 5, 6, 7), 0.5, 3}, // ⌈4⌉ = 4th = 3
		{"n4-q25", obs(2, 4, 6, 8), 0.25, 2},                   // ⌈1⌉ = 1st = 2
		{"n4-q75", obs(2, 4, 6, 8), 0.75, 6},                   // ⌈3⌉ = 3rd = 6
		{"n10-q10", obs(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 0.1, 0}, // ⌈1⌉ = 1st
		{"n10-q90", obs(0, 1, 2, 3, 4, 5, 6, 7, 8, 9), 0.9, 8}, // ⌈9⌉ = 9th = 8
		{"n2-median", obs(3, 11), 0.5, 3},                      // ⌈1⌉ = 1st = 3
		// Non-divisors: rank rounds up.
		{"odd-n-median", obs(1, 5, 9), 0.5, 5},          // ⌈1.5⌉ = 2nd
		{"n3-q90", obs(1, 5, 9), 0.9, 9},                // ⌈2.7⌉ = 3rd
		{"n7-q25", obs(0, 2, 4, 6, 8, 10, 12), 0.25, 2}, // ⌈1.75⌉ = 2nd
		// Duplicates: ranks land inside a run.
		{"dup-median", obs(4, 4, 4, 9), 0.5, 4}, // ⌈2⌉ = 2nd = 4
		{"dup-high", obs(1, 9, 9, 9), 0.75, 9},  // ⌈3⌉ = 3rd = 9
		// Ends.
		{"q0-is-min", obs(5, 7, 13), 0, 5},
		{"q1-is-max", obs(5, 7, 13), 1, 13},
		{"single", obs(6), 0.5, 6},
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%g) = %d, want %d", tc.name, tc.q, got, tc.want)
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram Quantile = %d, want 0", got)
	}
}

func TestHistogramQuantileErrorBound(t *testing.T) {
	// Sandwich each value between a smaller and a larger one so the
	// [min, max] clamp cannot make the estimate exact; the log buckets
	// then bound the error at one sub-bucket width (1/8 of the value).
	for _, v := range []int64{17, 100, 1000, 12345, 1 << 20, 1<<40 + 12345} {
		var h Histogram
		h.Observe(0)
		h.Observe(v)
		h.Observe(2 * v)
		q := h.Quantile(0.5)
		if q > v || v-q > v/8 {
			t.Errorf("value %d: p50 estimate %d outside the sub-bucket bound", v, q)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.Count() != 1 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("negative observation not clamped: %+v", h)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for v := int64(0); v < 10; v++ {
		a.Observe(v)
	}
	for v := int64(100); v < 110; v++ {
		b.Observe(v)
	}
	a.Merge(&b)
	if a.Count() != 20 || a.Min() != 0 || a.Max() != 109 {
		t.Fatalf("merged count=%d min=%d max=%d", a.Count(), a.Min(), a.Max())
	}
	if got := a.Quantile(0.99); got < 100 {
		t.Errorf("p99 after merge = %d, want >= 100", got)
	}
	var empty Histogram
	a.Merge(&empty) // must not disturb min/max
	if a.Min() != 0 || a.Max() != 109 {
		t.Errorf("merge with empty changed extremes: min=%d max=%d", a.Min(), a.Max())
	}
	if empty.Summarize(fmtCount) != "(no samples)" {
		t.Errorf("empty Summarize = %q", empty.Summarize(fmtCount))
	}
}

func TestBucketRoundTrip(t *testing.T) {
	for _, v := range []int64{0, 1, 15, 16, 17, 255, 256, 1 << 30, 1 << 62} {
		b := bucketOf(v)
		lo := bucketLow(b)
		if lo > v {
			t.Errorf("bucketLow(%d) = %d > value %d", b, lo, v)
		}
		if bucketOf(lo) != b {
			t.Errorf("bucketOf(bucketLow(%d)) = %d, want %d", b, bucketOf(lo), b)
		}
	}
}

// TestLanePairing drives the steal-protocol state machine on one lane and
// checks the derived histograms.
func TestLanePairing(t *testing.T) {
	tr := NewVirtual(1, 0)
	l := tr.Lane(0)
	us := func(n int64) time.Duration { return time.Duration(n) * time.Microsecond }

	l.RecV(KindStateChange, -1, 0, us(0))     // working
	l.RecV(KindStateChange, -1, 1, us(100))   // searching after 100µs working
	l.RecV(KindProbeResult, 1, 0, us(110))    // empty probe
	l.RecV(KindProbeResult, 2, 3, us(120))    // found work
	l.RecV(KindStealRequest, 2, 0, us(130))   // steal begins
	l.RecV(KindStealFail, 2, 0, us(150))      // ...and loses the race: 20µs
	l.RecV(KindProbeResult, 3, 1, us(160))    // probe again
	l.RecV(KindStealRequest, 3, 0, us(170))   // second attempt
	l.RecV(KindChunkTransfer, 3, 16, us(230)) // lands 16 nodes: 60µs
	l.RecV(KindStateChange, -1, 0, us(240))   // back to working

	s := tr.Summary()
	if !s.Virtual {
		t.Error("summary should be virtual")
	}
	if n := s.StealLatency.Count(); n != 2 {
		t.Fatalf("steal-latency samples = %d, want 2 (one fail, one success)", n)
	}
	if min, max := s.StealLatency.Min(), s.StealLatency.Max(); min != int64(20*time.Microsecond) || max != int64(60*time.Microsecond) {
		t.Errorf("steal-latency range [%d, %d], want [20µs, 60µs]", min, max)
	}
	if n := s.ChunkSize.Count(); n != 1 || s.ChunkSize.Max() != 16 {
		t.Errorf("chunk-size n=%d max=%d, want 1 and 16", n, s.ChunkSize.Max())
	}
	// Three probes between losing work and landing the steal.
	if n := s.ProbeDistance.Count(); n != 1 || s.ProbeDistance.Max() != 3 {
		t.Errorf("probe-distance n=%d max=%d, want 1 and 3", n, s.ProbeDistance.Max())
	}
	// The initial state-change closes a zero-length working dwell; the
	// switch to searching closes the real 100µs one.
	if n := s.Dwell[0].Count(); n != 2 || s.Dwell[0].Max() != int64(100*time.Microsecond) {
		t.Errorf("working dwell n=%d max=%d", n, s.Dwell[0].Max())
	}
	if s.Dwell[3].Count() != 0 {
		t.Errorf("idle dwell should be empty, got %d", s.Dwell[3].Count())
	}
	out := s.String()
	for _, want := range []string{"steal-latency: p50=", "p95=", "p99=", "virtual clock", "chunk-size(nodes)"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary %q missing %q", out, want)
		}
	}
}

// TestEventsMergedOrder: Events orders by (T, PE, Seq) whichever clock T
// is on. rec takes the instant directly, so the wall tracer's lanes can be
// given the same instants as the virtual one's.
func TestEventsMergedOrder(t *testing.T) {
	for name, tr := range map[string]*Tracer{"wall": New(3, 0), "virtual": NewVirtual(3, 0)} {
		tr.Lane(2).rec(KindTermEnter, -1, 0, 300)
		tr.Lane(0).rec(KindTermEnter, -1, 0, 100)
		tr.Lane(1).rec(KindTermEnter, -1, 0, 100) // tie with lane 0: PE breaks it
		tr.Lane(0).rec(KindTermExit, -1, 0, 200)
		tr.Lane(0).rec(KindTermEnter, -1, 0, 200) // tie on the same lane: Seq breaks it
		tr.Lane(0).rec(KindTermExit, -1, 0, 150)  // recorded last, sorts by T all the same
		type key struct {
			t   int64
			pe  int32
			seq uint64
		}
		want := []key{{100, 0, 0}, {100, 1, 0}, {150, 0, 3}, {200, 0, 1}, {200, 0, 2}, {300, 2, 0}}
		evs := tr.Events()
		if len(evs) != len(want) {
			t.Fatalf("%s: got %d events, want %d", name, len(evs), len(want))
		}
		for i, e := range evs {
			if got := (key{e.T, e.PE, e.Seq}); got != want[i] {
				t.Errorf("%s: position %d: (T, PE, Seq) = %v, want %v", name, i, got, want[i])
			}
		}
	}
}

// TestSlotFormat pins the ring's record format: four words, 32 bytes, and
// a header that round-trips every field at its bounds through record →
// snapshotSince without touching its neighbours.
func TestSlotFormat(t *testing.T) {
	if slotWords != 4 || unsafe.Sizeof([slotWords]uint64{}) != 32 {
		t.Fatalf("slot is %d words / %d bytes, want 4 / 32", slotWords, unsafe.Sizeof([slotWords]uint64{}))
	}
	const maxID = 1<<idBits - 2 // the largest lane id whose other+1 still fits
	var r ring
	r.init(4)
	var want []Event
	for _, pe := range []int32{0, 1<<20 - 1} { // des.MaxPEs is 1<<20
		for _, other := range []int32{-1, 0, maxID} {
			for k := Kind(0); k < numKinds; k++ {
				for _, v := range []int64{math.MinInt64, -1, 0, math.MaxInt64} {
					want = append(want, Event{Kind: k, PE: pe, Other: other, Value: v, T: ^v})
				}
			}
		}
	}
	var got []Event
	var cursor uint64
	for i, e := range want {
		r.record(e.Kind, e.PE, e.Other, e.Value, e.T)
		var missed uint64
		got, cursor, missed = r.snapshotSince(cursor, got)
		if missed != 0 || cursor != uint64(i+1) {
			t.Fatalf("record %d: cursor %d, missed %d", i, cursor, missed)
		}
	}
	for i, e := range got {
		want[i].Seq = uint64(i)
		if e != want[i] {
			t.Fatalf("event %d round-tripped as %+v, want %+v", i, e, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read back %d of %d events", len(got), len(want))
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.PEs() != 0 || tr.Virtual() || tr.Summary() != nil || tr.Events() != nil {
		t.Error("nil tracer accessors should be zero-valued")
	}
	l := tr.Lane(0)
	if l != nil {
		t.Fatal("nil tracer must hand out nil lanes")
	}
	// None of these may panic.
	l.Rec(KindStealRequest, 1, 0)
	l.RecV(KindChunkTransfer, 1, 16, time.Microsecond)
	if l.Snapshot(nil) != nil || l.Recorded() != 0 {
		t.Error("nil lane should be empty")
	}
	// Every exported method of a nil-is-off type returns on a nil
	// receiver, given zero arguments: a method added later is held too.
	for _, off := range []any{(*Tracer)(nil), (*Lane)(nil), (*Sampler)(nil), (*Summary)(nil)} {
		v := reflect.ValueOf(off)
		for i := 0; i < v.NumMethod(); i++ {
			m, name := v.Method(i), v.Type().Method(i).Name
			args := make([]reflect.Value, m.Type().NumIn())
			for j := range args {
				args[j] = reflect.Zero(m.Type().In(j))
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("(%v).%s on nil panicked: %v", v.Type(), name, r)
					}
				}()
				m.Call(args)
			}()
		}
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace(nil): %v", err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil-tracer trace is not valid JSON: %v\n%s", err, buf.String())
	}
	buf.Reset()
	if err := WriteTimeline(&buf, tr); err != nil {
		t.Fatalf("WriteTimeline(nil): %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil-tracer timeline should be empty, got %q", buf.String())
	}
	// Out-of-range lanes are nil too.
	real := New(2, 16)
	if real.Lane(-1) != nil || real.Lane(2) != nil {
		t.Error("out-of-range Lane must be nil")
	}
	if real.Lane(1) == nil {
		t.Error("in-range Lane must not be nil")
	}
}

func TestTimelineFormat(t *testing.T) {
	tr := NewVirtual(2, 0)
	tr.Lane(1).RecV(KindStealRequest, 0, 0, 1500)
	tr.Lane(0).RecV(KindStealGrant, 1, 4, 2500)
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], "PE   1") || !strings.Contains(lines[0], "steal-request → PE 0") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.Contains(lines[1], "PE   0") || !strings.Contains(lines[1], "steal-grant → PE 1 chunks=4") {
		t.Errorf("line 1 = %q", lines[1])
	}
}

// TestWallClockRecording: a wall lane's T is the wall clock, so it
// advances across a sleep; a virtual lane's T is exactly the instant RecV
// was given, whatever the wall clock did meanwhile.
func TestWallClockRecording(t *testing.T) {
	tr, vt := New(1, 0), NewVirtual(1, 0)
	l, vl := tr.Lane(0), vt.Lane(0)
	l.Rec(KindStealRequest, -1, 0)
	vl.RecV(KindStealRequest, -1, 0, 700)
	time.Sleep(time.Millisecond)
	l.Rec(KindChunkTransfer, -1, 8)
	vl.RecV(KindChunkTransfer, -1, 8, 700)
	evs, vevs := tr.Events(), vt.Events()
	if len(evs) != 2 || len(vevs) != 2 {
		t.Fatalf("got %d and %d events", len(evs), len(vevs))
	}
	if evs[0].T < 0 || evs[1].T-evs[0].T < int64(time.Millisecond) {
		t.Errorf("wall clock did not advance across the sleep: %d then %d", evs[0].T, evs[1].T)
	}
	if vevs[0].T != 700 || vevs[1].T != 700 {
		t.Errorf("virtual events at %d and %d, want exactly the 700 RecV was given", vevs[0].T, vevs[1].T)
	}
	if n := tr.Summary().StealLatency.Count(); n != 1 {
		t.Errorf("steal-latency samples = %d, want 1", n)
	}
	if h := vt.Summary().StealLatency; h.Count() != 1 || h.Max() != 0 {
		t.Errorf("virtual steal latency n=%d max=%d, want one sample of 0", h.Count(), h.Max())
	}
}

// BenchmarkLaneRec measures the raw cost of recording one event into a
// lane's ring — the per-protocol-operation price of an enabled tracer —
// on each timebase: the wall leg reads the clock, the virtual leg is
// handed its instant.
func BenchmarkLaneRec(b *testing.B) {
	b.Run("wall", func(b *testing.B) {
		l := New(1, 0).Lane(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Rec(KindProbeResult, 1, int64(i))
		}
	})
	b.Run("virtual", func(b *testing.B) {
		l := NewVirtual(1, 0).Lane(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.RecV(KindProbeResult, 1, int64(i), time.Duration(i))
		}
	})
}
