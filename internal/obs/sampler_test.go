package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSnapshotSinceWraparound(t *testing.T) {
	const ringSize = 8
	tr := NewVirtual(1, ringSize)
	l := tr.Lane(0)

	// Empty lane: nothing to return, cursor stays put.
	evs, next, missed := l.SnapshotSince(0, nil)
	if len(evs) != 0 || next != 0 || missed != 0 {
		t.Fatalf("empty lane: got %d events, next=%d missed=%d", len(evs), next, missed)
	}

	for i := 0; i < 5; i++ {
		l.RecV(KindTermEnter, int32(i), int64(i), time.Duration(i))
	}
	evs, next, missed = l.SnapshotSince(0, nil)
	if len(evs) != 5 || next != 5 || missed != 0 {
		t.Fatalf("first read: got %d events, next=%d missed=%d, want 5, 5, 0", len(evs), next, missed)
	}
	for i, e := range evs {
		if e.Seq != uint64(i) || e.Value != int64(i) {
			t.Errorf("event %d: seq=%d value=%d", i, e.Seq, e.Value)
		}
	}

	// Incremental read sees only the new events.
	for i := 5; i < 7; i++ {
		l.RecV(KindTermEnter, int32(i), int64(i), time.Duration(i))
	}
	evs, next, missed = l.SnapshotSince(next, evs[:0])
	if len(evs) != 2 || next != 7 || missed != 0 {
		t.Fatalf("incremental read: got %d events, next=%d missed=%d, want 2, 7, 0", len(evs), next, missed)
	}
	if evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Errorf("incremental read returned seqs %d,%d, want 5,6", evs[0].Seq, evs[1].Seq)
	}

	// Fall a full revolution behind: the overwritten gap is reported as
	// missed and the read resumes at the oldest retained event.
	for i := 7; i < 30; i++ {
		l.RecV(KindTermEnter, int32(i), int64(i), time.Duration(i))
	}
	evs, next, missed = l.SnapshotSince(7, evs[:0])
	if next != 30 {
		t.Fatalf("post-wrap next = %d, want 30", next)
	}
	if wantMissed := uint64(30 - ringSize - 7); missed != wantMissed {
		t.Errorf("post-wrap missed = %d, want %d", missed, wantMissed)
	}
	if len(evs) != ringSize {
		t.Fatalf("post-wrap retained %d events, want %d", len(evs), ringSize)
	}
	if evs[0].Seq != 30-ringSize {
		t.Errorf("post-wrap oldest seq = %d, want %d", evs[0].Seq, 30-ringSize)
	}

	// A cursor already at the head returns nothing.
	evs, next, missed = l.SnapshotSince(next, evs[:0])
	if len(evs) != 0 || next != 30 || missed != 0 {
		t.Errorf("caught-up read: got %d events, next=%d missed=%d", len(evs), next, missed)
	}
}

// TestSamplerStress runs every lane's writer at full rate against a
// high-frequency sampler (the -race build is the point: the sampler may
// only touch the seqlock read side and the atomic node counters).
// Across successive samples every cumulative quantity must be monotone,
// quantile estimates must stay inside the observed range, and the final
// fold must account for every recorded event.
func TestSamplerStress(t *testing.T) {
	const (
		pes      = 4
		perPE    = 20000
		ringSize = 64 // tiny on purpose: force wraparound under the sampler
	)
	tr := NewVirtual(pes, ringSize)
	s := NewSampler(tr)

	var wg sync.WaitGroup
	for pe := 0; pe < pes; pe++ {
		wg.Add(1)
		go func(pe int) {
			defer wg.Done()
			l := tr.Lane(pe)
			virt := time.Duration(0)
			for i := 0; i < perPE; i++ {
				switch i % 4 {
				case 0:
					l.RecV(KindStateChange, -1, 2, virt) // stealing
				case 1:
					l.RecV(KindStealRequest, int32((pe+1)%pes), 0, virt)
				case 2:
					l.RecV(KindChunkTransfer, int32((pe+1)%pes), int64(i%64+1), virt)
				case 3:
					l.RecV(KindStateChange, -1, 0, virt) // working
					l.AddNodes(3)
				}
				virt += time.Duration(i%5) * time.Microsecond
			}
		}(pe)
	}

	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	var prev LiveStats
	samples := 0
	for sampling := true; sampling; {
		select {
		case <-stop:
			sampling = false
		default:
		}
		st := s.Sample()
		samples++
		if st.Events < prev.Events || st.Nodes < prev.Nodes || st.Missed < prev.Missed {
			t.Fatalf("cumulative counters regressed: %+v after %+v", st, prev)
		}
		for k := 0; k < NumKinds; k++ {
			if st.Kinds[k] < prev.Kinds[k] {
				t.Fatalf("kind %d tally regressed: %d after %d", k, st.Kinds[k], prev.Kinds[k])
			}
		}
		if st.StealLatencyCum.Count() < prev.StealLatencyCum.Count() {
			t.Fatal("cumulative steal-latency count regressed")
		}
		if c := st.StealLatency.Count(); c < 0 || c > st.StealLatencyCum.Count() {
			t.Fatalf("windowed steal count %d out of bounds (cum %d)", c, st.StealLatencyCum.Count())
		}
		for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
			if h := &st.StealLatencyCum; h.Count() > 0 {
				if v := h.Quantile(q); v < h.Min() || v > h.Max() {
					t.Fatalf("q%.2f=%d outside [%d,%d]", q, v, h.Min(), h.Max())
				}
			}
		}
		var frac float64
		for _, f := range st.DwellFrac {
			if f < 0 || f > 1 {
				t.Fatalf("dwell fraction %v out of [0,1]", f)
			}
			frac += f
		}
		if frac > 1.0001 {
			t.Fatalf("dwell fractions sum to %v", frac)
		}
		prev = st
	}

	final := s.Sample()
	// The cursor-based event count survives wraparound (it tracks the
	// writers' sequence numbers, not the retained slots), so it is exact
	// even though the tiny rings dropped most events before the sampler
	// saw them; the per-kind tallies cover exactly the replayed ones.
	if want := int64(pes * perPE); final.Events != want {
		t.Errorf("final events = %d, want %d", final.Events, want)
	}
	if want := int64(pes * perPE / 4 * 3); final.Nodes != want {
		t.Errorf("final nodes = %d, want %d", final.Nodes, want)
	}
	var kindSum int64
	for k := 0; k < NumKinds; k++ {
		kindSum += final.Kinds[k]
	}
	if kindSum+final.Missed != final.Events {
		t.Errorf("replayed %d + missed %d != recorded %d", kindSum, final.Missed, final.Events)
	}
	if samples < 2 {
		t.Errorf("sampler only ran %d times against live writers", samples)
	}
}

// TestSamplerFold checks the replay arithmetic on a hand-built event
// stream: steal round trips pair request→outcome, dwell charges the
// state in effect, and the windowed views cover exactly the deltas.
func TestSamplerFold(t *testing.T) {
	tr := NewVirtual(2, 0)
	s := NewSampler(tr)
	l0, l1 := tr.Lane(0), tr.Lane(1)

	l0.RecV(KindStateChange, -1, 2, 0)                     // stealing from t=0
	l0.RecV(KindStealRequest, 1, 0, 10*time.Microsecond)   // request at t=10µs
	l0.RecV(KindChunkTransfer, 1, 32, 25*time.Microsecond) // 15µs round trip
	l0.AddNodes(100)
	l1.RecV(KindStateChange, -1, 0, 0) // working from t=0
	l1.RecV(KindTermEnter, -1, 0, 40*time.Microsecond)

	st := s.Sample()
	if st.Events != 5 || st.Nodes != 100 || st.Missed != 0 {
		t.Fatalf("events=%d nodes=%d missed=%d, want 5, 100, 0", st.Events, st.Nodes, st.Missed)
	}
	if st.Steals != 1 || st.Kinds[KindStealRequest] != 1 || st.Kinds[KindTermEnter] != 1 {
		t.Fatalf("kind tallies wrong: %+v", st.Kinds)
	}
	if st.StealLatencyCum.Count() != 1 || st.StealLatencyCum.Max() != int64(15*time.Microsecond) {
		t.Fatalf("steal latency: count=%d max=%d, want one 15µs sample",
			st.StealLatencyCum.Count(), st.StealLatencyCum.Max())
	}
	if st.ChunkSize.Count() != 1 || st.ChunkSize.Max() != 32 {
		t.Fatalf("chunk size histogram: %+v", st.ChunkSize)
	}
	if !st.Virtual || st.Virt != 40*time.Microsecond {
		t.Fatalf("virtual time = %v (virtual=%v), want 40µs", st.Virt, st.Virtual)
	}
	// Lane 0 dwelt 10µs stealing then (25µs charged at transfer); lane 1
	// dwelt 40µs working. All charged intervals land on those states.
	if st.DwellFrac[0] <= 0 || st.DwellFrac[2] <= 0 {
		t.Fatalf("dwell fractions missing working/stealing time: %+v", st.DwellFrac)
	}
	if sum := st.DwellFrac[0] + st.DwellFrac[2]; math.Abs(sum-1) > 1e-9 {
		t.Fatalf("dwell fractions sum to %v, want 1", sum)
	}

	// Second window: no new events → empty windowed histogram, counters hold.
	st2 := s.Sample()
	if st2.Events != 5 || st2.StealLatency.Count() != 0 {
		t.Fatalf("idle window: events=%d windowed steals=%d", st2.Events, st2.StealLatency.Count())
	}
	if st2.StealLatencyCum.Count() != 1 {
		t.Fatal("cumulative histogram lost its sample")
	}

	line := st2.Line()
	for _, want := range []string{"virt=", "nodes=100", "steals=1"} {
		if !strings.Contains(line, want) {
			t.Errorf("Line() = %q, missing %q", line, want)
		}
	}
}

func TestSamplerNilAndLifecycle(t *testing.T) {
	var s *Sampler = NewSampler(nil)
	if s != nil {
		t.Fatal("NewSampler(nil) should yield a nil sampler")
	}
	s.OnSample(func(LiveStats) {})
	s.Start(time.Millisecond)
	s.Stop()
	if st := s.Sample(); st.Events != 0 {
		t.Fatal("nil sampler returned non-zero stats")
	}

	// A live sampler's OnSample hook fires on ticks and once at Stop.
	tr := NewVirtual(1, 0)
	live := NewSampler(tr)
	var mu sync.Mutex
	calls := 0
	live.OnSample(func(LiveStats) { mu.Lock(); calls++; mu.Unlock() })
	live.Start(time.Millisecond)
	tr.Lane(0).RecV(KindTermEnter, -1, 0, 0)
	time.Sleep(20 * time.Millisecond)
	live.Stop()
	// With no hook, or a nil one, Stop's final sample runs the no-op.
	quiet := NewSampler(tr)
	quiet.OnSample(nil)
	quiet.Stop()
	mu.Lock()
	defer mu.Unlock()
	if calls < 2 {
		t.Errorf("OnSample fired %d times, want ticks plus the final Stop sample", calls)
	}
}

// TestSamplerWindowIsExact: a window's steal latencies are the round
// trips measured in it, not the difference of two cumulative histograms
// (which reads every value as its bucket's floor: 1,000 ns as 960). A
// 10 ns round trip closes the first window; a lone 1,000 ns one is the
// second window's min, max, sum and p95, and the cumulative view holds
// both.
func TestSamplerWindowIsExact(t *testing.T) {
	tr := NewVirtual(1, 0)
	s := NewSampler(tr)
	l := tr.Lane(0)
	l.RecV(KindStealRequest, 0, 0, 0)
	l.RecV(KindStealFail, 0, 0, 10)
	s.Sample()
	l.RecV(KindStealRequest, 0, 0, 100)
	l.RecV(KindChunkTransfer, 0, 1, 1100)

	st := s.Sample()
	w := &st.StealLatency
	if w.Count() != 1 || w.Min() != 1000 || w.Max() != 1000 || w.Sum() != 1000 || w.Quantile(0.95) != 1000 {
		t.Errorf("window: n=%d min=%d max=%d sum=%d p95=%d, want 1 and 1000 each",
			w.Count(), w.Min(), w.Max(), w.Sum(), w.Quantile(0.95))
	}
	if c := &st.StealLatencyCum; c.Count() != 2 || c.Sum() != 1010 {
		t.Errorf("cumulative: n=%d sum=%d, want 2 and 1010", c.Count(), c.Sum())
	}
}

func TestHistogramExtremeValues(t *testing.T) {
	// Near 2^63: bucketing must stay in range and quantiles must clamp
	// into the observed extremes.
	var h Histogram
	big := int64(math.MaxInt64)
	h.Observe(big)
	h.Observe(big - 1)
	h.Observe(big / 2)
	if h.Count() != 3 || h.Max() != big {
		t.Fatalf("count=%d max=%d", h.Count(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v < h.Min() || v > h.Max() {
			t.Fatalf("q%.2f=%d outside [%d,%d]", q, v, h.Min(), h.Max())
		}
	}

	// Single observation: every quantile is exactly it.
	var one Histogram
	one.Observe(12345)
	for _, q := range []float64{0, 0.5, 1} {
		if v := one.Quantile(q); v != 12345 {
			t.Fatalf("single-sample q%.2f = %d, want 12345", q, v)
		}
	}

	// Merge with an empty receiver adopts the operand's extremes; an
	// empty operand (or nil) changes nothing.
	var dst Histogram
	dst.Merge(&one)
	if dst.Min() != 12345 || dst.Max() != 12345 || dst.Count() != 1 {
		t.Fatalf("merge into empty: min=%d max=%d n=%d", dst.Min(), dst.Max(), dst.Count())
	}
	var empty Histogram
	dst.Merge(&empty)
	dst.Merge(nil)
	if dst.Min() != 12345 || dst.Max() != 12345 || dst.Count() != 1 {
		t.Fatalf("merge of empty operand changed the receiver: min=%d max=%d n=%d", dst.Min(), dst.Max(), dst.Count())
	}
}
