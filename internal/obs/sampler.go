package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// Sampler is the live read side of the tracer: where Summary folds the
// rings once at end-of-run, a Sampler re-reads each lane incrementally
// (via the cursor-based SnapshotSince) on a periodic wall-clock tick and
// maintains — while the run is still going — monotonic per-kind counters,
// cumulative and *windowed* steal-latency histograms, windowed per-state
// dwell fractions, and throughput rates (events/s, nodes/s, steals/s over
// the last window).
//
// The Sampler uses only the seqlock read side of the rings plus the
// lanes' atomic progress counters, so attaching one changes nothing on
// the owning PEs' record path: no locks, no allocation, no extra stores —
// a sampled run's schedule and counters are byte-identical to an
// unsampled one (the traced-vs-untraced differential gates extend to
// sampler-attached runs).
//
// Wall-clock time lives here, in the consumer, never in the
// deterministic scheduler packages: the sampler goroutine owns the
// ticker, and DES runs keep their virtual clocks untouched — the sampler
// merely reports the newest virtual timestamp it has seen.
//
// A nil *Sampler is a valid, disabled sampler: every method is nil-safe,
// mirroring the nil-*Tracer convention.
type Sampler struct {
	t     *Tracer
	start time.Time

	mu       sync.Mutex
	cursors  []uint64 // per-lane SnapshotSince cursor
	scratch  []Event  // reused event buffer
	lanes    []replay // per-lane event-replay state
	events   int64    // cumulative events recorded (sum of cursors)
	missed   int64    // cumulative events overwritten before sampling
	tMax     int64    // newest timestamp seen
	kinds    [NumKinds]int64
	chunkCum Histogram
	stealCum Histogram // every round trip of the windows already closed

	// The open window: what replayLane measured since the last Sample,
	// handed out as is and then zeroed.
	stealWin Histogram
	dwellWin [NumStates]int64 // ns per state

	// The counters at the last Sample, for the windowed rates.
	prevWall   time.Time
	prevEvents int64
	prevNodes  int64
	prevSteals int64

	last LiveStats

	onSample func(LiveStats) // never nil: a no-op until OnSample sets one
	stopCh   chan struct{}
	doneCh   chan struct{}
}

// replay is the per-lane state reconstructing latency and dwell measures
// from the raw event stream — the read-side mirror of Lane.rec's
// owner-only bookkeeping.
type replay struct {
	stealT0 int64 // pending steal-request timestamp, -1 when none
	state   int64 // current Figure-1 state code
	lastT   int64 // timestamp up to which dwell has been charged
}

// LiveStats is one sampled view of a running (or finished) traversal.
// Counters and the cumulative histograms are monotonic across successive
// samples; the windowed fields cover the wall-clock interval since the
// previous sample.
type LiveStats struct {
	// Elapsed is wall time since the sampler was created; Window is the
	// wall interval the windowed fields cover.
	Elapsed, Window time.Duration
	// Virtual reports whether the underlying tracer timestamps events in
	// virtual (DES) time; Virt is then the newest virtual timestamp seen.
	Virtual bool
	Virt    time.Duration
	// Events is the cumulative number of events recorded across lanes;
	// Missed counts events the rings overwrote before the sampler read
	// them (the sampler fell a full ring revolution behind).
	Events, Missed int64
	// Nodes is the cumulative tree-node progress flushed by the workers
	// (Lane.AddNodes).
	Nodes int64
	// Kinds tallies every event kind recorded so far, indexed by Kind.
	Kinds [NumKinds]int64
	// Steals, Probes, FailedSteals, Releases, Reacquires are the headline
	// protocol counters (projections of Kinds, here for convenience).
	Steals, Probes, FailedSteals, Releases, Reacquires int64
	// EventsPerSec, NodesPerSec, StealsPerSec are windowed wall-clock
	// rates.
	EventsPerSec, NodesPerSec, StealsPerSec float64
	// StealLatency holds the steal round trips completed in the last
	// window; StealLatencyCum all of them since the run began. Durations
	// are virtual ns for DES runs, wall ns otherwise.
	StealLatency, StealLatencyCum Histogram
	// ChunkSize is the cumulative nodes-per-successful-steal histogram.
	ChunkSize Histogram
	// DwellFrac is the fraction of observed PE-time spent in each
	// Figure-1 state during the last window (zeroes when the window saw
	// no state activity).
	DwellFrac [NumStates]float64
}

// NewSampler builds a sampler over t's lanes. A nil tracer yields a nil
// (disabled, nil-safe) sampler.
func NewSampler(t *Tracer) *Sampler {
	if t == nil {
		return nil
	}
	s := &Sampler{
		t:        t,
		start:    time.Now(),
		cursors:  make([]uint64, t.PEs()),
		lanes:    make([]replay, t.PEs()),
		onSample: func(LiveStats) {},
	}
	for i := range s.lanes {
		s.lanes[i].stealT0 = -1
	}
	s.prevWall = s.start
	return s
}

// OnSample registers fn to run after every periodic (and final) sample,
// called from the sampler goroutine with the fresh stats — the hook the
// CLI -live progress lines hang off. Register before Start. Nil-safe; a
// nil fn keeps the no-op.
func (s *Sampler) OnSample(fn func(LiveStats)) {
	if s == nil || fn == nil {
		return
	}
	s.mu.Lock()
	s.onSample = fn
	s.mu.Unlock()
}

// Start launches the periodic sampling goroutine with the given interval
// (non-positive means 1s). Call Stop to halt it; Start is not reentrant.
// Nil-safe (a nil sampler ignores Start).
func (s *Sampler) Start(interval time.Duration) {
	if s == nil {
		return
	}
	if interval <= 0 {
		interval = time.Second
	}
	s.stopCh = make(chan struct{})
	s.doneCh = make(chan struct{})
	go func() {
		defer close(s.doneCh)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-s.stopCh:
				return
			case <-tick.C:
				s.sampleAndNotify()
			}
		}
	}()
}

// Stop halts the periodic goroutine (if running) and takes one final
// sample so the last window is never lost. Nil-safe.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	if s.stopCh != nil {
		close(s.stopCh)
		<-s.doneCh
		s.stopCh, s.doneCh = nil, nil
	}
	s.sampleAndNotify()
}

// sampleAndNotify folds once and runs the OnSample hook outside the lock.
func (s *Sampler) sampleAndNotify() {
	st := s.Sample()
	s.mu.Lock()
	fn := s.onSample
	s.mu.Unlock()
	fn(st)
}

// Sample folds every lane's new events into the cumulative state, closes
// the current window, and returns the resulting stats. Safe from any
// goroutine (the fold is serialized by the sampler's own lock; the ring
// reads are seqlock-consistent against the recording PEs). Nil-safe.
func (s *Sampler) Sample() LiveStats {
	if s == nil {
		return LiveStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()

	var events, nodes int64
	for i := range s.cursors {
		l := s.t.Lane(i)
		var evs []Event
		evs, next, missed := l.SnapshotSince(s.cursors[i], s.scratch[:0])
		s.cursors[i] = next
		s.missed += int64(missed)
		events += int64(next)
		nodes += l.LiveNodes()
		s.replayLane(&s.lanes[i], evs)
		s.scratch = evs[:0]
	}
	s.events = events

	st := LiveStats{
		Elapsed: now.Sub(s.start),
		Window:  now.Sub(s.prevWall),
		Virtual: s.t.Virtual(),
		Events:  s.events,
		Missed:  s.missed,
		Nodes:   nodes,
		Kinds:   s.kinds,

		Steals:       s.kinds[KindChunkTransfer],
		Probes:       s.kinds[KindProbeResult],
		FailedSteals: s.kinds[KindStealFail],
		Releases:     s.kinds[KindRelease],
		Reacquires:   s.kinds[KindReacquire],
		StealLatency: s.stealWin,
		ChunkSize:    s.chunkCum,
	}
	if st.Virtual {
		st.Virt = time.Duration(s.tMax)
	}
	s.stealCum.Merge(&s.stealWin)
	st.StealLatencyCum = s.stealCum
	if sec := st.Window.Seconds(); sec > 0 {
		st.EventsPerSec = float64(st.Events-s.prevEvents) / sec
		st.NodesPerSec = float64(st.Nodes-s.prevNodes) / sec
		st.StealsPerSec = float64(st.Steals-s.prevSteals) / sec
	}
	var dwellTotal int64
	for _, d := range s.dwellWin {
		dwellTotal += d
	}
	if dwellTotal > 0 {
		for i, d := range s.dwellWin {
			st.DwellFrac[i] = float64(d) / float64(dwellTotal)
		}
	}

	s.stealWin, s.dwellWin = Histogram{}, [NumStates]int64{}
	s.prevWall = now
	s.prevEvents = st.Events
	s.prevNodes = st.Nodes
	s.prevSteals = st.Steals
	s.last = st
	return st
}

// Stats returns the most recently sampled stats without folding. Nil-safe.
func (s *Sampler) Stats() LiveStats {
	if s == nil {
		return LiveStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// Line renders one -live progress line: elapsed (and, for DES runs,
// virtual) time, node and event throughput with windowed rates, steal
// totals, the window's steal-latency p95, and the windowed working-state
// fraction. This is what the CLI -live flag prints to stderr each tick.
func (st LiveStats) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "live %8s", st.Elapsed.Round(100*time.Millisecond))
	if st.Virtual {
		fmt.Fprintf(&b, " virt=%s", st.Virt.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, " nodes=%s (%s/s) events=%s (%s/s) steals=%d",
		quantity(float64(st.Nodes)), quantity(st.NodesPerSec),
		quantity(float64(st.Events)), quantity(st.EventsPerSec), st.Steals)
	if st.StealLatency.Count() > 0 {
		fmt.Fprintf(&b, " p95(steal)=%s", time.Duration(st.StealLatency.Quantile(0.95)).Round(time.Microsecond))
	}
	var dwell float64
	for _, f := range st.DwellFrac {
		dwell += f
	}
	if dwell > 0 {
		fmt.Fprintf(&b, " work=%.0f%%", 100*st.DwellFrac[0])
	}
	if st.Missed > 0 {
		fmt.Fprintf(&b, " missed=%d", st.Missed)
	}
	return b.String()
}

// quantity renders a count or rate with a k/M/G suffix.
func quantity(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// replayLane feeds one lane's new events through the read-side mirror of
// Lane.rec: steal round trips pair KindStealRequest with the next
// outcome and go into the open window's histogram, dwell charges every
// inter-event interval to the state in effect in the open window, and
// per-kind tallies grow monotonically.
func (s *Sampler) replayLane(r *replay, evs []Event) {
	for i := range evs {
		e := &evs[i]
		if int(e.Kind) < NumKinds {
			s.kinds[e.Kind]++
		}
		t := e.T
		if t > s.tMax {
			s.tMax = t
		}
		if t > r.lastT {
			s.dwellWin[stateIndex(r.state)] += t - r.lastT
			r.lastT = t
		}
		switch e.Kind {
		case KindStateChange:
			r.state = e.Value
		case KindStealRequest:
			r.stealT0 = t
		case KindStealFail:
			if r.stealT0 >= 0 {
				s.stealWin.Observe(t - r.stealT0)
				r.stealT0 = -1
			}
		case KindChunkTransfer:
			if r.stealT0 >= 0 {
				s.stealWin.Observe(t - r.stealT0)
				r.stealT0 = -1
			}
			s.chunkCum.Observe(e.Value)
		}
	}
}
