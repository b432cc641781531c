package policy

import (
	"reflect"
	"strings"
	"testing"
)

// win is the test window length in nanoseconds: long enough that steal
// latencies fit inside it, short enough that a single NoteNodes call can
// close it at a chosen timestamp.
const win = 1000

func newCtl(t *testing.T, cfg Config, base Base) (*Set, *Controller) {
	t.Helper()
	if cfg.Window == 0 {
		cfg.Window = win
	}
	s := NewSet(&cfg, base, 1)
	if s == nil {
		t.Fatal("NewSet returned nil for a non-nil config")
	}
	return s, s.Controller(0)
}

// fail books one failed steal attempt of the given latency.
func fail(c *Controller, at, lat int64) {
	c.StealBegin(at)
	c.StealEnd(false, 0, at+lat)
}

// ok books one successful steal attempt delivering nodes.
func ok(c *Controller, at, lat int64, nodes int) {
	c.StealBegin(at)
	c.StealEnd(true, nodes, at+lat)
}

func TestNewSetNil(t *testing.T) {
	if s := NewSet(nil, Base{Chunk: 16}, 4); s != nil {
		t.Fatalf("nil config must disable adaptation, got %+v", s)
	}
	var s *Set
	if c := s.Controller(0); c != nil {
		t.Errorf("nil Set.Controller = %+v, want nil", c)
	}
	if n := s.PEs(); n != 0 {
		t.Errorf("nil Set.PEs = %d, want 0", n)
	}
	if sum := s.Summary(); sum != nil {
		t.Errorf("nil Set.Summary = %+v, want nil", sum)
	}
	if sn := s.Snap(); sn != (Snapshot{}) {
		t.Errorf("nil Set.Snap = %+v, want zero", sn)
	}
	if got := (*Summary)(nil).String(); got != "" {
		t.Errorf("nil Summary.String = %q, want empty", got)
	}
}

func TestBaseKnobs(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16, Poll: 8, StealHalf: true})
	if c.Chunk(0) != 16 || c.Poll(0) != 8 || !c.StealHalf(false) {
		t.Errorf("base knobs not adopted: k=%d poll=%d half=%v",
			c.Chunk(0), c.Poll(0), c.StealHalf(false))
	}
}

// TestFailHeavyHalves: a window where every attempt fails halves the
// chunk (work withheld below the release threshold) and flips steal-half
// on (scarcity hysteresis).
func TestFailHeavyHalves(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		fail(c, i*20, 10)
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 8 {
		t.Errorf("all-fail window: chunk = %d, want 8", c.Chunk(0))
	}
	if !c.StealHalf(false) {
		t.Error("all-fail window must turn steal-half on")
	}
}

// TestShareDoubles: successful steals whose latency fills most of the
// window (share > 0.5) double the chunk — the slow-start escape from the
// far-left of the Figure-4 curve.
func TestShareDoubles(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		ok(c, i*220, 200, 5)
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 32 {
		t.Errorf("share>0.5 window: chunk = %d, want 32", c.Chunk(0))
	}
}

// TestShareAdditive: moderate steal overhead (0.15 < share <= 0.5) grows
// the chunk additively by k/4.
func TestShareAdditive(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		ok(c, i*100, 50, 5)
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 20 {
		t.Errorf("moderate-share window: chunk = %d, want 16+4", c.Chunk(0))
	}
}

// TestShareIsExact: the share is the exact time spent stealing. Four steals
// of 39, 39, 39 and 37 ns spend 154 of a 1000-ns window, just over shareHi,
// so the chunk grows; a sum clamped to the latency buckets' floors (36 ns
// a steal here) would have read 148 and held it.
func TestShareIsExact(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i, lat := range []int64{39, 39, 39, 37} {
		ok(c, int64(i)*100, lat, 5)
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 20 {
		t.Errorf("share 0.154 window: chunk = %d, want 16+4", c.Chunk(0))
	}
}

// TestNilControllerIsFixedKnobs: a nil Controller is the fixed-knob run —
// every knob read returns the caller's value and every report is a no-op.
func TestNilControllerIsFixedKnobs(t *testing.T) {
	var c *Controller
	c.NoteNodes(10, 4, win)
	c.NotePoll(3)
	c.NoteDenied()
	c.StealBegin(0)
	c.StealEnd(true, 5, win)
	if c.Chunk(7) != 7 || c.Poll(9) != 9 || !c.StealHalf(true) || c.StealHalf(false) {
		t.Errorf("nil controller: Chunk(7)=%d Poll(9)=%d StealHalf(true)=%v StealHalf(false)=%v, want 7 9 true false",
			c.Chunk(7), c.Poll(9), c.StealHalf(true), c.StealHalf(false))
	}
	// Every exported method of a nil-is-off type returns on a nil
	// receiver, given zero arguments: a method added later is held too.
	for _, off := range []any{(*Controller)(nil), (*Set)(nil), (*Summary)(nil)} {
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
}

// TestCalmHolds: cheap, successful steals (share ~0, no failures) leave
// every knob alone — the controller must not chatter on the plateau.
func TestCalmHolds(t *testing.T) {
	s, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		ok(c, i*10, 1, 5)
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 16 {
		t.Errorf("calm window: chunk = %d, want 16", c.Chunk(0))
	}
	sum := s.Summary()
	if sum.Windows != 1 || sum.Changes != 0 {
		t.Errorf("calm window: windows=%d changes=%d, want 1/0", sum.Windows, sum.Changes)
	}
}

// TestStealHalfHysteresis: scarcity turns steal-half on; it stays on
// through a middling window and reverts to the base only once the failed
// fraction drops below the lower threshold.
func TestStealHalfHysteresis(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		fail(c, i*20, 1)
	}
	c.NoteNodes(10, 0, win)
	if !c.StealHalf(false) {
		t.Fatal("scarcity must turn steal-half on")
	}
	// Middling window: 2 of 4 fail (0.2 < 0.5 < 0.6) — no change.
	at := int64(win)
	fail(c, at+10, 1)
	fail(c, at+30, 1)
	ok(c, at+50, 1, 5)
	ok(c, at+70, 1, 5)
	c.NoteNodes(10, 0, 2*win)
	if !c.StealHalf(false) {
		t.Error("hysteresis: steal-half must hold through a middling window")
	}
	// Calm window: all succeed — revert to base (steal-k).
	at = 2 * win
	for i := int64(0); i < 4; i++ {
		ok(c, at+i*20, 1, 5)
	}
	c.NoteNodes(10, 0, 3*win)
	if c.StealHalf(false) {
		t.Error("calm window must revert steal-half to the base selection")
	}
}

// TestPollAdapts: an all-miss drain window doubles the poll interval, an
// all-hit window halves it back.
func TestPollAdapts(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16, Poll: 8})
	c.NoteNodes(0, 0, 0) // open the window at t=0, as the scheduler wiring does
	for i := 0; i < 4; i++ {
		c.NotePoll(0)
	}
	c.NoteNodes(1, 0, win)
	if c.Poll(0) != 16 {
		t.Errorf("all-miss window: poll = %d, want 16", c.Poll(0))
	}
	for i := 0; i < 4; i++ {
		c.NotePoll(1)
	}
	c.NoteNodes(1, 0, 2*win)
	if c.Poll(0) != 8 {
		t.Errorf("all-hit window: poll = %d, want 8", c.Poll(0))
	}
}

// TestEvidenceExtends: a window with too few attempts extends instead of
// acting, and the carried-over evidence counts toward the next close.
func TestEvidenceExtends(t *testing.T) {
	s, c := newCtl(t, Config{}, Base{Chunk: 16})
	fail(c, 0, 10)
	fail(c, 50, 10)
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 16 || s.Summary().Windows != 0 {
		t.Fatalf("2 attempts must extend, not act: k=%d windows=%d",
			c.Chunk(0), s.Summary().Windows)
	}
	fail(c, win+10, 10)
	fail(c, win+50, 10)
	c.NoteNodes(10, 0, 2*win)
	if c.Chunk(0) != 8 {
		t.Errorf("accumulated evidence (4 fails over 2 windows) must halve: k=%d", c.Chunk(0))
	}
}

// TestStaleDiscard: evidence that sits below the gate for staleWindows
// extensions is discarded, so it cannot combine with attempts from a
// much later epoch.
func TestStaleDiscard(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	fail(c, 0, 10)
	fail(c, 20, 10)
	fail(c, 40, 10)
	for i := int64(1); i <= staleWindows; i++ {
		c.NoteNodes(1, 0, i*win)
	}
	// The 3 early fails were discarded on the staleWindows-th close; one
	// more attempt must not reach the 4-attempt gate.
	fail(c, staleWindows*win+10, 10)
	c.NoteNodes(1, 0, (staleWindows+1)*win)
	if c.Chunk(0) != 16 {
		t.Errorf("stale evidence acted: k=%d, want 16", c.Chunk(0))
	}
}

// TestDeniedHalves: victim-side denials alone (no attempts of our own)
// satisfy the evidence gate and halve the chunk.
func TestDeniedHalves(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	c.NoteNodes(0, 0, 0) // open the window at t=0
	for i := 0; i < 4; i++ {
		c.NoteDenied()
	}
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 8 {
		t.Errorf("denied-heavy window: chunk = %d, want 8", c.Chunk(0))
	}
}

// TestStarvationEscape: a working PE with no steal traffic in either
// role and a stack that never reaches the 2k release threshold jumps k
// down to depthMax/4 in a single window — the only signal-free escape
// from the serialized k-too-big regime.
func TestStarvationEscape(t *testing.T) {
	s, c := newCtl(t, Config{}, Base{Chunk: 64})
	c.NoteNodes(0, 0, 0) // open the window at t=0
	c.NoteNodes(100, 10, win)
	if c.Chunk(0) != 2 {
		t.Errorf("starved window: chunk = %d, want depthMax/4 = 2", c.Chunk(0))
	}
	sum := s.Summary()
	if sum.Windows != 1 || sum.Changes != 1 {
		t.Errorf("starved window: windows=%d changes=%d, want 1/1", sum.Windows, sum.Changes)
	}
	// A deep stack (at or above 2k) is not starved: no move.
	_, c = newCtl(t, Config{}, Base{Chunk: 8})
	c.NoteNodes(0, 0, 0)
	c.NoteNodes(100, 40, win)
	if c.Chunk(0) != 8 {
		t.Errorf("deep-stack window must hold: chunk = %d, want 8", c.Chunk(0))
	}
}

// TestBoundsClamp: the bounds derived from the base chunk, [1, max(128,
// 8·base)], stop the doubling at one end and the halving at the other.
func TestBoundsClamp(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 4})
	at := int64(0)
	window := func(book func(at int64)) {
		for i := int64(0); i < 4; i++ {
			book(at + i*220)
		}
		at += win
		c.NoteNodes(10, 0, at)
	}
	for w := 0; w < 8; w++ {
		window(func(at int64) { ok(c, at, 200, 5) })
	}
	if c.Chunk(0) != 128 {
		t.Fatalf("doubling must stop at max(128, 8·base): k=%d, want 128", c.Chunk(0))
	}
	for w := 0; w < 10; w++ {
		window(func(at int64) { fail(c, at, 10) })
	}
	if c.Chunk(0) != 1 {
		t.Errorf("halving must stop at 1: k=%d", c.Chunk(0))
	}
}

// TestSummaryAndSnap: the post-run summary and the live snapshot agree
// on what the controllers did.
func TestSummaryAndSnap(t *testing.T) {
	s, c := newCtl(t, Config{}, Base{Chunk: 16})
	for i := int64(0); i < 4; i++ {
		fail(c, i*20, 10)
	}
	c.NoteNodes(10, 0, win)

	sum := s.Summary()
	if sum.PEs != 1 || sum.ChunkStart != 16 || sum.ChunkFinalMin != 8 ||
		sum.ChunkFinalMax != 8 || sum.ChunkLo != 8 || sum.ChunkHi != 16 {
		t.Errorf("summary fields wrong: %+v", sum)
	}
	if !strings.Contains(sum.String(), "adaptive: chunk 16 -> 8.0") {
		t.Errorf("summary line wrong: %q", sum.String())
	}

	sn := s.Snap()
	if sn.PEs != 1 || sn.ChunkMin != 8 || sn.ChunkMax != 8 || sn.Windows != 1 {
		t.Errorf("snapshot wrong: %+v", sn)
	}
}

// TestStealEndUnpaired: a StealEnd with no matching StealBegin is
// ignored rather than corrupting the window counters.
func TestStealEndUnpaired(t *testing.T) {
	_, c := newCtl(t, Config{}, Base{Chunk: 16})
	c.StealEnd(true, 100, 50)
	c.NoteNodes(10, 0, win)
	if c.Chunk(0) != 16 {
		t.Errorf("unpaired StealEnd changed the chunk: k=%d", c.Chunk(0))
	}
}

// TestControllerAllocatesNothing: every method a PE calls on its own
// controller — the knob reads, the steal bracket, the poll and denial notes
// and NoteNodes, which closes the window — allocates nothing, with a window
// closing on every call of the loop and the evidence moving between failed
// and landed steals, missed and hit polls, and a starved stack (a window
// with no steal traffic and a stack under 2k).
func TestControllerAllocatesNothing(t *testing.T) {
	s, c := newCtl(t, Config{}, Base{Chunk: 16, Poll: 8})
	var now int64
	i := 0
	if n := testing.AllocsPerRun(2000, func() {
		i++
		for a := 0; a < minAttempts && i%4 != 3; a++ { // every fourth window starves
			c.StealBegin(now + int64(a))
			c.StealEnd(i&1 == 0, c.Chunk(16), now+int64(a)+10)
			c.NotePoll(i & 2)
		}
		if i%3 == 0 {
			c.NoteDenied()
		}
		_, _ = c.StealHalf(false), c.Poll(8)
		now += win
		c.NoteNodes(100, i%7, now)
	}); n != 0 {
		t.Errorf("the controller's window allocates %v times per call", n)
	}
	if w := s.Summary().Windows; w < 1500 {
		t.Errorf("%d windows closed over 2000 calls, want at least 1500", w)
	}
}
