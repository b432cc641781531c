package des

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/uts"
)

// The driver-agreement test: one scripted host, driven through the
// Figure-1 machine (core.Machine) once by the wall-clock engine
// (core.WallPE.Steps) and once by the virtual-time one (the dispatcher's
// steps, the machine registered with spawnStepped as every simulated PE is). The script fixes everything a run decides from — what each
// probe answers, how each steal ends, when a steal request lands, when the
// barrier completes — as a function of how many probes, steals, flag reads
// and barrier calls came before, never of time. The two logs of every call
// the machine made must then be equal: the drivers may differ in how a
// quantum passes, not in what the machine does between quanta.

// script is the scripted world and the log of what the machine did in it.
// The zero answers are "no work anywhere, no steal succeeds, never
// announced, Enter waits, Leave allowed".
type script struct {
	avail     map[int]int64 // n-th probe's answer; −1 when absent
	steals    map[int]bool  // n-th steal's outcome
	requests  map[int]bool  // a steal request lands while the n-th probe is in flight
	announce  int           // flag reads from the n-th on see the announcement (0: never)
	enterLast int           // the n-th Enter completes the barrier (0: never)
	refuse    int           // the n-th Leave is refused (0: never)

	probes, flags, nsteals, enters, leaves int

	pending bool // a request landed and was not yet serviced: what Interrupted answers
	log     []string
}

func (s *script) logf(format string, a ...any) { s.log = append(s.log, fmt.Sprintf(format, a...)) }

func (s *script) readAvail(v int) int64 {
	s.probes++
	if s.requests[s.probes] {
		s.pending = true
	}
	if wa, ok := s.avail[s.probes]; ok {
		return wa
	}
	return -1
}

func (s *script) readAnnounced() int64 {
	s.flags++
	if s.announce != 0 && s.flags >= s.announce {
		return 1
	}
	return 0
}

// The protocol third of core.Host, the same for both drivers.

func (s *script) Work() { s.logf("work") }

func (s *script) Service() {
	s.logf("service pending=%v", s.pending)
	s.pending = false
}

func (s *script) Steal(v int) bool {
	s.nsteals++
	s.logf("steal %d -> %v", v, s.steals[s.nsteals])
	return s.steals[s.nsteals]
}

func (s *script) Settle(entering bool) bool {
	s.logf("settle entering=%v", entering)
	return false
}

func (s *script) Enter() bool {
	s.enters++
	s.logf("enter -> %v", s.enters == s.enterLast)
	return s.enters == s.enterLast
}

func (s *script) Leave() bool {
	s.leaves++
	s.logf("leave -> %v", s.leaves != s.refuse)
	return s.leaves != s.refuse
}

// logged wraps either fake so that what the machine asks of the clock
// third (the real adapter's on both sides) lands in the log too: trace
// values carry the probe victims and answers, state changes the verdicts
// of search and terminate.
type logged struct {
	core.Host
	s *script
}

func (l logged) SetState(st stats.State) { l.s.logf("state %v", st); l.Host.SetState(st) }
func (l logged) Rec(k obs.Kind, o int32, v int64) {
	l.s.logf("rec %v %v %v", k, o, v)
	l.Host.Rec(k, o, v)
}
func (l logged) BeginSteal() { l.s.logf("beginsteal"); l.Host.BeginSteal() }
func (l logged) EndSteal(ok bool, b stats.State) {
	l.s.logf("endsteal %v back=%v", ok, b)
	l.Host.EndSteal(ok, b)
}

// wallFake is the scripted host on the wall-clock driver.
type wallFake struct {
	core.WallPE
	*script
}

func (w *wallFake) Settle(e bool) bool             { return w.script.Settle(e) }
func (w *wallFake) StageAvail(v int) time.Duration { return w.Stage(w.readAvail(v)) }
func (w *wallFake) StageAnnounced(time.Duration) time.Duration {
	return w.Stage(w.readAnnounced())
}

// simFake is the scripted host on the virtual-time driver: reads are staged
// against their quantum and run by its boundary effect, and a request is
// seen where the machine asks Interrupted, as on the wall clock.
type simFake struct {
	simPE
	*script
	stage []func() int64 // the reads the current quantum staged
	reads []int64        // what they read at its boundary
}

func (f *simFake) Settle(e bool) bool { return f.script.Settle(e) }
func (f *simFake) Interrupted() bool  { return f.pending }
func (f *simFake) StageAvail(v int) time.Duration {
	f.stage = append(f.stage, func() int64 { return f.readAvail(v) })
	return f.charge(f.p.Stage(10*time.Nanosecond, 0))
}
func (f *simFake) StageAnnounced(d time.Duration) time.Duration {
	if d == 0 {
		d = f.charge(5 * time.Nanosecond)
	}
	f.stage = append(f.stage, f.readAnnounced)
	return f.p.Stage(d, 0)
}
func (f *simFake) read() {
	f.reads = f.reads[:0]
	for _, r := range f.stage {
		f.reads = append(f.reads, r())
	}
	f.stage = f.stage[:0]
}
func (f *simFake) Staged(i int) int64                   { return f.reads[i] }
func (f *simFake) Doze(*core.ProbeWalk) time.Duration   { return 0 }
func (f *simFake) Probed(*core.ProbeWalk) (int64, bool) { return f.reads[0], false }

const (
	fakeMe  = 1
	fakePEs = 4
)

func runWallFake(sc script) []string {
	var th stats.Thread
	w := &wallFake{WallPE: core.WallPE{PE: core.NewPE(&uts.BenchTiny, &th, nil, nil)}, script: &sc}
	w.Interrupt = func() bool { return sc.pending }
	w.Start()
	defer w.Stop()
	m := core.Machine{H: logged{w, &sc}, PE: &w.PE, Rng: core.NewProbeOrder(1, fakeMe), Me: fakeMe, N: fakePEs, Stream: true}
	w.Steps(m.Start())
	return sc.log
}

func runSimFake(t *testing.T, sc script) []string {
	res := &core.Result{}
	res.Threads = make([]stats.Thread, fakeMe+1)
	f := &simFake{simPE: newSimPE(&uts.BenchTiny, Config{Seed: 1}, res, nil, fakeMe), script: &sc}
	sim := New()
	m := core.Machine{H: logged{f, &sc}, PE: &f.PE, Rng: f.rng, Me: fakeMe, N: fakePEs, Stream: true}
	f.spawnStepped(sim, m.Start(), f.read, func(*Proc) {})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	return sc.log
}

func TestMachineDriversAgree(t *testing.T) {
	// With 4 PEs a probe cycle is 3 probes.
	cases := []struct {
		name string
		sc   script
		want []string // log lines that must appear, in order
	}{
		{"empty cycle, then the wait sees the announcement",
			script{announce: 3},
			[]string{"state searching", "state idle", "settle entering=true", "enter -> false"}},
		{"last to arrive",
			script{enterLast: 1},
			[]string{"enter -> true", "service pending=false"}},
		{"find on the second probe",
			script{avail: map[int]int64{2: 3}, steals: map[int]bool{1: true}, enterLast: 1},
			[]string{"beginsteal", "endsteal true back=searching", "state working", "work", "enter -> true"}},
		{"failed steal, the walk continues into a second cycle",
			script{avail: map[int]int64{1: 1, 3: 0}, enterLast: 1},
			[]string{"endsteal false back=searching", "rec probe-result 3 0", "settle entering=false", "state idle"}},
		{"request lands during a probe, serviced before the next",
			script{requests: map[int]bool{2: true}, enterLast: 1},
			[]string{"service pending=true", "state idle"}},
		{"in-barrier find, steal, back to work",
			script{avail: map[int]int64{4: 2}, steals: map[int]bool{1: true}, enterLast: 2},
			[]string{"leave -> true", "endsteal true back=idle", "state working", "work", "enter -> true"}},
		{"in-barrier steal fails, re-enter completes the barrier",
			script{avail: map[int]int64{4: 2}, enterLast: 2},
			[]string{"leave -> true", "endsteal false back=idle", "enter -> true"}},
		{"announcement seen at the probe's completion: no leave",
			script{avail: map[int]int64{4: 2}, announce: 2},
			[]string{"enter -> false"}},
		{"leave refused",
			script{avail: map[int]int64{4: 2}, refuse: 1},
			[]string{"leave -> false"}},
		{"request lands in the barrier",
			script{requests: map[int]bool{5: true}, announce: 5},
			[]string{"enter -> false", "service pending=true"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wall := runWallFake(tc.sc)
			sim := runSimFake(t, tc.sc)
			if !reflect.DeepEqual(wall, sim) {
				t.Errorf("drivers disagree:\nwall %q\nsim  %q", wall, sim)
			}
			i := 0
			for _, line := range wall {
				if i < len(tc.want) && line == tc.want[i] {
					i++
				}
			}
			if i < len(tc.want) {
				t.Errorf("log lacks %q (in order %q):\n%q", tc.want[i], tc.want, wall)
			}
			leaves := 0
			for _, line := range wall {
				if line == "leave -> true" || line == "leave -> false" {
					leaves++
				}
			}
			if tc.sc.announce == 2 && leaves != 0 {
				t.Errorf("PE left the barrier after seeing the announcement:\n%q", wall)
			}
		})
	}
}
