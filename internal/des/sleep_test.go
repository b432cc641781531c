package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

// The counted sleep against stepping, with no protocol in it. A sleeper polls
// a mailbox of arrival instants at a period of its own and sleeps
// (StepSleep) while nothing in it has arrived; notifiers put instants into
// mailboxes and Notify. The batched engine takes the permission and counts
// the polls nothing can answer; the legacy engine ignores it and runs every
// one. Everything a run leaves behind must be equal.

// sleepRun is what one engine made of the workload.
type sleepRun struct {
	events uint64
	now    time.Duration
	wakes  [][]time.Duration // per sleeper: the instants its polls found a message
	ticks  []int64           // per sleeper: polls that found nothing, run or counted
	moved  uint64
}

// delivery is one scripted notification: after advancing wait, the notifier
// puts now+lat into dst's mailbox.
type delivery struct {
	wait, lat time.Duration
	dst       int
}

// The three scripted sleepers, each with a notifier of its own; the random
// notifiers leave them alone.
const (
	sleeperOnPoll   = iota // notified for exactly one of its poll instants
	sleeperEarly           // sleeps with an arrival due before its first poll, twice
	sleeperOvertake        // a later notification names an earlier instant
	scriptedSleepers
)

func runSleepWorkload(t *testing.T, sim *Sim, seed int64) sleepRun {
	const sleepers, notifiers, rounds = 12, 6, 60
	periods := []time.Duration{3, 7, 10, 25}
	waits := []time.Duration{1, 2, 5, 10, 40}
	lats := []time.Duration{1, 4, 9, 30, 100}

	scripts := [][]delivery{
		sleeperOnPoll:   {{wait: 37, lat: 700 - 37, dst: sleeperOnPoll}},                                           // polls every 100 from 0
		sleeperEarly:    {{wait: 1010, lat: 10, dst: sleeperEarly}},                                                // polls every 1000
		sleeperOvertake: {{wait: 10, lat: 1990, dst: sleeperOvertake}, {wait: 10, lat: 110, dst: sleeperOvertake}}, // every 50
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < notifiers; i++ {
		var sc []delivery
		for k := 0; k < rounds; k++ {
			sc = append(sc, delivery{waits[rng.Intn(len(waits))], lats[rng.Intn(len(lats))],
				scriptedSleepers + rng.Intn(sleepers-scriptedSleepers)})
		}
		scripts = append(scripts, sc)
	}
	mail := make([][]time.Duration, sleepers)
	mail[sleeperEarly] = []time.Duration{5} // in flight when the sleeper first looks
	want := make([]int, sleepers)
	want[sleeperEarly] = 1
	for _, sc := range scripts {
		for _, dl := range sc {
			want[dl.dst]++
		}
	}

	run := sleepRun{wakes: make([][]time.Duration, sleepers), ticks: make([]int64, sleepers)}
	procs := make([]*Proc, sleepers)
	for i := range procs {
		i := i
		rng := rand.New(rand.NewSource(seed<<8 + int64(i)))
		period := periods[rng.Intn(len(periods))]
		switch i {
		case sleeperOnPoll:
			period = 100
		case sleeperEarly:
			period = 1000
		case sleeperOvertake:
			period = 50
		}
		procs[i] = sim.Spawn(func(p *Proc) {
			p.AdvanceStepped(func() (time.Duration, uint8) {
				run.ticks[i] += p.CountedPolls()
				if len(run.wakes[i]) == want[i] {
					return 0, StepDone
				}
				now, due := p.Now(), Never
				for j, at := range mail[i] {
					if at > now {
						due = min(due, at)
						continue
					}
					mail[i] = slices.Delete(mail[i], j, j+1)
					run.wakes[i] = append(run.wakes[i], now)
					if i < scriptedSleepers {
						return 0, 0
					}
					period = periods[rng.Intn(len(periods))]
					return time.Duration(rng.Intn(3)), 0 // busy before the next look
				}
				run.ticks[i]++
				return p.StageSleep(period, due), StepSleep
			})
		})
	}
	for _, sc := range scripts {
		sc := sc
		sim.Spawn(func(p *Proc) {
			for _, dl := range sc {
				p.Advance(dl.wait)
				at := p.Now() + dl.lat
				mail[dl.dst] = append(mail[dl.dst], at)
				procs[dl.dst].Notify(at)
			}
		})
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	run.events, run.now, run.moved = sim.Events(), sim.Now(), sim.moved
	return run
}

func TestCountedSleepMatchesStepping(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		batched := runSleepWorkload(t, New(), seed)
		legacy := runSleepWorkload(t, newLegacy(), seed)
		if batched.moved == 0 {
			t.Errorf("seed %d: no queued wake had to move earlier", seed)
		}
		if legacy.moved != 0 {
			t.Errorf("seed %d: the legacy engine moved %d wakes; it steps every poll", seed, legacy.moved)
		}
		batched.moved = 0
		if !reflect.DeepEqual(batched, legacy) {
			t.Errorf("seed %d: counting diverged from stepping:\nbatched %+v\nlegacy  %+v", seed, batched, legacy)
		}
		// The edges, as instants: a notification for exactly a poll instant
		// wakes at that poll; one due before the first poll, named at sleep
		// time (5, asleep since 0) or brought by Notify (1020, asleep since
		// 1000 at the latest), wakes at the first; the overtaken wake moved
		// from poll 2000 to poll 150 and the overtaken message is still found
		// at its own first poll.
		for i, want := range [][]time.Duration{
			sleeperOnPoll:   {700},
			sleeperEarly:    {1000, 2000},
			sleeperOvertake: {150, 2000},
		} {
			if got := batched.wakes[i]; !slices.Equal(got[:min(len(got), 2)], want) {
				t.Errorf("seed %d: scripted sleeper %d woke at %v, want %v", seed, i, got, want)
			}
		}
		if got := batched.ticks[sleeperOnPoll]; got != 7 {
			t.Errorf("seed %d: %d polls found nothing before instant 700 at period 100, want 7", seed, got)
		}
	}
}

// TestSleeperNeverNotifiedIsDeadlock: a PE that sleeps with nothing due and is
// never notified is out of the queue, and when the others have finished the
// drained-queue check counts it like any blocked PE. (Stepping, its polls
// would be an endless event stream; the permission exists for PEs something
// will eventually be delivered to.)
func TestSleeperNeverNotifiedIsDeadlock(t *testing.T) {
	sim := New()
	sim.Spawn(func(p *Proc) {
		p.AdvanceStepped(func() (time.Duration, uint8) { return p.StageSleep(10, Never), StepSleep })
	})
	for i := 0; i < 2; i++ {
		sim.Spawn(func(p *Proc) { p.Advance(100) })
	}
	err := sim.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock: 1 of 3 PEs still blocked") {
		t.Fatalf("Run() = %v, want the drained-queue deadlock naming one PE of three", err)
	}
}

// The probe sleep against stepping, with the machine but no protocol: real
// searchers (core.Machine over a upcPE) among scripted PEs that store into
// their own words and claim request words at chosen instants. The batched
// engine counts the probes no store can reach; the legacy reference has no
// permission to and steps every one. The two must leave the same log of
// service, steal and barrier instants, the same counters and state times,
// the same trace records, event count and final clock.

// dozeOp is one scripted action of a PE at instant at: store v into its own
// word, or — v == claimWord — claim searcher to's request word.
type dozeOp struct {
	at time.Duration
	v  int
	to int
}

const claimWord = 1 << 20

// dozeWorld is a run's configuration: who searches, what the others do.
type dozeWorld struct {
	pes       int
	searchers []int
	ops       map[int][]dozeOp
	nodeSize  int // with > 1, nodes of that many PEs at Altix prices, walked hierarchically
}

// dozeRun is what one engine made of a world.
type dozeRun struct {
	log     []string
	threads []stats.Thread
	recs    [][]obs.Event
	events  uint64
	now     time.Duration
	counted uint64
	wakes   Wakes
}

// dozeHost is the protocol third of a searcher's host: nothing to explore,
// a steal that takes a lock round trip and finds nothing, a barrier that the
// first Enter completes. Every call is logged with its instant.
type dozeHost struct {
	upcPE
	run *dozeRun
}

func (h *dozeHost) logf(format string, a ...any) {
	h.run.log = append(h.run.log, fmt.Sprintf("%v pe%d ", h.p.Now(), h.me)+fmt.Sprintf(format, a...))
}

func (h *dozeHost) Work() {}
func (h *dozeHost) Service() {
	h.request = -1
	h.logf("service")
}
func (h *dozeHost) Steal(v int) bool {
	if h.pc == 0 {
		h.logf("steal %d", v)
		h.pc = 1
		h.then(h.u.cs.lockRTT)
		return false
	}
	h.pc = 0
	return false
}
func (h *dozeHost) Enter() bool { h.logf("enter"); return true }

func runDozeWorld(t *testing.T, sim *Sim, w dozeWorld) dozeRun {
	t.Helper()
	run := dozeRun{}
	tracer := obs.NewVirtual(w.pes, 1<<12)
	cfg := Config{Seed: 1, Tracer: tracer}
	res := &core.Result{}
	res.Threads = make([]stats.Thread, w.pes)
	cfg.PEs = w.pes
	ur := newUPCRun(cfg, newCosts(&pgas.KittyHawk), &run.wakes, nil)
	u := &ur
	if w.nodeSize > 1 {
		u.nodeSize, u.intra = w.nodeSize, newCosts(&pgas.Altix)
	}
	hosts := make([]*dozeHost, w.pes)
	for i := range hosts {
		hosts[i] = &dozeHost{upcPE: u.newPE(&uts.BenchTiny, res, nil, i), run: &run}
		u.upc[i] = &hosts[i].upcPE
	}
	for i, h := range hosts {
		if slices.Contains(w.searchers, i) {
			m := &core.Machine{H: h, PE: &h.PE, Rng: h.rng, Me: i, N: w.pes, Stream: true, Tier: w.nodeSize}
			step, begun := m.Start(), false
			h.spawnStepped(sim, func() (time.Duration, uint8) {
				if !begun {
					begun = true
					h.setAvail(h.me, -1)
				}
				return step()
			}, h.read, func(*Proc) {})
			continue
		}
		h.p = sim.Spawn(func(p *Proc) {
			for _, op := range w.ops[h.me] {
				p.Advance(op.at - p.Now())
				if op.v == claimWord {
					hosts[op.to].request = h.me
					hosts[op.to].wakeForRequest(h.me)
				} else {
					h.setAvail(h.me, op.v)
				}
			}
		})
		h.Virt = h.p.Now
		h.Rec(obs.KindStateChange, -1, int64(stats.Working))
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	run.threads = res.Threads
	for i := range hosts {
		run.recs = append(run.recs, tracer.Lane(i).Snapshot(nil))
	}
	run.events, run.now, run.counted, run.wakes.Moved = sim.Events(), sim.Now(), sim.counted, sim.moved
	return run
}

// bothEngines runs w counted and stepped and requires one outcome.
func bothEngines(t *testing.T, w dozeWorld) dozeRun {
	t.Helper()
	batched := runDozeWorld(t, New(), w)
	legacy := runDozeWorld(t, newLegacy(), w)
	if legacy.counted != 0 || legacy.wakes != (Wakes{}) {
		t.Errorf("the legacy engine counted %d probes at %+v wakes; it steps every probe", legacy.counted, legacy.wakes)
	}
	got := batched
	got.counted, got.wakes = 0, Wakes{}
	if !reflect.DeepEqual(got, legacy) {
		t.Errorf("counting diverged from stepping:\nbatched %+v\nlegacy  %+v", got, legacy)
	}
	return batched
}

// idleAt0 is a PE that holds no work from the first instant on: a word left
// at its initial 0 reads as a worker without surplus and keeps cycles coming.
func idleAt0(then ...dozeOp) []dozeOp { return append([]dozeOp{{v: -1}}, then...) }

// ints is a probe table as the thread ids it holds.
func ints(rest []uint16) []int {
	s := make([]int, len(rest))
	for i, v := range rest {
		s[i] = int(v)
	}
	return s
}

func TestProbeSleepMatchesStepping(t *testing.T) {
	const pes, me = 8, 3
	d := newCosts(&pgas.KittyHawk).remoteRef
	// The searcher's first cycle: poll k, at k·d, reads order[k−1].
	first := core.NewProbeOrder(1, me).Walk(me, pes)
	order := ints(first.Rest())
	pollOf := func(v int) time.Duration { return time.Duration(slices.Index(order, v)+1) * d }
	lower, higher := -1, -1 // a victim with a smaller id than the searcher's, one with a larger, neither read first
	for _, v := range order[1:] {
		if v < me && lower < 0 {
			lower = v
		}
		if v > me && higher < 0 {
			higher = v
		}
	}
	world := func(ops map[int][]dozeOp) dozeWorld {
		w := dozeWorld{pes: pes, searchers: []int{me}, ops: map[int][]dozeOp{}}
		for i := 0; i < pes; i++ {
			if i != me {
				w.ops[i] = idleAt0(ops[i]...)
			}
		}
		return w
	}
	wantLog := func(run dozeRun, want ...string) {
		t.Helper()
		if !slices.Equal(run.log, want) {
			t.Errorf("log %q, want %q", run.log, want)
		}
	}
	// The first cycle sees no worker: the barrier, and the machine's closing Service.
	at := func(t time.Duration, what string) string { return fmt.Sprintf("%v pe%d %s", t, me, what) }
	end := []string{at((pes-1)*d, "enter"), at((pes-1)*d, "service")}

	t.Run("no worker seen, the cycle ends asleep", func(t *testing.T) {
		run := bothEngines(t, world(nil))
		wantLog(run, end...)
		if run.counted != pes-2 || run.wakes != (Wakes{End: 1}) {
			t.Errorf("counted %d probes at wakes %+v, want %d at one cycle end", run.counted, run.wakes, pes-2)
		}
	})
	t.Run("positive and back before the read", func(t *testing.T) {
		v := order[4]
		run := bothEngines(t, world(map[int][]dozeOp{v: {{at: 2*d + 1, v: 2}, {at: 4*d - 1, v: -1}}}))
		wantLog(run, end...) // nothing stolen, and the cycle saw no worker
		if run.wakes.Word != 1 || run.wakes.Moved != 1 {
			t.Errorf("wakes %+v, want one spurious wake at the word, moved there from the cycle end", run.wakes)
		}
		if got := run.threads[me].Probes; got != pes-1 {
			t.Errorf("%d probes booked, want %d", got, pes-1)
		}
	})
	t.Run("store at the read instant, smaller id", func(t *testing.T) {
		t0 := pollOf(lower)
		run := bothEngines(t, world(map[int][]dozeOp{lower: {{at: t0, v: 1}, {at: t0 + 1, v: -1}}}))
		if want := at(t0, fmt.Sprintf("steal %d", lower)); len(run.log) == 0 || run.log[0] != want {
			t.Errorf("log %q, want it to begin with %q: the store is keyed before the read", run.log, want)
		}
	})
	t.Run("store at the read instant, larger id", func(t *testing.T) {
		t0 := pollOf(higher)
		run := bothEngines(t, world(map[int][]dozeOp{higher: {{at: t0, v: 1}, {at: t0 + 1, v: -1}}}))
		wantLog(run, end...) // the read is keyed before the store and the next cycle never comes
	})
	t.Run("request claimed while asleep", func(t *testing.T) {
		run := bothEngines(t, world(map[int][]dozeOp{higher: {{at: 2*d + 7, v: claimWord, to: me}}}))
		wantLog(run, append([]string{at(3*d, "service")}, end...)...)
		if run.wakes.Post != 1 {
			t.Errorf("wakes %+v, want one by the claim", run.wakes)
		}
	})
	t.Run("request claimed at a service point's instant", func(t *testing.T) {
		// From a smaller id the claim is keyed before the service point and
		// seen there; from a larger one it waits for the next.
		run := bothEngines(t, world(map[int][]dozeOp{lower: {{at: 3 * d, v: claimWord, to: me}}}))
		wantLog(run, append([]string{at(3*d, "service")}, end...)...)
		run = bothEngines(t, world(map[int][]dozeOp{higher: {{at: 3 * d, v: claimWord, to: me}}}))
		wantLog(run, append([]string{at(4*d, "service")}, end...)...)
	})
}

// TestProbeSleepRandomWorlds: several searchers among PEs whose words flip
// at random instants, many of them exact multiples of a probe period — where
// reads and stores tie and only the proc ids order them — with request words
// claimed in between, on a flat machine and on a two-level one.
func TestProbeSleepRandomWorlds(t *testing.T) {
	d := newCosts(&pgas.KittyHawk).remoteRef
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := dozeWorld{pes: 12 + rng.Intn(20), ops: map[int][]dozeOp{}}
		if seed%3 == 0 {
			w.nodeSize = 4
			d = newCosts(&pgas.Altix).remoteRef
		}
		for i := 0; i < w.pes; i++ {
			if i%4 == 1 {
				w.searchers = append(w.searchers, i)
			}
		}
		for i := 0; i < w.pes; i++ {
			if slices.Contains(w.searchers, i) {
				continue
			}
			var at time.Duration
			ops := idleAt0()
			for k := rng.Intn(12); k > 0; k-- {
				at += time.Duration(1+rng.Intn(40)) * d
				if rng.Intn(3) == 0 {
					at += time.Duration(rng.Intn(int(d))) // off the grid
				}
				op := dozeOp{at: at, v: rng.Intn(4) - 1}
				if rng.Intn(5) == 0 {
					op.v, op.to = claimWord, w.searchers[rng.Intn(len(w.searchers))]
				}
				ops = append(ops, op)
			}
			w.ops[i] = append(ops, dozeOp{at: at + d, v: -1})
		}
		run := bothEngines(t, w)
		if run.counted == 0 || run.wakes.Word == 0 || run.wakes.End == 0 {
			t.Errorf("seed %d: counted %d probes at wakes %+v; the world exercises nothing", seed, run.counted, run.wakes)
		}
	}
}

// TestAvailHistory: a counted read sees the last store keyed before it, and
// the history sheds what no read can ask for without losing that.
func TestAvailHistory(t *testing.T) {
	sim := New()
	ur := newUPCRun(Config{PEs: 4}, newCosts(&pgas.KittyHawk), &Wakes{}, nil)
	u := &ur
	for i := range u.upc {
		u.upc[i] = &upcPE{simPE: simPE{me: i}, u: u}
	}
	pe := u.upc[2]
	span := int64(len(u.upc)) * int64(u.cs.remoteRef)
	sim.Spawn(func(*Proc) {})
	sim.Spawn(func(*Proc) {})
	u.upc[2].p = sim.Spawn(func(p *Proc) {
		for i := 1; i <= 1000; i++ {
			p.Advance(time.Duration(span / 10))
			pe.setAvail(2, i%7)
			now := int64(p.Now())
			for back := int64(0); back < min(span, now); back += span / 10 {
				at := now - back
				want := int64((i - int(back/(span/10))) % 7)
				if i-int(back/(span/10)) < 1 {
					want = 0
				}
				if got := u.availAt(2, at, 3); got != want { // keyed after PE 2's store at that instant
					t.Fatalf("store %d: a read by PE 3 at %d sees %d, want %d", i, at, got, want)
				}
				if got, want := u.availAt(2, at, 1), (want+6)%7; i-int(back/(span/10)) > 1 && got != want { // keyed before it
					t.Fatalf("store %d: a read by PE 1 at %d sees %d, want %d", i, at, got, want)
				}
			}
		}
	})
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if len(pe.hist) > 64 {
		t.Errorf("%d stores kept of 1000 with at most 10 in reach of any read", len(pe.hist))
	}
}
