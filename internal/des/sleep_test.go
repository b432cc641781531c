package des

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
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
