package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/stack"
)

// The ledger needs no TCP to be checked, so instead of hoping a stress run
// meets the bad interleaving, every interleaving is walked: the progress
// engine's serve → settle(delivered | not) against the worker's reserve,
// takeBack, the two kinds of sweep and its look at Pending() on the way
// into the barrier, over one and two entries. What the walk knows of an
// entry it knows from what the ledger's methods returned, never from the
// table.

// where is the last thing the ledger's answers said about one entry's
// chunks.
type where uint8

const (
	inPool     where = iota // not reserved yet
	onReserve               // reserved, no fetch accepted
	inService               // a serve was accepted and not settled
	onStrand                // settled as not delivered
	atThief                 // settled as delivered
	backInPool              // handed back by takeBack or a sweep
)

func (w where) onLedger() bool { return w == onReserve || w == inService || w == onStrand }

type ledgerOp uint8

const (
	opReserve    ledgerOp = iota // worker
	opTakeBack                   // worker
	opSweep                      // worker; nobody dead, nothing stale
	opSweepStale                 // worker; everything is stale
	opEnter                      // worker: Pending() == 0 → into the barrier
	opServe                      // engine: a thief's fetch arrives
	opSettleOK                   // engine: the reply was written in full
	opSettleFail                 // engine: drop, sever, mute, kill or encode error
)

var ledgerOpNames = [...]string{"reserve", "takeBack", "sweep", "sweepStale", "enter", "serve", "settle(delivered)", "settle(not)"}

type ledgerStep struct {
	op    ledgerOp
	entry int
}

func (s ledgerStep) String() string { return fmt.Sprintf("%s#%d", ledgerOpNames[s.op], s.entry) }

// maxFetches bounds how often a thief asks for one handle: twice covers
// the duplicate fetch, the fetch after a strand and the fetch after a
// take-back.
const maxFetches = 2

// ledgerWalk is one schedule's ledger and what its answers have said.
type ledgerWalk struct {
	h         handoff
	handle    [2]uint64
	at        [2]where
	fetches   [2]int
	delivered [2]int
	tookBack  [2]int
	entered   bool
}

// chunksOf gives entry i a recognisable payload: i+1 chunks.
func chunksOf(i int) []stack.Chunk { return make([]stack.Chunk, i+1) }

// enabled lists the steps some actor could take next. Once in the barrier
// the worker holds no work and does nothing; the engine serves on.
func (w *ledgerWalk) enabled(entries int) []ledgerStep {
	var out []ledgerStep
	for i := 0; i < entries; i++ {
		if !w.entered {
			if w.at[i] == inPool {
				out = append(out, ledgerStep{opReserve, i})
			} else {
				out = append(out, ledgerStep{opTakeBack, i})
			}
		}
		if w.at[i] != inPool && w.fetches[i] < maxFetches {
			out = append(out, ledgerStep{opServe, i})
		}
		if w.at[i] == inService {
			out = append(out, ledgerStep{opSettleOK, i}, ledgerStep{opSettleFail, i})
		}
	}
	if !w.entered {
		out = append(out, ledgerStep{opSweep, 0}, ledgerStep{opSweepStale, 0}, ledgerStep{opEnter, 0})
	}
	return out
}

// take books chunks the ledger handed back to the worker.
func (w *ledgerWalk) take(chunks []stack.Chunk) error {
	i := len(chunks) - 1
	if w.at[i] == inService {
		return fmt.Errorf("entry %d handed back to the worker while in service", i)
	}
	w.at[i] = backInPool
	w.tookBack[i]++
	return nil
}

// do takes one step on the real ledger and checks what must hold after
// every step.
func (w *ledgerWalk) do(s ledgerStep, entries int) error {
	i := s.entry
	nobodyDead := func(int) bool { return false }
	switch s.op {
	case opReserve:
		w.handle[i] = w.h.reserve(chunksOf(i), 1)
		w.at[i] = onReserve
	case opTakeBack:
		if chunks, ok := w.h.takeBack(w.handle[i]); ok {
			if err := w.take(chunks); err != nil {
				return err
			}
		}
	case opSweep, opSweepStale:
		staleAfter := time.Hour
		if s.op == opSweepStale {
			staleAfter = -1
		}
		for _, e := range w.h.sweep(nobodyDead, staleAfter) {
			if err := w.take(e.chunks); err != nil {
				return err
			}
		}
		for j := 0; j < entries; j++ {
			if w.at[j] == onStrand {
				return fmt.Errorf("sweep left stranded entry %d behind", j)
			}
		}
	case opEnter:
		if w.h.Pending() == 0 {
			for j := 0; j < entries; j++ {
				if w.at[j].onLedger() {
					return fmt.Errorf("worker saw Pending() == 0 and entered the barrier with entry %d neither in its pool nor delivered", j)
				}
			}
			w.entered = true
		}
	case opServe:
		w.fetches[i]++
		if chunks, ok := w.h.serve(w.handle[i]); ok {
			if (w.at[i] != onReserve && w.at[i] != onStrand) || len(chunks) != i+1 {
				return fmt.Errorf("entry %d served from state %d with %d chunks", i, w.at[i], len(chunks))
			}
			w.at[i] = inService
		}
	case opSettleOK:
		w.h.settle(w.handle[i], true)
		w.at[i] = atThief
		w.delivered[i]++
	case opSettleFail:
		w.h.settle(w.handle[i], false)
		w.at[i] = onStrand
	}
	on := 0
	for j := 0; j < entries; j++ {
		if w.delivered[j]+w.tookBack[j] > 1 {
			return fmt.Errorf("entry %d delivered %d times and taken back %d times", j, w.delivered[j], w.tookBack[j])
		}
		if w.at[j].onLedger() {
			on++
		}
	}
	if got := w.h.Pending(); got != on {
		return fmt.Errorf("Pending() = %d with %d entries neither delivered nor taken back", got, on)
	}
	return nil
}

// drain is the end every schedule can be given: the engine fails whatever
// it was serving, the worker sweeps with everything stale. Afterwards each
// reserved entry must have gone exactly one way.
func (w *ledgerWalk) drain(entries int) error {
	for i := 0; i < entries; i++ {
		if w.at[i] == inService {
			if err := w.do(ledgerStep{opSettleFail, i}, entries); err != nil {
				return err
			}
		}
	}
	if err := w.do(ledgerStep{opSweepStale, 0}, entries); err != nil {
		return err
	}
	for i := 0; i < entries; i++ {
		if w.at[i] != inPool && w.delivered[i]+w.tookBack[i] != 1 {
			return fmt.Errorf("after the drain entry %d was delivered %d times and taken back %d times", i, w.delivered[i], w.tookBack[i])
		}
	}
	return nil
}

// TestHandoffEnumerated walks every schedule of 1 and 2 entries (states
// are memoised on what the ledger has answered, so the walk is complete,
// not sampled) and checks: (i) every reserved chunk ends delivered once or
// taken back once, never both, never neither; (ii) the worker never sees
// Pending() == 0 while a chunk is neither in its pool nor delivered.
func TestHandoffEnumerated(t *testing.T) {
	for entries := 1; entries <= 2; entries++ {
		seen := map[string]bool{}
		schedules := 0
		var walk func(path []ledgerStep)
		walk = func(path []ledgerStep) {
			w := &ledgerWalk{}
			for _, s := range path {
				if err := w.do(s, entries); err != nil {
					t.Fatalf("%d entries, schedule %v: %v", entries, path, err)
				}
			}
			key := fmt.Sprint(w.at[:entries], w.fetches[:entries], w.entered)
			if seen[key] {
				return
			}
			seen[key] = true
			next := w.enabled(entries)
			if len(next) == 0 {
				schedules++
			}
			if err := w.drain(entries); err != nil {
				t.Fatalf("%d entries, schedule %v, then drained: %v", entries, path, err)
			}
			for _, s := range next {
				walk(append(path[:len(path):len(path)], s))
			}
		}
		walk(nil)
		t.Logf("%d entries: %d states, %d of them final", entries, len(seen), schedules)
	}
}
