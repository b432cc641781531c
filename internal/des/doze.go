package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// A probe is a read of a word with a history. A searching PE spends its time
// reading the work-available words of the others, one per probe period, in an
// order fixed when its cycle began, and almost every read finds −1 or 0.
// Every store of such a word goes through setAvail, which keeps the values the
// word took with the place of each store in the schedule. That is enough to
// say, at any later instant, what a read by a given PE at a given earlier
// instant saw — so the reads need not be run when they fall due. Under an
// engine that takes StepSleep's permission the searcher sleeps (Doze) to the
// first read it cannot count: of a word positive when the sleep begins, or
// the last of its cycle. A word that turns positive meanwhile pulls the wake
// in to the sleeper's read of it, a claimed request word to the sleeper's next
// service point. At the wake the counted reads are booked from the histories
// as the probes they stand for (Probed). The termination wait's probes — random
// single victims between flag polls — and a steal's response polls still step.

// availWrite is one store of a work-available word: the value, and the
// (instant, storing PE's proc id) prefix of the event key it was made under.
type availWrite struct {
	t  int64
	by int32
	v  int32
}

// doze is a PE's counted sleep, under way while ahead != nil: begun at the
// service point at, its k-th poll the read of ahead[k−1] at at + k·period.
type doze struct {
	at, period int64
	ahead      []uint16
	// readAt[v] is the poll that reads v's word: of this sleep if ahead says
	// so too, else left over from an earlier one.
	readAt []uint16
	slot   int       // the PE's place in upcRun.dozing
	why    wakeCause // what the queued wake stands for
}

// wakeCause is what a dozing PE's wake is queued for.
type wakeCause uint8

const (
	wakeWord wakeCause = iota // the read of a word that was positive during the sleep
	wakeEnd                   // the last read of the cycle, or of a run of equally priced victims
	wakePost                  // the service point a claimed request word waits for
)

// Wakes counts the counted sleeps of searching PEs by what ended each — the
// three causes are exclusive and add up to the sleeps — and the queued wakes
// a later event moved earlier, those of a sleeping mpi-ws rank included.
type Wakes struct {
	Word, End, Post uint64
	Moved           uint64
}

// setAvail is the one store of a work-available word, pe's, made by PE by at
// by's current instant: the owner everywhere but in the locked steal of the
// shared-memory family, where a thief corrects its victim's count. A word
// that turns positive is what a dozing searcher may not sleep past, and what
// a traced run logs, with its way back to 0 or −1: the PE is a work source.
func (pe *upcPE) setAvail(by, v int) {
	u := pe.u
	w := &u.words[pe.me]
	was := int(w.v)
	if v == was {
		return
	}
	p := u.upc[by].p
	if u.log != nil && (was > 0) != (v > 0) {
		u.log.add(p.Now(), v > 0)
	}
	if !p.Counts() {
		w.v = int32(v) // every read is run when it falls due
		return
	}
	now := int64(p.Now())
	if len(pe.hist) == cap(pe.hist) { // compact first: steady state reuses the array
		pe.hist = pe.hist[:copy(pe.hist, pe.hist[pe.deadWrites(now):])]
	}
	pe.hist = append(pe.hist, *w)
	*w = availWrite{t: now, by: int32(by), v: int32(v)}
	if was > 0 || v <= 0 {
		return
	}
	for _, s := range u.dozing {
		if k := int(s.readAt[pe.me]); k > 0 && k <= len(s.ahead) && int(s.ahead[k-1]) == pe.me {
			if poll := s.at + int64(k)*s.period; poll >= s.pollAfter(now, by) {
				s.rouse(poll, wakeWord)
			}
		}
	}
}

// deadWrites is how many of the oldest superseded stores no counted read can
// ask for any more. A sleep ends with its cycle, so a read counted at or
// after instant now fell later than now minus the longest cycle; all a reader
// can need from before that is the last value.
func (pe *upcPE) deadWrites(now int64) int {
	u := pe.u
	cut := now - int64(len(u.upc))*int64(max(u.cs.remoteRef, u.intra.remoteRef))
	n := 0
	for n+1 < len(pe.hist) && pe.hist[n+1].t < cut {
		n++
	}
	return n
}

// before reports whether the store is keyed before a read by PE reader at
// instant t: the order in which the engine would have run the two.
func (w *availWrite) before(t int64, reader int) bool {
	return w.t < t || w.t == t && int(w.by) < reader
}

// availAt is PE v's word as a read by PE reader at instant t saw it: the
// last store keyed before the read — almost always the latest.
func (u *upcRun) availAt(v int, t int64, reader int) int64 {
	if w := &u.words[v]; w.before(t, reader) {
		return int64(w.v)
	}
	hist := u.upc[v].hist
	i := len(hist) - 1
	for !hist[i].before(t, reader) {
		i--
	}
	return int64(hist[i].v)
}

// pollAfter is the instant of dozing pe's first poll keyed after an event of
// PE by at instant now.
func (pe *upcPE) pollAfter(now int64, by int) int64 {
	if pe.me < by {
		now++ // a poll of pe at this very instant has its place before the event
	}
	return pe.at + max(1, (now-pe.at+pe.period-1)/pe.period)*pe.period
}

// rouse pulls dozing pe's wake in to its poll at instant poll, one still to
// come, unless the wake is there or earlier already.
func (pe *upcPE) rouse(poll int64, why wakeCause) {
	if pe.p.Notify(time.Duration(poll)) {
		pe.why = why
	}
}

// wakeForRequest is called when PE by claims pe's request word: a dozing pe
// must be at its next service point as if it had stepped there.
func (pe *upcPE) wakeForRequest(by int) {
	if pe.ahead != nil {
		pe.rouse(pe.pollAfter(int64(pe.p.Now()), by), wakePost)
	}
}

// Doze puts a searching PE to sleep over the probes whose answers it can
// tell without running them. The walk is a table (a strided one steps), so
// poll k reads rest[k−1] at now + k·d for as long as the victims cost the
// same d to reach — all of them on a flat machine, a node's worth or a
// random few on a two-level one. The sleep runs to the first of them whose
// word is positive now, else to the last; setAvail and wakeForRequest pull
// the wake in, both conservatively: the word may be back at zero when it is
// read, and the step then runs that one probe and dozes again.
func (pe *upcPE) Doze(w *core.ProbeWalk) time.Duration {
	rest := w.Rest()
	u := pe.u
	// A request pending here was posted after the service point's check; the
	// next one, a probe on, must find it.
	if len(rest) < 2 || pe.request >= 0 || !pe.p.Counts() {
		return 0
	}
	if pe.readAt == nil {
		pe.readAt = make([]uint16, len(u.upc)) // a table walk has at most 4095 polls
	}
	d := u.between(pe.me, int(rest[0])).remoteRef
	n, why := 0, wakeEnd
	for _, v := range rest {
		if u.nodeSize > 1 && u.between(pe.me, int(v)).remoteRef != d {
			break
		}
		n++
		pe.readAt[v] = uint16(n)
		if u.words[v].v > 0 {
			why = wakeWord
			break
		}
	}
	if n < 2 {
		return 0
	}
	pe.at, pe.period, pe.ahead, pe.why = int64(pe.p.Now()), int64(d), rest[:n], why
	pe.slot = len(u.dozing)
	u.dozing = append(u.dozing, pe)
	return pe.p.StageSleep(d, time.Duration(pe.at+int64(n)*pe.period))
}

// Probed is the read of the probe that just completed. After a sleep that is
// poll k, and the k−1 before it are booked here as the probes they stand
// for: each read a word that was not positive when it was read — the wake
// rule's whole point — whose value and records come out of the histories.
func (pe *upcPE) Probed(w *core.ProbeWalk) (int64, bool) {
	if pe.ahead == nil {
		return pe.reads[0], false
	}
	u := pe.u
	ahead := pe.ahead
	pe.ahead = nil
	last := u.dozing[len(u.dozing)-1]
	u.dozing[pe.slot], last.slot = last, pe.slot
	u.dozing = u.dozing[:len(u.dozing)-1]
	switch pe.why {
	case wakeWord:
		u.wakes.Word++
	case wakeEnd:
		u.wakes.End++
	default:
		u.wakes.Post++
	}
	n := int(pe.p.CountedPolls())
	pe.charge(time.Duration(int64(n+1) * pe.period))
	saw := false
	for k := 1; k <= n; k++ {
		v, t := int(ahead[k-1]), pe.at+int64(k)*pe.period
		wa := u.availAt(v, t, pe.me)
		if wa > 0 {
			panic("des: a counted probe read surplus")
		}
		saw = saw || wa >= 0
		pe.T.Probes++
		pe.Lane.RecV(obs.KindProbeResult, int32(v), wa, time.Duration(t))
		pe.Lane.RecV(obs.KindProbeStart, int32(ahead[k]), 0, time.Duration(t))
		w.Advance()
	}
	return int64(u.words[ahead[n]].v), saw
}
