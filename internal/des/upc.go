package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/term"
	"repro/internal/uts"
)

// What the two UPC families share in virtual time beyond the shell: the
// probed work counter and the streamlined barrier (state at PE 0), and
// with them every part of the machine's Host (core.Host) that moves no
// work.

// upcRun is the run state behind upcPE.
type upcRun struct {
	cfg Config
	cs  costs
	upc []*upcPE

	// Two-level topology (Section 6.2 future work): PEs in nodes of
	// nodeSize consecutive IDs, same-node references charged to intra.
	// Zero for a family that charges none.
	nodeSize int
	intra    costs

	sbCount     int
	sbAnnounced bool

	// words[i] is PE i's work-available word — what thieves probe — as its
	// latest store left it, side by side because a searcher reads them all;
	// dozing is the searching PEs in a counted sleep, the ones a word that
	// turns positive has to reach; wakes counts what ended those sleeps
	// (doze.go); log, in a traced run, records each word turning positive
	// or ceasing to be.
	words  []availWrite
	dozing []*upcPE
	wakes  *Wakes
	log    *sourceLog
}

// newUPCRun is the run state of cfg.PEs PEs, every word at 0: working,
// without surplus.
func newUPCRun(cfg Config, cs costs, wakes *Wakes, log *sourceLog) upcRun {
	u := upcRun{cfg: cfg, cs: cs, upc: make([]*upcPE, cfg.PEs), words: make([]availWrite, cfg.PEs), wakes: wakes, log: log}
	for i := range u.words {
		u.words[i].t = -1 // before every read
	}
	return u
}

// upcPE is one PE of a UPC family: the shell, the pool of stealable chunks
// and the counter thieves probe for it.
type upcPE struct {
	simPE
	u    *upcRun
	pool stack.Pool

	// request is the PE's request word: the thief that claimed it, or −1.
	// Only thieves of the distributed-memory family claim one (simDistPE);
	// the machine looks at it at every service point (Interrupted).
	request int
	// pc is the place of the host operation under way, between the calls
	// the machine makes of it while it is Busy. Work's release granularity
	// and the edge its last quantum ended at are kept while inWork.
	pc     uint8
	inWork bool
	edge   core.Edge
	k      int

	// hist is what the PE's word (upcRun.words, stored through setAvail
	// alone) held before, doze the PE's own sleep over the words of others
	// (doze.go).
	hist []availWrite
	doze

	// The reads staged against the current quantum — victim's word (probe)
	// and the announcement flag (flag) — and what they read (read).
	victim      int
	probe, flag bool
	reads       [2]int64
}

// newPE is PE i's share of the family's host: the shell, and a request
// word nobody claimed.
func (u *upcRun) newPE(sp *uts.Spec, res *core.Result, ps *policy.Set, i int) upcPE {
	return upcPE{simPE: newSimPE(sp, u.cfg, res, ps, i), u: u, request: -1}
}

// Interrupted reports a claimed request word.
func (pe *upcPE) Interrupted() bool { return pe.request >= 0 }

// avail is the PE's work-available word as it stands.
func (pe *upcPE) avail() int { return int(pe.u.words[pe.me].v) }

// between returns the costs of a reference from PE a to PE b's partition:
// the intra-node ones when both share a cluster node.
func (u *upcRun) between(a, b int) *costs {
	if u.nodeSize > 1 && a/u.nodeSize == b/u.nodeSize {
		return &u.intra
	}
	return &u.cs
}

// StageAvail stages a probe of v's work counter: one one-sided reference.
func (pe *upcPE) StageAvail(v int) time.Duration {
	pe.victim, pe.probe = v, true
	return pe.charge(pe.p.Stage(pe.u.between(pe.me, v).remoteRef, 0))
}

// StageAnnounced stages a read of the announcement flag: a remote
// reference of its own, or (d > 0) riding on a probe — the re-check at the
// probe's completion instant that stands in for an atomic Leave.
func (pe *upcPE) StageAnnounced(d time.Duration) time.Duration {
	if d == 0 {
		d = pe.charge(pe.u.cs.remoteRef)
	}
	pe.flag = true
	return pe.p.Stage(d, 0)
}

// read is the boundary effect of a UPC PE: the reads staged against the
// quantum, in staging order — the probe's first — at its completion instant.
func (pe *upcPE) read() {
	i := 0
	if pe.probe {
		pe.reads[0], pe.probe, i = int64(pe.u.words[pe.victim].v), false, 1
	}
	if pe.flag {
		pe.reads[i], pe.flag = 0, false
		if pe.u.sbAnnounced {
			pe.reads[i] = 1
		}
	}
}

// Staged is the i-th read of the quantum whose boundary was last reached.
func (pe *upcPE) Staged(i int) int64 { return pe.reads[i] }

// Enter mirrors term.StreamBarrier.Enter: one remote reference to the
// count, and the last arrival announces termination, paying one remote
// reference per level of the announcement tree.
func (pe *upcPE) Enter() bool {
	u := pe.u
	switch pe.pc {
	case 0:
		pe.pc = 1
		pe.then(u.cs.remoteRef)
		return false
	case 1:
		if u.sbCount++; u.sbCount != len(u.upc) {
			pe.pc = 0
			return false
		}
		pe.pc = 2
		// A lone PE's announcement has no level: no time, and no boundary.
		if ad := time.Duration(term.AnnounceLevels(len(u.upc))) * u.cs.remoteRef; ad > 0 {
			pe.then(ad)
			return false
		}
	}
	pe.pc = 0
	u.sbAnnounced = true
	return true
}

// Leave withdraws from the barrier, unconditionally: the machine has just
// seen the flag still clear at the completion instant of the probe that
// found work, and the barrier cannot fill while the PE probed holds it.
func (pe *upcPE) Leave() bool {
	if pe.pc == 0 {
		pe.pc = 1
		pe.then(pe.u.cs.remoteRef)
		return false
	}
	pe.pc = 0
	pe.u.sbCount--
	return true
}
