package des

import (
	"time"

	"repro/internal/stack"
	"repro/internal/term"
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
	// freeAnnounce: a zero-level announcement (a lone PE's) costs not even
	// a zero-length advance — the shared-memory family's accounting, pinned
	// by the golden fingerprints.
	freeAnnounce bool

	// words[i] is PE i's work-available word — what thieves probe — as its
	// latest store left it, side by side because a searcher reads them all;
	// dozing is the searching PEs in a counted sleep, the ones a word that
	// turns positive has to reach; wakes counts what ended those sleeps
	// (doze.go).
	words  []availWrite
	dozing []*upcPE
	wakes  *Wakes
}

// newUPCRun is the run state of cfg.PEs PEs, every word at 0: working,
// without surplus.
func newUPCRun(cfg Config, cs costs, wakes *Wakes) upcRun {
	u := upcRun{cfg: cfg, cs: cs, upc: make([]*upcPE, cfg.PEs), words: make([]availWrite, cfg.PEs), wakes: wakes}
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

	// hist is what the PE's word (upcRun.words, stored through setAvail
	// alone) held before, doze the PE's own sleep over the words of others
	// (doze.go).
	hist []availWrite
	doze
}

// avail is the PE's work-available word as it stands.
func (pe *upcPE) avail() int { return int(pe.u.words[pe.me].v) }

// Remote operations common to the UPC families (see remote.go); a
// family's own start at opUPCEnd.
const (
	// opReadAvail reads dst's stealable-work counter (a probe).
	opReadAvail uint8 = iota
	// opReadAnnounced reads the termination-announcement flag.
	opReadAnnounced
	// opSbEnter increments the barrier count; returns 1 when this arrival
	// completed the barrier.
	opSbEnter
	// opSbLeave decrements the barrier count.
	opSbLeave
	// opSbAnnounce sets the termination-announcement flag.
	opSbAnnounce
	opUPCEnd
)

// apply interprets the common remote operations, in the destination PE's
// execution context (PE 0's for the barrier state), and never advances time.
func (u *upcRun) apply(dst int, op uint8, _, _ int64, _ []stack.Chunk) int64 {
	switch op {
	case opReadAvail:
		return int64(u.words[dst].v)
	case opReadAnnounced:
		if u.sbAnnounced {
			return 1
		}
	case opSbEnter:
		u.sbCount++
		if u.sbCount == len(u.upc) {
			return 1
		}
	case opSbLeave:
		u.sbCount--
	case opSbAnnounce:
		u.sbAnnounced = true
	}
	return 0
}

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
	return pe.charge(pe.p.StageRemote(v, pe.u.between(pe.me, v).remoteRef, opReadAvail, 0, 0))
}

// StageAnnounced stages a read of the announcement flag: a remote
// reference of its own, or (d > 0) riding on a probe — the re-check at the
// probe's completion instant that stands in for an atomic Leave.
func (pe *upcPE) StageAnnounced(d time.Duration) time.Duration {
	if d == 0 {
		d = pe.charge(pe.u.cs.remoteRef)
	}
	return pe.p.StageRemote(0, d, opReadAnnounced, 0, 0)
}

// Enter mirrors term.StreamBarrier.Enter: one remote reference to the
// count, and the last arrival announces termination, paying one remote
// reference per level of the announcement tree.
func (pe *upcPE) Enter() bool {
	u := pe.u
	if pe.p.RemoteCall(0, pe.charge(u.cs.remoteRef), opSbEnter, 0, 0) == 0 {
		return false
	}
	ad := time.Duration(term.AnnounceLevels(len(u.upc))) * u.cs.remoteRef
	if ad == 0 && u.freeAnnounce {
		u.sbAnnounced = true // the lone PE is PE 0: its own partition
		return true
	}
	pe.p.RemoteSend(0, pe.charge(ad), opSbAnnounce, 0, 0, nil)
	return true
}

// Leave withdraws from the barrier, unconditionally: the machine has just
// seen the flag still clear at the completion instant of the probe that
// found work, and the barrier cannot fill while the PE probed holds it.
func (pe *upcPE) Leave() bool {
	pe.p.RemoteCall(0, pe.charge(pe.u.cs.remoteRef), opSbLeave, 0, 0)
	return true
}

// upcSampler is the diffusion sampler of a UPC family's PEs.
func upcSampler(pes []*upcPE) sampler {
	return func() (sources int) {
		for _, pe := range pes {
			if pe.avail() > 0 {
				sources++
			}
		}
		return
	}
}
