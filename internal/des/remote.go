package des

import (
	"time"

	"repro/internal/stack"
)

// This file is the remote-operation layer: the single doorway through which
// one simulated PE touches state owned by another. Exactly one PE runs at
// any instant, so the doorway is a plain function call: applying an
// operation inline at the caller's clock, at the caller's position in the
// schedule, is the definition of correct. Routing every cross-PE effect
// through it keeps one interpreter per protocol (Sim.SetRemote) the owner of
// all cross-partition mutation.
//
// The vocabulary is four calls:
//
//   - RemoteCall: advance d, then execute op against dst's partition at the
//     completion instant and return its result. Models a lock-protected
//     read-modify-write (claiming a victim's request word).
//   - RemoteSend: advance adv, then apply op at dst. Models one-sided
//     writes whose effect is committed at the completion instant (a steal
//     response).
//   - StageRemote: stage op to execute against dst exactly at the boundary
//     of the quantum the surrounding Stepper is about to return — the
//     completion instant of an in-flight one-sided read. The result is
//     available through StagedResult once the boundary is reached. At most
//     two ops may be staged per quantum (a termination probe reads both the
//     victim's work counter and the barrier's announcement flag at the same
//     completion instant).
//   - StageSend: RemoteSend for a Stepper, which may not advance — the
//     quantum it is about to return is adv, and op is applied at dst at that
//     quantum's boundary, the instant and key position RemoteSend's
//     advance-then-apply gives it. It takes a staged slot. Its payload may
//     declare that it becomes visible to the receiver only effectDelay
//     later (an MPI message in flight); such an op must gate visibility on a
//     stamp carried in its payload, since the layer applies it at once.
//
// Operations run in the owner's execution context: they may freely mutate
// the destination PE's state and post interrupts, but must not advance any
// clock, block, or initiate further remote operations.

// RemoteApply interprets one remote operation against the partition of PE
// dst. Protocols register one interpreter per run via Sim.SetRemote; the op
// codes and argument packing are private to each protocol.
type RemoteApply func(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64

// stagedOp is one remote operation staged against the current quantum's
// boundary.
type stagedOp struct {
	dst  int32
	op   uint8
	send bool // a StageSend: applied with the proc's stagedChunks
	a    int64
	b    int64
	res  int64
}

// SetRemote registers the remote-operation interpreter for this run. Must
// be called before Run by any protocol that uses the remote-operation
// layer.
func (s *Sim) SetRemote(fn RemoteApply) { s.remote = fn }

// RemoteCall advances d of virtual time, then executes op against dst's
// partition at the completion instant and returns its result. The caller
// observes the destination exactly as it stands when the clock reaches
// now+d, with every smaller-keyed event already applied.
//
//uts:noalloc
func (p *Proc) RemoteCall(dst int, d time.Duration, op uint8, a, b int64) int64 {
	p.Advance(d)
	return p.sim.remote(dst, op, a, b, nil)
}

// RemoteSend advances adv of virtual time, then applies op against dst's
// partition: a fire-and-forget committed effect.
//
//uts:noalloc
func (p *Proc) RemoteSend(dst int, adv time.Duration, op uint8, a, b int64, chunks []stack.Chunk) {
	p.Advance(adv)
	p.sim.remote(dst, op, a, b, chunks)
}

// StageSend is RemoteSend inside a Stepper: it stages op, with its chunks, to
// be applied against dst's partition at the boundary of the quantum the
// surrounding Stepper is about to return with duration adv (which StageSend
// returns for convenience). effectDelay is how long after that the effect
// becomes visible to dst. At most one send per quantum. In a windowed run
// the effect must lag by at least the window: no message lands in the
// window it was sent in.
//
//uts:noalloc
func (p *Proc) StageSend(dst int, adv, effectDelay time.Duration, op uint8, a, b int64, chunks []stack.Chunk) time.Duration {
	if int64(effectDelay) < p.sim.window() {
		panic("des: a message that lands inside the window it was sent in — the run cannot be windowed")
	}
	p.stage(stagedOp{dst: int32(dst), op: op, send: true, a: a, b: b})
	p.stagedChunks = chunks
	return adv
}

// StageRemote stages op to execute against dst's partition exactly at the
// boundary of the quantum the surrounding Stepper is about to return with
// duration d (which StageRemote returns for convenience). The op executes
// after every smaller-keyed event at that instant; its result is available
// through StagedResult once the boundary has been reached. Only valid
// inside a Stepper, at most twice per quantum.
//
//uts:noalloc
func (p *Proc) StageRemote(dst int, d time.Duration, op uint8, a, b int64) time.Duration {
	p.stage(stagedOp{dst: int32(dst), op: op, a: a, b: b})
	return d
}

//uts:noalloc
func (p *Proc) stage(st stagedOp) {
	if int(p.nstag) == len(p.staged) {
		panic("des: more than two remote ops staged in one quantum")
	}
	p.staged[p.nstag] = st
	p.nstag++
}

// StagedResult returns the result of the i-th op staged in the quantum
// whose boundary was last reached, in staging order.
//
//uts:noalloc
func (p *Proc) StagedResult(i int) int64 { return p.staged[i].res }

// runStaged resolves the staged ops of a quantum that just reached its
// boundary, in staging order: each executes here, at the proc's own position
// in the schedule.
//
//uts:noalloc
func (p *Proc) runStaged() {
	for i := int32(0); i < p.nstag; i++ {
		st := &p.staged[i]
		if st.send {
			chunks := p.stagedChunks
			p.stagedChunks = nil
			p.sim.remote(int(st.dst), st.op, st.a, st.b, chunks)
		} else {
			st.res = p.sim.remote(int(st.dst), st.op, st.a, st.b, nil)
		}
	}
	p.nstag = 0
}
