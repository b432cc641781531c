// Package msg is the message-passing substrate for the mpi-ws baseline
// (Section 3.2 of the paper, after Dinan et al.'s MPI implementation of
// UTS). It provides what that algorithm consumes from MPI: a fixed set of
// ranks, asynchronous tagged point-to-point sends, and a non-blocking
// polling receive. Transfers are charged to the cost model exactly like the
// PGAS one-sided operations, so the UPC and MPI implementations compete
// under the same interconnect assumptions.
//
// Sends never block: each rank's inbox is an unbounded FIFO. This mirrors
// buffered eager-mode MPI sends of small messages, which is how the UTS MPI
// implementation operates (steal requests and chunk transfers are small).
package msg

import (
	"fmt"
	"sync"

	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/uts"
)

// Tag discriminates message kinds for the work-stealing protocol.
type Tag int

const (
	// TagStealRequest asks the receiver for work.
	TagStealRequest Tag = iota
	// TagWork carries stolen chunks to a requester.
	TagWork
	// TagNoWork denies a steal request.
	TagNoWork
	// TagToken carries the Dijkstra termination-detection token.
	TagToken
	// TagTerminate announces global termination around the ring.
	TagTerminate
)

// String names the tag.
func (t Tag) String() string {
	switch t {
	case TagStealRequest:
		return "steal-request"
	case TagWork:
		return "work"
	case TagNoWork:
		return "no-work"
	case TagToken:
		return "token"
	case TagTerminate:
		return "terminate"
	}
	return fmt.Sprintf("Tag(%d)", int(t))
}

// Color is the Dijkstra token/process color.
type Color int

const (
	// White indicates no work has moved since the token last passed.
	White Color = iota
	// Black taints the token: work moved, the round is inconclusive.
	Black
)

// String names the color.
func (c Color) String() string {
	if c == White {
		return "white"
	}
	return "black"
}

// Message is one point-to-point message.
type Message struct {
	From   int
	Tag    Tag
	Chunks []stack.Chunk // TagWork payload
	Color  Color         // TagToken payload
}

// size estimates the wire size in bytes for bandwidth charging: a small
// fixed header plus uts.NodeBytes per node.
func (m *Message) size() int {
	return 16 + uts.NodeBytes*stack.NodeCount(m.Chunks)
}

// Comm connects a fixed set of ranks.
type Comm struct {
	n       int
	model   *pgas.Model
	inboxes []inbox
}

// inbox is a head-indexed FIFO ring: Recv advances head instead of
// re-slicing the queue (q = q[1:] permanently strips capacity off the
// backing array, so sustained traffic reallocates forever), and Send
// compacts the dead prefix before the slice would otherwise grow. In
// steady state one backing array is reused indefinitely.
type inbox struct {
	mu   sync.Mutex
	q    []Message
	head int
}

// NewComm creates a communicator of n ranks charging costs to model
// (nil means the zero-latency shared-memory profile).
func NewComm(n int, model *pgas.Model) (*Comm, error) {
	if n <= 0 {
		return nil, fmt.Errorf("msg: communicator needs at least one rank, got %d", n)
	}
	if model == nil {
		model = &pgas.SharedMemory
	}
	return &Comm{n: n, model: model, inboxes: make([]inbox, n)}, nil
}

// Send delivers m to rank `to` asynchronously, charging the sender the
// injection latency plus the bandwidth term for the payload. Sending to
// self is allowed (used by single-rank termination).
func (c *Comm) Send(from, to int, m Message) {
	if to < 0 || to >= c.n {
		panic(fmt.Sprintf("msg: send to rank %d of %d", to, c.n))
	}
	m.From = from
	if from != to {
		pgas.Charge(c.model.BulkCost(m.size()))
	}
	ib := &c.inboxes[to]
	ib.mu.Lock()
	if ib.head > 0 && len(ib.q) == cap(ib.q) {
		// About to grow: slide the live suffix down over the dead prefix
		// first so the existing backing array keeps being reused.
		live := copy(ib.q, ib.q[ib.head:])
		for i := live; i < len(ib.q); i++ {
			ib.q[i] = Message{}
		}
		ib.q = ib.q[:live]
		ib.head = 0
	}
	ib.q = append(ib.q, m)
	ib.mu.Unlock()
}

// Recv polls rank me's inbox, returning the oldest pending message if any.
// It never blocks; the work-stealing protocol is built on explicit polling
// (the paper's user-tunable polling interval).
func (c *Comm) Recv(me int) (Message, bool) {
	ib := &c.inboxes[me]
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.head == len(ib.q) {
		return Message{}, false
	}
	m := ib.q[ib.head]
	ib.q[ib.head] = Message{} // drop payload references promptly
	ib.head++
	if ib.head == len(ib.q) {
		ib.q = ib.q[:0]
		ib.head = 0
	}
	return m, true
}
