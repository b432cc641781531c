// Package cluster runs the paper's distributed-memory work-stealing
// algorithm (Section 3.3) across real operating-system processes connected
// by TCP — the genuinely distributed port of the UPC program.
//
// Each process hosts one worker thread and a progress engine. The progress
// engine is the software analogue of the Berkeley UPC runtime's active-
// message handlers (the machinery behind bupc_poll() that the paper's
// Section 6.1 discusses): it serves one-sided operations — reads of the
// work-available word, compare-and-swap on the request word, gets of
// reserved chunks — without involving the worker thread, which is what
// preserves the paper's work-first property over a network with no RDMA.
//
// The protocol is exactly the Section 3.3.3 algorithm:
//
//	thief                           victim
//	-----                           ------
//	GetAvail (one-sided)     →      progress engine answers
//	CASRequest (one-sided)   →      progress engine claims request word
//	                                worker polls request word (local),
//	                                reserves chunks in the handoff table,
//	         ←  PutResponse         writes amount+handle to the thief
//	GetChunks (one-sided)    →      progress engine serves from handoff
//
// Termination is the streamlined barrier of Section 3.3.1, hosted by rank
// 0's progress engine so barrier traffic never interrupts rank 0's worker.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// reqKind tags a request on a peer connection.
type reqKind uint8

const (
	// kindHello registers a rank and its listen address with the
	// coordinator; the reply carries the full address map once every rank
	// has registered.
	kindHello reqKind = iota
	// kindGetAvail reads the remote work-available word (one-sided).
	kindGetAvail
	// kindCASRequest attempts to claim the remote request word (one-sided).
	kindCASRequest
	// kindPutResponse writes a steal response (amount + chunk handle) into
	// the requesting thief's response slot.
	kindPutResponse
	// kindGetChunks fetches reserved chunks from the victim's handoff
	// table (one-sided; the "one-sided get" of Section 3.3.3).
	kindGetChunks
	// kindBarrierEnter/Leave/Done operate rank 0's streamlined barrier.
	kindBarrierEnter
	kindBarrierLeave
	kindBarrierDone
	// kindStats delivers a finished rank's counters to the coordinator.
	// Duplicate deliveries are ignored (the coordinator tracks which
	// ranks reported), which is what makes the RPC safe to retry.
	kindStats
	// kindPeerDown reports a detected peer failure to the coordinator so
	// the termination barrier and the stats gather can complete over the
	// surviving membership. Idempotent: repeats are harmless.
	kindPeerDown
	// kindMetrics reads a rank's rollup row (one-sided; the progress
	// engine answers from the sampler's last fold plus a few atomics).
	// Pure read, so idempotent; rank 0's rollup poller issues it on
	// /metrics scrapes, skipping dead ranks like probe cycles do.
	kindMetrics
)

// lastKind is the highest kind a frame may carry.
const lastKind = kindMetrics

// request is one RPC request in memory. Fields are a union over the kinds;
// a frame carries only the ones its kind uses.
type request struct {
	Kind reqKind
	From int

	Addr   string // kindHello: the sender's listen address
	Thief  int32  // kindCASRequest: thief ID to write into the request word
	Amount int32  // kindPutResponse: chunks granted (0 = denial)
	Handle uint64 // kindPutResponse / kindGetChunks: handoff table key
	Dead   int32  // kindPeerDown: the rank declared dead by the sender

	Stats *stats.Thread // kindStats
}

// response is one RPC reply in memory; Kind is the request's.
type response struct {
	Kind  reqKind
	OK    bool          // kindCASRequest: claim succeeded; kindBarrierLeave: leave permitted
	Avail int32         // kindGetAvail
	Last  bool          // kindBarrierEnter: caller was the final arrival
	Done  bool          // kindBarrierDone
	Addrs []string      // kindHello: rank → listen address map
	Chunk []stack.Chunk // kindGetChunks

	Metrics []float64 // kindMetrics: the rank's rollup row
}

// The wire. Every message, either way, is one frame:
//
//	length  uint32  bytes that follow, at most maxFrame
//	kind    uint8   the request's kind; a reply repeats it
//	fields          the kind's fields, fixed-width little-endian
//
// The header is those 5 bytes. A request's fields start with From (int32).
// A string is its length (uint32) and its bytes; a list is its length,
// then its entries; a node is uts.NodeBytes — the 20-byte state, height and
// child count — so a GetChunks reply is the header, the chunk count and,
// per chunk, its node count and 28 bytes a node. A stats.Thread goes field
// by field, every exported one (TestFrameRoundTrip fails on one left out);
// a rollup row is a list of float64s.
const (
	// maxFrame caps a frame's length: a length above it, like any frame
	// that does not decode exactly, ends the connection before anything is
	// allocated for it. 16 MiB is ≈600,000 nodes a grant.
	maxFrame = 16 << 20
	// minRead is the least a frame's body buffer grows by; past it, it
	// grows by what has arrived. A length prefix alone therefore costs at
	// most minRead, whatever it claims.
	minRead = 4 << 10
)

var (
	le          = binary.LittleEndian
	errBadFrame = errors.New("cluster: malformed frame")
	errTooLong  = fmt.Errorf("cluster: frame longer than %d bytes", maxFrame)
)

// peerConn is one framed connection, seen from either end: the set, serve,
// serveConn and the coordinator's pending hellos all use it, and send/recv
// are its one pair. A half-read or half-written frame leaves the stream
// unreadable, so any error ends the connection.
type peerConn struct {
	conn       stream
	wbuf, rbuf []byte // the last frame sent and the last body read, reused
	hdr        [4]byte
	mute       bool // serving end: an injected black hole withholds every later reply
}

func newPeerConn(conn stream) *peerConn { return &peerConn{conn: conn} }

// message is a request or a response: what a frame is decoded into.
type message interface {
	put(b []byte) []byte // appends the kind and its fields
	get(r *reader)       // reads them
}

// send writes m as one frame. One too long for the peer to accept is not
// sent: a grant that cannot go out stays in the handoff table.
func (p *peerConn) send(m message) error {
	p.wbuf = appendFrame(p.wbuf[:0], m)
	if len(p.wbuf)-4 > maxFrame {
		return errTooLong
	}
	_, err := p.conn.Write(p.wbuf)
	return err
}

// appendFrame appends m's frame to b.
func appendFrame(b []byte, m message) []byte {
	start := len(b)
	b = m.put(append(b, 0, 0, 0, 0))
	le.PutUint32(b[start:], uint32(len(b)-start-4))
	return b
}

// recv reads one frame into m. The body's buffer grows with what arrives
// (minRead, then doubling), so a length with nothing behind it allocates
// next to nothing.
func (p *peerConn) recv(m message) error {
	if _, err := io.ReadFull(p.conn, p.hdr[:]); err != nil {
		return err
	}
	n := int(le.Uint32(p.hdr[:]))
	if n > maxFrame {
		return errTooLong
	}
	body := p.rbuf[:0]
	for len(body) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(n-len(body), max(len(body), minRead)))
		}
		end := min(n, cap(body))
		if _, err := io.ReadFull(p.conn, body[len(body):end]); err != nil {
			return err
		}
		body = body[:end]
	}
	p.rbuf = body
	r := reader{b: body}
	if m.get(&r); r.bad || len(r.b) != 0 {
		return errBadFrame
	}
	return nil
}

// callOnce performs one lockstep RPC under an absolute deadline. A frame
// cut by the deadline leaves the stream unreadable, so any error poisons
// it: the caller drops the connection.
func (p *peerConn) callOnce(req *request, timeout time.Duration) (*response, error) {
	p.conn.SetDeadline(time.Now().Add(timeout))
	if err := p.send(req); err != nil {
		return nil, fmt.Errorf("cluster: rpc send: %w", err)
	}
	resp := new(response)
	if err := p.recv(resp); err != nil {
		return nil, fmt.Errorf("cluster: rpc recv: %w", err)
	}
	if resp.Kind != req.Kind {
		return nil, fmt.Errorf("cluster: rpc recv: reply of kind %d to a request of kind %d", resp.Kind, req.Kind)
	}
	p.conn.SetDeadline(time.Time{})
	return resp, nil
}

func (q *request) put(b []byte) []byte {
	b = append(b, byte(q.Kind))
	b = le.AppendUint32(b, uint32(q.From))
	switch q.Kind {
	case kindHello:
		b = putString(b, q.Addr)
	case kindCASRequest:
		b = le.AppendUint32(b, uint32(q.Thief))
	case kindPutResponse:
		b = le.AppendUint32(b, uint32(q.Amount))
		b = le.AppendUint64(b, q.Handle)
	case kindGetChunks:
		b = le.AppendUint64(b, q.Handle)
	case kindStats:
		b = putThread(b, q.Stats)
	case kindPeerDown:
		b = le.AppendUint32(b, uint32(q.Dead))
	}
	return b
}

func (q *request) get(r *reader) {
	q.Kind = reqKind(r.u8())
	q.From = int(r.i32())
	switch q.Kind {
	case kindHello:
		q.Addr = r.str()
	case kindCASRequest:
		q.Thief = r.i32()
	case kindPutResponse:
		q.Amount = r.i32()
		q.Handle = r.u64()
	case kindGetChunks:
		q.Handle = r.u64()
	case kindStats:
		q.Stats = getThread(r)
	case kindPeerDown:
		q.Dead = r.i32()
	default:
		if q.Kind > lastKind {
			r.bad = true
		}
	}
}

func (s *response) put(b []byte) []byte {
	b = append(b, byte(s.Kind))
	switch s.Kind {
	case kindHello:
		b = le.AppendUint32(b, uint32(len(s.Addrs)))
		for _, a := range s.Addrs {
			b = putString(b, a)
		}
	case kindGetAvail:
		b = le.AppendUint32(b, uint32(s.Avail))
	case kindCASRequest, kindBarrierLeave:
		b = putBool(b, s.OK)
	case kindBarrierEnter:
		b = putBool(b, s.Last)
	case kindBarrierDone:
		b = putBool(b, s.Done)
	case kindGetChunks:
		// Sized once from the node count: a grant is the one frame that is
		// not small, and appending it would regrow the buffer along the way.
		b = slices.Grow(b, 4+4*len(s.Chunk)+uts.NodeBytes*stack.NodeCount(s.Chunk))
		b = le.AppendUint32(b, uint32(len(s.Chunk)))
		for _, c := range s.Chunk {
			b = le.AppendUint32(b, uint32(len(c)))
			for i := range c {
				b = append(b, c[i].State[:]...)
				b = le.AppendUint32(b, uint32(c[i].Height))
				b = le.AppendUint32(b, uint32(c[i].NumKids))
			}
		}
	case kindMetrics:
		b = le.AppendUint32(b, uint32(len(s.Metrics)))
		for _, v := range s.Metrics {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b
}

func (s *response) get(r *reader) {
	s.Kind = reqKind(r.u8())
	switch s.Kind {
	case kindHello:
		n := r.count(4)
		s.Addrs = make([]string, n)
		for i := range s.Addrs {
			s.Addrs[i] = r.str()
		}
	case kindGetAvail:
		s.Avail = r.i32()
	case kindCASRequest, kindBarrierLeave:
		s.OK = r.bool()
	case kindBarrierEnter:
		s.Last = r.bool()
	case kindBarrierDone:
		s.Done = r.bool()
	case kindGetChunks:
		if n := r.count(4); n > 0 {
			s.Chunk = make([]stack.Chunk, n)
		}
		for i := range s.Chunk {
			c := make(stack.Chunk, r.count(uts.NodeBytes))
			for j := range c {
				copy(c[j].State[:], r.bytes(rng.StateSize))
				c[j].Height = r.i32()
				c[j].NumKids = r.i32()
			}
			s.Chunk[i] = c
		}
	case kindMetrics:
		if n := r.count(8); n > 0 {
			s.Metrics = make([]float64, n)
		}
		for i := range s.Metrics {
			s.Metrics[i] = r.f64()
		}
	default:
		if s.Kind > lastKind {
			r.bad = true
		}
	}
}

// putThread writes every exported field of t.
func putThread(b []byte, t *stats.Thread) []byte {
	for _, v := range [...]int64{int64(t.ID), t.Nodes, t.Leaves, t.Releases, t.Reacquires,
		t.Steals, t.ChunksGot, t.Probes, t.FailedSteals, t.Requests, t.DuplicateTakes,
		t.TermBarrierEntries, int64(t.MaxStackDepth)} {
		b = le.AppendUint64(b, uint64(v))
	}
	for _, d := range t.InState {
		b = le.AppendUint64(b, uint64(d))
	}
	return b
}

// getThread reads what putThread wrote.
func getThread(r *reader) *stats.Thread {
	t := &stats.Thread{ID: int(r.i64()), Nodes: r.i64(), Leaves: r.i64(), Releases: r.i64(),
		Reacquires: r.i64(), Steals: r.i64(), ChunksGot: r.i64(), Probes: r.i64(),
		FailedSteals: r.i64(), Requests: r.i64(), DuplicateTakes: r.i64(),
		TermBarrierEntries: r.i64(), MaxStackDepth: int(r.i64())}
	for i := range t.InState {
		t.InState[i] = time.Duration(r.i64())
	}
	return t
}

func putString(b []byte, s string) []byte {
	return append(le.AppendUint32(b, uint32(len(s))), s...)
}

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// reader takes a frame's fields off its body. A read past the end marks it
// bad and yields zeros, so a decoder reads straight through and is checked
// once at the end.
type reader struct {
	b   []byte
	bad bool
}

// bytes takes the next n bytes; nil once bad.
func (r *reader) bytes(n int) []byte {
	if r.bad || n > len(r.b) {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) u8() uint8 {
	if v := r.bytes(1); v != nil {
		return v[0]
	}
	return 0
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.bad = true
	return false
}

func (r *reader) u32() uint32 {
	if v := r.bytes(4); v != nil {
		return le.Uint32(v)
	}
	return 0
}

func (r *reader) u64() uint64 {
	if v := r.bytes(8); v != nil {
		return le.Uint64(v)
	}
	return 0
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) i64() int64   { return int64(r.u64()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

// count reads a list length whose entries take at least size bytes each:
// one the rest of the body cannot hold is bad, and reads as 0, so a list
// is never allocated past what arrived.
func (r *reader) count(size int) int {
	n := r.u32()
	if r.bad || uint64(n)*uint64(size) > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	return string(r.bytes(r.count(1)))
}
