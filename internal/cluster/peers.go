package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// errSetClosed answers an exchange on a connection set already closed.
var errSetClosed = errors.New("cluster: connections closed")

// peerSet is the one client doorway to the other ranks: a connection per
// rank, dialed on first use and reused; one lockstep exchange under a
// deadline, with the client-side fault hook in front of it; the connection
// dropped on any error, so the next exchange redials a fresh stream;
// everything closed, for good, at teardown. The worker and rank 0's metrics
// rollup hold an instance each — a scrape never queues behind a steal — and
// an instance serves one caller at a time; only closeAll may come from
// another goroutine.
type peerSet struct {
	n      *node
	mu     sync.Mutex
	conns  []*peerConn
	closed bool
}

func newPeerSet(n *node) *peerSet {
	return &peerSet{n: n, conns: make([]*peerConn, n.cfg.Ranks)}
}

// exchange performs one RPC with rank r. It never retries and passes no
// verdict on r: both belong to the caller.
func (ps *peerSet) exchange(r int, req *request, timeout time.Duration) (*response, error) {
	pc, err := ps.conn(r)
	if err != nil {
		return nil, err
	}
	if err = ps.n.clientFault(pc.conn, r, req.Kind); err == nil {
		var resp *response
		if resp, err = pc.callOnce(req, timeout); err == nil {
			return resp, nil
		}
	}
	// A failed exchange poisons the stream: the next one redials.
	pc.conn.Close()
	ps.mu.Lock()
	if ps.conns[r] == pc {
		ps.conns[r] = nil
	}
	ps.mu.Unlock()
	return nil, err
}

// conn returns the connection to rank r, dialing when there is none. Past
// bootstrap every listener is already up, so the dial is one bounded
// attempt: refused means the rank is gone, and pacing is the caller's.
func (ps *peerSet) conn(r int) (*peerConn, error) {
	ps.mu.Lock()
	pc, closed := ps.conns[r], ps.closed
	ps.mu.Unlock()
	if pc != nil {
		return pc, nil
	}
	if closed {
		return nil, errSetClosed
	}
	conn, err := ps.n.tr.dial(ps.n.addrs[r], ps.n.cfg.RPCTimeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: rank %d cannot reach rank %d at %q: %w",
			ps.n.cfg.Rank, r, ps.n.addrs[r], err)
	}
	return ps.adopt(r, conn)
}

// adopt makes conn the connection to rank r, fault-wrapped when injection
// is armed. A closed set closes it instead.
func (ps *peerSet) adopt(r int, conn stream) (*peerConn, error) {
	if ps.n.faults != nil {
		conn = &faultConn{stream: conn}
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.closed {
		conn.Close()
		return nil, errSetClosed
	}
	ps.conns[r] = newPeerConn(conn)
	return ps.conns[r], nil
}

// closeAll closes every connection and refuses new ones. Safe from any
// goroutine, including while an exchange is blocked in Read — Close
// unblocks it.
func (ps *peerSet) closeAll() {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closed = true
	for r, pc := range ps.conns {
		if pc != nil {
			pc.conn.Close()
			ps.conns[r] = nil
		}
	}
}

// clientFault applies the client-side rule armed for an exchange of kind
// with peer, about to go out on conn. Only a kill is an error.
func (n *node) clientFault(conn stream, peer int, kind reqKind) error {
	op, d, hooked := n.faults.act(ClientSide, peer, kind)
	if !hooked {
		return nil
	}
	switch op {
	case FaultDelay:
		time.Sleep(d)
	case FaultKill:
		n.die()
		return errKilled
	case FaultSever:
		conn.Close() // this exchange fails; the next one redials
	case FaultDrop, FaultBlackHole:
		blackhole(conn) // bytes vanish; the deadline detects it
	}
	return nil
}

// dialRetry is bootstrap's dial: until the deadline, with growing backoff.
// The coordinator may come up after the workers when processes are
// launched together, so early refusals are expected and polite (re-)dial
// pacing matters more than latency.
func (n *node) dialRetry(addr string, timeout time.Duration) (stream, error) {
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	for {
		conn, err := n.tr.dial(addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(n.jitter(backoff))
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}
