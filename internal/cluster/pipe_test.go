package cluster

import (
	"fmt"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/uts"
)

// pipeNet is an in-memory transport: a listener is a name, and a dial is a
// net.Pipe whose far end that listener's Accept returns.
type pipeNet struct {
	mu    sync.Mutex
	lns   map[string]*pipeListener
	dials int
}

func (p *pipeNet) transport() transport {
	return transport{listen: p.listen, dial: p.dial}
}

func (p *pipeNet) listen(string) (listener, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	l := &pipeListener{
		addr:  fmt.Sprintf("pipe:%d", len(p.lns)),
		conns: make(chan net.Conn),
		done:  make(chan struct{}),
	}
	p.lns[l.addr] = l
	return l, nil
}

func (p *pipeNet) dial(addr string, timeout time.Duration) (stream, error) {
	p.mu.Lock()
	l := p.lns[addr]
	p.dials++
	p.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("dial %s: no such listener", addr)
	}
	client, served := net.Pipe()
	select {
	case l.conns <- served:
		return client, nil
	case <-l.done:
	case <-time.After(timeout):
	}
	client.Close()
	served.Close()
	return nil, fmt.Errorf("dial %s: refused", addr)
}

type pipeListener struct {
	addr      string
	conns     chan net.Conn
	done      chan struct{}
	closeOnce sync.Once
	mu        sync.Mutex
	deadline  time.Time
}

func (l *pipeListener) Accept() (stream, error) {
	l.mu.Lock()
	d := l.deadline
	l.mu.Unlock()
	var expired <-chan time.Time
	if !d.IsZero() {
		timer := time.NewTimer(time.Until(d))
		defer timer.Stop()
		expired = timer.C
	}
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, os.ErrClosed
	case <-expired:
		return nil, os.ErrDeadlineExceeded
	}
}

func (l *pipeListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) SetDeadline(t time.Time) error {
	l.mu.Lock()
	l.deadline = t
	l.mu.Unlock()
	return nil
}

func (l *pipeListener) Addr() string { return l.addr }

// TestClusterOverPipes runs a two-rank cluster with no socket at all: every
// listen and dial goes through the node's transport, here in memory. The
// counts are the tree's.
func TestClusterOverPipes(t *testing.T) {
	pn := &pipeNet{lns: map[string]*pipeListener{}}
	ready := make(chan string, 1)
	n0 := testNode(t, Config{Rank: 0, Ranks: 2, Coord: "pipe", CoordReady: ready, Spec: &uts.BenchTiny, Chunk: 4})
	n0.tr = pn.transport()
	var run *stats.Run
	errs := make(chan error, 2)
	go func() {
		var err error
		run, err = n0.run()
		errs <- err
	}()
	var coord string
	select {
	case coord = <-ready:
	case err := <-errs:
		t.Fatalf("coordinator: %v", err)
	}
	n1 := testNode(t, Config{Rank: 1, Ranks: 2, Coord: coord, Spec: &uts.BenchTiny, Chunk: 4})
	n1.tr = pn.transport()
	go func() {
		_, err := n1.run()
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("cluster over pipes timed out")
		}
	}
	if run.Nodes() != 3337 || run.Leaves() != 1698 {
		t.Errorf("counts = (%d, %d), want (3337, 1698)", run.Nodes(), run.Leaves())
	}
	if pn.dials < 2 {
		t.Errorf("%d dials through the transport, want the hello and rank 0's", pn.dials)
	}
}
