package msg

import (
	"sync"
	"testing"

	"repro/internal/stack"
	"repro/internal/uts"
)

func TestSendRecvFIFO(t *testing.T) {
	c, err := NewComm(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		c.Send(0, 1, Message{Tag: Tag(i % 3)})
	}
	for i := 0; i < 10; i++ {
		m, ok := c.Recv(1)
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		if m.From != 0 || m.Tag != Tag(i%3) {
			t.Fatalf("recv %d: got from=%d tag=%v", i, m.From, m.Tag)
		}
	}
	if _, ok := c.Recv(1); ok {
		t.Error("recv from empty inbox succeeded")
	}
}

func TestSendToSelf(t *testing.T) {
	c, _ := NewComm(1, nil)
	c.Send(0, 0, Message{Tag: TagToken, Color: Black})
	m, ok := c.Recv(0)
	if !ok || m.Tag != TagToken || m.Color != Black {
		t.Fatalf("self-send lost: %v %v", m, ok)
	}
}

func TestWorkPayloadSurvives(t *testing.T) {
	c, _ := NewComm(2, nil)
	chunks := []stack.Chunk{{uts.Node{Height: 7}}, {uts.Node{Height: 8}, uts.Node{Height: 9}}}
	c.Send(1, 0, Message{Tag: TagWork, Chunks: chunks})
	m, ok := c.Recv(0)
	if !ok || len(m.Chunks) != 2 || m.Chunks[1][1].Height != 9 {
		t.Fatalf("payload corrupted: %+v", m)
	}
}

func TestInvalidComm(t *testing.T) {
	if _, err := NewComm(0, nil); err == nil {
		t.Error("zero-rank comm should fail")
	}
}

func TestSendOutOfRangePanics(t *testing.T) {
	c, _ := NewComm(2, nil)
	defer func() {
		if recover() == nil {
			t.Error("send to rank 5 of 2 should panic")
		}
	}()
	c.Send(0, 5, Message{})
}

// TestConcurrentSendersOneReceiver checks message conservation under
// concurrent senders: none lost, none duplicated.
func TestConcurrentSendersOneReceiver(t *testing.T) {
	const senders, per = 8, 500
	c, _ := NewComm(senders+1, nil)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Send(s+1, 0, Message{Tag: TagStealRequest, Color: Color(i)})
			}
		}(s)
	}
	wg.Wait()
	got := map[int][]int{}
	for {
		m, ok := c.Recv(0)
		if !ok {
			break
		}
		got[m.From] = append(got[m.From], int(m.Color))
	}
	total := 0
	for s := 1; s <= senders; s++ {
		seq := got[s]
		total += len(seq)
		// Per-sender FIFO order must hold even under interleaving.
		for i := 1; i < len(seq); i++ {
			if seq[i] != seq[i-1]+1 {
				t.Fatalf("sender %d: out-of-order delivery %v then %v", s, seq[i-1], seq[i])
			}
		}
	}
	if total != senders*per {
		t.Fatalf("received %d of %d messages", total, senders*per)
	}
}

func TestTagAndColorStrings(t *testing.T) {
	for _, tag := range []Tag{TagStealRequest, TagWork, TagNoWork, TagToken, TagTerminate, Tag(99)} {
		if tag.String() == "" {
			t.Errorf("tag %d: empty string", int(tag))
		}
	}
	if White.String() != "white" || Black.String() != "black" {
		t.Error("color names wrong")
	}
}

func TestMessageSizeCharging(t *testing.T) {
	m := Message{Chunks: []stack.Chunk{make([]uts.Node, 10)}}
	if want := 16 + 10*uts.NodeBytes; m.size() != want {
		t.Errorf("size = %d, want %d: the header plus one wire size per node, the one core and des charge", m.size(), want)
	}
}

// TestSteadyStateReusesBacking is the regression test for the inbox
// capacity leak: Recv used to re-slice the queue (q = q[1:]), permanently
// stripping capacity off the backing array so sustained traffic forced
// Send to reallocate forever. With the head-indexed ring, a steady
// send/recv rhythm must recycle one backing array and allocate nothing
// beyond the payloads the caller hands in.
func TestSteadyStateReusesBacking(t *testing.T) {
	c, err := NewComm(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: establish the backing array at its working size.
	for i := 0; i < 64; i++ {
		c.Send(0, 1, Message{Tag: TagStealRequest})
	}
	for {
		if _, ok := c.Recv(1); !ok {
			break
		}
	}
	// Steady state: the inbox oscillates, never drains fully (the hard
	// case — a drained inbox resets head and is trivially reusable).
	c.Send(0, 1, Message{Tag: TagStealRequest})
	allocs := testing.AllocsPerRun(1000, func() {
		c.Send(0, 1, Message{Tag: TagStealRequest})
		if _, ok := c.Recv(1); !ok {
			t.Fatal("inbox unexpectedly empty")
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state send/recv allocates %.2f objects per op; want 0", allocs)
	}
}

// TestFIFOAcrossCompaction drives the inbox through many grow/compact
// cycles with interleaved sends and receives and checks strict FIFO
// order end to end — the compaction slide must never reorder or drop a
// live message.
func TestFIFOAcrossCompaction(t *testing.T) {
	c, err := NewComm(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	next := 0 // next sequence number expected out
	sent := 0
	recv := func(n int) {
		for i := 0; i < n; i++ {
			m, ok := c.Recv(1)
			if !ok {
				t.Fatalf("inbox empty with %d messages outstanding", sent-next)
			}
			if int(m.Color) != next {
				t.Fatalf("got message %d, want %d", int(m.Color), next)
			}
			next++
		}
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 7; i++ {
			c.Send(0, 1, Message{Tag: TagToken, Color: Color(sent)})
			sent++
		}
		recv(5) // leave a live suffix so compaction has something to slide
	}
	recv(sent - next)
	if _, ok := c.Recv(1); ok {
		t.Error("inbox should be empty")
	}
}
