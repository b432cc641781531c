package cluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/stats"
)

// renderFaultRule formats a rule back into the -fault mini-language with
// every field explicit, using the same vocabulary tables the parser
// reads. Inverse of one ParseFaultSpec rule for all parseable rules.
func renderFaultRule(r FaultRule) string {
	sideNames := map[FaultSide]string{AnySide: "any", ClientSide: "client", ServerSide: "server"}
	kindName := "any"
	for name, k := range faultKindNames {
		if k == r.Kind {
			kindName = name
			break
		}
	}
	return fmt.Sprintf("rank=%d,peer=%d,side=%s,kind=%s,op=%s,p=%s,delay=%s,after=%d,times=%d",
		r.Rank, r.Peer, sideNames[r.Side], kindName, r.Op,
		strconv.FormatFloat(r.P, 'g', -1, 64), r.Delay, r.After, r.Times)
}

// FuzzParseFaultSpec drives the -fault mini-language parser with
// arbitrary input. Invariants:
//
//   - never panics (the fuzzer's implicit property);
//   - error and plan are mutually exclusive, and a returned plan has at
//     least one rule (the documented contract);
//   - every accepted rule round-trips: rendering it back to spec syntax
//     and reparsing yields the identical rule, so nothing the parser
//     accepts is outside what it can represent.
func FuzzParseFaultSpec(f *testing.F) {
	// The documented examples, each field at least once, and shapes that
	// probe parser edges (empty rules, whitespace, duplicate keys,
	// malformed values, huge numbers).
	seeds := []string{
		"rank=2,side=server,kind=cas,after=1,op=kill",
		"kind=getchunks,op=drop,p=0.1;rank=1,op=delay,delay=5ms",
		"op=sever",
		"op=blackhole,times=3 ; op=drop,peer=0",
		" rank=-1 , peer=-1 , side=any , kind=any , op=delay , delay=1h2m3s , p=1 ",
		"kind=barrier-enter,op=drop;kind=barrier-leave,op=drop;kind=barrier-done,op=drop",
		"kind=hello,op=sever;kind=getavail,op=drop;kind=putresponse,op=drop",
		"kind=stats,op=delay,delay=250us;kind=peerdown,op=drop",
		"op=kill,p=0.5,after=10,times=1",
		"op=delay,delay=0s,p=1e-9",
		"",
		";;;",
		"op=",
		"op=kill,op=drop",
		"rank=2",
		"rank=x,op=kill",
		"p=NaN,op=drop",
		"delay=5,op=delay",
		"rank=9999999999999999999,op=kill",
		"unknown=1,op=kill",
		"kind=getchunks op=drop",
		"=,=",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		plan, err := ParseFaultSpec(spec)
		if err != nil {
			if plan != nil {
				t.Fatalf("ParseFaultSpec(%q) returned both a plan and error %v", spec, err)
			}
			return
		}
		if plan == nil || len(plan.Rules) == 0 {
			t.Fatalf("ParseFaultSpec(%q) succeeded with an empty plan", spec)
		}
		for _, r := range plan.Rules {
			if _, ok := map[FaultOp]bool{FaultDelay: true, FaultDrop: true, FaultSever: true,
				FaultBlackHole: true, FaultKill: true}[r.Op]; !ok {
				t.Fatalf("ParseFaultSpec(%q) produced unknown op %v", spec, r.Op)
			}
			if r.Delay < 0 {
				// A negative delay would make time.Sleep a no-op but is
				// never meaningful; the renderer still round-trips it.
				t.Logf("note: negative delay %v accepted", r.Delay)
			}
			rt := renderFaultRule(r)
			plan2, err := ParseFaultSpec(rt)
			if err != nil {
				t.Fatalf("round-trip of %q via %q failed: %v", spec, rt, err)
			}
			if len(plan2.Rules) != 1 || !reflect.DeepEqual(plan2.Rules[0], r) {
				t.Fatalf("round-trip of rule %+v via %q produced %+v", r, rt, plan2.Rules[0])
			}
		}
		// Rule count matches the number of non-empty ';' segments.
		n := 0
		for _, seg := range strings.Split(spec, ";") {
			if strings.TrimSpace(seg) != "" {
				n++
			}
		}
		if n != len(plan.Rules) {
			t.Fatalf("ParseFaultSpec(%q): %d non-empty segments but %d rules", spec, n, len(plan.Rules))
		}
	})
}

// TestRenderFaultRuleInverse pins the renderer against a hand-built rule
// so corpus shrinkage cannot silently weaken the round-trip property.
func TestRenderFaultRuleInverse(t *testing.T) {
	r := FaultRule{Rank: 3, Peer: 1, Side: ServerSide, Kind: int(kindGetChunks),
		Op: FaultDelay, P: 0.25, Delay: 5 * time.Millisecond, After: 2, Times: 7}
	plan, err := ParseFaultSpec(renderFaultRule(r))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Rules[0], r) {
		t.Fatalf("got %+v, want %+v", plan.Rules[0], r)
	}
}

// frameStream frames reqs as one client would put them on a connection.
func frameStream(reqs ...request) []byte {
	var b []byte
	for i := range reqs {
		b = appendFrame(b, &reqs[i])
	}
	return b
}

// FuzzServeConn writes arbitrary bytes to a served connection of a rank
// that holds one reserved handoff entry (handle 1, thief 2), reading
// whatever comes back, then hangs up. Invariants:
//
//   - nothing panics and serveConn returns (garbage, truncation and an
//     unknown kind all end the connection, never wedge the engine);
//   - the request word is free or names a rank the worker can answer:
//     another rank of the run;
//   - the ledger's rule holds from outside: the reserved entry is still
//     pending, or its chunk arrived in a reply — never neither, never both —
//     and no input conjures a second entry.
func FuzzServeConn(f *testing.F) {
	th := stats.Thread{ID: 2, Nodes: 7}
	valid := []request{
		{Kind: kindHello, From: 2, Addr: "127.0.0.1:1"},
		{Kind: kindGetAvail, From: 2},
		{Kind: kindCASRequest, From: 2, Thief: 2},
		{Kind: kindPutResponse, From: 2, Amount: 1, Handle: 3},
		{Kind: kindGetChunks, From: 2, Handle: 1},
		{Kind: kindGetChunks, From: 2, Handle: 9},
		{Kind: kindBarrierEnter, From: 2},
		{Kind: kindBarrierLeave, From: 2},
		{Kind: kindBarrierDone, From: 2},
		{Kind: kindStats, From: 2, Stats: &th},
		{Kind: kindPeerDown, From: 2, Dead: 1},
		{Kind: kindMetrics, From: 2},
	}
	for _, req := range valid {
		stream := frameStream(req)
		for _, cut := range []int{len(stream), len(stream) - 1, len(stream) / 2, len(stream) / 4, 1} {
			f.Add(stream[:cut])
		}
	}
	f.Add(frameStream(valid[1:]...)) // one connection, every kind in turn
	f.Add(frameStream(request{Kind: reqKind(200), From: 2}))
	f.Add(frameStream(request{Kind: kindCASRequest, From: 2, Thief: 99}))
	f.Add(frameStream(request{Kind: kindCASRequest, From: 2, Thief: -5}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, byte(kindGetAvail)}) // a length past the cap
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		n := testNode(t, Config{Rank: 0, Ranks: 3, Chunk: 4})
		n.handoff.reserve([]stack.Chunk{make(stack.Chunk, 4)}, 2)
		client, served := net.Pipe()
		done := make(chan struct{})
		go func() {
			n.serveConn(newPeerConn(served))
			close(done)
		}()
		// net.Pipe is unbuffered: the engine's replies must be read while the
		// request bytes are written, and they are frames of responses.
		delivered := make(chan int, 1)
		go func() {
			got := 0
			for pc := newPeerConn(client); ; {
				var resp response
				if err := pc.recv(&resp); err != nil {
					io.Copy(io.Discard, client)
					delivered <- got
					return
				}
				got += len(resp.Chunk)
			}
		}()
		client.SetWriteDeadline(time.Now().Add(10 * time.Second))
		client.Write(data) // an error means the engine hung up first
		client.Close()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveConn did not return after its peer hung up")
		}

		if w := n.reqWord.Load(); w != -1 && w != 1 && w != 2 {
			t.Errorf("request word = %d, want -1 or another rank of the run", w)
		}
		if pending, got := n.handoff.Pending(), <-delivered; pending+got != 1 {
			t.Errorf("%d entries pending and %d chunks delivered, want the one reserved chunk in exactly one place", pending, got)
		}
	})
}

// replayConn is a connection whose peer sent data and takes whatever is
// written back; Close is recorded.
type replayConn struct {
	net.Conn
	r      *bytes.Reader
	closed bool
}

func (c *replayConn) Read(b []byte) (int, error)      { return c.r.Read(b) }
func (c *replayConn) Write(b []byte) (int, error)     { return len(b), nil }
func (c *replayConn) Close() error                    { c.closed = true; return nil }
func (c *replayConn) SetDeadline(time.Time) error     { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error { return nil }

// FuzzFrame decodes arbitrary bytes as a stream of frames, both as the
// requests a progress engine reads and as the replies a client does.
// Invariants:
//
//   - nothing panics;
//   - nothing is allocated past what arrived: at most 16 bytes a byte of
//     input (a list entry's header per 4-byte count) plus the read-ahead,
//     whatever length a prefix claims (maxFrame is 16 MiB; a prefix alone
//     must not cost it);
//   - a frame that decodes is canonical: encoded again it is the bytes that
//     were read;
//   - every error ends the connection: an exchange whose reply does not
//     decode closes it and drops it from the set, one that does keeps it.
func FuzzFrame(f *testing.F) {
	th := stats.Thread{ID: 1, Nodes: 5}
	th.InState[stats.Idle] = time.Millisecond
	f.Add(frameStream(request{Kind: kindHello, From: 1, Addr: "h:1"},
		request{Kind: kindStats, From: 1, Stats: &th}, request{Kind: kindPutResponse, Amount: 2, Handle: 7}))
	f.Add(appendFrame(nil, &response{Kind: kindGetChunks, Chunk: []stack.Chunk{make(stack.Chunk, 2), make(stack.Chunk, 1)}}))
	f.Add(appendFrame(nil, &response{Kind: kindHello, Addrs: []string{"a:1", "b:2"}}))
	f.Add(appendFrame(nil, &response{Kind: kindMetrics, Metrics: []float64{1, 2.5}}))
	f.Add(appendFrame(nil, &response{Kind: kindCASRequest, OK: true}))
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, byte(kindGetChunks)}) // 16 MiB claimed, nothing behind it
	f.Add([]byte{9, 0, 0, 0, byte(kindGetChunks), 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Add([]byte{2, 0, 0, 0, byte(kindCASRequest), 2})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Up to 64 frames each way; the stream's first error ends it.
		reqs, resps := make([]request, 64), make([]response, 64)
		served, client := newPeerConn(&replayConn{r: bytes.NewReader(data)}), newPeerConn(&replayConn{r: bytes.NewReader(data)})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range reqs {
			if served.recv(&reqs[i]) != nil {
				reqs = reqs[:i]
				break
			}
		}
		for i := range resps {
			if client.recv(&resps[i]) != nil {
				resps = resps[:i]
				break
			}
		}
		runtime.ReadMemStats(&after)
		if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(16*len(data)+4*minRead+64<<10); got > bound {
			t.Errorf("decoding %d bytes allocated %d, want at most %d", len(data), got, bound)
		}

		var again []byte
		for i := range reqs {
			again = appendFrame(again, &reqs[i])
		}
		if !bytes.HasPrefix(data, again) {
			t.Errorf("%d requests decoded from %x encode as %x", len(reqs), data, again)
		}
		again = again[:0]
		for i := range resps {
			again = appendFrame(again, &resps[i])
		}
		if !bytes.HasPrefix(data, again) {
			t.Errorf("%d replies decoded from %x encode as %x", len(resps), data, again)
		}

		if len(data) == 0 {
			return
		}
		ps := newPeerSet(testNode(t, Config{Rank: 0, Ranks: 2}))
		conn := &replayConn{r: bytes.NewReader(data)}
		ps.adopt(1, conn)
		_, err := ps.exchange(1, &request{Kind: reqKind(data[len(data)-1] % byte(lastKind+1)), Stats: &th}, time.Second)
		if dropped := ps.conns[1] == nil; conn.closed != (err != nil) || dropped != (err != nil) {
			t.Errorf("exchange error %v: connection closed %v, dropped from the set %v", err, conn.closed, dropped)
		}
	})
}
