package cluster

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"reflect"
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

// gobStream encodes reqs as one client would put them on a connection.
func gobStream(t testing.TB, reqs ...request) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
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
		stream := gobStream(f, req)
		for _, cut := range []int{len(stream), len(stream) - 1, len(stream) / 2, len(stream) / 4, 1} {
			f.Add(stream[:cut])
		}
	}
	f.Add(gobStream(f, valid[1:]...)) // one connection, every kind in turn
	f.Add(gobStream(f, request{Kind: reqKind(200), From: 2}))
	f.Add(gobStream(f, request{Kind: kindCASRequest, From: 2, Thief: 99}))
	f.Add(gobStream(f, request{Kind: kindCASRequest, From: 2, Thief: -5}))
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
		// request bytes are written, and they are a gob stream of responses.
		delivered := make(chan int, 1)
		go func() {
			got := 0
			for dec := gob.NewDecoder(client); ; {
				var resp response
				if err := dec.Decode(&resp); err != nil {
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
