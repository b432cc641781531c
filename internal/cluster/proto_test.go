package cluster

import (
	"bytes"
	"net"
	"reflect"
	"testing"
	"time"

	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// fillExported sets every exported field of the struct v points to non-zero,
// each to its own value: ints, floats and arrays of them, which is all a
// frame writes field by field. A field of another type fails the test — the
// frame has no entry for it yet.
func fillExported(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	var set func(f reflect.Value, k int)
	set = func(f reflect.Value, k int) {
		switch f.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64:
			f.SetInt(int64(k)*1000 + 7)
		case reflect.Float64:
			f.SetFloat(float64(k) + 0.25)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				set(f.Index(j), k*10+j)
			}
		default:
			t.Fatalf("%s: no frame entry for a field of kind %v", rv.Type(), f.Kind())
		}
	}
	for i := 0; i < rv.NumField(); i++ {
		if rv.Type().Field(i).IsExported() {
			set(rv.Field(i), i+1)
		}
	}
}

// decodeFrame reads one frame of data into m, which must take all of it.
func decodeFrame(t *testing.T, data []byte, m message) {
	t.Helper()
	r := bytes.NewReader(data)
	if err := newPeerConn(&replayConn{r: r}).recv(m); err != nil {
		t.Fatalf("decode %x: %v", data, err)
	}
	if r.Len() != 0 {
		t.Fatalf("decode left %d of %d bytes", r.Len(), len(data))
	}
}

// TestFrameRoundTrip encodes a request and a reply of every kind and
// decodes them back equal. The stats.Thread has every exported field set:
// gob carried a new field by itself, the frame carries only what putThread
// writes, so a field added without its frame entry comes back zero and
// fails here.
func TestFrameRoundTrip(t *testing.T) {
	var th stats.Thread
	fillExported(t, &th)
	node := func(h int32) uts.Node {
		n := uts.Node{Height: h, NumKids: -h - 1}
		for i := range n.State {
			n.State[i] = byte(int(h)*31 + i)
		}
		return n
	}
	chunks := []stack.Chunk{{node(1), node(2)}, {node(3)}, {}}

	reqs := []request{
		{Kind: kindHello, From: 3, Addr: "10.0.0.2:7800"},
		{Kind: kindGetAvail, From: 1},
		{Kind: kindCASRequest, From: 2, Thief: 2},
		{Kind: kindPutResponse, From: 1, Amount: 3, Handle: 1<<40 + 5},
		{Kind: kindGetChunks, From: 2, Handle: 9},
		{Kind: kindBarrierEnter, From: 1},
		{Kind: kindBarrierLeave, From: 1},
		{Kind: kindBarrierDone, From: 1},
		{Kind: kindStats, From: 4, Stats: &th},
		{Kind: kindPeerDown, From: 1, Dead: 3},
		{Kind: kindMetrics, From: 0},
	}
	resps := []response{
		{Kind: kindHello, Addrs: []string{"a:1", "", "10.0.0.3:7801"}},
		{Kind: kindGetAvail, Avail: -1},
		{Kind: kindCASRequest, OK: true},
		{Kind: kindPutResponse},
		{Kind: kindGetChunks, Chunk: chunks},
		{Kind: kindBarrierEnter, Last: true},
		{Kind: kindBarrierLeave, OK: true},
		{Kind: kindBarrierDone, Done: true},
		{Kind: kindStats},
		{Kind: kindPeerDown},
		{Kind: kindMetrics, Metrics: []float64{3337, 0.25, -1, 1e9}},
	}
	if len(reqs) != int(lastKind)+1 || len(resps) != len(reqs) {
		t.Fatalf("%d requests and %d replies for %d kinds", len(reqs), len(resps), lastKind+1)
	}
	for i := range reqs {
		var got request
		decodeFrame(t, appendFrame(nil, &reqs[i]), &got)
		if !reflect.DeepEqual(got, reqs[i]) {
			t.Errorf("request of kind %d: got %+v, want %+v", reqs[i].Kind, got, reqs[i])
		}
		var back response
		decodeFrame(t, appendFrame(nil, &resps[i]), &back)
		if !reflect.DeepEqual(back, resps[i]) {
			t.Errorf("reply of kind %d: got %+v, want %+v", resps[i].Kind, back, resps[i])
		}
	}
}

// countConn counts the bytes a connection moves each way.
type countConn struct {
	net.Conn
	in, out int
}

func (c *countConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.in += n
	return n, err
}

func (c *countConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.out += n
	return n, err
}

// TestFrameBytes pins what each kind puts on the wire, request and reply,
// in an exchange rank 1 scripts against rank 0's progress engine. The
// header is 5 bytes (length, kind), a request's From 4 more; a GetChunks
// reply is the header, a chunk count, and per chunk a node count and
// uts.NodeBytes (28) a node. Holds on any host: the sizes are the frame's.
func TestFrameBytes(t *testing.T) {
	n := testNode(t, Config{Rank: 0, Ranks: 2, Chunk: 4})
	handle := n.handoff.reserve([]stack.Chunk{make(stack.Chunk, 4), make(stack.Chunk, 4)}, 1)
	conn, err := net.Dial("tcp", serveOn(t, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	cc := &countConn{Conn: conn}
	pc := newPeerConn(cc)

	var th stats.Thread
	for _, tc := range []struct {
		req       request
		out, back int
	}{
		{request{Kind: kindGetAvail, From: 1}, 9, 9},
		{request{Kind: kindCASRequest, From: 1, Thief: 1}, 13, 6},
		{request{Kind: kindPutResponse, From: 1, Amount: 1, Handle: 3}, 21, 5},
		{request{Kind: kindGetChunks, From: 1, Handle: handle}, 17, 5 + 4 + 2*(4+4*uts.NodeBytes)},
		{request{Kind: kindGetChunks, From: 1, Handle: handle}, 17, 9}, // served: nothing left
		{request{Kind: kindBarrierEnter, From: 1}, 9, 6},
		{request{Kind: kindBarrierLeave, From: 1}, 9, 6},
		{request{Kind: kindBarrierDone, From: 1}, 9, 6},
		{request{Kind: kindMetrics, From: 1}, 9, 5 + 4 + 9*8},
		{request{Kind: kindStats, From: 1, Stats: &th}, 9 + 17*8, 5},
		{request{Kind: kindPeerDown, From: 1, Dead: 1}, 13, 5},
	} {
		out, in := cc.out, cc.in
		if _, err := pc.callOnce(&tc.req, 5*time.Second); err != nil {
			t.Fatalf("kind %d: %v", tc.req.Kind, err)
		}
		if cc.out-out != tc.out || cc.in-in != tc.back {
			t.Errorf("kind %d: %d bytes out and %d back, want %d and %d",
				tc.req.Kind, cc.out-out, cc.in-in, tc.out, tc.back)
		}
	}

	// The hello goes out before any progress engine serves, on bootstrap's
	// own connection: its frames are sized here.
	hello := request{Kind: kindHello, From: 1, Addr: "127.0.0.1:7001"}
	addrs := response{Kind: kindHello, Addrs: []string{"127.0.0.1:7000", "127.0.0.1:7001"}}
	if got, want := len(appendFrame(nil, &hello)), 9+4+14; got != want {
		t.Errorf("hello: %d bytes, want %d", got, want)
	}
	if got, want := len(appendFrame(nil, &addrs)), 5+4+2*(4+14); got != want {
		t.Errorf("address map: %d bytes, want %d", got, want)
	}
}
