package des

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// The driver-agreement test of the message-passing rank, in the style of
// TestMachineDriversAgree: one scripted transport driven through
// core.MsgRank once on the wall-clock shell (core.WallPE, a beat of waiting
// is a Gosched) and once on the virtual-time one (simPE inside a Sim, a beat
// is an advance). The script fixes what the rank decides from — which Recv
// finds which message, which messages a Work polls — as a function of call
// counts, never of time, so the two logs of everything the rank did must be
// equal.

// msgScript is the scripted transport and the log of what the rank did.
type msgScript struct {
	me, n  int
	start  int                   // nodes on the stack when the rank starts
	inbox  map[int]msg.Message   // the n-th Recv finds this message; any other finds nothing
	polled map[int][]msg.Message // the messages the n-th Work polls before exploring its stack

	recvs, works int
	rank         *core.MsgRank
	pe           *core.PE
	log          []string
}

const scriptChunk = 2 // k: a request is granted at a stack of 4

func (s *msgScript) logf(format string, a ...any) { s.log = append(s.log, fmt.Sprintf(format, a...)) }

func (s *msgScript) Send(to int, m msg.Message) {
	s.logf("send %d %v %v nodes=%d", to, m.Tag, m.Color, stack.NodeCount(m.Chunks))
}

func (s *msgScript) Recv() (msg.Message, bool) {
	s.recvs++
	m, ok := s.inbox[s.recvs]
	if ok {
		s.logf("recv %v from %d", m.Tag, m.From)
	}
	return m, ok
}

func (s *msgScript) Work() {
	s.works++
	s.logf("work depth=%d", s.pe.Local.Len())
	for _, m := range s.polled[s.works] {
		s.rank.Handle(m)
	}
	for s.pe.Local.Len() > 0 {
		s.pe.Local.Pop()
	}
}

func (s *msgScript) Stopped() bool { return false }

// run drives the rank over host h (the script plus one driver's clock and
// Wait) and returns the log, closed with the counters the rank kept.
func (s *msgScript) run(h core.MsgHost, pe *core.PE, body func(func())) []string {
	s.pe = pe
	for i := 0; i < s.start; i++ {
		pe.Local.Push(uts.Node{})
	}
	s.rank = &core.MsgRank{H: loggedMsg{h, s}, PE: pe, Rng: core.NewProbeOrder(1, s.me), Me: s.me, N: s.n, Chunk: scriptChunk}
	body(s.rank.Run)
	t := pe.T
	s.logf("probes=%d requests=%d releases=%d steals=%d failed=%d", t.Probes, t.Requests, t.Releases, t.Steals, t.FailedSteals)
	return s.log
}

// loggedMsg puts what the rank asks of the clock third into the log too.
type loggedMsg struct {
	core.MsgHost
	s *msgScript
}

func (l loggedMsg) SetState(st stats.State) { l.s.logf("state %v", st); l.MsgHost.SetState(st) }
func (l loggedMsg) Rec(k obs.Kind, o int32, v int64) {
	l.s.logf("rec %v %v %v", k, o, v)
	l.MsgHost.Rec(k, o, v)
}

type wallMsgFake struct {
	core.WallPE
	*msgScript
}

func (w *wallMsgFake) Wait() { w.logf("wait"); runtime.Gosched() }

type simMsgFake struct {
	simPE
	*msgScript
}

func (f *simMsgFake) Wait()         { f.logf("wait"); f.advance(250 * time.Nanosecond) }
func (f *simMsgFake) Stopped() bool { return false }

func runWallMsgFake(sc msgScript) []string {
	var th stats.Thread
	w := &wallMsgFake{WallPE: core.WallPE{PE: core.NewPE(&uts.BenchTiny, &th, nil, nil)}, msgScript: &sc}
	return sc.run(w, &w.PE, func(run func()) {
		w.Start()
		defer w.Stop()
		run()
	})
}

func runSimMsgFake(t *testing.T, sc msgScript) []string {
	res := &core.Result{}
	res.Threads = make([]stats.Thread, sc.me+1)
	f := &simMsgFake{simPE: newSimPE(&uts.BenchTiny, Config{Seed: 1}, res, nil, sc.me), msgScript: &sc}
	return sc.run(f, &f.PE, func(run func()) {
		sim := New()
		f.spawn(sim, run, func(*Proc) {})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestMsgRankDriversAgree(t *testing.T) {
	token := func(from int, c msg.Color) msg.Message {
		return msg.Message{From: from, Tag: msg.TagToken, Color: c}
	}
	request := func(from int) msg.Message { return msg.Message{From: from, Tag: msg.TagStealRequest} }
	work := func(from, nodes int) msg.Message {
		return msg.Message{From: from, Tag: msg.TagWork, Chunks: []stack.Chunk{make(stack.Chunk, nodes)}}
	}
	terminate := msg.Message{From: 0, Tag: msg.TagTerminate}
	cases := []struct {
		name  string
		sc    msgScript
		want  []string // log lines that must appear, in order
		never string   // a log line that must not appear
	}{
		{"a lone rank terminates without a message",
			msgScript{me: 0, n: 1},
			[]string{"state searching", "state working", "probes=0 requests=0 releases=0 steals=0 failed=0"}, "wait"},
		{"first round never conclusive, then a white round with rank 0 white sends N-1 terminates",
			// Recv 1 finds nothing: the first pass. 2: nothing, a request
			// goes out. 3: its denial. 4: the token, back white.
			msgScript{me: 0, n: 4, inbox: map[int]msg.Message{3: {From: 2, Tag: msg.TagNoWork}, 4: token(3, msg.White)}},
			[]string{"send 1 token white nodes=0", "recv token from 3",
				"send 1 terminate white nodes=0", "send 2 terminate white nodes=0", "send 3 terminate white nodes=0"}, ""},
		{"rank 0 black when the white token returns: whitens itself and recirculates",
			// First pass, request, 5 nodes land (Recv 3), the Work over them
			// grants a request (black); the white token (Recv 4) is then not
			// conclusive, the next one (Recv 8, after a denied request) is.
			msgScript{me: 0, n: 4,
				inbox:  map[int]msg.Message{3: work(2, 5), 4: token(3, msg.White), 7: {From: 1, Tag: msg.TagNoWork}, 8: token(3, msg.White)},
				polled: map[int][]msg.Message{1: {request(1)}}},
			[]string{"work depth=5", "send 1 work white nodes=2", "recv token from 3", "send 1 token white nodes=0",
				"recv token from 3", "send 1 terminate white nodes=0"}, ""},
		{"a black rank taints the token and whitens itself",
			msgScript{me: 2, n: 4, start: 5,
				inbox:  map[int]msg.Message{1: token(1, msg.White), 4: {From: 1, Tag: msg.TagNoWork}, 5: token(1, msg.White), 8: terminate},
				polled: map[int][]msg.Message{1: {request(3)}}},
			[]string{"send 3 work white nodes=2", "send 3 token black nodes=0", "send 3 token white nodes=0", "recv terminate from 0"}, ""},
		{"a rank with an outstanding request never passes the token",
			// Recv 1: nothing, the request goes out. 2: the token. 3, 4:
			// nothing — it waits, holding the token. 5: the denial, and only
			// then does the token move on.
			msgScript{me: 1, n: 4, inbox: map[int]msg.Message{2: token(0, msg.White), 5: {From: 3, Tag: msg.TagNoWork}, 8: terminate}},
			[]string{"recv token from 0", "wait", "wait", "recv no-work from 3", "send 2 token white nodes=0"}, ""},
		{"a request is granted at 2k, denied below it, and denied when idle",
			msgScript{me: 3, n: 4, start: 5,
				inbox:  map[int]msg.Message{1: request(2), 3: terminate},
				polled: map[int][]msg.Message{1: {request(0), request(1)}}},
			[]string{"send 0 work white nodes=2", "send 1 no-work white nodes=0", "send 2 no-work white nodes=0",
				"probes=1 requests=3 releases=1 steals=0 failed=0"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wall := runWallMsgFake(tc.sc)
			sim := runSimMsgFake(t, tc.sc)
			if !reflect.DeepEqual(wall, sim) {
				t.Errorf("drivers disagree:\nwall %q\nsim  %q", wall, sim)
			}
			i := 0
			for _, line := range wall {
				if i < len(tc.want) && line == tc.want[i] {
					i++
				}
				if line == tc.never {
					t.Errorf("log has %q:\n%q", tc.never, wall)
				}
			}
			if i < len(tc.want) {
				t.Errorf("log lacks %q (in order %q):\n%q", tc.want[i], tc.want, wall)
			}
		})
	}
}
