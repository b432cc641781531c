package des

import (
	"fmt"
	"reflect"
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
// TestMachineDriversAgree: one scripted transport under core.MsgRank's step
// function, driven once by the wall-clock shell (core.WallPE.Steps: a send
// has happened when the step returns, a beat of waiting is a Gosched) and
// once by the virtual-time one (a Sim's stepped advance: a send is staged
// against its quantum's boundary and delivered there, a beat is a sleep of
// one poll, a look at the queue takes time). The script fixes what the rank
// decides from — which Recv finds which message, how many nodes a quantum
// explores — as a function of call counts, never of time, so the two logs of
// everything the rank did must be equal. Every message reaches the rank
// through Recv, in its idle loop or in a drain of its poll cycle.

// msgScript is the scripted transport and the log of what the rank did.
type msgScript struct {
	me, n int
	start int                 // nodes on the stack when the rank starts
	poll  int                 // the rank's poll interval; 1 if 0
	inbox map[int]msg.Message // the n-th Recv finds this message; any other finds nothing

	// post is the driver's half of Send: how the message leaves, and the
	// quantum that takes. Both drivers log its delivery. look is the
	// quantum of a look at the queue.
	post func(to int, m msg.Message) time.Duration
	look time.Duration

	recvs int
	pe    *core.PE
	log   []string
}

const (
	scriptChunk = 2   // k: a request is granted at a stack of 4
	scriptSteps = 500 // no case takes more steps
)

func (s *msgScript) logf(format string, a ...any) { s.log = append(s.log, fmt.Sprintf(format, a...)) }

func (s *msgScript) Send(to int, m msg.Message) time.Duration {
	s.logf("send %d %v %v nodes=%d", to, m.Tag, m.Color, stack.NodeCount(m.Chunks))
	return s.post(to, m)
}

func (s *msgScript) deliver(to int, tag msg.Tag, chunks []stack.Chunk) {
	s.logf("deliver %d %v nodes=%d", to, tag, stack.NodeCount(chunks))
}

func (s *msgScript) Recv() *msg.Message {
	s.recvs++
	m, ok := s.inbox[s.recvs]
	if !ok {
		return nil
	}
	s.logf("recv %v from %d", m.Tag, m.From)
	return &m
}

// Explore pops up to most nodes: the script's tree has no children.
func (s *msgScript) Explore(most int) (time.Duration, bool) {
	s.logf("explore depth=%d", s.pe.Local.Len())
	n := 0
	for ; n < most && s.pe.Local.Len() > 0; n++ {
		s.pe.Local.Pop()
	}
	return 0, n == most
}

func (s *msgScript) Iprobe() time.Duration { s.logf("iprobe"); return s.look }

const stoppedLine = "stopped: the rank outlived its script"

// run has drive run the rank's step function over host h (the script plus
// one driver's clock, Sleep and post) and returns the log, closed with the
// counters the rank kept. Either driver stops the step at scriptSteps: a
// rank waiting for a message the script never sends — one that ignored its
// terminate — ends there instead of polling forever, and the log gets
// stoppedLine, which fails every case.
func (s *msgScript) run(h core.MsgHost, pe *core.PE, drive func(core.Stepper)) []string {
	s.pe = pe
	for i := 0; i < s.start; i++ {
		pe.Local.Push(uts.Node{})
	}
	rank := &core.MsgRank{H: loggedMsg{h, s}, PE: pe, Rng: core.NewProbeOrder(1, s.me), Me: s.me, N: s.n, Chunk: scriptChunk, Poll: max(s.poll, 1)}
	step, steps := rank.Start(), 0
	drive(func() (time.Duration, uint8) {
		if steps++; steps > scriptSteps {
			s.logf(stoppedLine)
			return 0, core.StepDone
		}
		return step()
	})
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

func (w *wallMsgFake) Sleep() time.Duration { w.logf("wait"); return 0 }
func (w *wallMsgFake) Explore(most int) (time.Duration, bool) {
	return w.msgScript.Explore(most)
}

type simMsgFake struct {
	simPE
	*msgScript
	to  int         // where the current quantum's staged send goes
	out msg.Message // and what it carries
}

// Sleep names its own next poll as due: the script answers by call count, so
// every poll must be run.
func (f *simMsgFake) Sleep() time.Duration {
	f.logf("wait")
	const poll = 250 * time.Nanosecond
	return f.p.StageSleep(f.charge(poll), f.p.Now()+poll)
}

func runWallMsgFake(sc msgScript) []string {
	var th stats.Thread
	w := &wallMsgFake{WallPE: core.WallPE{PE: core.NewPE(&uts.BenchTiny, &th, nil, nil)}, msgScript: &sc}
	sc.post = func(to int, m msg.Message) time.Duration {
		sc.deliver(to, m.Tag, m.Chunks)
		return 0
	}
	return sc.run(w, &w.PE, func(step core.Stepper) {
		w.Start()
		defer w.Stop()
		w.Steps(step)
	})
}

func runSimMsgFake(t *testing.T, sc msgScript) []string {
	res := &core.Result{}
	res.Threads = make([]stats.Thread, sc.me+1)
	f := &simMsgFake{simPE: newSimPE(&uts.BenchTiny, Config{Seed: 1}, res, nil, sc.me), msgScript: &sc}
	sc.look = 50 * time.Nanosecond
	sc.post = func(to int, m msg.Message) time.Duration {
		f.to, f.out = to, m
		return f.p.Stage(f.charge(100*time.Nanosecond), time.Microsecond)
	}
	return sc.run(f, &f.PE, func(step core.Stepper) {
		sim := New()
		f.spawnStepped(sim, step, func() { sc.deliver(f.to, f.out.Tag, f.out.Chunks) }, func(*Proc) {})
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if sim.handoffs != 0 {
			t.Errorf("%d resumptions: a simulated rank never leaves the dispatcher", sim.handoffs)
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
				"send 1 terminate white nodes=0", "deliver 1 terminate nodes=0",
				"send 2 terminate white nodes=0", "deliver 2 terminate nodes=0",
				"send 3 terminate white nodes=0", "deliver 3 terminate nodes=0", "state working"}, ""},
		{"rank 0's broadcast at N=2 is one send",
			// First pass, a request, its denial (Recv 3), the token back white.
			msgScript{me: 0, n: 2, inbox: map[int]msg.Message{3: {From: 1, Tag: msg.TagNoWork}, 4: token(1, msg.White)}},
			[]string{"send 1 token white nodes=0", "recv token from 1",
				"send 1 terminate white nodes=0", "deliver 1 terminate nodes=0", "state working"}, "send 0 terminate white nodes=0"},
		{"rank 0 black when the white token returns: whitens itself and recirculates",
			// First pass, request, 5 nodes land (Recv 3); the drain after
			// the first node grants a request (Recv 4: black), and the cycle
			// ends at Recv 8. The white token (Recv 9) is then not
			// conclusive, the next one (Recv 13, after a denied request) is.
			msgScript{me: 0, n: 4,
				inbox: map[int]msg.Message{3: work(2, 5), 4: request(1), 9: token(3, msg.White), 12: {From: 1, Tag: msg.TagNoWork}, 13: token(3, msg.White)}},
			[]string{"explore depth=5", "send 1 work white nodes=2", "recv token from 3", "send 1 token white nodes=0",
				"recv token from 3", "send 1 terminate white nodes=0"}, ""},
		{"a black rank taints the token and whitens itself",
			// The cycle over 5 nodes grants at Recv 1 and ends at Recv 5.
			msgScript{me: 2, n: 4, start: 5,
				inbox: map[int]msg.Message{1: request(3), 6: token(1, msg.White), 9: {From: 1, Tag: msg.TagNoWork}, 10: token(1, msg.White), 13: terminate}},
			[]string{"send 3 work white nodes=2", "send 3 token black nodes=0", "send 3 token white nodes=0", "recv terminate from 0"}, ""},
		{"a rank with an outstanding request never passes the token",
			// Recv 1: nothing, the request goes out. 2: the token. 3, 4:
			// nothing — it waits, holding the token. 5: the denial, and only
			// then does the token move on.
			msgScript{me: 1, n: 4, inbox: map[int]msg.Message{2: token(0, msg.White), 5: {From: 3, Tag: msg.TagNoWork}, 8: terminate}},
			[]string{"recv token from 0", "wait", "wait", "recv no-work from 3", "send 2 token white nodes=0"}, ""},
		{"a request is granted at 2k, denied below it, and denied when idle",
			// The first drain grants (Recv 1) and denies (Recv 2); the cycle
			// ends at Recv 6, and the idle rank denies at Recv 7.
			msgScript{me: 3, n: 4, start: 5,
				inbox: map[int]msg.Message{1: request(0), 2: request(1), 7: request(2), 9: terminate}},
			[]string{"send 0 work white nodes=2", "send 1 no-work white nodes=0", "send 2 no-work white nodes=0",
				"probes=1 requests=3 releases=1 steals=0 failed=0"}, ""},
		{"a grant is a send that carries its chunk to the thief",
			// Idle from the start, 5 nodes land (Recv 2); the drain after
			// the first node finds a request (Recv 3) and grants it.
			msgScript{me: 1, n: 2,
				inbox: map[int]msg.Message{2: work(0, 5), 3: request(0), 9: terminate}},
			[]string{"send 0 steal-request white nodes=0", "deliver 0 steal-request nodes=0", "explore depth=5",
				"send 0 work white nodes=2", "deliver 0 work nodes=2", "recv terminate from 0"}, ""},
		{"a working rank looks at its queue at the interval and once more after the stack drains",
			// Two nodes a quantum: the drain at the interval grants at 2k
			// (Recv 1) and ends (Recv 2); the next quantum empties the
			// stack, its drain (Recv 3) finds nothing, and the trailing look
			// (Recv 4) denies before the rank turns to searching.
			msgScript{me: 1, n: 2, start: 6, poll: 2,
				inbox: map[int]msg.Message{1: request(0), 4: request(0), 6: terminate}},
			[]string{"explore depth=6", "iprobe", "recv steal-request from 0", "send 0 work white nodes=2",
				"explore depth=2", "iprobe", "iprobe", "recv steal-request from 0", "send 0 no-work white nodes=0",
				"state searching", "recv terminate from 0", "probes=0 requests=2 releases=1 steals=0 failed=0"}, ""},
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
				if line == tc.never || line == stoppedLine {
					t.Errorf("log has %q:\n%q", line, wall)
				}
			}
			if i < len(tc.want) {
				t.Errorf("log lacks %q (in order %q):\n%q", tc.want[i], tc.want, wall)
			}
		})
	}
}
