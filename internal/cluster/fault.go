// Fault injection for the cluster transport.
//
// A FaultPlan is a seeded, deterministic list of rules threaded through
// Config.Fault. Rules match RPCs by local rank, remote rank, hook side
// (thief/client vs progress-engine/server), and request kind, and fire an
// action: delay the operation, drop one message, sever the connection,
// black-hole the connection (it stays open but nothing gets through, so
// the peer runs into its deadline rather than an instant error), or kill
// the whole rank. Tests and `uts-dist -fault` use the harness to kill
// ranks mid-steal, mid-barrier, and mid-bootstrap without OS-level
// process murder, and to do so reproducibly: probabilistic rules draw
// from a rank-salted PRNG seeded by the plan.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultOp is the action a matched rule performs.
type FaultOp uint8

const (
	// FaultDelay sleeps Rule.Delay before the operation proceeds.
	FaultDelay FaultOp = iota
	// FaultDrop makes one message vanish: the sender believes the write
	// succeeded, the receiver never sees it, and the caller's deadline
	// machinery (not an instant error) detects the loss.
	FaultDrop
	// FaultSever closes the connection immediately.
	FaultSever
	// FaultBlackHole mutes the connection permanently: it stays open but
	// no further bytes are delivered, so every subsequent RPC on it runs
	// into its deadline.
	FaultBlackHole
	// FaultKill kills the whole rank: the listener closes, the progress
	// engine stops answering, and the worker exits with an error — the
	// in-process analogue of kill -9 on the rank's OS process.
	FaultKill
)

var faultOpNames = map[string]FaultOp{
	"delay": FaultDelay, "drop": FaultDrop, "sever": FaultSever,
	"blackhole": FaultBlackHole, "kill": FaultKill,
}

// String names the op in the -fault vocabulary.
func (o FaultOp) String() string {
	for name, op := range faultOpNames {
		if op == o {
			return name
		}
	}
	return fmt.Sprintf("FaultOp(%d)", uint8(o))
}

// FaultSide selects which hook a rule arms: the client side (this rank's
// outgoing RPCs) or the server side (this rank's progress engine serving
// a peer's RPC).
type FaultSide uint8

const (
	// AnySide matches both hooks.
	AnySide FaultSide = iota
	// ClientSide matches this rank's outgoing RPCs.
	ClientSide
	// ServerSide matches RPCs served by this rank's progress engine.
	ServerSide
)

// KindAny matches every request kind in a FaultRule.
const KindAny = -1

// faultKindNames maps -fault spec names to wire kinds.
var faultKindNames = map[string]int{
	"any": KindAny, "hello": int(kindHello), "getavail": int(kindGetAvail),
	"cas": int(kindCASRequest), "putresponse": int(kindPutResponse),
	"getchunks": int(kindGetChunks), "barrier-enter": int(kindBarrierEnter),
	"barrier-leave": int(kindBarrierLeave), "barrier-done": int(kindBarrierDone),
	"stats": int(kindStats), "peerdown": int(kindPeerDown),
}

// FaultRule matches a class of RPCs and fires an action. The zero value
// of the filters is permissive where that is the useful default: Side
// AnySide, P 0 meaning "always" (any value outside (0,1) fires
// unconditionally), Times 0 meaning "unlimited".
type FaultRule struct {
	// Rank is the local rank the rule arms on; -1 arms it on every rank.
	Rank int
	// Peer filters on the remote rank; -1 matches any peer.
	Peer int
	// Side filters on the hook side.
	Side FaultSide
	// Kind filters on the request kind (int(kindGetChunks), ...); use
	// KindAny to match all.
	Kind int
	// Op is the action.
	Op FaultOp
	// P is the per-match trigger probability; values outside (0,1) fire
	// on every match.
	P float64
	// Delay is the sleep for FaultDelay.
	Delay time.Duration
	// After skips the first After matches before the rule may fire.
	After int
	// Times caps how often the rule fires; 0 is unlimited.
	Times int
}

// FaultPlan is a seeded rule list shared by every rank of a run; each
// rank compiles the rules armed for it and salts the plan seed with its
// rank so probabilistic draws are reproducible yet uncorrelated.
type FaultPlan struct {
	Seed  int64
	Rules []FaultRule
}

// ParseFaultSpec parses the uts-dist -fault mini-language: rules
// separated by ';', key=value fields separated by ','. Fields: rank,
// peer (ints, -1 = any, the default), side (client|server|any), kind
// (hello|getavail|cas|putresponse|getchunks|barrier-enter|barrier-leave|
// barrier-done|stats|peerdown|any), op (delay|drop|sever|blackhole|kill,
// required), p (probability), delay (Go duration), after, times (ints).
//
//	-fault "rank=2,side=server,kind=cas,after=1,op=kill"
//	-fault "kind=getchunks,op=drop,p=0.1;rank=1,op=delay,delay=5ms"
func ParseFaultSpec(spec string) (*FaultPlan, error) {
	plan := &FaultPlan{}
	for _, rs := range strings.Split(spec, ";") {
		rs = strings.TrimSpace(rs)
		if rs == "" {
			continue
		}
		rule := FaultRule{Rank: -1, Peer: -1, Kind: KindAny}
		haveOp := false
		for _, field := range strings.Split(rs, ",") {
			k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
			if !ok {
				return nil, fmt.Errorf("cluster: fault field %q is not key=value", field)
			}
			var err error
			switch k {
			case "rank":
				rule.Rank, err = strconv.Atoi(v)
			case "peer":
				rule.Peer, err = strconv.Atoi(v)
			case "side":
				switch v {
				case "any":
					rule.Side = AnySide
				case "client":
					rule.Side = ClientSide
				case "server":
					rule.Side = ServerSide
				default:
					err = fmt.Errorf("unknown side %q", v)
				}
			case "kind":
				kind, ok := faultKindNames[v]
				if !ok {
					err = fmt.Errorf("unknown kind %q", v)
				}
				rule.Kind = kind
			case "op":
				op, ok := faultOpNames[v]
				if !ok {
					err = fmt.Errorf("unknown op %q", v)
				}
				rule.Op, haveOp = op, ok
			case "p":
				rule.P, err = strconv.ParseFloat(v, 64)
				if err == nil && (math.IsNaN(rule.P) || math.IsInf(rule.P, 0)) {
					err = fmt.Errorf("probability %q is not finite", v)
				}
			case "delay":
				rule.Delay, err = time.ParseDuration(v)
			case "after":
				rule.After, err = strconv.Atoi(v)
			case "times":
				rule.Times, err = strconv.Atoi(v)
			default:
				err = fmt.Errorf("unknown fault field %q", k)
			}
			if err != nil {
				return nil, fmt.Errorf("cluster: fault rule %q: %v", rs, err)
			}
		}
		if !haveOp {
			return nil, fmt.Errorf("cluster: fault rule %q has no op", rs)
		}
		plan.Rules = append(plan.Rules, rule)
	}
	if len(plan.Rules) == 0 {
		return nil, fmt.Errorf("cluster: fault spec %q contains no rules", spec)
	}
	return plan, nil
}

// faultInjector is one rank's compiled view of the plan. nil (no plan,
// or no rules armed for this rank) is a valid injector whose hooks are
// free no-ops, so fault-free runs pay a single nil check per RPC.
type faultInjector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []faultRuleState
}

type faultRuleState struct {
	FaultRule
	seen  int // matches observed (for After)
	fired int // times fired (for Times)
}

// newFaultInjector compiles the rules armed for rank. Returns nil when
// nothing is armed so the hot-path hooks stay a nil check.
func newFaultInjector(plan *FaultPlan, rank int) *faultInjector {
	if plan == nil {
		return nil
	}
	var rules []faultRuleState
	for _, r := range plan.Rules {
		if r.Rank == -1 || r.Rank == rank {
			rules = append(rules, faultRuleState{FaultRule: r})
		}
	}
	if len(rules) == 0 {
		return nil
	}
	return &faultInjector{
		rng:   rand.New(rand.NewSource(plan.Seed*1000003 + int64(rank) + 1)),
		rules: rules,
	}
}

// act consults the rules for one RPC on one side; the first rule that
// fires wins. Nil-safe.
func (f *faultInjector) act(side FaultSide, peer int, kind reqKind) (FaultOp, time.Duration, bool) {
	if f == nil {
		return 0, 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i := range f.rules {
		r := &f.rules[i]
		if r.Side != AnySide && r.Side != side {
			continue
		}
		if r.Peer != -1 && r.Peer != peer {
			continue
		}
		if r.Kind != KindAny && r.Kind != int(kind) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Times > 0 && r.fired >= r.Times {
			continue
		}
		if r.P > 0 && r.P < 1 && f.rng.Float64() >= r.P {
			continue
		}
		r.fired++
		return r.Op, r.Delay, true
	}
	return 0, 0, false
}

// faultConn wraps a transport connection so rules can make its traffic
// vanish without closing it: while swallow is set, writes report success
// but deliver nothing, which is what forces the peer into its deadline
// path instead of a tidy connection-reset error.
type faultConn struct {
	stream
	swallow atomic.Bool
}

// Write delivers b, or pretends to when the conn is black-holed.
func (c *faultConn) Write(b []byte) (int, error) {
	if c.swallow.Load() {
		return len(b), nil
	}
	return c.stream.Write(b)
}

// blackhole mutes conn, if it is fault-wrapped (an outgoing connection of
// a rank with rules armed always is).
func blackhole(conn stream) {
	if fc, ok := conn.(*faultConn); ok {
		fc.swallow.Store(true)
	}
}
