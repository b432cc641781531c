//go:build unix

package cluster

import (
	"errors"
	"net/netip"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"
)

// sockOpt reads one integer socket option off s.
func sockOpt(t *testing.T, s stream, level, opt int) int {
	t.Helper()
	sc, ok := s.(interface {
		SyscallConn() (syscall.RawConn, error)
	})
	if !ok {
		t.Fatalf("%T has no descriptor", s)
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var v int
	var gerr error
	if err := rc.Control(func(fd uintptr) { v, gerr = syscall.GetsockoptInt(int(fd), level, opt) }); err != nil {
		t.Fatal(err)
	}
	if gerr != nil {
		t.Fatal(gerr)
	}
	return v
}

// testListener listens on a loopback port, closed when the test ends.
func testListener(t *testing.T) listener {
	t.Helper()
	ln, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// TestSockOptions reads back what net used to set: no Nagle delay and
// keep-alive, on the dialed end and the accepted one.
func TestSockOptions(t *testing.T) {
	ln := testListener(t)
	accepted := make(chan stream, 1)
	go func() {
		s, err := ln.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- s
	}()
	dialed, err := dialTCP(ln.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	served := <-accepted
	if served == nil {
		return
	}
	defer served.Close()
	for end, s := range map[string]stream{"dialed": dialed, "accepted": served} {
		if sockOpt(t, s, syscall.IPPROTO_TCP, syscall.TCP_NODELAY) == 0 {
			t.Errorf("%s end: TCP_NODELAY off", end)
		}
		if sockOpt(t, s, syscall.SOL_SOCKET, syscall.SO_KEEPALIVE) == 0 {
			t.Errorf("%s end: SO_KEEPALIVE off", end)
		}
	}
	// The stream carries bytes both ways under deadlines.
	served.SetDeadline(time.Now().Add(5 * time.Second))
	dialed.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := dialed.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := served.Read(buf); err != nil || string(buf) != "ping" {
		t.Fatalf("read %q, %v", buf, err)
	}
}

// TestDialConnects dials a live listener many times in a row: each connect
// must be seen as soon as it completes, including one that completed before
// the socket joined the poller, never at the deadline.
func TestDialConnects(t *testing.T) {
	ln := testListener(t)
	go func() {
		for {
			s, err := ln.Accept()
			if err != nil {
				return
			}
			s.Close()
		}
	}()
	start := time.Now()
	for i := 0; i < 50; i++ {
		s, err := dialTCP(ln.Addr(), 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("50 loopback dials took %v", d)
	}
}

// TestAcceptDeadline: an accept past the listener's deadline returns
// os.ErrDeadlineExceeded, and soon — the coordinator's hello window.
func TestAcceptDeadline(t *testing.T) {
	ln := testListener(t)
	ln.SetDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := ln.Accept()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Accept past the deadline: %v, want os.ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("Accept returned %v after a 50ms deadline", d)
	}
}

// TestCloseUnblocksAccept: teardown closes the listener under a pending
// accept, which must return.
func TestCloseUnblocksAccept(t *testing.T) {
	ln := testListener(t)
	done := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	ln.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Accept on a closed listener returned a stream")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock Accept")
	}
}

// TestDialRefusedFast: a dial to a port nobody listens on fails with the
// refusal, well before its timeout.
func TestDialRefusedFast(t *testing.T) {
	ln := testListener(t)
	addr := ln.Addr()
	ln.Close()
	start := time.Now()
	if _, err := dialTCP(addr, 10*time.Second); err == nil {
		t.Fatal("dial to a closed port succeeded")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("refused dial took %v against a 10s timeout", d)
	}
}

func TestParseAddr(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"127.0.0.1:0", "127.0.0.1:0"},
		{"[::1]:0", "[::1]:0"},
		{":7800", ":7800"},
		{"0.0.0.0:0", "0.0.0.0:0"},
		{"10.0.0.2:", "10.0.0.2:0"},
		{"10.0.0.2:65535", "10.0.0.2:65535"},
		{":", ":0"},
	} {
		a, err := parseAddr(tc.in)
		if err != nil {
			t.Errorf("parseAddr(%q): %v", tc.in, err)
			continue
		}
		if got := a.String(); got != tc.want {
			t.Errorf("parseAddr(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
	for _, in := range []string{
		"10.0.0.2:65536", "10.0.0.2:-1", "10.0.0.2:http", "10.0.0.2", "",
		"::1:80", "[10.0.0.2]:80", "[fe80::1%eth0]:80", "[::1:80",
		"localhost:7777", "node-3.example:0",
	} {
		if a, err := parseAddr(in); err == nil {
			t.Errorf("parseAddr(%q) = %v, want an error", in, a)
		} else if !strings.Contains(err.Error(), `"`+in+`"`) {
			t.Errorf("parseAddr(%q): error %q does not name the address", in, err)
		}
	}
}

// TestAdvertiseLiterals: a bare IPv6 advertise address takes the
// listener's port like a bare IPv4 one (TestAdvertiseAddr), and a host
// name, which the library no longer resolves, is an error naming it.
func TestAdvertiseLiterals(t *testing.T) {
	ln := testListener(t)
	la, _ := parseAddr(ln.Addr())
	if got, err := advertiseAddr("::1", ln); err != nil || got != (tcpAddr{netip.IPv6Loopback(), la.port}).String() {
		t.Errorf("advertiseAddr(::1) = %q, %v", got, err)
	}
	for _, name := range []string{"node-3", "node-3:7800"} {
		if _, err := advertiseAddr(name, ln); err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("advertiseAddr(%q): %v, want an error naming it", name, err)
		}
	}
}

// FuzzParseAddr: no input panics, and whatever parses reads back the same
// from its String.
func FuzzParseAddr(f *testing.F) {
	for _, s := range []string{"127.0.0.1:0", "[::1]:80", ":7800", "10.0.0.2:", "localhost:1", "[::ffff:1.2.3.4]:9"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := parseAddr(s)
		if err != nil {
			return
		}
		b, err := parseAddr(a.String())
		if err != nil || b != a {
			t.Fatalf("%q parsed to %v, which reads back as %v, %v", s, a, b, err)
		}
	})
}
