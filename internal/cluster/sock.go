package cluster

import (
	"fmt"
	"io"
	"net/netip"
	"strconv"
	"strings"
	"time"
)

// stream is one connected byte stream to a peer: what the frame code, the
// fault harness and the doorway use of a TCP connection. A socket is an
// *os.File on the runtime poller (sock_linux.go), so Read, Write, Close and
// the deadlines behave as on a net.Conn.
type stream interface {
	io.ReadWriteCloser
	SetDeadline(t time.Time) error
	SetReadDeadline(t time.Time) error
	SetWriteDeadline(t time.Time) error
}

// listener accepts the streams peers dial. SetDeadline bounds the next
// Accept (the coordinator's hello window) and Close unblocks a pending one.
type listener interface {
	Accept() (stream, error)
	Close() error
	SetDeadline(t time.Time) error
	Addr() string // the bound address, port filled in
}

// transport is how a node reaches the network: a listener for its peers'
// streams and a dial to one of them, bounded by timeout. A node uses
// sockets; a test may install another (an in-memory one over net.Pipe).
type transport struct {
	listen func(addr string) (listener, error)
	dial   func(addr string, timeout time.Duration) (stream, error)
}

// sockets is TCP: listenTCP and dialTCP are the platform's (sock_linux.go,
// and over package net sock_other.go).
var sockets = transport{listen: listenTCP, dial: dialTCP}

// tcpAddr is a parsed "host:port". The host is an IP literal — the library
// resolves no names; cmd/uts-dist does — or empty, the wildcard.
type tcpAddr struct {
	ip   netip.Addr // invalid: the wildcard
	port uint16
}

// parseAddr parses "ip:port", "[ipv6]:port" or ":port"; an empty port is 0.
// A host name, a zone or a port outside 0–65535 is an error naming s.
func parseAddr(s string) (tcpAddr, error) {
	i := strings.LastIndexByte(s, ':')
	if i < 0 {
		return tcpAddr{}, fmt.Errorf("cluster: address %q: missing port", s)
	}
	host, port := s[:i], s[i+1:]
	var a tcpAddr
	if port != "" {
		p, err := strconv.ParseUint(port, 10, 16)
		if err != nil {
			return tcpAddr{}, fmt.Errorf("cluster: address %q: bad port %q", s, port)
		}
		a.port = uint16(p)
	}
	bracketed := strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]")
	if bracketed {
		host = host[1 : len(host)-1]
	}
	if host == "" && !bracketed {
		return a, nil
	}
	ip, err := netip.ParseAddr(host)
	if err != nil || ip.Zone() != "" || ip.Is6() != bracketed {
		return tcpAddr{}, fmt.Errorf("cluster: address %q: host %q is not an IP literal (names are resolved by the command line)", s, host)
	}
	a.ip = ip
	return a, nil
}

// String formats a so that parseAddr reads it back.
func (a tcpAddr) String() string {
	if !a.ip.IsValid() {
		return ":" + strconv.Itoa(int(a.port))
	}
	return netip.AddrPortFrom(a.ip, a.port).String()
}
