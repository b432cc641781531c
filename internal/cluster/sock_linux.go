//go:build linux

package cluster

import (
	"errors"
	"fmt"
	"net/netip"
	"os"
	"syscall"
	"time"
)

// TCP on raw sockets, without package net (which links runtime/cgo, and so
// libc, for its resolver). A non-blocking socket wrapped in os.NewFile is a
// pollable *os.File: Read, Write, Close and the deadlines run on the same
// runtime poller as a net.Conn's. What net did for us is done here:
// TCP_NODELAY and keep-alive on both ends of a stream (without NODELAY,
// Nagle and delayed ACKs add ~40 ms to each lockstep RPC), SO_REUSEADDR on
// a listener, the wait for a non-blocking connect, and the accept retry.

const (
	keepAliveSecs = 15   // idle before the first probe, and between probes: net's defaults
	backlog       = 4096 // the kernel caps it at net.core.somaxconn
)

// sockListener is a listening socket on the poller.
type sockListener struct {
	f    *os.File
	addr string
}

// listenTCP listens on addr. An empty host listens on every interface, over
// IPv6 and IPv4 at once where the host has IPv6, as net does.
func listenTCP(addr string) (listener, error) {
	a, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	fd, sa, err := newSocket(a, true)
	if err != nil {
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	if err = syscall.SetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_REUSEADDR, 1); err == nil {
		if err = syscall.Bind(fd, sa); err == nil {
			err = syscall.Listen(fd, backlog)
		}
	}
	if err == nil {
		sa, err = syscall.Getsockname(fd)
	}
	if err != nil {
		syscall.Close(fd)
		return nil, fmt.Errorf("listen %s: %w", addr, err)
	}
	return &sockListener{f: os.NewFile(uintptr(fd), "tcp-listener"), addr: sockaddrString(sa)}, nil
}

// Accept waits for the next stream, under the listener's deadline. Accept4
// runs inside the poller's read wait: EAGAIN waits for readiness, EINTR and
// a connection aborted before it was taken retry at once.
func (l *sockListener) Accept() (stream, error) {
	rc, err := l.f.SyscallConn()
	if err != nil {
		return nil, err
	}
	nfd := -1
	var aerr error
	err = rc.Read(func(fd uintptr) bool {
		for {
			nfd, _, aerr = syscall.Accept4(int(fd), syscall.SOCK_NONBLOCK|syscall.SOCK_CLOEXEC)
			if aerr != syscall.EINTR && aerr != syscall.ECONNABORTED {
				return aerr != syscall.EAGAIN
			}
		}
	})
	if err == nil {
		err = aerr
	}
	if err != nil {
		return nil, fmt.Errorf("accept %s: %w", l.addr, os.NewSyscallError("accept4", err))
	}
	if err := streamOptions(nfd); err != nil {
		syscall.Close(nfd)
		return nil, fmt.Errorf("accept %s: %w", l.addr, err)
	}
	return os.NewFile(uintptr(nfd), "tcp"), nil
}

func (l *sockListener) Close() error                  { return l.f.Close() }
func (l *sockListener) SetDeadline(t time.Time) error { return l.f.SetDeadline(t) }
func (l *sockListener) Addr() string                  { return l.addr }

// dialTCP connects to addr within timeout. The connect is non-blocking and
// waited for through the poller under a write deadline; a refusal comes
// back as soon as the kernel has it. The wait's callback reads SO_ERROR and
// the peer's name on every call, the first included: RawConn.Write clears
// the write-ready state before it, so a connect that completed before the
// socket was registered shows only there.
func dialTCP(addr string, timeout time.Duration) (stream, error) {
	a, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	fd, sa, err := newSocket(a, false)
	if err == nil {
		if err = streamOptions(fd); err != nil {
			syscall.Close(fd)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	switch err = syscall.Connect(fd, sa); err {
	case nil, syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
	default:
		syscall.Close(fd)
		return nil, fmt.Errorf("dial %s: %w", addr, os.NewSyscallError("connect", err))
	}
	f := os.NewFile(uintptr(fd), "tcp")
	rc, err := f.SyscallConn()
	if err == nil {
		f.SetWriteDeadline(time.Now().Add(timeout))
		var cerr error
		err = rc.Write(func(fd uintptr) bool {
			cerr = connected(int(fd))
			return cerr != errConnecting
		})
		if err == nil {
			err = cerr
		}
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("dial %s: %w", addr, os.NewSyscallError("connect", err))
	}
	f.SetWriteDeadline(time.Time{})
	return f, nil
}

// errConnecting is connected's "not yet".
var errConnecting = errors.New("connect in progress")

// connected reports how a non-blocking connect on fd stands: nil once it
// is established, errConnecting while it is under way, else its error.
func connected(fd int) error {
	n, err := syscall.GetsockoptInt(fd, syscall.SOL_SOCKET, syscall.SO_ERROR)
	if err != nil {
		return err
	}
	switch e := syscall.Errno(n); e {
	case 0, syscall.EISCONN:
		if _, err := syscall.Getpeername(fd); err != nil {
			return errConnecting // no error and no peer yet: still connecting
		}
		return nil
	case syscall.EINPROGRESS, syscall.EALREADY, syscall.EINTR:
		return errConnecting
	default:
		return e
	}
}

// newSocket opens a non-blocking, close-on-exec TCP socket for a and
// returns it with the address to bind or connect it to. A wildcard
// listener is IPv6 and dual-stack where the host has IPv6, as net's is,
// else IPv4; a wildcard dial reaches this host over IPv4.
func newSocket(a tcpAddr, listen bool) (int, syscall.Sockaddr, error) {
	const flags = syscall.SOCK_STREAM | syscall.SOCK_NONBLOCK | syscall.SOCK_CLOEXEC
	if !a.ip.IsValid() && listen {
		if fd, err := syscall.Socket(syscall.AF_INET6, flags, syscall.IPPROTO_TCP); err == nil {
			if syscall.SetsockoptInt(fd, syscall.IPPROTO_IPV6, syscall.IPV6_V6ONLY, 0) == nil {
				return fd, &syscall.SockaddrInet6{Port: int(a.port)}, nil
			}
			syscall.Close(fd)
		}
	}
	family, sa := syscall.AF_INET, syscall.Sockaddr(&syscall.SockaddrInet4{Port: int(a.port)})
	if a.ip.Is6() {
		family, sa = syscall.AF_INET6, &syscall.SockaddrInet6{Port: int(a.port), Addr: a.ip.As16()}
	} else if a.ip.IsValid() {
		sa.(*syscall.SockaddrInet4).Addr = a.ip.As4()
	}
	fd, err := syscall.Socket(family, flags, syscall.IPPROTO_TCP)
	return fd, sa, os.NewSyscallError("socket", err)
}

// streamOptions sets what net sets on every TCP stream it dials or
// accepts: no Nagle delay, and keep-alive probes.
func streamOptions(fd int) error {
	for _, o := range [...]struct{ level, opt, v int }{
		{syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1},
		{syscall.SOL_SOCKET, syscall.SO_KEEPALIVE, 1},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPIDLE, keepAliveSecs},
		{syscall.IPPROTO_TCP, syscall.TCP_KEEPINTVL, keepAliveSecs},
	} {
		if err := syscall.SetsockoptInt(fd, o.level, o.opt, o.v); err != nil {
			return os.NewSyscallError("setsockopt", err)
		}
	}
	return nil
}

// sockaddrString formats a kernel-reported address as parseAddr reads it.
func sockaddrString(sa syscall.Sockaddr) string {
	switch sa := sa.(type) {
	case *syscall.SockaddrInet4:
		return tcpAddr{netip.AddrFrom4(sa.Addr), uint16(sa.Port)}.String()
	case *syscall.SockaddrInet6:
		return tcpAddr{netip.AddrFrom16(sa.Addr), uint16(sa.Port)}.String()
	}
	return "?"
}
