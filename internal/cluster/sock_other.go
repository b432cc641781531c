//go:build !linux

package cluster

import (
	"net"
	"time"
)

// TCP over package net, where the raw sockets of sock_linux.go (SOCK_NONBLOCK,
// Accept4) do not exist. net sets NODELAY and keep-alive itself. The address
// is parsed first, so a host name is refused here as on Linux.

type netListener struct{ *net.TCPListener }

func listenTCP(addr string) (listener, error) {
	a, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", a.String())
	if err != nil {
		return nil, err
	}
	return netListener{ln.(*net.TCPListener)}, nil
}

func (l netListener) Accept() (stream, error) { return l.TCPListener.Accept() }
func (l netListener) Addr() string            { return l.TCPListener.Addr().String() }

func dialTCP(addr string, timeout time.Duration) (stream, error) {
	a, err := parseAddr(addr)
	if err != nil {
		return nil, err
	}
	return net.DialTimeout("tcp", a.String(), timeout)
}
