package main

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"strings"
)

// resolveHosts turns the host names of -coord, -bind and -advertise into IP
// literals: cluster.Config takes literals only (its transport does not link
// the resolver), and uts-dist links package net anyway for its HTTP server.
func (o *options) resolveHosts() error {
	for _, f := range []struct {
		name string
		addr *string
		bare bool
	}{
		{"coord", &o.coord, false},
		{"bind", &o.bind, false},
		{"advertise", &o.advertise, true}, // a bare host takes the listener's port
	} {
		if *f.addr == "" {
			continue
		}
		a, err := resolveAddr(*f.addr, f.bare)
		if err != nil {
			return fmt.Errorf("uts-dist: -%s %q: %w", f.name, *f.addr, err)
		}
		*f.addr = a
	}
	return nil
}

// resolveAddr returns addr with its host resolved to an IP literal, IPv4
// first when the name has both. An empty host (the wildcard) and a literal
// pass through unchanged; with bare, addr may be a host with no port, and
// stays portless.
func resolveAddr(addr string, bare bool) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		if !bare {
			return "", err
		}
		host, port = addr, ""
	}
	if _, err := netip.ParseAddr(strings.Trim(host, "[]")); host == "" || err == nil {
		return addr, nil
	}
	ips, err := net.DefaultResolver.LookupNetIP(context.Background(), "ip", host)
	if err != nil {
		return "", err
	}
	if len(ips) == 0 {
		return "", fmt.Errorf("no address for %q", host)
	}
	ip := ips[0]
	for _, a := range ips {
		if a.Unmap().Is4() {
			ip = a.Unmap()
			break
		}
	}
	if port == "" && bare {
		return ip.String(), nil
	}
	return net.JoinHostPort(ip.String(), port), nil
}
