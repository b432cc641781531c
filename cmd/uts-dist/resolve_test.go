package main

import (
	"net/netip"
	"strings"
	"testing"
)

func TestResolveAddr(t *testing.T) {
	// A name becomes a loopback literal, its port kept.
	got, err := resolveAddr("localhost:7777", false)
	if err != nil {
		t.Fatal(err)
	}
	if ap, err := netip.ParseAddrPort(got); err != nil || !ap.Addr().IsLoopback() || ap.Port() != 7777 {
		t.Errorf("localhost:7777 resolved to %q, want a loopback literal with port 7777", got)
	}
	// A bare advertise host stays portless: the listener fills the port in.
	got, err = resolveAddr("localhost", true)
	if err != nil {
		t.Fatal(err)
	}
	if ip, err := netip.ParseAddr(got); err != nil || !ip.IsLoopback() {
		t.Errorf("bare localhost resolved to %q, want a portless loopback literal", got)
	}
	// Literals and the wildcard pass through unchanged.
	for _, c := range []struct {
		addr string
		bare bool
	}{
		{"10.0.0.1:7777", false}, {"[::1]:0", false}, {":7800", false},
		{"0.0.0.0:0", false}, {"10.0.0.2", true}, {"10.0.0.2:7800", true},
		{"::1", true}, {"10.0.0.2:", false},
	} {
		if got, err := resolveAddr(c.addr, c.bare); err != nil || got != c.addr {
			t.Errorf("resolveAddr(%q, %v) = %q, %v; want it unchanged", c.addr, c.bare, got, err)
		}
	}
	// A host with no port is an error where a port is required.
	if _, err := resolveAddr("localhost", false); err == nil {
		t.Error("portless -coord accepted")
	}
}

func TestResolveHosts(t *testing.T) {
	o := options{coord: "localhost:7777", advertise: "localhost"}
	if err := o.resolveHosts(); err != nil {
		t.Fatal(err)
	}
	if o.coord == "localhost:7777" || o.advertise == "localhost" || o.bind != "" {
		t.Errorf("resolved to coord %q, bind %q, advertise %q", o.coord, o.bind, o.advertise)
	}
	o = options{coord: "10.0.0.1"} // no port: nothing is looked up
	if err := o.resolveHosts(); err == nil || !strings.Contains(err.Error(), "-coord") {
		t.Errorf("portless -coord: %v, want an error naming the flag", err)
	}
}
