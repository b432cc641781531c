package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// TestServerScrape binds port 0, scrapes /metrics over real HTTP, and
// checks the exposition — registry families, runtime gauges, OnScrape
// appenders — plus its content type and the pprof index.
func TestServerScrape(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.CounterFunc("scraped_total", "Scrapes observed.", nil, func() float64 { return 5 })
	telemetry.RegisterRuntime(reg)
	reg.OnScrape(func(w io.Writer) {
		io.WriteString(w, "# TYPE extra_gauge gauge\nextra_gauge 1\n")
	})
	srv, err := newServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text exposition 0.0.4", ct)
	}
	for _, want := range []string{
		"scraped_total 5\n",
		"# TYPE go_goroutines gauge\n",
		"go_memstats_heap_alloc_bytes",
		"extra_gauge 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if index, _ := get("/debug/pprof/"); !strings.Contains(index, "profile") {
		t.Error("pprof index not served")
	}
}
