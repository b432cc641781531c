package main

import "testing"

func TestRankTracePath(t *testing.T) {
	for _, c := range []struct {
		path string
		rank int
		want string
	}{
		{"out.json", 0, "out.json"},
		{"out.json", 2, "out.json.rank2"},
		{"", 0, ""},
		{"", 2, ""}, // not ".rank2": a run without -trace writes no file
	} {
		if got := rankTracePath(c.path, c.rank); got != c.want {
			t.Errorf("rankTracePath(%q, %d) = %q, want %q", c.path, c.rank, got, c.want)
		}
	}
}
