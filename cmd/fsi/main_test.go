package main

import (
	"slices"
	"strings"
	"testing"

	"fastintersect"
)

// TestAlgoHelpListsEveryAlgorithm: -algo's help names every algorithm
// ParseAlgorithm accepts, so no kernel is hidden from fsi -h.
func TestAlgoHelpListsEveryAlgorithm(t *testing.T) {
	help := algoHelp()
	names := strings.Split(strings.TrimPrefix(help, "algorithm: "), ", ")
	if names[0] != "Auto" {
		t.Fatalf("help %q does not list Auto first", help)
	}
	n := 0
	for a := fastintersect.Algorithm(0); a.String() != "Algorithm(?)"; a++ {
		if got, err := fastintersect.ParseAlgorithm(a.String()); err != nil || got != a {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v; want %v", a.String(), got, err, a)
		}
		if !slices.Contains(names, a.String()) {
			t.Errorf("help %q omits %s, which ParseAlgorithm accepts", help, a)
		}
		n++
	}
	if len(names) != n {
		t.Errorf("help lists %d names, ParseAlgorithm accepts %d", len(names), n)
	}
}
