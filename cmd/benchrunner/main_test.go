package main

import (
	"strings"
	"testing"
)

func TestFigSelection(t *testing.T) {
	for sel, want := range map[string]int{"4,8,9,10,extra": 5, "extra": 1, " 4 , 10": 2, "8,8": 1} {
		runs, err := selected(sel)
		if err != nil || len(runs) != want {
			t.Errorf("-fig %q: %d figures (%v), want %d", sel, len(runs), err, want)
		}
	}
	// A typo is an error that lists the valid names, not a silent no-op.
	for _, sel := range []string{"fig4", "4,xtra", ""} {
		if _, err := selected(sel); err == nil || !strings.Contains(err.Error(), "valid names: 4,8,9,10,extra") {
			t.Errorf("-fig %q: err = %v", sel, err)
		}
	}
}
