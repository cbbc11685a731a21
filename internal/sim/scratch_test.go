package sim

import (
	"testing"
	"unicode/utf8"
)

// TestEditScratchMatchesEditSimAtLeast runs every comparison through one
// reused scratch, as borrow-donor selection does, over FoldedList forms,
// and checks each against the pooled string form.
func TestEditScratchMatchesEditSimAtLeast(t *testing.T) {
	vals := append([]string{
		"Chevrolet", "Chevrolets", "Mitsubishi", "Mitsubishis", "abcdefghij",
		"abcdefghi", "München Köln", "MÜNCHEN KÖLN!", "İstanbul Airport",
	}, foldCases...)
	var fl FoldedList
	fl.Reset(vals)
	var sc EditScratch
	for i, a := range vals {
		if got := utf8.RuneCount(fl.At(i)); got != fl.Runes(i) {
			t.Fatalf("Runes(%d) = %d, want %d", i, fl.Runes(i), got)
		}
		for j, b := range vals {
			for _, th := range []float64{0, 0.5, 0.9, 1} {
				got := sc.SimAtLeastFolded(fl.At(i), fl.Runes(i), fl.At(j), fl.Runes(j), th)
				if want := EditSimAtLeast(a, b, th); got != want {
					t.Errorf("SimAtLeastFolded(%q, %q, %v) = %v, EditSimAtLeast %v", a, b, th, got, want)
				}
			}
		}
	}
}
