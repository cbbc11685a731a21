package sim

import "unicode/utf8"

// FoldedList stores the case-folded forms of a list of values — each
// fold(v) plus its rune count — in one reusable arena. Callers that
// compare every value of one list against every value of another
// (borrow-donor selection is the hot case) fold each side once instead
// of once per pair, and the precomputed rune counts make the
// length-difference cut of EditScratch.SimAtLeastFolded O(1).
type FoldedList struct {
	arena []byte
	offs  []int
	runes []int
}

// Reset replaces the list contents with the folded forms of vs,
// reusing the arena across calls.
func (fl *FoldedList) Reset(vs []string) {
	fl.arena = fl.arena[:0]
	fl.offs = append(fl.offs[:0], 0)
	fl.runes = fl.runes[:0]
	for _, v := range vs {
		n := len(fl.arena)
		fl.arena = foldAppend(fl.arena, v)
		fl.offs = append(fl.offs, len(fl.arena))
		fl.runes = append(fl.runes, utf8.RuneCount(fl.arena[n:]))
	}
}

// Len reports the number of values in the list.
func (fl *FoldedList) Len() int { return len(fl.runes) }

// At returns the folded form of the i-th value. The slice aliases the
// arena: it is valid until the next Reset and must not be mutated.
func (fl *FoldedList) At(i int) []byte { return fl.arena[fl.offs[i]:fl.offs[i+1]] }

// Runes returns the rune count of the i-th folded value.
func (fl *FoldedList) Runes(i int) int { return fl.runes[i] }

// EditScratch holds the edit-distance buffers of a caller that runs
// many comparisons in a row — borrow-donor selection scans every value
// pair of two lists — so the whole scan shares one scratch instead of
// taking one from the pool per pair. The zero value is ready to use; a
// scratch is not safe for concurrent use.
type EditScratch struct{ sc editScratch }

// SimAtLeastFolded is EditSimAtLeast over pre-folded values: it returns
// exactly EditSimAtLeast(a, b, t) when fa = fold(a) with rune count la
// and fb = fold(b) with rune count lb (as produced by FoldedList).
func (e *EditScratch) SimAtLeastFolded(fa []byte, la int, fb []byte, lb int, t float64) bool {
	return e.sc.foldedSimAtLeast(fa, la, fb, lb, t)
}
